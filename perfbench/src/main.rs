//! The repository benchmark: one command, three workloads, every output
//! checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload family_2k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! * `family_2k` — the paper's headline problem (2000 ROSE sequences of
//!   length ~300) through `sad_core::Aligner` on rayon with 16 buckets,
//!   plus one 16-node run on the virtual cluster.
//! * `reads_10k` — the Pyro-Align read workload (10 000 simulated reads,
//!   bucket cap 512) exactly as `sad reads` aligns it.
//! * `serve_mixed` — two closed-loop clients against an in-process
//!   `sad_serve` daemon, a quarter of the submissions repeats.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics and a layer reconciliation report on stderr. The last stdout
//! line is always one JSON object `{correct, attempted, failed, metrics}`;
//! the exit code is non-zero when any correctness check failed.
//! `--manifest` prints the `BENCHMARK.json` this binary satisfies. See
//! `perfbench/README.md` for the workloads, the metrics and the layer map.

mod aligners;
mod check;
mod layers;
mod metrics;
mod serve;

use metrics::{Outcome, END_TO_END};
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --manifest",
        metrics::WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--manifest" {
            print!("{}", metrics::manifest());
            std::process::exit(0);
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" if metrics::WORKLOADS.iter().any(|(n, _)| *n == value) => {
                workload = Some(value)
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(s), Some(trace)) => {
            Args { workload, seed, seconds: Duration::from_secs_f64(s), trace }
        }
        _ => usage(),
    }
}

/// Scratch space for journals and served outputs, inside the working
/// directory the benchmark runs from; removed when the run ends.
pub fn work_dir() -> PathBuf {
    std::env::current_dir()
        .expect("working directory")
        .join(".bench_work")
        .join(std::process::id().to_string())
}

/// Commit the file system's pending metadata (an fsync of a directory
/// commits the whole journal transaction on ext4), so the journal fsyncs
/// the serve layers time do not pay for file churn left by an earlier run.
fn settle_disk(dir: &std::path::Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Logical CPUs this process may use, and CPUs the host has.
fn cpu_counts() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = std::fs::read_to_string("/proc/cpuinfo")
        .map(|t| t.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    (nproc, host.max(nproc))
}

fn main() {
    let args = parse_args();
    let dir = work_dir();
    std::fs::create_dir_all(&dir).expect("create work dir");
    settle_disk(&dir);
    // The serve harness roots its journals under the temp directory; keep
    // them inside the benchmark's own scratch space.
    std::env::set_var("TMPDIR", &dir);
    let (nproc, host) = cpu_counts();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {nproc} host_cores {host}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );

    let outcome: Outcome = match args.workload.as_str() {
        "family_2k" => aligners::run(aligners::Spec::family_2k(args.seed), &args),
        "reads_10k" => aligners::run(aligners::Spec::reads_10k(args.seed), &args),
        "serve_mixed" => serve::run(&args),
        _ => unreachable!("workload validated while parsing"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        settle_disk(parent);
        let _ = std::fs::remove_dir(parent); // only if no other run is using it
    }

    let layers = metrics::per_layer();
    let expected: Vec<&str> = if args.trace {
        layers.iter().map(|(name, ..)| name.as_str()).collect()
    } else {
        END_TO_END.iter().map(|(name, ..)| *name).collect()
    };
    let mut outcome = outcome;
    let line = outcome.finish(&expected);
    println!("{line}");
    if !outcome.correct() {
        std::process::exit(1);
    }
}
