//! `serve_mixed`: two closed-loop clients against an in-process daemon.

use crate::check::{self, median, peak_rss_mb, percentile, reset_peak_rss};
use crate::layers::{self, Recorder, Recording};
use crate::metrics::Outcome;
use crate::Args;
use bioseq::{fasta, Msa};
use rosegen::{Family, FamilyConfig};
use sad_core::{Aligner, Backend, SadConfig};
use sad_serve::digest::payload;
use sad_serve::{Client, Json, ServeHarness, Submitted};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use vcluster::{CostModel, VirtualCluster};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Every `REPEAT_EVERY`-th submission of a client resubmits one of its
/// earlier families.
const REPEAT_EVERY: usize = 4;
/// Fresh families per client scored for quality (a fixed, seed-determined
/// set, whatever the run's speed).
const QUALITY_JOBS: usize = 16;
/// Fresh families run on the 16-node virtual cluster for `makespan16_s`.
const MAKESPAN_JOBS: usize = 16;
/// `peak_rss_mb` is read when this many jobs have completed: the daemon's
/// cache grows with every job, so a fixed amount of work keeps the figure
/// from following the run's throughput.
const PEAK_JOBS: usize = 1000;
const SETUP_REPS: usize = 5;
const RESTART_REPS: usize = 9;
const PATIENCE: Duration = Duration::from_secs(60);

/// A job family: 24 sequences of mean length 150, like `serve_throughput`.
fn family(seed: u64, client: usize, k: usize) -> Family {
    Family::generate(&FamilyConfig {
        n_seqs: 24,
        avg_len: 150,
        relatedness: 700.0,
        seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((client as u64) << 32 | k as u64),
        id_prefix: format!("c{client}f{k}-"),
        ..Default::default()
    })
}

/// One submission as its client saw it, with the verdict of the checks
/// on its answer.
struct Job {
    repeat: bool,
    submit: Instant,
    accepted: Instant,
    started: Option<Instant>,
    result: Instant,
    checked: Result<(), String>,
}

/// One client's closed loop: its jobs, and the served MSAs of its first
/// `QUALITY_JOBS` fresh families.
struct ClientRun {
    jobs: Vec<Job>,
    scored: Vec<(Family, Msa)>,
}

/// Check one `result` event against the submitted family: the `cached`
/// flag, the digest of the served bytes, the MSA itself, and for a repeat
/// the digest of the family's first answer.
fn check_answer(
    r: &Json,
    repeat: bool,
    fam: &Family,
    first: Option<&str>,
) -> Result<(String, Msa), String> {
    let field = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or("");
    let cached = r.get("cached").and_then(Json::as_bool).unwrap_or(false);
    let (digest, text) = (field("digest"), field("fasta"));
    if cached != repeat {
        return Err(format!("cached = {cached} on a repeat = {repeat} job"));
    }
    if digest != payload(text) {
        return Err("served digest does not match the served FASTA".into());
    }
    if first.is_some_and(|d| d != digest) {
        return Err("repeat answered with another digest".into());
    }
    let msa = fasta::parse_alignment(text).map_err(|e| e.to_string())?;
    check::validate(&msa, &fam.seqs)?;
    Ok((digest.to_string(), msa))
}

/// Jobs completed by all clients, and the process's peak memory when the
/// count reached `PEAK_JOBS`.
#[derive(Default)]
struct Progress {
    done: AtomicUsize,
    peak_rss_mb: OnceLock<f64>,
}

/// One client's closed loop until `deadline`. Answers are checked as they
/// arrive, and repeats regenerate their family from the seed, so the
/// client holds no per-job payloads.
fn client_loop(
    mut client: Client,
    seed: u64,
    id: usize,
    deadline: Instant,
    traced: bool,
    progress: &Progress,
) -> ClientRun {
    let mut run = ClientRun { jobs: Vec::new(), scored: Vec::new() };
    // Digest of the first answer of each fresh family, by family index.
    let mut digests: Vec<String> = Vec::new();
    let mut pick = seed ^ (id as u64).wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
    let mut i = 0;
    while Instant::now() < deadline {
        let repeat = i % REPEAT_EVERY == REPEAT_EVERY - 1;
        let k = if repeat {
            pick ^= pick << 13;
            pick ^= pick >> 7;
            pick ^= pick << 17;
            (pick % digests.len() as u64) as usize
        } else {
            digests.len()
        };
        let fam = family(seed, id, k);
        let text = fasta::write(&fam.seqs);
        let submit = Instant::now();
        let job = match client.submit(Some(&format!("c{id}-{i}")), 0, &text) {
            Ok(Submitted::Accepted { job }) => job,
            other => {
                let now = Instant::now();
                let checked = Err(format!("submission not accepted: {other:?}"));
                let (accepted, started, result) = (now, None, now);
                run.jobs.push(Job { repeat, submit, accepted, started, result, checked });
                break;
            }
        };
        let accepted = Instant::now();
        let started = (traced && !repeat).then(|| {
            let _ = client.wait_event(PATIENCE, |e| {
                e.get("job").and_then(Json::as_str) == Some(job.as_str())
                    && e.get("event").and_then(Json::as_str) == Some("started")
            });
            Instant::now()
        });
        let answer = client.wait_result(&job, PATIENCE).map_err(|e| e.to_string());
        let result = Instant::now();
        let checked = answer.and_then(|r| {
            let (digest, msa) = check_answer(&r, repeat, &fam, digests.get(k).map(String::as_str))?;
            if !repeat {
                digests.push(digest);
                if k < QUALITY_JOBS {
                    run.scored.push((fam, msa));
                }
            }
            Ok(())
        });
        let failed_fresh = !repeat && checked.is_err();
        run.jobs.push(Job { repeat, submit, accepted, started, result, checked });
        if progress.done.fetch_add(1, Ordering::Relaxed) + 1 == PEAK_JOBS {
            let _ = progress.peak_rss_mb.set(peak_rss_mb());
        }
        if failed_fresh {
            break; // later repeats would pick a family without a first answer
        }
        i += 1;
    }
    run
}

/// A closed-loop session on a fresh daemon: each client's run, the loop's
/// wall seconds, and the harness (still running).
struct Session {
    seed: u64,
    harness: ServeHarness,
    runs: Vec<ClientRun>,
    loop_s: f64,
    /// Peak memory after `PEAK_JOBS` jobs (or at the end of a shorter loop).
    peak_rss_mb: f64,
}

impl Session {
    fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.runs.iter().flat_map(|r| &r.jobs)
    }

    /// Served MSAs of the first fresh families of each client.
    fn scored(&self) -> impl Iterator<Item = &(Family, Msa)> {
        self.runs.iter().flat_map(|r| &r.scored)
    }

    /// Client 0's first fresh families (a seed-determined set).
    fn first_families(&self, count: usize) -> Vec<Family> {
        (0..count).map(|k| family(self.seed, 0, k)).collect()
    }
}

fn start_daemon() -> (ServeHarness, Vec<Client>) {
    let h = ServeHarness::new("serve_mixed").workers(WORKERS).start();
    let clients = (0..CLIENTS).map(|_| h.client()).collect();
    (h, clients)
}

fn session(seed: u64, seconds: Duration, traced: bool, setups: &mut Vec<f64>) -> Session {
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let daemon = start_daemon();
        setups.push(t.elapsed().as_secs_f64());
        if let Some((mut old, _)) = ready.replace(daemon) {
            let _ = old.shutdown();
            let _ = std::fs::remove_dir_all(old.dir());
        }
    }
    let (harness, clients) = ready.expect("at least one set-up");
    let start = Instant::now();
    let deadline = start + seconds;
    let progress = Progress::default();
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(id, c)| {
                let progress = &progress;
                s.spawn(move || client_loop(c, seed, id, deadline, traced, progress))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let loop_s = start.elapsed().as_secs_f64();
    let peak = progress.peak_rss_mb.get().copied().unwrap_or_else(peak_rss_mb);
    Session { seed, harness, runs, loop_s, peak_rss_mb: peak }
}

/// Count every job as an operation and check the server's counters;
/// returns (fresh latencies, hit latencies) in seconds.
fn check_jobs(s: &Session, out: &mut Outcome) -> (Vec<f64>, Vec<f64>) {
    let stats = s.harness.server().stats();
    let submitted = s.jobs().count();
    let repeats = s.jobs().filter(|j| j.repeat).count();
    if stats.completed != submitted || stats.failed != 0 || stats.cache_hits != repeats {
        out.fail(format!(
            "server stats {stats:?} for {submitted} submissions with {repeats} repeats"
        ));
    }
    let (mut fresh, mut hits) = (Vec::new(), Vec::new());
    for job in s.jobs() {
        if job.checked.is_ok() {
            if job.repeat { &mut hits } else { &mut fresh }
                .push((job.result - job.submit).as_secs_f64());
        }
        out.op(job.checked.clone());
    }
    (fresh, hits)
}

/// Restart the daemon on the session's journal until a resubmission is
/// accepted, `RESTART_REPS` times. Returns the restart seconds.
fn restarts(s: &mut Session, out: &mut Outcome) -> Vec<f64> {
    let text = fasta::write(&s.first_families(1)[0].seqs);
    let mut secs = Vec::new();
    for rep in 0..RESTART_REPS {
        let _ = s.harness.shutdown();
        let t = Instant::now();
        s.harness.restart();
        let mut c = s.harness.client();
        let accepted = c.submit(Some(&format!("restart-{rep}")), 0, &text);
        secs.push(t.elapsed().as_secs_f64());
        let rec = s.harness.recovery();
        out.op(match accepted {
            Ok(Submitted::Accepted { job }) => c
                .wait_result(&job, PATIENCE)
                .map_err(|e| e.to_string())
                .and_then(|r| match r.get("cached").and_then(|v| v.as_bool()) {
                    Some(true) if rec.requeued.is_empty() && rec.reran.is_empty() => Ok(()),
                    _ => Err(format!(
                        "restart {rep}: resubmission not cached (requeued {}, reran {})",
                        rec.requeued.len(),
                        rec.reran.len()
                    )),
                }),
            other => Err(format!("restart {rep}: resubmission not accepted: {other:?}")),
        });
    }
    secs
}

/// The 16-node virtual makespan of the first fresh families; their traces
/// feed the `vcluster.*` layer metrics.
fn makespans(s: &Session, out: &mut Outcome) -> (Vec<f64>, Vec<vcluster::RankTrace>) {
    let (mut spans, mut traces) = (Vec::new(), Vec::new());
    for fam in s.first_families(MAKESPAN_JOBS) {
        let r = Aligner::new(SadConfig::default())
            .backend(Backend::Distributed(VirtualCluster::new(16, CostModel::beowulf_2008())))
            .run(&fam.seqs);
        out.op(match r {
            Ok(r) => {
                spans.push(r.makespan().unwrap_or(0.0));
                traces.extend(r.traces().unwrap_or_default().iter().cloned());
                check::validate(&r.msa, &fam.seqs)
            }
            Err(e) => Err(format!("distributed run failed: {e}")),
        });
    }
    (spans, traces)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    reset_peak_rss();
    if args.trace {
        traced(args, &mut out);
        return out;
    }
    let mut setups = Vec::new();
    let mut s = session(args.seed, args.seconds, false, &mut setups);
    let (fresh, _) = check_jobs(&s, &mut out);
    let submitted = s.jobs().count();
    // Restarts are part of the correctness gate; their latency is a
    // per-layer metric (`serve.restart_s`).
    let _ = restarts(&mut s, &mut out);
    let (spans, _) = makespans(&s, &mut out);

    let k = s.scored().count().max(1) as f64;
    let (mut q_ref, mut pair_q, mut width) = (0.0, 0.0, 0.0);
    for (fam, msa) in s.scored() {
        let ids: Vec<&str> = fam.seqs.iter().map(|s| s.id.as_str()).collect();
        let q = check::quality(msa, &fam.reference, &ids);
        q_ref += q.q_pooled / k;
        pair_q += q.q_pair_mean / k;
        width += msa.num_cols() as f64 / fam.reference.num_cols() as f64 / k;
    }
    let _ = s.harness.shutdown();
    let _ = std::fs::remove_dir_all(s.harness.dir());

    out.set("setup_s", median(&setups));
    out.set("seqs_per_s", 24.0 * submitted as f64 / s.loop_s);
    out.set("q_ref", q_ref);
    out.set("makespan16_s", spans.iter().sum::<f64>() / spans.len().max(1) as f64);
    out.set("pair_q", pair_q);
    out.set("width_ratio", width);
    out.set("peak_rss_mb", s.peak_rss_mb);
    out.set("jobs_per_s", submitted as f64 / s.loop_s);
    out.set("job_p50_ms", 1e3 * median(&fresh));
    out.set("job_p95_ms", 1e3 * percentile(&fresh, 95.0));
    eprintln!(
        "perfbench: {submitted} jobs ({} fresh, {} repeats) in {:.2} s; {} fresh samples beyond p95",
        fresh.len(),
        submitted - fresh.len(),
        s.loop_s,
        fresh.len() - (0.95 * fresh.len() as f64).ceil() as usize
    );
    out
}

/// Traced serve run: an untraced and a traced half-length session, the
/// client-event layer split, the sequential pipeline the daemon runs
/// (observed in-process on the same families) and the storage probes.
fn traced(args: &Args, out: &mut Outcome) {
    let half = args.seconds / 2;
    let mut setups = Vec::new();
    let mut plain = session(args.seed, half, false, &mut setups);
    let _ = check_jobs(&plain, out);
    let plain_rate = plain.jobs().count() as f64 / plain.loop_s;
    let _ = plain.harness.shutdown();
    let _ = std::fs::remove_dir_all(plain.harness.dir());

    let mut s = session(args.seed, half, true, &mut setups);
    let (_, hits) = check_jobs(&s, out);
    let traced_rate = s.jobs().count() as f64 / s.loop_s;
    let stats = s.harness.server().stats();
    let designed = s.jobs().filter(|j| j.repeat).count();
    let (mut accept, mut wait, mut run) = (Vec::new(), Vec::new(), Vec::new());
    for job in s.jobs().filter(|j| !j.repeat && j.checked.is_ok()) {
        let started = job.started.unwrap_or(job.accepted);
        accept.push(1e3 * (job.accepted - job.submit).as_secs_f64());
        wait.push(1e3 * (started - job.accepted).as_secs_f64());
        run.push(1e3 * (job.result - started).as_secs_f64());
    }
    out.set("serve.accept_ms", median(&accept));
    out.set("serve.queue_wait_ms", median(&wait));
    out.set("serve.run_ms", median(&run));
    out.set("serve.hit_p50_ms", 1e3 * median(&hits));
    out.set("serve.cache.hit_ratio", stats.cache_hits as f64 / designed.max(1) as f64);
    let journal = s.harness.journal_path();
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len()) as f64;
    out.set("serve.journal.bytes", journal_bytes / stats.accepted.max(1) as f64);
    let t = Instant::now();
    let replayed = sad_serve::journal::replay(&journal);
    out.set("serve.replay_s", t.elapsed().as_secs_f64());
    if replayed.is_err() {
        out.fail("the session journal does not replay");
    }

    // The daemon's own pipeline (sequential engine) on the first
    // families, observed in-process; half-size families for exponents.
    let fams = s.first_families(MAKESPAN_JOBS);
    let (mut recs, mut halves, mut last) = (Vec::new(), Vec::new(), None);
    for fam in &fams {
        for (seqs, recs) in [(&fam.seqs[..], &mut recs), (&fam.seqs[..12], &mut halves)] {
            let recorder = Arc::new(Recorder::default());
            let aligner = Aligner::new(SadConfig::default())
                .backend(Backend::Sequential)
                .observer(recorder.clone());
            let t = Instant::now();
            let r = aligner.run(seqs);
            recs.push(recorder.take(t.elapsed().as_secs_f64()));
            out.op(r.map_err(|e| e.to_string()).and_then(|r| {
                let checked = check::validate(&r.msa, seqs);
                last = Some(r);
                checked
            }));
        }
    }
    let seqs: Vec<_> = fams.iter().flat_map(|f| f.seqs.iter().cloned()).collect();
    let kmer = layers::kmer_probe(&seqs, &SadConfig::default(), WORKERS);
    let cells_per_s = layers::dp_probe(&seqs, &SadConfig::default());
    layers::probe_metrics(out, &kmer, cells_per_s);
    if let Some(report) = &last {
        layers::core_metrics(
            out,
            &Recording::mean(&recs),
            &Recording::mean(&halves),
            report,
            1,
            cells_per_s,
        );
    }
    let texts: Vec<String> = fams.iter().map(|f| fasta::write(&f.seqs)).collect();
    let results: Vec<String> = s.scored().map(|(_, m)| fasta::write_alignment(m)).collect();
    let store = layers::store_probe(
        &crate::work_dir(),
        &texts.iter().map(String::as_str).collect::<Vec<_>>(),
        &results.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    out.set("serve.journal.append_ms", store.append_ms);
    out.set("serve.cache.get_us", store.get_us);
    let (_, traces) = makespans(&s, out);
    layers::vcluster_metrics(out, &traces);
    let restart = restarts(&mut s, out);
    out.set("serve.restart_s", median(&restart));

    // The daemon runs the sequential engine: its quality is the
    // sequential baseline and there is no speed-up to compare.
    let q_seq = s
        .scored()
        .map(|(f, m)| {
            let ids: Vec<&str> = f.seqs.iter().map(|s| s.id.as_str()).collect();
            check::quality(m, &f.reference, &ids).q_pooled
        })
        .sum::<f64>()
        / s.scored().count().max(1) as f64;
    out.set("q_seq", q_seq);
    out.set("speedup_vs_seq", 1.0);
    let overhead = plain_rate / traced_rate - 1.0;
    out.set("trace.overhead_frac", overhead);
    let _ = s.harness.shutdown();
    let _ = std::fs::remove_dir_all(s.harness.dir());
    eprintln!(
        "perfbench: serve layers (medians over {} fresh jobs): accept {:.3} ms, queue wait {:.3} \
         ms, run {:.3} ms; submit->result {:.3} ms; tracing overhead {:+.2}%",
        accept.len(),
        median(&accept),
        median(&wait),
        median(&run),
        median(&accept) + median(&wait) + median(&run),
        100.0 * overhead
    );
}
