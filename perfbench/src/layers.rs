//! Per-layer measurement: a recording `Observer`, timed direct calls into
//! the lower crates, and the reconciliation report of a traced run.

use crate::check::median;
use crate::metrics::{Outcome, PHASES};
use align::dp::DpArena;
use align::pairwise::global_align_with_kernel;
use bioseq::kmer::{centralized_ranks, globalized_ranks, KmerProfile};
use bioseq::{Sequence, Work};
use sad_core::{Event, Observer, Phase, RunReport, SadConfig};
use sad_serve::cache::{CachedResult, ResultCache};
use sad_serve::journal::{self, Journal, JournalEntry};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// What a recording observer saw during one run.
#[derive(Default, Clone)]
pub struct Recording {
    /// `(phase, work, wall seconds)` per finished phase.
    pub phases: Vec<(Phase, Work, f64)>,
    /// Seconds of every `BucketAligned` event.
    pub buckets: Vec<f64>,
    /// `Aligner::run` wall seconds, measured around the call.
    pub run_s: f64,
}

impl Recording {
    fn phase(&self, label: &str) -> (Work, f64) {
        self.phases
            .iter()
            .filter(|(p, ..)| p.name() == label)
            .fold((Work::ZERO, 0.0), |(w, s), (_, pw, ps)| (w + *pw, s + ps))
    }

    fn phase_wall_sum(&self) -> f64 {
        self.phases.iter().map(|(.., s)| s).sum()
    }

    /// Component-wise mean of several recordings (one per job).
    pub fn mean(recs: &[Recording]) -> Recording {
        let k = recs.len().max(1) as f64;
        let mut out = Recording::default();
        for label in PHASES {
            let (mut work, mut secs) = (Work::ZERO, 0.0);
            for r in recs {
                let (w, s) = r.phase(label);
                work += w;
                secs += s;
            }
            if let Some(phase) = Phase::from_name(label).filter(|_| !work.is_zero() || secs > 0.0) {
                out.phases.push((phase, scale(work, 1.0 / k), secs / k));
            }
        }
        out.buckets = recs.iter().flat_map(|r| r.buckets.iter().map(|s| s / k)).collect();
        out.run_s = recs.iter().map(|r| r.run_s).sum::<f64>() / k;
        out
    }
}

fn scale(w: Work, f: f64) -> Work {
    let s = |x: u64| (x as f64 * f).round() as u64;
    Work {
        dp_cells: s(w.dp_cells),
        dp_cells_full: s(w.dp_cells_full),
        kmer_ops: s(w.kmer_ops),
        sort_ops: s(w.sort_ops),
        tree_ops: s(w.tree_ops),
        col_ops: s(w.col_ops),
        seq_bytes: s(w.seq_bytes),
    }
}

/// The benchmark's observer: records finished phases with their work and
/// the seconds of every aligned bucket.
#[derive(Default)]
pub struct Recorder(Mutex<Recording>);

impl Observer for Recorder {
    fn on_event(&self, event: &Event) {
        let mut rec = self.0.lock().expect("observer lock poisoned by a panicking pipeline thread");
        match event {
            Event::PhaseFinished { phase, work, seconds } => {
                rec.phases.push((*phase, *work, *seconds))
            }
            Event::BucketAligned { seconds, .. } => rec.buckets.push(*seconds),
            _ => {}
        }
    }
}

impl Recorder {
    pub fn take(&self, run_s: f64) -> Recording {
        let mut rec = std::mem::take(
            &mut *self.0.lock().expect("observer lock poisoned by a panicking pipeline thread"),
        );
        rec.run_s = run_s;
        rec
    }
}

/// Timed `KmerProfile::build` plus the centralized ranks of each of `p`
/// blocks and the globalized ranks of every sequence against the pooled
/// regular samples — the rank work of steps 1–5, on one thread.
pub struct KmerProbe {
    pub busy_s: f64,
    pub kmer_ops: u64,
}

pub fn kmer_probe(seqs: &[Sequence], cfg: &SadConfig, p: usize) -> KmerProbe {
    let start = Instant::now();
    let mut work = Work::ZERO;
    let profiles: Vec<KmerProfile> = seqs
        .iter()
        .map(|s| {
            KmerProfile::build(s, cfg.kmer_k, cfg.alphabet)
                .or_else(|| KmerProfile::build(s, 1, cfg.alphabet))
                .expect("k = 1 always builds")
        })
        .collect();
    let chunk = seqs.len().div_ceil(p);
    let k = cfg.samples_for(p);
    let mut samples = Vec::new();
    for block in profiles.chunks(chunk) {
        let ranks = centralized_ranks(block, cfg.rank_transform, &mut work);
        let mut order: Vec<usize> = (0..block.len()).collect();
        order.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]));
        let (m, kk) = (block.len(), k.min(block.len()));
        samples.extend((0..kk).map(|s| block[order[((s + 1) * m / (kk + 1)).min(m - 1)]].clone()));
    }
    globalized_ranks(&profiles, &samples, cfg.rank_transform, &mut work);
    KmerProbe { busy_s: start.elapsed().as_secs_f64(), kmer_ops: work.kmer_ops }
}

/// Single-thread pairwise DP throughput on fixed pairs drawn from the
/// workload, with the kernel and band policy the pipeline is configured
/// with. Returns filled cells per second.
pub fn dp_probe(seqs: &[Sequence], cfg: &SadConfig) -> f64 {
    let n = seqs.len();
    let pairs: Vec<(usize, usize)> = (0..32.min(n / 2)).map(|k| (k, k + n / 2)).collect();
    let mut arena = DpArena::default();
    let (mut cells, start) = (0u64, Instant::now());
    while start.elapsed().as_secs_f64() < 0.25 || cells == 0 {
        for &(a, b) in &pairs {
            let pair = global_align_with_kernel(
                &seqs[a],
                &seqs[b],
                &cfg.matrix,
                cfg.gaps,
                cfg.band_policy,
                cfg.dp_kernel,
                &mut arena,
            );
            cells += pair.work.dp_cells;
        }
    }
    cells as f64 / start.elapsed().as_secs_f64()
}

/// Bytes the striped kernel moves per filled cell, computed from its data
/// layout (not measured): three `f32` score lanes read from the previous
/// row and three written (24 B), the scored substitution row written and
/// read once (8 B), and six traceback bit-planes (0.75 B).
pub const COMPUTED_BYTES_PER_CELL: f64 = 24.0 + 8.0 + 0.75;

/// Timed direct calls into the daemon's storage layers with one job's
/// real payload: `Journal::append` (with its fsync) on a scratch journal,
/// `journal::replay` of it, and `ResultCache::get` of the job's result.
pub struct StoreProbe {
    pub append_ms: f64,
    pub bytes_per_job: f64,
    pub replay_s: f64,
    pub get_us: f64,
}

pub fn store_probe(dir: &Path, fastas: &[&str], results: &[&str]) -> StoreProbe {
    let path = dir.join("probe-journal.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut j = Journal::open(&path).expect("open probe journal");
    let mut appends = Vec::new();
    for (i, fasta) in fastas.iter().cycle().take(fastas.len().max(8)).enumerate() {
        let entries = [
            JournalEntry::Accepted {
                job: format!("p{i}"),
                client: Some(0),
                priority: 0,
                input: sad_serve::digest::payload(fasta),
                fingerprint: "probe".into(),
                fasta: fasta.to_string(),
            },
            JournalEntry::Started { job: format!("p{i}") },
            JournalEntry::Finished {
                job: format!("p{i}"),
                ok: true,
                digest: Some("0".repeat(16)),
                error: None,
            },
        ];
        for e in &entries {
            let t = Instant::now();
            j.append(e).expect("append probe entry");
            appends.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let jobs = fastas.len().max(8);
    drop(j);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    let replays: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let r = journal::replay(&path).expect("replay probe journal");
            assert_eq!(r.entries.len(), 3 * jobs);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let _ = std::fs::remove_file(&path);

    let cache = ResultCache::with_budget_bytes(1 << 31);
    let keys: Vec<String> = fastas.iter().map(|f| sad_serve::digest::payload(f)).collect();
    for (key, text) in keys.iter().zip(results) {
        let digest = sad_serve::digest::payload(text);
        cache.insert(key, "probe", CachedResult { digest, rows: 0, fasta: text.to_string() });
    }
    let mut gets = Vec::new();
    for _ in 0..5 {
        for key in &keys {
            let t = Instant::now();
            let hit = cache.get(key, "probe");
            gets.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(hit.is_some(), "probe cache lost an entry");
        }
    }
    StoreProbe {
        append_ms: median(&appends),
        bytes_per_job: bytes / jobs as f64,
        replay_s: median(&replays),
        get_us: median(&gets),
    }
}

/// Record the pipeline layer metrics of one traced run (`rec`, plus the
/// run at half the input size for the work exponents) and print the
/// reconciliation report. `threads` is the OS threads the run could use.
pub fn core_metrics(
    out: &mut Outcome,
    rec: &Recording,
    half: &Recording,
    report: &RunReport,
    threads: usize,
    cells_per_s: f64,
) {
    for label in PHASES {
        let (w, s) = rec.phase(label);
        let (hw, _) = half.phase(label);
        let exponent = if w.total_units() > 0 && hw.total_units() > 0 {
            (w.total_units() as f64 / hw.total_units() as f64).log2()
        } else {
            0.0
        };
        out.set(format!("core.phase.{label}.wall_s"), s);
        out.set(format!("core.phase.{label}.work_units"), w.total_units() as f64);
        out.set(format!("core.phase.{label}.dp_cells"), w.dp_cells as f64);
        out.set(format!("core.phase.{label}.work_exponent"), exponent);
    }
    let unattributed = rec.run_s - rec.phase_wall_sum();
    out.set("core.unattributed_s", unattributed);

    let (align_w, align_s) = rec.phase("8-local-align");
    let bucket_sum: f64 = rec.buckets.iter().sum();
    let bucket_max = rec.buckets.iter().copied().fold(0.0, f64::max);
    let par_eff = if align_s > 0.0 { bucket_sum / (threads as f64 * align_s) } else { 0.0 };
    let fill_s = align_w.dp_cells as f64 / cells_per_s;
    let overhead = if bucket_sum > 0.0 { 1.0 - fill_s / bucket_sum } else { 0.0 };
    out.set("core.phase.8-local-align.par_eff", par_eff);
    out.set("align.engine.bucket_s_max", bucket_max);
    out.set("align.engine.bucket_s_sum", bucket_sum);
    out.set("align.engine.overhead_frac", overhead);

    let sort_ops: u64 = rec.phases.iter().map(|(_, w, _)| w.sort_ops).sum();
    out.set("psrs.bucket_imbalance", report.load_imbalance());
    out.set("psrs.sort_ops", sort_ops as f64);

    let ancestor = ["10-global-ancestor", "11-fine-tune", "12-glue"].map(|l| rec.phase(l));
    let glue_s: f64 = ancestor.iter().map(|(_, s)| s).sum();
    out.set("core.ancestor.glue_s", glue_s);
    out.set("core.ancestor.col_ops", ancestor.iter().map(|(w, _)| w.col_ops).sum::<u64>() as f64);

    // Reconciliation: each span's self time against its parent.
    let mut r =
        String::from("layer reconciliation (wall seconds; self = span minus its children)\n");
    r += &format!("  {:<34} {:>10} {:>10}  parent\n", "span", "self_s", "total_s");
    r += &format!("  {:<34} {:>10.4} {:>10.4}  -\n", "Aligner::run", unattributed, rec.run_s);
    for (phase, _, s) in &rec.phases {
        let self_s =
            if phase.name() == "8-local-align" { s - bucket_sum / threads as f64 } else { *s };
        r += &format!("  {:<34} {:>10.4} {:>10.4}  Aligner::run\n", phase.name(), self_s, s);
    }
    if bucket_sum > 0.0 {
        r += &format!(
            "  {:<34} {:>10.4} {:>10.4}  8-local-align  ({} buckets / {threads} threads)\n",
            "buckets (sum / threads)",
            (bucket_sum - fill_s) / threads as f64,
            bucket_sum / threads as f64,
            rec.buckets.len()
        );
        r += &format!(
            "  {:<34} {:>10.4} {:>10.4}  buckets  (dp cells / single-thread cells/s)\n",
            "dp fill (derived)",
            fill_s / threads as f64,
            fill_s / threads as f64
        );
    }
    let sum = rec.phase_wall_sum();
    r += &format!(
        "  sum of phase walls {sum:.4} s vs Aligner::run {:.4} s: unattributed {unattributed:.4} s \
         ({:.2}%)\n",
        rec.run_s,
        100.0 * unattributed / rec.run_s.max(f64::MIN_POSITIVE)
    );
    eprint!("{r}");
}

/// Record the metrics of every layer a workload did not exercise as 0
/// ("no work"), so each traced run reports the full per-layer set.
pub fn fill_unexercised(out: &mut Outcome, names: &[&str]) {
    for name in names {
        out.set(*name, 0.0);
    }
}

/// Max and mean over ranks of the virtual-cluster trace counters.
pub fn vcluster_metrics(out: &mut Outcome, traces: &[vcluster::RankTrace]) {
    let columns =
        traces.iter().map(|t| [t.compute_s, t.comm_s, t.bytes_sent as f64, t.msgs_sent as f64]);
    let (mut max, mut sum) = ([0.0f64; 4], [0.0f64; 4]);
    for row in columns {
        for c in 0..4 {
            max[c] = max[c].max(row[c]);
            sum[c] += row[c];
        }
    }
    let ranks = traces.len().max(1) as f64;
    for (c, name) in ["compute_s", "comm_s", "bytes_sent", "msgs_sent"].iter().enumerate() {
        out.set(format!("vcluster.{name}.max"), max[c]);
        out.set(format!("vcluster.{name}.mean"), sum[c] / ranks);
    }
}

/// Record the storage-probe metrics.
pub fn store_metrics(out: &mut Outcome, p: &StoreProbe) {
    out.set("serve.journal.append_ms", p.append_ms);
    out.set("serve.journal.bytes", p.bytes_per_job);
    out.set("serve.replay_s", p.replay_s);
    out.set("serve.cache.get_us", p.get_us);
}

/// Record the k-mer and DP probe metrics.
pub fn probe_metrics(out: &mut Outcome, k: &KmerProbe, cells_per_s: f64) {
    out.set("bioseq.kmer.busy_s", k.busy_s);
    out.set("bioseq.kmer.kmer_ops", k.kmer_ops as f64);
    out.set("bioseq.kmer.ops_per_s", k.kmer_ops as f64 / k.busy_s.max(f64::MIN_POSITIVE));
    out.set("align.dp.cells_per_s", cells_per_s);
    out.set("align.dp.computed_bytes_per_cell", COMPUTED_BYTES_PER_CELL);
}
