//! The two library workloads, `family_2k` and `reads_10k`: the workload's
//! input through `sad_core::Aligner` on rayon, then on the 16-node
//! virtual cluster, then as a finished job of a restarted daemon.

use crate::check::{self, median, peak_rss_mb, percentile, reset_peak_rss};
use crate::layers::{self, Recorder};
use crate::metrics::Outcome;
use crate::Args;
use bioseq::{fasta, Msa, Sequence};
use rosegen::{Family, FamilyConfig, ReadSet, ReadSimConfig};
use sad_core::{Aligner, Backend, RunReport, SadConfig};
use std::sync::Arc;
use std::time::Instant;
use vcluster::{CostModel, VirtualCluster};

/// Bucket cap of the read workload (the `sad reads` default).
const MAX_BUCKET: usize = 512;
/// Virtual nodes of the distributed run (the paper's 16-node cluster).
const NODES: usize = 16;
/// Rows sampled for the family reference-Q scores (all their pairs).
const Q_ROWS: usize = 100;
/// Truth-overlapping read pairs scored for the read Q scores.
const READ_PAIRS: usize = 4000;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 9;

/// One library workload: how to build its inputs, and how the pipeline
/// is configured for them.
pub struct Spec {
    seed: u64,
    n: usize,
    reads: bool,
    /// Distinct inputs per run. Several families average out how much one
    /// random phylogeny moves bucket balance, width and makespan.
    instances: usize,
}

/// A generated input with its truth.
struct Input {
    seqs: Vec<Sequence>,
    truth: Truth,
}

enum Truth {
    /// The ROSE reference alignment of a family.
    Family(Msa),
    /// The simulator's per-residue truth of a read set.
    Reads(ReadSet),
}

impl Input {
    /// `(q_ref, pair_q)` of `msa`: SP Q and mean pair Q on the fixed row
    /// sample of a family; for reads, SP Q pooled over 4000 truth-
    /// overlapping pairs and `qbench::mean_read_pair_q` on the same pairs.
    fn quality(&self, msa: &Msa) -> (f64, f64) {
        match &self.truth {
            Truth::Family(reference) => {
                let q = check::quality(msa, reference, &check::sample_ids(&self.seqs, Q_ROWS));
                (q.q_pooled, q.q_pair_mean)
            }
            Truth::Reads(set) => (
                check::read_quality(msa, set, READ_PAIRS).q_pooled,
                qbench::reads::mean_read_pair_q(set, msa, READ_PAIRS).unwrap_or(0.0),
            ),
        }
    }

    /// Columns of the true alignment.
    fn truth_columns(&self) -> usize {
        match &self.truth {
            Truth::Family(reference) => reference.num_cols(),
            Truth::Reads(set) => check::truth_columns(set),
        }
    }
}

/// Seed of the read workload's four source sequences (the `sad reads`
/// default). Like a resequencing run, every `--seed` samples new reads
/// from the same sources.
const SOURCE_SEED: u64 = 1;

impl Spec {
    pub fn family_2k(seed: u64) -> Spec {
        Spec { seed, n: 2000, reads: false, instances: 6 }
    }

    pub fn reads_10k(seed: u64) -> Spec {
        Spec { seed, n: 10_000, reads: true, instances: 2 }
    }

    /// Input `instance` of the run, at size `n`.
    fn input(&self, n: usize, instance: usize) -> Input {
        let seed = self.seed ^ ((instance as u64) << 48);
        if self.reads {
            // Four 400-residue sources fragmented into 90-residue reads,
            // as `sad reads` simulates them.
            let fam = Family::generate(&FamilyConfig {
                n_seqs: 4,
                avg_len: 400,
                relatedness: 800.0,
                seed: SOURCE_SEED,
                ..Default::default()
            });
            let cfg = ReadSimConfig { total_reads: Some(n), seed, ..Default::default() };
            let set = ReadSet::from_family(&fam, &cfg);
            Input { seqs: set.reads.clone(), truth: Truth::Reads(set) }
        } else {
            let fam = Family::generate(&FamilyConfig {
                n_seqs: n,
                avg_len: 300,
                seed,
                id_prefix: "f".into(),
                ..Default::default()
            });
            Input { seqs: fam.seqs, truth: Truth::Family(fam.reference) }
        }
    }

    fn config(&self) -> SadConfig {
        let cfg = SadConfig::default();
        if self.reads {
            cfg.with_max_bucket(Some(MAX_BUCKET))
        } else {
            cfg
        }
    }

    /// Rayon buckets: 16 for the family (p = 16 as in the paper), and
    /// `sad reads`' width for reads (`max(4, n / cap)`).
    fn threads(&self, n: usize) -> usize {
        if self.reads {
            n.div_ceil(MAX_BUCKET).max(4)
        } else {
            NODES
        }
    }

    fn rayon(&self, n: usize) -> Aligner {
        Aligner::new(self.config()).backend(Backend::Rayon { threads: self.threads(n) })
    }

    /// The same input on the 16-node virtual cluster (which takes no
    /// bucket cap).
    fn distributed(&self) -> Aligner {
        Aligner::new(self.config().with_max_bucket(None))
            .backend(Backend::Distributed(VirtualCluster::new(NODES, CostModel::beowulf_2008())))
    }

    /// Checks of one rayon run beyond MSA validity.
    fn check_rayon(&self, report: &RunReport, input: &[Sequence]) -> Result<(), String> {
        check::validate(&report.msa, input)?;
        let largest = report.bucket_sizes.iter().copied().max().unwrap_or(0);
        if self.reads && largest > MAX_BUCKET {
            return Err(format!("bucket of {largest} exceeds the cap {MAX_BUCKET}"));
        }
        Ok(())
    }
}

/// OS threads a rayon run of width `p` gets (the pool uses `min(nproc, p)`).
fn os_threads(p: usize) -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(p)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

pub fn run(spec: Spec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let k = if args.trace { 1 } else { spec.instances };
    let inputs: Vec<Input> = (0..k).map(|i| spec.input(spec.n, i)).collect();
    let texts: Vec<String> = inputs.iter().map(|i| fasta::write(&i.seqs)).collect();
    reset_peak_rss();

    // Set-up: input bytes to a ready aligner.
    let mut setups = Vec::new();
    let mut parsed = vec![Vec::new(); k];
    for _ in 0..SETUP_REPS {
        for (text, seqs) in texts.iter().zip(&mut parsed) {
            let (ready, secs) = timed(|| {
                let s = fasta::parse(text).expect("generated FASTA parses");
                spec.config().validate_for(&s).expect("generated input is valid");
                (s, spec.rayon(spec.n))
            });
            setups.push(secs);
            *seqs = ready.0;
        }
    }
    for (seqs, input) in parsed.iter().zip(&inputs) {
        let same = seqs.iter().map(|s| (&s.id, s.codes()));
        if same.ne(input.seqs.iter().map(|s| (&s.id, s.codes()))) {
            out.fail("FASTA round trip changed the input");
        }
    }

    if args.trace {
        traced(&spec, &inputs[0], &parsed[0], &texts[0], args, &mut out);
        return out;
    }

    // Measure: rayon runs, round-robin over the inputs, for the run length
    // and at least once per input.
    let aligner = spec.rayon(spec.n);
    let mut walls = vec![Vec::new(); k];
    let mut first: Vec<Option<RunReport>> = vec![None; k];
    let start = Instant::now();
    for i in 0.. {
        let at = i % k;
        let (result, secs) = timed(|| aligner.run(&parsed[at]));
        walls[at].push(secs);
        out.op(match (result, &first[at]) {
            (Err(e), _) => Err(format!("rayon run failed: {e}")),
            (Ok(report), None) => {
                let checked = spec.check_rayon(&report, &parsed[at]);
                first[at] = Some(report);
                checked
            }
            (Ok(report), Some(f)) if report.msa == f.msa => Ok(()),
            (Ok(_), Some(_)) => Err("rayon reruns disagree".into()),
        });
        if i + 1 >= k && start.elapsed() >= args.seconds {
            break;
        }
    }
    let loop_s = start.elapsed().as_secs_f64();

    // The same inputs on 16 virtual nodes (one read set: a 16-node run of
    // 10k reads takes as long as the rayon loop).
    let mut makespans = Vec::new();
    let distributed = if spec.reads { 1 } else { k };
    for (seqs, first) in parsed.iter().zip(&first).take(distributed) {
        out.op(match spec.distributed().run(seqs) {
            Err(e) => Err(format!("distributed run failed: {e}")),
            Ok(d) => {
                makespans.push(d.makespan().unwrap_or(0.0));
                check::validate(&d.msa, seqs).and_then(|()| match first {
                    Some(f) if !spec.reads && f.msa != d.msa => {
                        Err("rayon and distributed MSAs differ".into())
                    }
                    _ => Ok(()),
                })
            }
        });
    }
    let peak = peak_rss_mb();

    let reports: Vec<&RunReport> = first.iter().flatten().collect();
    if reports.len() < k {
        return out;
    }
    let mean = |f: &dyn Fn(usize) -> f64| (0..k).map(f).sum::<f64>() / k as f64;
    let scores: Vec<(f64, f64)> = (0..k).map(|i| inputs[i].quality(&reports[i].msa)).collect();
    let all_walls: Vec<f64> = walls.iter().flatten().copied().collect();
    let per_input: f64 = walls.iter().map(|w| median(w)).sum::<f64>() / k as f64;

    out.set("setup_s", median(&setups));
    out.set("seqs_per_s", spec.n as f64 / per_input);
    out.set("q_ref", mean(&|i| scores[i].0));
    out.set("makespan16_s", makespans.iter().sum::<f64>() / makespans.len().max(1) as f64);
    out.set("pair_q", mean(&|i| scores[i].1));
    out.set(
        "width_ratio",
        mean(&|i| reports[i].msa.num_cols() as f64 / inputs[i].truth_columns() as f64),
    );
    out.set("peak_rss_mb", peak);
    out.set("jobs_per_s", all_walls.len() as f64 / loop_s);
    out.set("job_p50_ms", 1e3 * median(&all_walls));
    out.set("job_p95_ms", 1e3 * percentile(&all_walls, 95.0));
    eprintln!(
        "perfbench: {} rayon runs over {k} inputs in {loop_s:.2} s (per-input median {per_input:.3} \
         s); walls {walls:.3?}; makespans16 {makespans:.4?}",
        all_walls.len(),
    );
    out
}

/// The traced run: phases and buckets from the recording observer, the
/// half-size run for work exponents, the sequential baseline, the
/// virtual-cluster traces and the direct layer probes.
fn traced(
    spec: &Spec,
    input: &Input,
    seqs: &[Sequence],
    text: &str,
    args: &Args,
    out: &mut Outcome,
) {
    let p = spec.threads(spec.n);
    let recorder = Arc::new(Recorder::default());
    let observed = spec.rayon(spec.n).observer(recorder.clone());
    let plain = spec.rayon(spec.n);

    // Alternate untraced and traced runs for the run length.
    let (mut untraced_s, mut recs, mut report) = (Vec::new(), Vec::new(), None);
    let start = Instant::now();
    loop {
        let (r, secs) = timed(|| plain.run(seqs));
        untraced_s.push(secs);
        out.op(r.map_err(|e| e.to_string()).and_then(|r| spec.check_rayon(&r, seqs)));
        let (r, secs) = timed(|| observed.run(seqs));
        recs.push(recorder.take(secs));
        out.op(match r {
            Ok(r) => {
                let checked = spec.check_rayon(&r, seqs);
                report = Some(r);
                checked
            }
            Err(e) => Err(e.to_string()),
        });
        if start.elapsed() >= args.seconds {
            break;
        }
    }
    let Some(report) = report else { return };
    let traced_s: Vec<f64> = recs.iter().map(|r| r.run_s).collect();
    let overhead = median(&traced_s) / median(&untraced_s) - 1.0;
    // The reconciliation uses the traced run closest to the median.
    let rec = recs
        .iter()
        .min_by(|a, b| {
            let m = median(&traced_s);
            (a.run_s - m).abs().total_cmp(&(b.run_s - m).abs())
        })
        .cloned()
        .unwrap_or_default();

    // Half the input for the work exponents (counts repeat exactly).
    let half_input = spec.input(spec.n / 2, 0);
    let half_rec = Arc::new(Recorder::default());
    let (r, secs) =
        timed(|| spec.rayon(spec.n / 2).observer(half_rec.clone()).run(&half_input.seqs));
    out.op(r.map_err(|e| e.to_string()).and_then(|r| spec.check_rayon(&r, &half_input.seqs)));
    let half = half_rec.take(secs);

    // Direct probes.
    let kmer = layers::kmer_probe(seqs, &spec.config(), p);
    let cells_per_s = layers::dp_probe(seqs, &spec.config());
    layers::probe_metrics(out, &kmer, cells_per_s);
    layers::core_metrics(out, &rec, &half, &report, os_threads(p), cells_per_s);
    let result_text = fasta::write_alignment(&report.msa);
    let store = layers::store_probe(&crate::work_dir(), &[text], &[&result_text]);
    layers::store_metrics(out, &store);
    // Serve layers seen by clients: this workload submits no jobs.
    layers::fill_unexercised(
        out,
        &[
            "serve.accept_ms",
            "serve.queue_wait_ms",
            "serve.run_ms",
            "serve.hit_p50_ms",
            "serve.restart_s",
            "serve.cache.hit_ratio",
        ],
    );

    // Virtual cluster.
    match spec.distributed().run(seqs) {
        Ok(d) => {
            layers::vcluster_metrics(out, d.traces().unwrap_or_default());
            out.op(check::validate(&d.msa, seqs));
        }
        Err(e) => out.op(Err(format!("distributed run failed: {e}"))),
    }

    // Sequential baseline (the family only: 10k reads on one engine run
    // take minutes).
    if spec.reads {
        layers::fill_unexercised(out, &["q_seq", "speedup_vs_seq"]);
    } else {
        let (r, secs) =
            timed(|| Aligner::new(spec.config()).backend(Backend::Sequential).run(seqs));
        match r {
            Ok(s) => {
                out.op(check::validate(&s.msa, seqs));
                out.set("q_seq", input.quality(&s.msa).0);
                out.set("speedup_vs_seq", secs / median(&untraced_s));
                eprintln!(
                    "perfbench: sequential {secs:.3} s, q_seq {:.4} vs rayon q_ref {:.4}",
                    input.quality(&s.msa).0,
                    input.quality(&report.msa).0
                );
            }
            Err(e) => out.op(Err(format!("sequential run failed: {e}"))),
        }
    }
    out.set("trace.overhead_frac", overhead);
    eprintln!(
        "perfbench: tracing overhead {:+.2}% (traced median {:.4} s vs untraced {:.4} s, {} pairs)",
        100.0 * overhead,
        median(&traced_s),
        median(&untraced_s),
        traced_s.len()
    );
}
