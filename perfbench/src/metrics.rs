//! The metric registry (the single source of `BENCHMARK.json`) and the
//! outcome a workload returns.

use std::fmt::Write;

/// Every end-to-end metric's bound: the share of the parent's median by
/// which it may worsen. Wall-clock figures on the 2-core reference host
/// move by about 10 % between runs of the same inputs, and read-alignment
/// quality differs between read sets by as much. One bound per metric must
/// cover all three workloads, so each gets the largest bound allowed.
const BOUND: f64 = 0.25;

/// End-to-end metrics, what a user of the system sees, as
/// `(name, unit, better)`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("seqs_per_s", "seq/s", "higher"),
    ("q_ref", "fraction", "higher"),
    ("makespan16_s", "virtual_s", "lower"),
    ("pair_q", "fraction", "higher"),
    ("width_ratio", "x", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("jobs_per_s", "job/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p95_ms", "ms", "lower"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "family_2k",
        "paper-scale ROSE family (2000 x 300) on 16 rayon buckets and 16 virtual nodes: \
         local k-mer rank, per-bucket engine DP and bucket balance",
    ),
    (
        "reads_10k",
        "10000 simulated reads at bucket cap 512 (Pyro-Align): n*p^2 globalized rank, \
         sub-partition and glue whose width grows with the bucket count",
    ),
    (
        "serve_mixed",
        "2 closed-loop clients on a 2-worker daemon, 1 in 4 submissions a repeat: accept \
         and journal fsync, queue, cache, output write and restart replay",
    ),
];

/// Pipeline phases any workload records (vertical decomposition and trim
/// stay off, so their phases never run and are not listed).
pub const PHASES: [&str; 11] = [
    "1-local-kmer-rank",
    "2-local-sort",
    "3-sample-exchange",
    "5-globalized-rank",
    "6-redistribute",
    "7-sub-partition",
    "8-local-align",
    "9-local-ancestor",
    "10-global-ancestor",
    "11-fine-tune",
    "12-glue",
];

/// Per-layer metrics as `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for phase in PHASES {
        out.push((format!("core.phase.{phase}.wall_s"), "s", "lower"));
        out.push((format!("core.phase.{phase}.work_units"), "count", "lower"));
        out.push((format!("core.phase.{phase}.dp_cells"), "cells", "lower"));
        out.push((format!("core.phase.{phase}.work_exponent"), "log2", "lower"));
    }
    let fixed: &[(&str, &str, &str)] = &[
        ("core.unattributed_s", "s", "lower"),
        ("core.phase.8-local-align.par_eff", "fraction", "higher"),
        ("bioseq.kmer.busy_s", "s", "lower"),
        ("bioseq.kmer.kmer_ops", "count", "lower"),
        ("bioseq.kmer.ops_per_s", "op/s", "higher"),
        ("psrs.bucket_imbalance", "x", "lower"),
        ("psrs.sort_ops", "count", "lower"),
        ("align.engine.bucket_s_max", "s", "lower"),
        ("align.engine.bucket_s_sum", "s", "lower"),
        ("align.engine.overhead_frac", "fraction", "lower"),
        ("align.dp.cells_per_s", "cell/s", "higher"),
        ("align.dp.computed_bytes_per_cell", "B/cell", "lower"),
        ("core.ancestor.glue_s", "s", "lower"),
        ("core.ancestor.col_ops", "count", "lower"),
        ("vcluster.compute_s.max", "virtual_s", "lower"),
        ("vcluster.compute_s.mean", "virtual_s", "lower"),
        ("vcluster.comm_s.max", "virtual_s", "lower"),
        ("vcluster.comm_s.mean", "virtual_s", "lower"),
        ("vcluster.bytes_sent.max", "B", "lower"),
        ("vcluster.bytes_sent.mean", "B", "lower"),
        ("vcluster.msgs_sent.max", "count", "lower"),
        ("vcluster.msgs_sent.mean", "count", "lower"),
        ("serve.accept_ms", "ms", "lower"),
        ("serve.queue_wait_ms", "ms", "lower"),
        ("serve.run_ms", "ms", "lower"),
        ("serve.hit_p50_ms", "ms", "lower"),
        ("serve.restart_s", "s", "lower"),
        ("serve.journal.append_ms", "ms", "lower"),
        ("serve.journal.bytes", "B", "lower"),
        ("serve.replay_s", "s", "lower"),
        ("serve.cache.get_us", "us", "lower"),
        ("serve.cache.hit_ratio", "fraction", "higher"),
        ("trace.overhead_frac", "fraction", "lower"),
        ("q_seq", "fraction", "higher"),
        ("speedup_vs_seq", "x", "higher"),
    ];
    out.extend(fixed.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    out
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(_, u, _)| u)
        .or_else(|| per_layer().into_iter().find(|(n, ..)| n == name).map(|(_, u, _)| u))
        .expect("metric is registered")
}

/// The `BENCHMARK.json` this binary satisfies.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {},", crate::RUN_SECONDS);
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
             \"bound\": {BOUND}}}{sep}"
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// What one workload run produced: operation counts, failed checks and
/// metric values.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    values: Vec<(String, f64)>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Count one operation; a failed check on it counts it as failed.
    pub fn op(&mut self, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checked {
            self.fail(e);
        }
    }

    /// Record a failed check of an operation already counted.
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: CHECK FAILED: {what}");
        self.errors.push(what);
        self.failed = (self.failed + 1).min(self.attempted.max(1));
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Validate the metric set against `expected` and render the final
    /// JSON line.
    pub fn finish(&mut self, expected: &[&str]) -> String {
        for name in expected {
            match self.values.iter().find(|(n, _)| n == name) {
                None => self.fail(format!("metric {name} was not measured")),
                Some((_, v)) if !v.is_finite() => self.fail(format!("metric {name} = {v}")),
                Some(_) => {}
            }
        }
        self.attempted = self.attempted.max(1);
        self.failed = self.failed.min(self.attempted);
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let mut first = true;
        for name in expected {
            let Some(&(_, v)) = self.values.iter().find(|(n, _)| n == name) else { continue };
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if first { "" } else { ", " };
            first = false;
            let _ =
                write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(name));
        }
        out.push_str("}}");
        out
    }
}
