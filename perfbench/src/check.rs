//! Output checks and quality scores shared by every workload.

use bioseq::compare::{aligned_pairs, q_score_pair};
use bioseq::{Msa, Sequence};
use rosegen::ReadSet;
use std::collections::HashMap;

/// An MSA is correct for `input` when its rows have equal widths and
/// every input sequence appears exactly once, gap-stripped to its own id
/// and residues.
pub fn validate(msa: &Msa, input: &[Sequence]) -> Result<(), String> {
    msa.validate()?;
    if msa.num_rows() != input.len() {
        return Err(format!("{} rows for {} input sequences", msa.num_rows(), input.len()));
    }
    let by_id: HashMap<&str, &Sequence> = input.iter().map(|s| (s.id.as_str(), s)).collect();
    let mut seen = HashMap::with_capacity(input.len());
    for (row, id) in msa.ids().iter().enumerate() {
        let Some(seq) = by_id.get(id.as_str()) else {
            return Err(format!("row {row}: unknown id {id}"));
        };
        if seen.insert(id.as_str(), row).is_some() {
            return Err(format!("id {id} appears twice"));
        }
        let stripped = msa.ungapped(row);
        if stripped.codes() != seq.codes() {
            return Err(format!("row {row} ({id}): residues differ from the input"));
        }
    }
    Ok(())
}

/// Up to `count` ids spread evenly over the input: the fixed row sample
/// the family quality scores use.
pub fn sample_ids(input: &[Sequence], count: usize) -> Vec<&str> {
    let n = input.len();
    let count = count.min(n);
    (0..count).map(|k| input[k * n / count].id.as_str()).collect()
}

/// Quality of a test alignment over a fixed set of row pairs: SP Q pooled
/// over all pairs (matched reference residue pairs / reference residue
/// pairs), and the mean of the per-pair Q scores.
pub struct Quality {
    pub q_pooled: f64,
    pub q_pair_mean: f64,
}

/// Score `(test a, test b, reference a, reference b)` row pairs.
fn score<A: AsRef<[u8]>>(pairs: impl Iterator<Item = (A, A, A, A)>) -> Quality {
    let (mut matched, mut total, mut sum, mut scored) = (0.0, 0usize, 0.0, 0usize);
    for (ta, tb, ra, rb) in pairs {
        let (ta, tb, ra, rb) = (ta.as_ref(), tb.as_ref(), ra.as_ref(), rb.as_ref());
        if let Some(q) = q_score_pair(ta, tb, ra, rb) {
            let reference = aligned_pairs(ra, rb).len();
            matched += q * reference as f64;
            total += reference;
            sum += q;
            scored += 1;
        }
    }
    let ratio = |a: f64, b: usize| if b == 0 { 0.0 } else { a / b as f64 };
    Quality { q_pooled: ratio(matched, total), q_pair_mean: ratio(sum, scored) }
}

fn row_index(msa: &Msa) -> HashMap<&str, usize> {
    msa.ids().iter().enumerate().map(|(i, id)| (id.as_str(), i)).collect()
}

/// Quality against a reference alignment over every pair of the rows
/// named by `ids`.
pub fn quality(test: &Msa, reference: &Msa, ids: &[&str]) -> Quality {
    let (t, r) = (row_index(test), row_index(reference));
    let rows: Vec<(usize, usize)> = ids.iter().map(|id| (t[id], r[id])).collect();
    score(rows.iter().enumerate().flat_map(|(x, &(ta, ra))| {
        rows[x + 1..].iter().map(move |&(tb, rb)| {
            (test.row(ta), test.row(tb), reference.row(ra), reference.row(rb))
        })
    }))
}

/// Quality of a read alignment against the simulator truth over up to
/// `max_pairs` truth-overlapping read pairs, chosen like
/// `qbench::reads::mean_read_pair_q` chooses them: one pair per anchor
/// read, anchors strided over the set, partners within 8 reads, at least
/// 10 shared truth columns.
pub fn read_quality(test: &Msa, set: &ReadSet, max_pairs: usize) -> Quality {
    let row = row_index(test);
    let n = set.len();
    let stride = (n / max_pairs.max(1)).max(1);
    let pairs = (0..n).step_by(stride).filter_map(|i| {
        let j = (i + 1..(i + 9).min(n)).find(|&j| set.overlap(i, j) >= 10)?;
        let (ra, rb) = set.true_pair(i, j);
        let (a, b) = (row[set.reads[i].id.as_str()], row[set.reads[j].id.as_str()]);
        Some((test.row(a).to_vec(), test.row(b).to_vec(), ra, rb))
    });
    score(pairs.take(max_pairs))
}

/// Columns of a read set's true alignment (distinct truth keys).
pub fn truth_columns(set: &ReadSet) -> usize {
    let mut cols: Vec<u64> = set.truth.iter().flatten().copied().collect();
    cols.sort_unstable();
    cols.dedup();
    cols.len()
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile of `xs` (0 when empty).
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Forget the process's resident-memory high-water mark, so the next
/// [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
