//! Determinism regression: the whole point of the virtual cluster is
//! bit-for-bit reproducible runs, so any nondeterminism creeping into the
//! pipeline (hash ordering, thread scheduling, float reduction order) must
//! fail loudly here.

use sample_align_d::prelude::*;
use std::collections::BTreeSet;

fn family(seed: u64) -> Family {
    Family::generate(&FamilyConfig {
        n_seqs: 28,
        avg_len: 64,
        relatedness: 700.0,
        seed,
        ..Default::default()
    })
}

fn on_cluster(p: usize, seqs: &[Sequence], cfg: &SadConfig) -> RunReport {
    let cluster = VirtualCluster::new(p, CostModel::beowulf_2008());
    Aligner::new(cfg.clone()).backend(Backend::Distributed(cluster)).run(seqs).unwrap()
}

fn on_rayon(p: usize, seqs: &[Sequence], cfg: &SadConfig) -> RunReport {
    Aligner::new(cfg.clone()).backend(Backend::Rayon { threads: p }).run(seqs).unwrap()
}

/// The observable row content of an alignment: (id, ungapped residues).
fn row_set(msa: &bioseq::Msa) -> BTreeSet<(String, String)> {
    (0..msa.num_rows()).map(|r| (msa.ids()[r].clone(), msa.ungapped(r).to_letters())).collect()
}

#[test]
fn distributed_runs_are_byte_identical_for_same_seed_and_cluster() {
    let fam = family(41);
    let cfg = SadConfig::default();
    let a = on_cluster(4, &fam.seqs, &cfg);
    let b = on_cluster(4, &fam.seqs, &cfg);
    // Byte-identical serialised alignments, not merely equal structures.
    assert_eq!(
        fasta::write_alignment(&a.msa).into_bytes(),
        fasta::write_alignment(&b.msa).into_bytes(),
        "two runs with the same seed and cluster size must serialise identically"
    );
    assert_eq!(a.bucket_sizes, b.bucket_sizes);
    assert_eq!(a.makespan(), b.makespan());
    assert_eq!(a.work, b.work);
}

#[test]
fn regenerated_inputs_reproduce_the_same_alignment() {
    // Full regeneration from the seed (family + fresh cluster) — catches
    // hidden state leaking between runs rather than within one.
    let cfg = SadConfig::default();
    let a = on_cluster(4, &family(42).seqs, &cfg);
    let b = on_cluster(4, &family(42).seqs, &cfg);
    assert_eq!(fasta::write_alignment(&a.msa), fasta::write_alignment(&b.msa));
}

/// The rayon and distributed backends run one program, so on the same
/// input and width they must agree on everything deterministic: the
/// alignment bytes, the bucket census, the decomposition depth, the phase
/// sequence and every phase's work.
fn assert_backends_agree(seqs: &[Sequence], p: usize, cfg: &SadConfig) {
    let case = format!("p={p} cap={:?}", cfg.max_bucket);
    let dist = on_cluster(p, seqs, cfg);
    let ray = on_rayon(p, seqs, cfg);
    assert_eq!(fasta::write_alignment(&dist.msa), fasta::write_alignment(&ray.msa), "{case}");
    assert_eq!(dist.bucket_sizes, ray.bucket_sizes, "{case}");
    assert_eq!(dist.decomposition_depth, ray.decomposition_depth, "{case}");
    assert_eq!(dist.phase_sequence(), ray.phase_sequence(), "{case}");
    for (d, r) in dist.phases.iter().zip(&ray.phases) {
        assert_eq!(d.work, r.work, "{case}: {} work", d.name());
    }
}

#[test]
fn rayon_backend_matches_distributed_exactly() {
    let fam = family(43);
    for cap in [None, Some(8), Some(1000)] {
        for p in [1, 2, 4] {
            assert_backends_agree(&fam.seqs, p, &SadConfig::default().with_max_bucket(cap));
        }
    }
}

#[test]
fn degenerate_partition_runs_the_same_phases_on_both_backends() {
    // Identical sequences share one rank key, so PSRS puts all of them in
    // one bucket and leaves the others empty. Both backends must still
    // run the same phases: a lone non-empty bucket of a p > 1 run goes
    // through fine-tune and glue like any other.
    let seqs: Vec<Sequence> = (0..7)
        .map(|i| Sequence::from_codes(format!("dup{i}"), vec![1, 2, 3, 4, 5, 6, 7, 8]))
        .collect();
    let cfg = SadConfig::default().with_kmer_k(2);
    for p in [2, 3, 4] {
        assert_eq!(on_rayon(p, &seqs, &cfg).bucket_sizes.iter().filter(|&&b| b > 0).count(), 1);
        assert_backends_agree(&seqs, p, &cfg);
        assert_backends_agree(&seqs, p, &cfg.clone().with_fine_tune(false));
    }
}

#[test]
fn all_three_backends_cover_the_same_row_set() {
    // The sequential backend aligns the whole set at once, so columns
    // differ, but the set of (id, ungapped sequence) rows must agree with
    // the decomposed backends — no sequence lost, duplicated or mutated.
    let fam = family(44);
    let cfg = SadConfig::default();
    let dist = on_cluster(4, &fam.seqs, &cfg);
    let ray = on_rayon(4, &fam.seqs, &cfg);
    let seq = Aligner::new(cfg).backend(Backend::Sequential).run(&fam.seqs).unwrap();
    let want = row_set(&dist.msa);
    assert_eq!(want.len(), fam.seqs.len());
    assert_eq!(row_set(&ray.msa), want, "rayon row set diverged");
    assert_eq!(row_set(&seq.msa), want, "sequential row set diverged");
}

#[test]
fn backends_agree_even_under_globalized_rank_ties() {
    // Regression: these families produce exact ties in the globalized
    // k-mer rank (distinct sequences, equal log(0.1 + D)). Tie order used
    // to differ between the backends — distributed broke ties by the
    // locally sorted (centralized-rank) order, rayon by original index —
    // yielding row-permuted alignments from `sad align --backend rayon`.
    for seed in [1u64, 9] {
        let fam = Family::generate(&FamilyConfig {
            n_seqs: 12,
            avg_len: 50,
            relatedness: 800.0,
            seed,
            ..Default::default()
        });
        let cfg = SadConfig::default();
        let dist = on_cluster(3, &fam.seqs, &cfg);
        let ray = on_rayon(3, &fam.seqs, &cfg);
        assert_eq!(
            fasta::write_alignment(&dist.msa),
            fasta::write_alignment(&ray.msa),
            "seed {seed}: backends must break rank ties identically"
        );
    }
}

#[test]
fn determinism_holds_across_cluster_sizes_independently() {
    // Each p gives its own deterministic answer (p changes bucketing, so
    // different p may differ — but the same p must never differ).
    let fam = family(45);
    let cfg = SadConfig::default();
    for p in [1usize, 2, 3, 5, 8] {
        let a = on_cluster(p, &fam.seqs, &cfg);
        let b = on_cluster(p, &fam.seqs, &cfg);
        assert_eq!(
            fasta::write_alignment(&a.msa),
            fasta::write_alignment(&b.msa),
            "p={p} was not deterministic"
        );
        assert_eq!(row_set(&a.msa), row_set(&b.msa));
    }
}

#[test]
fn observation_does_not_perturb_the_run() {
    // Attaching an observer and a (never-cancelled) token must not change
    // a single output byte — the pipeline layer only watches.
    let fam = family(46);
    let cfg = SadConfig::default();
    let bare = on_cluster(4, &fam.seqs, &cfg);
    let watched = Aligner::new(cfg.clone())
        .backend(Backend::Distributed(VirtualCluster::new(4, CostModel::beowulf_2008())))
        .observer(std::sync::Arc::new(|_: &Event| {}))
        .cancel_token(CancelToken::new())
        .run(&fam.seqs)
        .unwrap();
    assert_eq!(fasta::write_alignment(&bare.msa), fasta::write_alignment(&watched.msa));
    assert_eq!(bare.makespan(), watched.makespan());
    assert_eq!(bare.work, watched.work);
    assert_eq!(bare.phase_sequence(), watched.phase_sequence());
}
