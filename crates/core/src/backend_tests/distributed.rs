//! The distributed backend's suite for the decomposed pipeline.

mod tests {
    use crate::pipeline::Phase;
    use crate::{Aligner, Backend, RunReport, SadConfig};
    use bioseq::{Msa, Sequence, Work};
    use rosegen::{Family, FamilyConfig};
    use std::collections::HashMap;
    use vcluster::{CostModel, VirtualCluster};

    fn family(n: usize, len: usize, seed: u64) -> Vec<Sequence> {
        Family::generate(&FamilyConfig {
            n_seqs: n,
            avg_len: len,
            relatedness: 700.0,
            seed,
            ..Default::default()
        })
        .seqs
    }

    fn run(p: usize, seqs: &[Sequence], cfg: &SadConfig) -> RunReport {
        let cluster = VirtualCluster::new(p, CostModel::beowulf_2008());
        Aligner::new(cfg.clone()).backend(Backend::Distributed(cluster)).run(seqs).unwrap()
    }

    fn check_complete(result: &Msa, input: &[Sequence]) {
        result.validate().unwrap();
        assert_eq!(result.num_rows(), input.len());
        let by_id: HashMap<&str, &Sequence> = input.iter().map(|s| (s.id.as_str(), s)).collect();
        for r in 0..result.num_rows() {
            let id = &result.ids()[r];
            let want = by_id.get(id.as_str()).unwrap_or_else(|| panic!("alien row {id}"));
            assert_eq!(&result.ungapped(r), *want, "row {id} corrupted");
        }
    }

    #[test]
    fn end_to_end_small() {
        let seqs = family(24, 60, 1);
        let report = run(4, &seqs, &SadConfig::default());
        check_complete(&report.msa, &seqs);
        assert_eq!(report.bucket_sizes.iter().sum::<usize>(), 24);
        assert!(report.makespan().unwrap() > 0.0);
    }

    #[test]
    fn deterministic() {
        let seqs = family(16, 50, 2);
        let a = run(4, &seqs, &SadConfig::default());
        let b = run(4, &seqs, &SadConfig::default());
        assert_eq!(a.msa, b.msa);
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.bucket_sizes, b.bucket_sizes);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn p1_is_one_engine_run_over_everything() {
        // With one rank the pipeline degenerates to "sort by rank, then run
        // the engine once" — same sequences, one bucket, no glue artifacts.
        let seqs = family(10, 50, 3);
        let report = run(1, &seqs, &SadConfig::default());
        check_complete(&report.msa, &seqs);
        assert_eq!(report.bucket_sizes, vec![10]);
    }

    #[test]
    fn more_ranks_than_sequences() {
        let seqs = family(3, 40, 4);
        let report = run(8, &seqs, &SadConfig::default());
        check_complete(&report.msa, &seqs);
    }

    #[test]
    fn fine_tune_beats_block_diagonal() {
        let seqs = family(20, 60, 6);
        let cfg_on = SadConfig::default();
        let cfg_off = SadConfig::default().with_fine_tune(false);
        let on = run(4, &seqs, &cfg_on);
        let off = run(4, &seqs, &cfg_off);
        check_complete(&on.msa, &seqs);
        check_complete(&off.msa, &seqs);
        let m = &cfg_on.matrix;
        let g = cfg_on.gaps;
        assert!(
            on.msa.sp_score(m, g) > off.msa.sp_score(m, g),
            "ancestor fine-tuning must improve the glued SP score"
        );
    }

    #[test]
    fn scaling_reduces_makespan() {
        // Large enough that the w² distance term dominates.
        let seqs = family(96, 60, 7);
        let t1 = run(1, &seqs, &SadConfig::default()).makespan().unwrap();
        let t4 = run(4, &seqs, &SadConfig::default()).makespan().unwrap();
        assert!(t4 < t1, "4 ranks ({t4:.4}s) should beat 1 rank ({t1:.4}s)");
    }

    #[test]
    fn phases_present_in_report() {
        let seqs = family(12, 40, 8);
        let report = run(2, &seqs, &SadConfig::default());
        assert_eq!(
            report.phase_sequence(),
            vec![
                Phase::LocalKmerRank,
                Phase::LocalSort,
                Phase::SampleExchange,
                Phase::GlobalizedRank,
                Phase::Redistribute,
                Phase::LocalAlign,
                Phase::LocalAncestor,
                Phase::GlobalAncestor,
                Phase::FineTune,
                Phase::Glue,
            ]
        );
        let table = report.phase_table();
        // SubPartition (max_bucket), the vertical phases (AnchorScan,
        // BlockAlign) and Trim are opt-in; every other phase must show up
        // in a default run's table.
        for phase in Phase::ALL.into_iter().filter(|&p| {
            !matches!(p, Phase::SubPartition | Phase::AnchorScan | Phase::BlockAlign | Phase::Trim)
        }) {
            assert!(table.contains(phase.name()), "missing phase {phase}:\n{table}");
        }
        // Compute-bearing phases carry their work in the unified report.
        let of = |phase: Phase| report.phase(phase).map(|p| p.work).unwrap_or(Work::ZERO);
        assert!(of(Phase::LocalKmerRank).kmer_ops > 0);
        assert!(of(Phase::LocalAlign).dp_cells > 0);
        assert_eq!(report.work, report.phases.iter().map(|p| p.work).sum::<Work>());
        // Every phase carries real wall time AND the virtual max across
        // ranks (the distributed backend models both clocks).
        for p in &report.phases {
            assert!(p.seconds.is_some(), "{} lost its wall clock", p.name());
            assert!(p.virtual_seconds.is_some(), "{} lost its virtual clock", p.name());
        }
    }

    #[test]
    fn load_imbalance_reported() {
        let seqs = family(64, 50, 9);
        let report = run(4, &seqs, &SadConfig::default());
        let imb = report.load_imbalance();
        assert!(imb >= 1.0);
        // Regular sampling bound: max ≤ 2·N/p ⇒ imbalance ≤ 2 (+ slack for
        // duplicate ranks in small samples).
        assert!(imb <= 3.0, "imbalance {imb} suspiciously high");
    }

    #[test]
    fn clustal_engine_works_too() {
        let seqs = family(12, 40, 10);
        let cfg = SadConfig::default().with_engine(align::EngineChoice::Clustal);
        let report = run(3, &seqs, &cfg);
        check_complete(&report.msa, &seqs);
    }
}
