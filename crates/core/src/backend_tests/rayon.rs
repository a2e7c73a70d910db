//! The rayon backend's suite for the decomposed pipeline. The capped
//! tests take the backend as an input and run on the virtual cluster too.

mod tests {
    use crate::pipeline::Phase;
    use crate::{Aligner, Backend, RunReport, SadConfig};
    use bioseq::{Msa, Sequence, Work};
    use rosegen::{Family, FamilyConfig};
    use std::collections::HashMap;
    use vcluster::{CostModel, VirtualCluster};

    fn family(n: usize, seed: u64) -> Vec<Sequence> {
        Family::generate(&FamilyConfig {
            n_seqs: n,
            avg_len: 60,
            relatedness: 700.0,
            seed,
            ..Default::default()
        })
        .seqs
    }

    fn run(seqs: &[Sequence], p: usize, cfg: &SadConfig) -> RunReport {
        Aligner::new(cfg.clone()).backend(Backend::Rayon { threads: p }).run(seqs).unwrap()
    }

    /// Both decomposed backends at width `p`.
    fn backends(p: usize) -> [Backend; 2] {
        [
            Backend::Rayon { threads: p },
            Backend::Distributed(VirtualCluster::new(p, CostModel::beowulf_2008())),
        ]
    }

    fn run_on(backend: &Backend, seqs: &[Sequence], cfg: &SadConfig) -> RunReport {
        Aligner::new(cfg.clone()).backend(backend.clone()).run(seqs).unwrap()
    }

    fn check_complete(result: &Msa, input: &[Sequence]) {
        result.validate().unwrap();
        assert_eq!(result.num_rows(), input.len());
        let by_id: HashMap<&str, &Sequence> = input.iter().map(|s| (s.id.as_str(), s)).collect();
        for r in 0..result.num_rows() {
            let want = by_id[result.ids()[r].as_str()];
            assert_eq!(&result.ungapped(r), want);
        }
    }

    #[test]
    fn end_to_end() {
        let seqs = family(24, 1);
        let report = run(&seqs, 4, &SadConfig::default());
        check_complete(&report.msa, &seqs);
        assert_eq!(report.bucket_sizes.iter().sum::<usize>(), 24);
        assert!(!report.work.is_zero());
    }

    #[test]
    fn deterministic_despite_parallelism() {
        let seqs = family(20, 2);
        let a = run(&seqs, 4, &SadConfig::default());
        let b = run(&seqs, 4, &SadConfig::default());
        assert_eq!(a.msa, b.msa);
        assert_eq!(a.work, b.work);
        assert_eq!(a.phase_sequence(), b.phase_sequence());
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            assert_eq!(pa.work, pb.work, "{}", pa.name());
        }
    }

    #[test]
    fn p1_is_single_bucket() {
        let seqs = family(8, 3);
        let report = run(&seqs, 1, &SadConfig::default());
        check_complete(&report.msa, &seqs);
        assert_eq!(report.bucket_sizes, vec![8]);
    }

    #[test]
    fn agrees_with_distributed_on_bucketing() {
        // Same sampling rules ⇒ same bucket sizes as the message-passing
        // backend.
        let seqs = family(32, 4);
        let cfg = SadConfig::default();
        let ray = run(&seqs, 4, &cfg);
        let cluster = VirtualCluster::new(4, CostModel::beowulf_2008());
        let dist = Aligner::new(cfg).backend(Backend::Distributed(cluster)).run(&seqs).unwrap();
        assert_eq!(ray.bucket_sizes, dist.bucket_sizes);
        // And the same final alignment (one program on both backends).
        assert_eq!(ray.msa, dist.msa);
        // Step-identical down to the typed phase sequence.
        assert_eq!(ray.phase_sequence(), dist.phase_sequence());
    }

    #[test]
    fn fine_tune_off_is_block_diagonal() {
        let seqs = family(16, 5);
        let cfg = SadConfig::default().with_fine_tune(false);
        let report = run(&seqs, 4, &cfg);
        check_complete(&report.msa, &seqs);
        assert!(report.phase_sequence().ends_with(&[Phase::LocalAlign, Phase::Glue]));
        assert!(!report.phase_sequence().contains(&Phase::FineTune));
    }

    #[test]
    fn work_is_attributed_to_phases() {
        let seqs = family(20, 6);
        let report = run(&seqs, 4, &SadConfig::default());
        assert_eq!(report.work, report.phases.iter().map(|p| p.work).sum::<Work>());
        let of = |phase: Phase| report.phase(phase).map(|p| p.work).unwrap_or(Work::ZERO);
        assert!(of(Phase::LocalKmerRank).kmer_ops > 0);
        assert!(of(Phase::LocalSort).sort_ops > 0);
        assert!(of(Phase::Redistribute).sort_ops > 0);
        assert!(of(Phase::LocalAlign).dp_cells > 0);
        // Shared-memory runs carry real wall time but no virtual clock.
        assert!(report.phases.iter().all(|p| p.seconds.is_some()));
        assert!(report.phases.iter().all(|p| p.virtual_seconds.is_none()));
    }

    #[test]
    fn small_inputs_align() {
        let seqs3 = family(3, 7);
        let report = run(&seqs3, 8, &SadConfig::default());
        check_complete(&report.msa, &seqs3);
    }

    #[test]
    fn max_bucket_caps_every_leaf() {
        let seqs = family(60, 8);
        let cfg = SadConfig::default().with_max_bucket(Some(8));
        for backend in backends(2) {
            let report = run_on(&backend, &seqs, &cfg);
            let name = backend.name();
            check_complete(&report.msa, &seqs);
            assert!(
                report.bucket_sizes.iter().all(|&b| b <= 8),
                "{name}: {:?}",
                report.bucket_sizes
            );
            assert_eq!(report.bucket_sizes.iter().sum::<usize>(), 60);
            assert!(report.decomposition_depth >= 1, "{name}: 60 seqs over 2 buckets must split");
            // The sub-partition phase slots between redistribution and
            // the engine runs.
            let seq = report.phase_sequence();
            let at = |p| seq.iter().position(|&x| x == p).unwrap();
            assert!(at(Phase::Redistribute) < at(Phase::SubPartition), "{name}");
            assert!(at(Phase::SubPartition) < at(Phase::LocalAlign), "{name}");
        }
    }

    #[test]
    fn uncapped_runs_have_no_sub_partition_phase() {
        let seqs = family(24, 9);
        let report = run(&seqs, 4, &SadConfig::default());
        assert!(!report.phase_sequence().contains(&Phase::SubPartition));
        assert_eq!(report.decomposition_depth, 0);
    }

    #[test]
    fn loose_cap_matches_flat_partition() {
        // A cap nothing exceeds records the phase but splits nothing: the
        // buckets — and the alignment — match the uncapped run.
        let seqs = family(24, 10);
        let loose = SadConfig::default().with_max_bucket(Some(1000));
        for backend in backends(4) {
            let name = backend.name();
            let flat = run_on(&backend, &seqs, &SadConfig::default());
            let capped = run_on(&backend, &seqs, &loose);
            assert_eq!(capped.bucket_sizes, flat.bucket_sizes, "{name}");
            assert_eq!(capped.msa, flat.msa, "{name}");
            assert_eq!(capped.decomposition_depth, 0, "{name}");
            assert!(capped.phase_sequence().contains(&Phase::SubPartition), "{name}");
        }
    }

    #[test]
    fn capped_p1_decomposes_instead_of_centralising() {
        let seqs = family(40, 11);
        let cfg = SadConfig::default().with_max_bucket(Some(10));
        for backend in backends(1) {
            let report = run_on(&backend, &seqs, &cfg);
            check_complete(&report.msa, &seqs);
            assert!(report.bucket_sizes.len() >= 4, "{:?}", report.bucket_sizes);
            assert!(report.bucket_sizes.iter().all(|&b| b <= 10));
        }
    }

    #[test]
    fn capped_runs_are_deterministic() {
        let seqs = family(48, 12);
        let cfg = SadConfig::default().with_max_bucket(Some(6));
        let a = run(&seqs, 3, &cfg);
        let b = run(&seqs, 3, &cfg);
        assert_eq!(a.msa, b.msa);
        assert_eq!(a.bucket_sizes, b.bucket_sizes);
        assert_eq!(a.decomposition_depth, b.decomposition_depth);
    }

    #[test]
    fn identical_rank_keys_still_terminate() {
        // Identical sequences share one rank key; sampling cannot split
        // them, so the chunking fallback must cap the leaves.
        let seqs: Vec<Sequence> = (0..30)
            .map(|i| Sequence::from_codes(format!("dup{i}"), vec![1, 2, 3, 4, 5, 6, 7, 8]))
            .collect();
        let cfg = SadConfig::default().with_kmer_k(2).with_max_bucket(Some(4));
        for backend in backends(2) {
            let report = run_on(&backend, &seqs, &cfg);
            check_complete(&report.msa, &seqs);
            assert!(report.bucket_sizes.iter().all(|&b| b <= 4), "{:?}", report.bucket_sizes);
            assert_eq!(report.bucket_sizes.iter().sum::<usize>(), 30);
        }
    }
}
