//! The decomposed Sample-Align-D pipeline, written once.
//!
//! Steps 1–12 of the algorithm listing in Section 2 of the paper form one
//! program over `p` blocks ([`program`]). It runs on a [`Substrate`],
//! which decides where blocks live and how they talk:
//!
//! * [`Shared`] — the rayon backend. One copy of the program owns every
//!   block; a per-block map is a `par_iter` on the rayon pool and a
//!   collective is a `Vec` move.
//! * [`Cluster`] — the distributed backend. Every rank of the virtual
//!   cluster runs the same program and owns only its own block; maps
//!   charge the rank's virtual clock and collectives are messages.
//!
//! Phase names follow the numbered steps of the paper, so the per-phase
//! timing table lines up with the cost analysis of Section 3. With a
//! bucket cap ([`SadConfig::max_bucket`]) every block recursively splits
//! its over-cap bucket into leaves (step 7), and steps 8–12 work per
//! leaf; without one each bucket is a single leaf.
//!
//! Cancellation on the cluster is cooperative *and collective*: an SPMD
//! program cannot have one rank bail while its peers block on a
//! collective, so at every phase boundary the root polls the
//! [`crate::CancelToken`]/deadline and broadcasts the verdict — all ranks
//! stop at the same boundary, keeping the virtual clocks deterministic.

use crate::ancestor::{
    anchor_to_ancestor, anchor_to_ancestor_seeded, glue_anchored, glue_block_diagonal,
};
use crate::config::SadConfig;
use crate::error::SadError;
use crate::messages::{MaybeSeq, MsaBlockMsg, RankedSeq, SampleMsg, SeqBatch};
use crate::pipeline::{Phase, PipelineCtx};
use crate::report::{BackendExtras, PhaseStat, RunReport};
use align::anchor::AnchorSpec;
use align::consensus::consensus_sequence;
use bioseq::kmer::{self, KmerProfile};
use bioseq::{Msa, Sequence, Work};
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;
use vcluster::{Node, VirtualCluster, WireSize};

/// The shared-memory pipeline with `p` logical buckets on the rayon pool.
/// Input validation happens in [`crate::Aligner::run`].
pub(crate) fn rayon_pipeline(
    seqs: &[Sequence],
    p: usize,
    cfg: &SadConfig,
    ctx: &PipelineCtx,
) -> Result<RunReport, SadError> {
    let out = program(&Shared { p, ctx }, seqs, cfg, ctx)?;
    let (phases, work) = ctx.drain();
    Ok(report(cfg, p, out, phases, work, BackendExtras::Rayon { threads: p }))
}

/// The message-passing pipeline. `seqs` plays the role of the pre-staged
/// input files (the paper stages shards on each node's disk before timing
/// starts, so the initial slice is free here too). Input validation
/// happens in [`crate::Aligner::run`].
pub(crate) fn distributed_pipeline(
    cluster: &VirtualCluster,
    seqs: &[Sequence],
    cfg: &SadConfig,
    ctx: &PipelineCtx,
) -> Result<RunReport, SadError> {
    let run = cluster.run(|node| program(&Cluster { node, ctx }, seqs, cfg, ctx));
    let mut root = Outcome { msa: None, bucket_sizes: Vec::new(), depth: 0 };
    for result in run.results {
        let out = match result {
            Ok(out) => out,
            Err(err) => {
                // Every rank stopped at the same boundary, so no phase is
                // still open; drop whatever completed before the cut.
                let _ = ctx.drain();
                return Err(err);
            }
        };
        root.msa = root.msa.or(out.msa);
        root.bucket_sizes.extend(out.bucket_sizes);
        root.depth = root.depth.max(out.depth);
    }
    // Wall-clock timing and work come from the shared recorder; the
    // virtual per-phase maxima from the rank traces.
    let (mut phases, work) = ctx.drain();
    for (name, max, _mean) in vcluster::trace::phase_summary(&run.traces) {
        if let Some(stat) = phases.iter_mut().find(|s| s.name() == name) {
            stat.virtual_seconds = Some(max);
        }
    }
    let extras = BackendExtras::Distributed { makespan: run.makespan, traces: run.traces };
    Ok(report(cfg, cluster.p(), root, phases, work, extras))
}

fn report(
    cfg: &SadConfig,
    p: usize,
    out: Outcome,
    phases: Vec<PhaseStat>,
    work: Work,
    extras: BackendExtras,
) -> RunReport {
    RunReport {
        msa: out.msa.expect("the root assembled the alignment"),
        work,
        phases,
        bucket_sizes: out.bucket_sizes,
        ranks: p,
        samples_per_rank: cfg.samples_for(p),
        decomposition_depth: out.depth,
        kernel: cfg.dp_kernel.label(),
        vertical: None,
        trim: None,
        extras,
    }
}

/// What one copy of the program hands back.
struct Outcome {
    /// The assembled alignment (`None` on non-root ranks).
    msa: Option<Msa>,
    /// Sizes of the leaves this copy owned, in rank order.
    bucket_sizes: Vec<usize>,
    /// Deepest sub-partition split this copy made.
    depth: usize,
}

/// A payload a collective can carry.
trait Msg: WireSize + Send + 'static {}
impl<T: WireSize + Send + 'static> Msg for T {}

/// Where the decomposed program runs: which blocks this copy owns, how a
/// per-block map executes, and the collectives between blocks. Collective
/// results are indexed by copy, in block order.
trait Substrate {
    /// Blocks in the whole run (`p`).
    fn width(&self) -> usize;
    /// The blocks this copy owns.
    fn owned(&self) -> Range<usize>;
    /// Run `f` as one phase: stop at the boundary if cancellation was
    /// requested, otherwise record the phase and the work `f` reports.
    fn phase<R>(&self, phase: Phase, f: impl FnOnce() -> (R, Work)) -> Result<R, SadError>;
    /// Apply `f` to every unit, keeping their order, and charge the
    /// summed work to this copy.
    fn map<T: Send, R: Send>(
        &self,
        units: Vec<T>,
        f: impl Fn(T) -> (R, Work) + Sync + Send,
    ) -> (Vec<R>, Work);
    /// Charge work done outside [`Substrate::map`] (at the root).
    fn charge(&self, work: Work);
    /// Every copy's value, on every copy.
    fn all_gather<T: Msg + Clone>(&self, mine: T) -> Vec<T>;
    /// Every copy's value at the root; `None` elsewhere.
    fn gather<T: Msg>(&self, mine: T) -> Option<Vec<T>>;
    /// The root's value (`Some` exactly at the root), on every copy.
    fn broadcast<T: Msg + Clone>(&self, root: Option<T>) -> T;
    /// PSRS redistribution of the owned blocks by globalized rank: the
    /// owned buckets, each sorted, and the sort work (already charged).
    fn redistribute(&self, mine: Vec<Vec<RankedSeq>>) -> (Vec<Vec<RankedSeq>>, Work);
    /// How many leaves the blocks before this copy's own hold, given that
    /// this copy holds `mine`.
    fn leaves_before(&self, mine: usize) -> usize;
}

/// Shared memory: one copy owns all `p` blocks.
struct Shared<'a> {
    p: usize,
    ctx: &'a PipelineCtx,
}

impl Substrate for Shared<'_> {
    fn width(&self) -> usize {
        self.p
    }

    fn owned(&self) -> Range<usize> {
        0..self.p
    }

    fn phase<R>(&self, phase: Phase, f: impl FnOnce() -> (R, Work)) -> Result<R, SadError> {
        self.ctx.phase(phase, f)
    }

    fn map<T: Send, R: Send>(
        &self,
        units: Vec<T>,
        f: impl Fn(T) -> (R, Work) + Sync + Send,
    ) -> (Vec<R>, Work) {
        let done: Vec<(R, Work)> = units.into_par_iter().map(f).collect();
        let work = done.iter().map(|(_, w)| *w).sum();
        (done.into_iter().map(|(r, _)| r).collect(), work)
    }

    fn charge(&self, _work: Work) {}

    fn all_gather<T: Msg + Clone>(&self, mine: T) -> Vec<T> {
        vec![mine]
    }

    fn gather<T: Msg>(&self, mine: T) -> Option<Vec<T>> {
        Some(vec![mine])
    }

    fn broadcast<T: Msg + Clone>(&self, root: Option<T>) -> T {
        root.expect("the shared copy is the root")
    }

    fn redistribute(&self, mine: Vec<Vec<RankedSeq>>) -> (Vec<Vec<RankedSeq>>, Work) {
        psrs::shared::psrs_blocks(mine, |r| r.rank)
    }

    fn leaves_before(&self, _mine: usize) -> usize {
        0
    }
}

/// One rank of the virtual cluster, owning block `rank`.
struct Cluster<'a> {
    node: &'a Node,
    ctx: &'a PipelineCtx,
}

impl Substrate for Cluster<'_> {
    fn width(&self) -> usize {
        self.node.size()
    }

    fn owned(&self) -> Range<usize> {
        self.node.rank()..self.node.rank() + 1
    }

    fn phase<R>(&self, phase: Phase, f: impl FnOnce() -> (R, Work)) -> Result<R, SadError> {
        // The root polls the cancel token and the deadline and broadcasts
        // the verdict, so every rank stops (or proceeds) together. The
        // broadcast is a 1-byte deterministic-cost collective, so virtual
        // clocks stay reproducible.
        let verdict = (self.node.rank() == 0).then(|| self.ctx.cancel_requested());
        if self.node.broadcast(0, verdict) {
            return Err(SadError::Cancelled { phase });
        }
        self.ctx.rank_enter(phase);
        self.node.phase_start(phase.name());
        let (out, work) = f();
        self.node.phase_end();
        self.ctx.rank_exit(phase, work);
        Ok(out)
    }

    fn map<T: Send, R: Send>(
        &self,
        units: Vec<T>,
        f: impl Fn(T) -> (R, Work) + Sync + Send,
    ) -> (Vec<R>, Work) {
        let mut work = Work::ZERO;
        let done = units
            .into_iter()
            .map(|unit| {
                let (r, w) = f(unit);
                work += w;
                r
            })
            .collect();
        self.node.compute(work);
        (done, work)
    }

    fn charge(&self, work: Work) {
        self.node.compute(work);
    }

    fn all_gather<T: Msg + Clone>(&self, mine: T) -> Vec<T> {
        self.node.all_gather(mine)
    }

    fn gather<T: Msg>(&self, mine: T) -> Option<Vec<T>> {
        self.node.gather(0, mine)
    }

    fn broadcast<T: Msg + Clone>(&self, root: Option<T>) -> T {
        self.node.broadcast(0, root)
    }

    fn redistribute(&self, mine: Vec<Vec<RankedSeq>>) -> (Vec<Vec<RankedSeq>>, Work) {
        let out = psrs::psrs(self.node, mine.into_iter().flatten().collect(), |r| r.rank);
        (vec![out.items], out.work)
    }

    fn leaves_before(&self, mine: usize) -> usize {
        self.node.all_gather(mine)[..self.node.rank()].iter().sum()
    }
}

/// Build a k-mer profile, degrading to k=1 for ultra-short sequences.
fn profile_of(seq: &Sequence, cfg: &SadConfig) -> KmerProfile {
    KmerProfile::build(seq, cfg.kmer_k, cfg.alphabet)
        .unwrap_or_else(|| KmerProfile::build(seq, 1, cfg.alphabet).expect("k=1 always works"))
}

/// Steps 1–12 on one copy of the substrate.
fn program<S: Substrate>(
    sub: &S,
    seqs: &[Sequence],
    cfg: &SadConfig,
    ctx: &PipelineCtx,
) -> Result<Outcome, SadError> {
    debug_assert!(!seqs.is_empty(), "Aligner::run rejects empty input");
    let p = sub.width();
    let n = seqs.len();
    let chunk = n.div_ceil(p);

    // Step 1: block-distribute the input and rank every block locally.
    // Each sequence's k-mer profile is built here, once, and reused by
    // the sample exchange and the globalized rank.
    let blocks = sub.phase(Phase::LocalKmerRank, || {
        sub.map(sub.owned().collect(), |b| {
            let members: Vec<usize> = ((b * chunk).min(n)..((b + 1) * chunk).min(n)).collect();
            let mut w = Work::ZERO;
            let profs: Vec<KmerProfile> =
                members.iter().map(|&i| profile_of(&seqs[i], cfg)).collect();
            w.seq_bytes += members.iter().map(|&i| seqs[i].len() as u64).sum::<u64>();
            let ranks: Vec<f64> = profs
                .iter()
                .map(|pr| kmer::kmer_rank(pr, &profs, cfg.rank_transform, &mut w))
                .collect();
            ((members.into_iter().zip(profs).collect::<Vec<_>>(), ranks), w)
        })
    })?;

    // Step 2: sort each block by its local rank. The locally sorted order
    // also decides how globalized-rank ties break in redistribution.
    let blocks: Vec<Vec<(usize, KmerProfile)>> = sub.phase(Phase::LocalSort, || {
        sub.map(blocks, |(members, ranks)| {
            let w = psrs::sort_work(members.len());
            let mut keyed: Vec<(f64, (usize, KmerProfile))> =
                ranks.into_iter().zip(members).collect();
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
            (keyed.into_iter().map(|(_, m)| m).collect(), w)
        })
    })?;

    // Steps 3–4: regular samples per block, all-gathered into one pool.
    let k = cfg.samples_for(p);
    let pool: Vec<KmerProfile> = sub.phase(Phase::SampleExchange, || {
        let mut mine = Vec::new();
        for block in &blocks {
            let m = block.len();
            let kk = k.min(m);
            mine.extend((0..kk).map(|s| {
                let (i, prof) = &block[(((s + 1) * m) / (kk + 1)).min(m - 1)];
                SampleMsg { profile: prof.clone(), seq_bytes: seqs[*i].wire_bytes() }
            }));
        }
        let pool = sub.all_gather(mine).into_iter().flatten().map(|s| s.profile).collect();
        (pool, Work::ZERO)
    })?;

    // Step 5: globalized rank of every sequence against the pool.
    let sizes: Vec<usize> = blocks.iter().map(Vec::len).collect();
    let ranked = sub.phase(Phase::GlobalizedRank, || {
        sub.map(blocks.into_iter().flatten().collect(), |(index, prof)| {
            let mut w = Work::ZERO;
            let rank = kmer::kmer_rank(&prof, &pool, cfg.rank_transform, &mut w);
            (RankedSeq { index, rank, seq_bytes: seqs[index].wire_bytes() }, w)
        })
    })?;
    let mut ranked = ranked.into_iter();
    let ranked: Vec<Vec<RankedSeq>> =
        sizes.iter().map(|&m| ranked.by_ref().take(m).collect()).collect();

    // Step 6: PSRS redistribution, so similar sequences share a bucket.
    let buckets = sub.phase(Phase::Redistribute, || sub.redistribute(ranked))?;

    // Step 7 (capped runs only): every block splits its own over-cap
    // bucket into leaves. Leaves replace their bucket in order, so
    // concatenating them still yields the global rank order. `offset`
    // counts the leaves on lower blocks, so every leaf has a run-wide
    // label.
    let first = sub.owned().start;
    let (leaves, depth, offset) = match cfg.max_bucket {
        None => (buckets, 0, first),
        Some(cap) => sub.phase(Phase::SubPartition, || {
            let (splits, work) = sub.map(buckets, |bucket| {
                let mut splitter = BucketSplitter { cap, ..BucketSplitter::default() };
                splitter.split(bucket, 1);
                let w = splitter.work;
                (splitter, w)
            });
            let mut leaves = Vec::new();
            let mut depth = 0;
            for (b, splitter) in splits.into_iter().enumerate() {
                for &(d, size, parts) in &splitter.splits {
                    ctx.bucket_split(first + b, d, size, parts);
                }
                depth = depth.max(splitter.deepest);
                leaves.extend(splitter.leaves);
            }
            let offset = sub.leaves_before(leaves.len());
            ((leaves, depth, offset), work)
        })?,
    };
    let bucket_sizes: Vec<usize> = leaves.iter().map(Vec::len).collect();
    let lone_leaf = p == 1 && leaves.len() == 1;
    let done = move |msa: Option<Msa>| Ok(Outcome { msa, bucket_sizes, depth });

    // Step 8: the sequential engine on every non-empty leaf.
    let units: Vec<(usize, Vec<Sequence>)> = leaves
        .iter()
        .enumerate()
        .filter(|(_, leaf)| !leaf.is_empty())
        .map(|(j, leaf)| (offset + j, leaf.iter().map(|r| seqs[r.index].clone()).collect()))
        .collect();
    let local: Vec<(usize, Msa)> = sub.phase(Phase::LocalAlign, || {
        sub.map(units, |(label, bucket)| {
            let t0 = Instant::now();
            let engine = cfg.engine.build_with(cfg.band_policy, cfg.dp_kernel);
            let (msa, w) = engine.align_with_work(&bucket);
            ctx.bucket_aligned(label, msa.num_rows(), t0.elapsed().as_secs_f64());
            ((label, msa), w)
        })
    })?;

    // A lone leaf IS the global alignment. Every copy can tell without a
    // collective: only a one-block run can hold a single leaf, and its
    // only copy owns it.
    if lone_leaf {
        return done(local.into_iter().next().map(|(_, msa)| msa));
    }
    if !cfg.fine_tune {
        let msa = sub.phase(Phase::Glue, || {
            let mut w = Work::ZERO;
            let mine: Vec<MsaBlockMsg> =
                local.into_iter().map(|(_, msa)| MsaBlockMsg(msa)).collect();
            let msa = sub.gather(mine).map(|all| {
                let mut present: Vec<Msa> = all.into_iter().flatten().map(|b| b.0).collect();
                if present.len() == 1 {
                    present.pop().expect("one block")
                } else {
                    glue_block_diagonal(&present, &mut w)
                }
            });
            sub.charge(w);
            (msa, w)
        })?;
        return done(msa);
    }

    // Step 9: the local ancestor (consensus) of every leaf.
    let ancestors = sub.phase(Phase::LocalAncestor, || {
        sub.map(local.iter().collect(), |(label, msa)| {
            let mut w = Work::ZERO;
            (consensus_sequence(msa, format!("local-anc-{label}"), &mut w), w)
        })
    })?;

    // Step 10: the global ancestor at the root, broadcast to everyone.
    let ga = sub.phase(Phase::GlobalAncestor, || {
        let mut w = Work::ZERO;
        let root = sub.gather(SeqBatch(ancestors)).map(|all| {
            let mut ancestors: Vec<Sequence> = all.into_iter().flat_map(|b| b.0).collect();
            assert!(!ancestors.is_empty(), "at least one leaf is non-empty");
            if ancestors.len() == 1 {
                ancestors.pop().expect("one ancestor")
            } else {
                let engine = cfg.engine.build_with(cfg.band_policy, cfg.dp_kernel);
                let (anc_msa, aw) = engine.align_with_work(&ancestors);
                w += aw;
                consensus_sequence(&anc_msa, "global-ancestor", &mut w)
            }
        });
        sub.charge(w);
        let ga = sub.broadcast(root.map(|ga| MaybeSeq(Some(ga))));
        (ga.0.expect("global ancestor broadcast"), w)
    })?;

    // Step 11: anchor every leaf to the global ancestor. On capped runs
    // the leaf MSAs are gappy fragment stacks, where the whole-width
    // profile DP wastes most of its bill on conserved stretches, so the
    // DP is seeded with the anchor scan and only the gaps in between are
    // aligned.
    let seeded = cfg.max_bucket.is_some() && cfg.anchored_merge;
    let anchored = sub.phase(Phase::FineTune, || {
        sub.map(local.iter().map(|(_, msa)| msa).collect(), |msa| {
            let mut w = Work::ZERO;
            let (m, g, band, kernel) = (&cfg.matrix, cfg.gaps, cfg.band_policy, cfg.dp_kernel);
            let block = if seeded {
                let spec = AnchorSpec::default();
                anchor_to_ancestor_seeded(msa, &ga, &spec, m, g, band, kernel, &mut w)
            } else {
                anchor_to_ancestor(msa, &ga, m, g, band, kernel, &mut w)
            };
            (block, w)
        })
    })?;

    // Step 12: glue the anchored leaves at the root.
    let msa = sub.phase(Phase::Glue, || {
        let mut w = Work::ZERO;
        let msa = sub.gather(anchored).map(|all| {
            let blocks: Vec<_> = all.into_iter().flatten().collect();
            glue_anchored(ga.len(), &blocks, &mut w)
        });
        sub.charge(w);
        (msa, w)
    })?;
    done(msa)
}

/// Recursive decomposition of one over-cap bucket ([`Phase::SubPartition`]):
/// the cap, plus the leaves, splits, deepest split and partition work.
#[derive(Default)]
struct BucketSplitter {
    cap: usize,
    /// Finished leaves, in rank order.
    leaves: Vec<Vec<RankedSeq>>,
    /// Every split as `(depth, size, parts)`, in the order it happened.
    splits: Vec<(usize, usize, usize)>,
    /// Deepest split.
    deepest: usize,
    work: Work,
}

impl BucketSplitter {
    /// Recursively split `bucket` until every leaf holds at most `cap`
    /// sequences, appending the leaves (in rank order).
    ///
    /// Each over-cap bucket is re-partitioned by the same
    /// regular-sampling partition the first pass used, over its own
    /// members — the hierarchical decomposition of the Pyro-Align
    /// follow-up. Identical rank keys can defeat sampling (every member
    /// lands in one sub-bucket); that no-progress case falls back to
    /// chunking the (already sorted) bucket into contiguous runs of at
    /// most `cap`, which always terminates.
    fn split(&mut self, bucket: Vec<RankedSeq>, depth: usize) {
        if bucket.len() <= self.cap {
            self.leaves.push(bucket);
            return;
        }
        self.deepest = self.deepest.max(depth);
        let size = bucket.len();
        let parts = size.div_ceil(self.cap);
        self.splits.push((depth, size, parts));
        let (subs, sw) = psrs::shared::sample_partition_by_with_work(bucket, parts, |r| r.rank);
        self.work += sw;
        if subs.iter().map(Vec::len).max().unwrap_or(0) == size {
            // No progress: all keys collapsed onto one pivot side. The
            // bucket comes back sorted, so contiguous chunks of ≤ cap
            // preserve rank order exactly.
            let whole: Vec<RankedSeq> = subs.into_iter().flatten().collect();
            for chunk in whole.chunks(size.div_ceil(parts)) {
                debug_assert!(chunk.len() <= self.cap);
                self.leaves.push(chunk.to_vec());
            }
            return;
        }
        for sub in subs {
            if !sub.is_empty() {
                self.split(sub, depth + 1);
            }
        }
    }
}
