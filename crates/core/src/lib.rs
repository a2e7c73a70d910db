//! # sad-core — Sample-Align-D
//!
//! The paper's contribution: a SampleSort-inspired distributed multiple
//! sequence alignment system. The pipeline on `p` processors:
//!
//! 1. block-distribute the `N` sequences (`w = N/p` each);
//! 2. compute each sequence's **k-mer rank** locally and sort by it;
//! 3. pick `k` regular samples per processor and all-gather them —
//!    the `k·p` samples represent the whole set;
//! 4. re-rank every sequence against the global sample (*globalized
//!    rank*);
//! 5. redistribute with PSRS bucketing so similar sequences co-locate;
//! 6. align each bucket independently with any sequential MSA engine
//!    (MUSCLE in the paper, [`align::MuscleLite`] here);
//! 7. extract each bucket's **local ancestor** (consensus), align the
//!    ancestors at the root into a **global ancestor**, broadcast it;
//! 8. profile-align every bucket against the global ancestor (the
//!    constrained fine-tuning of Fig. 2) and **glue** the anchored buckets
//!    into one global alignment at the root.
//!
//! One entry point, three interchangeable backends: build an [`Aligner`]
//! and pick a [`Backend`] —
//!
//! * [`Backend::Distributed`] — the real message-passing protocol over
//!   [`vcluster`] (virtual Beowulf; deterministic virtual time);
//! * [`Backend::Rayon`] — a shared-memory equivalent using rayon;
//! * [`Backend::Sequential`] — the engine run directly (the speedup
//!   baseline).
//!
//! The two decomposed backends run one program: the crate writes the
//! steps above once, over `p` blocks, and runs them on a shared-memory
//! substrate (rayon) or on one virtual-cluster rank per block. They give
//! the same alignment, bucket census and per-phase work on the same
//! input and width, with or without the hierarchical bucket cap
//! ([`SadConfig::max_bucket`]) of the large-N read mode.
//!
//! Every backend returns the same [`RunReport`]; failures are typed
//! [`SadError`]s instead of panics. All three backends record their run
//! through the one [`pipeline`] layer: typed [`Phase`] ids with real
//! wall-clock seconds per phase, live [`Event`]s to a registered
//! [`Observer`], and cooperative cancellation via [`CancelToken`] or a
//! deadline ([`SadError::Cancelled`] names the phase the run stopped at).
//!
//! Many families per process: [`Aligner::run_batch`] schedules an ordered
//! set of named [`BatchJob`]s across a backend-aware worker pool and
//! returns a [`BatchReport`] — per-job `Result`s (failures are isolated),
//! aggregate throughput, and `JobStarted`/`JobFinished` events on the
//! same observer surface.
//!
//! The pre-0.2 entry points (`run_distributed`, `run_rayon`,
//! `run_sequential`) — deprecated shims since 0.2 — are gone; see the
//! README migration table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aligner;
pub mod ancestor;
pub mod audit;
pub mod batch;
pub mod config;
pub mod decomp;
mod decomposed;
pub mod error;
pub mod messages;
pub mod pipeline;
pub mod rank;
pub mod report;
pub mod sequential;

// The backend-level suites of the decomposed pipeline, one per backend.
#[cfg(test)]
#[path = "backend_tests/distributed.rs"]
mod distributed;
#[cfg(test)]
#[path = "backend_tests/rayon.rs"]
mod rayon_impl;

pub use align::{BandPolicy, TrimConfig};
pub use aligner::{Aligner, Backend};
pub use batch::{BatchJob, BatchReport, JobReport};
pub use config::SadConfig;
pub use decomp::{VerticalConfig, VerticalPlan, VerticalReport};
pub use error::SadError;
pub use pipeline::{CancelToken, Event, Observer, Phase};
pub use rank::{rank_experiment, RankExperiment};
pub use report::{BackendExtras, PhaseStat, RunReport, TrimReport};
