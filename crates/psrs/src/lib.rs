//! # psrs — Parallel Sorting by Regular Sampling (SampleSort)
//!
//! Sample-Align-D redistributes sequences between processors exactly the
//! way SampleSort/PSRS redistributes keys: sort locally, pick `p − 1`
//! evenly spaced (regular) samples per processor, gather the `p(p−1)`
//! sample keys at the root, pick `p − 1` pivots from the sorted sample,
//! broadcast them, and exchange buckets all-to-all. Shi & Schaeffer (1992)
//! prove that with regular sampling no processor ends up with more than
//! `2N/p` items as long as `N > p³` — the paper leans on this bound for
//! load balancing, and [`max_partition_bound`] restates it.
//!
//! Two implementations share the sampling/pivot code:
//! * [`cluster::psrs`] — the real distributed protocol over a
//!   [`vcluster::Node`] (this is what Sample-Align-D calls);
//! * [`shared::psrs_blocks`] — the same round over blocks held in one
//!   address space (the multithreaded variant of the system), and
//!   [`shared::sample_sort_by`] built on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod sampling;
pub mod shared;

pub use cluster::{psrs, PsrsOutcome};
pub use sampling::{max_partition_bound, regular_samples, select_pivots, sort_work};
