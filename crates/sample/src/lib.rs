//! Interval-sampled measurement for rep-periodic workloads.
//!
//! A functional simulator cannot fast-forward: every simulated cycle is
//! host work, so measuring a 10x longer workload costs 10x the wall
//! clock. This crate exploits *rep-periodicity* instead. A workload
//! scaled by the `repeat` knob (see [`vic_workloads::Repeated`]) runs the
//! same driver back-to-back `R` times; after a few repetitions the
//! system settles into an exact steady cycle — often a fixed point, but
//! sometimes a short alternation when shared state (free-list rotation,
//! task ids) wobbles between rep profiles; [`detect_period`] finds the
//! cycle in the paced totals. The sampler simulates only the first `k`
//! repetitions (the *pacer*), checkpoints the last of them — the
//! *steady rep* — at
//! interval boundaries, and for a chosen subset of intervals forks the
//! paused system from an in-memory checkpoint:
//!
//! 1. **warm-up window** — replay from the checkpoint `w` intervals
//!    before the measured one with all statistics gates frozen
//!    ([`vic_os::Kernel::set_stats_frozen`]), so caches, TLB and
//!    consistency state evolve while counters stay untouched;
//! 2. **measurement window** — thaw, reset every counter
//!    ([`vic_os::Kernel::reset_stat_counters`]), drive exactly one
//!    interval, and record the per-interval [`vic_workloads::RunStats`] and
//!    [`CostTree`](vic_profile::CostTree) deltas.
//!
//! The [`extrapolate`](mod@extrapolate) module scales interval measurements to a full-run
//! estimate with an exact integer path when the measured intervals tile
//! the whole steady rep (sampling fraction 1.0 conserves every counter
//! bit-for-bit). The [`doc`] module reads the versioned calibration
//! document (`BENCH_sample.json`) whose writer lives in
//! `vic_bench::output` — this crate stays free of the bench harness so
//! the harness can depend on it.
//!
//! **What-if forking** rides on the same checkpoints: fork the paused
//! steady rep twice, swap the consistency manager in one fork
//! ([`vic_os::Kernel::swap_system`]), run both over the identical
//! remaining op stream and diff the cost trees
//! ([`vic_profile::DocDiff`]).
//!
//! Determinism contract: every fork replays the exact step sequence the
//! uninterrupted run would execute (the pause check runs *before* each
//! step, mirroring [`vic_workloads::drive`]), so a measured interval is
//! byte-identical to the same window carved out of a full run.

#![warn(missing_docs)]

pub mod doc;
pub mod driver;
pub mod extrapolate;
pub mod plan;

pub use doc::{SampleCell, SampleDoc};
pub use driver::{what_if, IntervalMeasure, SampleReport, Sampler, WhatIf};
pub use extrapolate::{
    detect_period, extrapolate, metric_index, metrics_of, rel_err_pct, Extrapolation,
    BOUNDED_METRICS, METRICS,
};
pub use plan::SamplePlan;
