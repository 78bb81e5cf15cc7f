//! # rigid-faults — deterministic fault injection for the engine
//!
//! The paper's model assumes every task runs for exactly its nominal
//! `t_i` on a platform of exactly `P` processors. This crate perturbs
//! those assumptions in a **reproducible** way: a [`FaultInjector`] is a
//! [`FaultModel`](rigid_sim::FaultModel) driven entirely by a ChaCha8
//! stream, so a `(config, seed)` pair replays the identical fault
//! schedule on every run — the property that makes fault campaigns
//! diffable and regressions bisectable.
//!
//! Three fault classes (mix freely via [`FaultConfig`]):
//!
//! * **fail-stop** — an attempt dies partway through (uniform in
//!   `[10%, 90%]` of `t_i`, in exact thousandths); the task must be
//!   re-executed from scratch;
//! * **stragglers** — an attempt completes but runs `t_i · f` for an
//!   inflation factor `f > 1` sampled in exact thousandths;
//! * **capacity dips** — explicit finite windows during which fewer
//!   processors accept new starts (processor drop + recovery).
//!
//! All fault timing is exact rational arithmetic ([`rigid_time::Time`]);
//! the only floating point anywhere is in reporting.
//!
//! [`campaign`] runs one seeded trial of a scheduler under faults
//! ([`run_trial`]) and aggregates many into retries, wasted area, and
//! makespan inflation relative to the fault-free run of the same
//! instance ([`CampaignStats`]). Campaigns themselves — the seed loop,
//! its supervision, journal and worker threads — live in
//! `rigid-supervise`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod injector;

pub use campaign::{
    panic_message, run_trial, run_trial_reusing, CampaignStats, TrialError, TrialStats,
};
pub use injector::{CapacityDip, FaultConfig, FaultInjector};
