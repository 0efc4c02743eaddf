//! # dist-exec — framework-like distributed execution backends
//!
//! The paper compares three RL frameworks whose *architectures* differ in
//! how they spread work over CPU cores and nodes (§V-b, §VI-D):
//!
//! | Paper framework | Architecture | Plan |
//! |---|---|---|
//! | Ray RLlib | distributed rollout workers + central learner, scales to multiple nodes, async weight sync | [`backends::rllib`] |
//! | Stable Baselines | synchronous vectorized environments, one sub-env per CPU core, single node | [`backends::sb3`] |
//! | TF-Agents | parallel collection driver on a single node, lean runtime | [`backends::tfa`] |
//!
//! The frameworks differ only in data: each module holds one plan (actor
//! layout, weight-sync cadence, collection rng, where inference is
//! charged, cost profile), and [`train`] runs every plan through the same
//! PPO/IMPALA loop or the same SAC loop. A caller-supplied per-iteration
//! hook decides whether a trial goes on; [`run`] and [`run_recorded`]
//! always continue.
//!
//! All three *really* run the training (worker threads collect experience
//! from real environments; the shared `rl-algos` learners do real gradient
//! updates), and narrate their execution to a `cluster-sim` session that
//! converts the counted work into the simulated wall-clock time and energy
//! that Table I reports. The architectural signals the paper observes are
//! structural here:
//!
//! * RLlib-like on 2 nodes overlaps collection across nodes (faster) but
//!   pays network transfers, idle power of both machines, and policy
//!   staleness (worse reward — §VI-D, configurations 7 vs 8);
//! * Stable-Baselines-like is strictly synchronous and deterministic
//!   (best reward, §VI-A) but serializes inference and learning;
//! * TF-Agents-like has the smallest framework overhead per step (lowest
//!   power, §VI-B).
//!
//! All backends execute on one actor-style [`runtime`]: long-lived worker
//! threads pinned to simulated nodes, typed command/event channels, and a
//! [`runtime::Driver`] that owns the iteration bookkeeping and narrates
//! every cost as a `cluster_sim::SessionEvent`.

pub mod backend;
pub mod backends;
pub mod framework;
pub mod keys;
pub mod report;
pub mod runtime;
pub mod spec;

pub use backend::{run, run_recorded, EnvFactory, FnEnvFactory};
pub use backends::{train, train_impala, ImpalaOpts};
pub use framework::{Framework, FrameworkProfile};
pub use report::{ExecReport, TrainedModel};
pub use runtime::{
    report_mean, run_whatif, run_worker_process, ContinuationPolicy, Control, EnvBlueprint,
    FaultCause, FaultLog, FaultPolicy, Runtime, RuntimeError, SyncPolicy, TransportConfig,
    TransportKind, TransportStats, WhatIfPayload, WhatIfTask, REPORT_WINDOW,
};
pub use spec::{Deployment, ExecSpec};
