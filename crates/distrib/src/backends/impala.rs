//! An IMPALA-like backend — the §II-A architecture implemented as an
//! *extension* beyond the paper's three studied frameworks.
//!
//! Architecture: rollout actors across 1–2 nodes refresh their policy
//! snapshot only every [`ImpalaOpts::actor_sync_period`] iterations (far
//! staler than the RLlib-like backend's 2) via [`SyncPolicy::Periodic`],
//! and the central learner corrects the resulting off-policyness with
//! V-trace. This is the paper's §VI-D trade-off (distribute ⇒ faster but
//! less accurate) attacked at the algorithm level instead of the
//! deployment level.
//!
//! Collection is asynchronous in *execution* (actors finish in any order;
//! [`crate::runtime::WaveOutcome::arrival`] records the completion order)
//! but the runtime drains segments into worker-index order before the
//! learner sees them, so training is bitwise reproducible regardless of
//! scheduling.
//!
//! Not part of [`crate::framework::Framework`] (Table I's space is the
//! paper's); drive it directly via [`train_impala`].

use super::{train_on_policy, CollectRng, Inference, Layout, Learner, Plan, Run};
use crate::backend::EnvFactory;
use crate::framework::{Framework, FrameworkProfile};
use crate::report::ExecReport;
use crate::runtime::{Control, FaultPolicy, SyncPolicy, TransportConfig};
use crate::spec::Deployment;
use cluster_sim::ClusterSession;
use rl_algos::impala::{ImpalaConfig, ImpalaLearner};

/// IMPALA execution options.
#[derive(Debug, Clone)]
pub struct ImpalaOpts {
    /// Node/core assignment (IMPALA scales across nodes by design).
    pub deployment: Deployment,
    /// Total environment steps.
    pub total_steps: usize,
    /// Master seed.
    pub seed: u64,
    /// Learner hyperparameters.
    pub config: ImpalaConfig,
    /// Iterations between actor snapshot refreshes (IMPALA tolerates
    /// large values; the RLlib-like backend uses 2 for its remote nodes).
    pub actor_sync_period: u64,
    /// How the runtime reacts to actor failures.
    pub fault: FaultPolicy,
    /// Cap on in-flight collection commands (`Runtime::with_window`);
    /// `None` keeps the host-parallelism default.
    pub window: Option<usize>,
    /// Transport override (`inproc`, `uds`, `tcp`, `tcp:<addr>`); `None`
    /// defers to `RLDT_TRANSPORT`. Malformed values are rejected.
    pub transport: Option<String>,
}

impl Default for ImpalaOpts {
    fn default() -> Self {
        Self {
            deployment: Deployment { nodes: 2, cores_per_node: 4 },
            total_steps: 20_000,
            seed: 0,
            config: ImpalaConfig::default(),
            actor_sync_period: 4,
            fault: FaultPolicy::default(),
            window: None,
            transport: None,
        }
    }
}

/// The IMPALA plan: per-env actors like RLlib's, but every actor
/// refreshes only every `actor_sync_period` iterations, and Ray-class
/// cost constants.
fn plan(actor_sync_period: u64) -> Plan {
    Plan {
        layout: Layout::PerEnv,
        sync: SyncPolicy::Periodic { period: actor_sync_period },
        collect_rng: CollectRng::Fresh { offset: 1 },
        inference: Inference::InCollection,
        profile: FrameworkProfile {
            per_iter_overhead_s: 0.5,
            per_step_overhead_units: 120.0,
            learner_streams: 2,
            name: "IMPALA-like",
        },
        // Never read: IMPALA trains no SAC learner.
        sac_seed_tag: 0,
    }
}

/// Train with the IMPALA architecture; see the module docs. Deployments
/// and transports are checked like [`crate::run`]'s, and worker failures
/// the [`FaultPolicy`] cannot absorb surface as `Err`.
pub fn train_impala(
    opts: &ImpalaOpts,
    factory: &dyn EnvFactory,
    session: &mut ClusterSession,
) -> Result<ExecReport, String> {
    // IMPALA spreads over nodes the way RLlib does.
    opts.deployment.validate(Framework::RayRllib)?;
    let run = Run {
        deployment: opts.deployment,
        total_steps: opts.total_steps,
        seed: opts.seed,
        fault: opts.fault,
        window: opts.window,
        transport: TransportConfig::resolve(opts.transport.as_deref())?,
    };
    train_on_policy(
        &plan(opts.actor_sync_period),
        &run,
        |obs_dim, space, rng| {
            Learner::Impala(ImpalaLearner::new(obs_dim, space, opts.config.clone(), rng))
        },
        factory,
        session,
        &mut |_, _| Control::Continue,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FnEnvFactory;
    use cluster_sim::ClusterSpec;
    use gymrs::envs::GridWorld;
    use gymrs::Environment;

    fn grid_factory() -> impl EnvFactory {
        FnEnvFactory(|seed| {
            let mut e = GridWorld::new(3);
            e.seed(seed);
            Box::new(e) as Box<dyn Environment>
        })
    }

    fn run(opts: &ImpalaOpts) -> (ExecReport, cluster_sim::Usage) {
        let mut session = ClusterSession::new(ClusterSpec::paper_testbed(opts.deployment.nodes));
        let mut report = train_impala(opts, &grid_factory(), &mut session).expect("runs");
        let usage = session.finish();
        report.usage = usage;
        (report, usage)
    }

    #[test]
    fn impala_completes_on_two_nodes_with_traffic() {
        let opts = ImpalaOpts {
            total_steps: 2_048,
            config: ImpalaConfig { hidden: vec![16, 16], n_steps: 256, ..Default::default() },
            ..Default::default()
        };
        let (report, usage) = run(&opts);
        assert!(report.env_steps >= 2_048);
        assert!(report.updates > 0);
        assert!(usage.bytes_moved > 0, "remote actors ship experience");
    }

    #[test]
    fn impala_learns_despite_extreme_staleness() {
        // Ten seeds fixed up front; the median tail mean must clear the
        // bar, so one unlucky seed cannot decide the verdict.
        let mut tail_means: Vec<f64> = (0..10)
            .map(|seed| {
                let opts = ImpalaOpts {
                    deployment: Deployment { nodes: 1, cores_per_node: 4 },
                    total_steps: 24_000,
                    seed,
                    config: ImpalaConfig {
                        hidden: vec![32, 32],
                        n_steps: 512,
                        ..Default::default()
                    },
                    actor_sync_period: 6,
                    ..Default::default()
                };
                let (report, _) = run(&opts);
                let tail = &report.train_returns[report.train_returns.len().saturating_sub(15)..];
                tail.iter().sum::<f64>() / tail.len().max(1) as f64
            })
            .collect();
        let per_seed = tail_means.clone();
        tail_means.sort_by(f64::total_cmp);
        let median = (tail_means[4] + tail_means[5]) / 2.0;
        // Random wandering scores far below zero on the 3x3 grid; a
        // partially-converged policy sits well above it even with the
        // six-iteration snapshot lag.
        assert!(median > 0.25, "median recent mean return {median}; per seed {per_seed:?}");
    }

    #[test]
    fn longer_sync_period_ships_fewer_weight_broadcasts() {
        let base = ImpalaOpts {
            total_steps: 4_096,
            config: ImpalaConfig { hidden: vec![16, 16], n_steps: 512, ..Default::default() },
            ..Default::default()
        };
        let frequent = ImpalaOpts { actor_sync_period: 1, ..base.clone() };
        let rare = ImpalaOpts { actor_sync_period: 8, ..base };
        let (_, u_freq) = run(&frequent);
        let (_, u_rare) = run(&rare);
        assert!(
            u_rare.bytes_moved < u_freq.bytes_moved,
            "rare sync {} must ship less than frequent {}",
            u_rare.bytes_moved,
            u_freq.bytes_moved
        );
    }

    #[test]
    fn multi_worker_runs_are_bitwise_reproducible() {
        let opts = ImpalaOpts {
            deployment: Deployment { nodes: 2, cores_per_node: 4 },
            total_steps: 2_048,
            config: ImpalaConfig { hidden: vec![16, 16], n_steps: 256, ..Default::default() },
            ..Default::default()
        };
        let (a, ua) = run(&opts);
        let (b, ub) = run(&opts);
        assert_eq!(a.train_returns, b.train_returns);
        assert_eq!(ua.wall_s.to_bits(), ub.wall_s.to_bits());
        assert_eq!(ua.energy_j.to_bits(), ub.energy_j.to_bits());
    }

    #[test]
    fn zero_cores_is_an_error_not_a_panic() {
        let opts = ImpalaOpts {
            deployment: Deployment { nodes: 1, cores_per_node: 0 },
            total_steps: 256,
            ..Default::default()
        };
        let mut session = ClusterSession::new(ClusterSpec::paper_testbed(1));
        assert!(train_impala(&opts, &grid_factory(), &mut session).is_err());
    }

    #[test]
    fn malformed_transport_is_rejected() {
        let opts = ImpalaOpts {
            deployment: Deployment { nodes: 1, cores_per_node: 2 },
            total_steps: 256,
            transport: Some("udp".into()),
            ..Default::default()
        };
        let mut session = ClusterSession::new(ClusterSpec::paper_testbed(1));
        let err = train_impala(&opts, &grid_factory(), &mut session).err();
        assert!(err.is_some_and(|e| e.contains("udp")), "udp is not a transport");
    }
}
