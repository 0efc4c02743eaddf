//! Environment factories and the run entry points.

use crate::backends::train;
use crate::report::ExecReport;
use crate::runtime::Control;
use crate::spec::ExecSpec;
use cluster_sim::{ClusterSession, ClusterSpec};
use gymrs::Environment;
use telemetry::SharedRecorder;

/// Creates per-worker environment instances.
///
/// Factories are `Send + Sync` because runtime workers build
/// environments inside their own threads.
pub trait EnvFactory: Send + Sync {
    /// Build a fresh environment seeded with `seed`.
    fn make(&self, seed: u64) -> Box<dyn Environment>;

    /// The serializable recipe for this factory's environments, if it
    /// has one. Only blueprint-backed factories can run workers on the
    /// process transport (closures cannot cross a process boundary);
    /// the default `None` keeps such factories on the in-process
    /// transport.
    fn blueprint(&self) -> Option<crate::runtime::EnvBlueprint> {
        None
    }
}

/// Closure adapter for [`EnvFactory`].
pub struct FnEnvFactory<F>(pub F);

impl<F> EnvFactory for FnEnvFactory<F>
where
    F: Fn(u64) -> Box<dyn Environment> + Send + Sync,
{
    fn make(&self, seed: u64) -> Box<dyn Environment> {
        (self.0)(seed)
    }
}

/// Run a full training execution: validates the spec, builds the cluster
/// session for the requested deployment, trains on the framework's plan
/// and finalizes the usage accounting.
pub fn run(spec: &ExecSpec, factory: &dyn EnvFactory) -> Result<ExecReport, String> {
    run_recorded(spec, factory, telemetry::null_recorder())
}

/// [`run`] with a telemetry recorder tapping the whole stack: the cluster
/// session's accounting, the driver's [`crate::keys::TRIAL_ITERATION`]
/// events and step counters, the runtime's dispatch traffic and the
/// vectorized environments' tick counters all land on `recorder`. The
/// recorder only observes; to stop a trial early, call [`train`] with a
/// per-iteration hook.
pub fn run_recorded(
    spec: &ExecSpec,
    factory: &dyn EnvFactory,
    recorder: SharedRecorder,
) -> Result<ExecReport, String> {
    spec.validate()?;
    let cluster = ClusterSpec::paper_testbed(spec.deployment.nodes);
    let mut session = ClusterSession::with_recorder(cluster, recorder);
    let mut report = train(spec, factory, &mut session, |_, _| Control::Continue)?;
    report.usage = session.finish();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Framework;
    use crate::report::TrainedModel;
    use crate::spec::Deployment;
    use gymrs::envs::GridWorld;
    use rl_algos::Algorithm;

    fn grid_factory() -> impl EnvFactory {
        FnEnvFactory(|seed| {
            let mut e = GridWorld::new(3);
            e.seed(seed);
            Box::new(e) as Box<dyn Environment>
        })
    }

    #[test]
    fn run_rejects_invalid_spec() {
        let spec = ExecSpec::new(
            Framework::TfAgents,
            Algorithm::Ppo,
            Deployment { nodes: 2, cores_per_node: 4 },
            100,
            0,
        );
        assert!(run(&spec, &grid_factory()).is_err());
    }

    #[test]
    fn factory_seeds_environments() {
        let f = grid_factory();
        let mut a = f.make(1);
        let mut b = f.make(1);
        assert_eq!(a.reset(), b.reset());
    }

    fn fast_spec(framework: Framework) -> ExecSpec {
        let mut s = ExecSpec::new(
            framework,
            Algorithm::Ppo,
            Deployment { nodes: 1, cores_per_node: 2 },
            512,
            7,
        );
        s.ppo = rl_algos::ppo::PpoConfig::fast_test();
        s
    }

    #[test]
    fn recorded_rollup_reproduces_report_usage_bitwise() {
        use crate::run_recorded;
        use cluster_sim::Usage;
        use std::sync::Arc;
        for framework in Framework::ALL {
            let ring = Arc::new(telemetry::RingRecorder::new());
            let report =
                run_recorded(&fast_spec(framework), &grid_factory(), ring.clone()).expect("runs");
            let snap = ring.snapshot();
            let rolled = Usage::from_snapshot(&snap, &ClusterSpec::paper_testbed(1));
            assert_eq!(
                rolled.wall_s.to_bits(),
                report.usage.wall_s.to_bits(),
                "{framework:?}: wall-clock must come out of the recorder bit for bit"
            );
            assert_eq!(
                rolled.energy_j.to_bits(),
                report.usage.energy_j.to_bits(),
                "{framework:?}: energy must come out of the recorder bit for bit"
            );
            assert_eq!(snap.counter(crate::keys::ENV_STEPS.name()), Some(report.env_steps));
            assert_eq!(snap.counter(crate::keys::ENV_WORK.name()), Some(report.env_work));
            let iterations = snap.events_named(crate::keys::TRIAL_ITERATION.name()).count();
            assert!(iterations > 0, "{framework:?}: trial lifecycle events recorded");
        }
    }

    #[test]
    fn on_iteration_stop_ends_the_trial_early() {
        // Four 256-step iterations, so stopping after two is observable
        // (`fast_spec`'s 512 steps end after two iterations anyway).
        for framework in Framework::ALL {
            let mut spec = fast_spec(framework);
            spec.total_steps = 4 * spec.ppo.n_steps;
            let full = run(&spec, &grid_factory()).expect("runs");
            let mut session = ClusterSession::new(ClusterSpec::paper_testbed(1));
            let mut seen = Vec::new();
            let stopped = train(&spec, &grid_factory(), &mut session, |iteration, _| {
                seen.push(iteration);
                if iteration >= 2 {
                    Control::Stop
                } else {
                    Control::Continue
                }
            })
            .expect("runs");
            assert_eq!(seen, vec![1, 2], "{framework:?}: the hook sees every iteration");
            assert_eq!(stopped.env_steps, full.env_steps / 2, "{framework:?}");
        }
    }

    /// Every parameter of a trained PPO policy, in visit order.
    fn ppo_params(report: &ExecReport) -> Vec<f64> {
        let TrainedModel::Ppo(policy) = &report.model else { panic!("PPO model") };
        let mut params = Vec::new();
        for net in [&policy.actor, &policy.critic] {
            net.clone().visit_params(|p, _| params.extend_from_slice(p));
        }
        params
    }

    #[test]
    fn lr_schedule_is_applied_by_every_framework() {
        use rl_algos::Schedule;
        for framework in Framework::ALL {
            let plain = run(&fast_spec(framework), &grid_factory()).expect("runs");
            let mut spec = fast_spec(framework);
            spec.ppo.lr_schedule = Some(Schedule::linear_to_zero(spec.ppo.lr));
            let annealed = run(&spec, &grid_factory()).expect("runs");
            assert_ne!(
                ppo_params(&plain),
                ppo_params(&annealed),
                "{framework:?}: annealing the learning rate must change the trained policy"
            );
        }
    }
}
