//! The Stable-Baselines-like backend: synchronous vectorized environments.
//!
//! §V-b: "Stable Baselines provides parallelized environments through
//! vectorization"; §VI-C: "one vectorized environment is used per CPU
//! core". The learner steps `cores` sub-environments in lockstep, so the
//! rollout batch is split into `cores` parallel segments: more cores means
//! faster collection but *shorter per-environment segments*, the mechanism
//! behind the paper's observation that less-vectorized configurations can
//! reach slightly better rewards (§VI-C, solutions 14 vs 15/16).
//!
//! Everything runs on one node. Collection, inference and learning are
//! strictly serialized (the SB3 training loop): the plan drives a single
//! vectorized runtime worker with [`SyncPolicy::EveryRound`], narrates
//! inference as its own phase on the learner's streams, and lets the
//! learner's *master* rng ride the collect command so the draw order
//! (collect, then update, one stream) is exactly the SB3 loop's. This
//! remains the most deterministic — and reward-wise most reliable —
//! backend.

use super::{CollectRng, Inference, Layout, Plan};
use crate::framework::Framework;
use crate::runtime::SyncPolicy;

pub(super) fn plan() -> Plan {
    Plan {
        layout: Layout::Vectorized,
        sync: SyncPolicy::EveryRound,
        collect_rng: CollectRng::Master,
        inference: Inference::OwnPhase,
        profile: Framework::StableBaselines.profile(),
        sac_seed_tag: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{run, EnvFactory, FnEnvFactory};
    use crate::spec::{Deployment, ExecSpec};
    use gymrs::envs::{GridWorld, PointMass};
    use gymrs::Environment;
    use rl_algos::Algorithm;

    fn grid_factory() -> impl EnvFactory {
        FnEnvFactory(|seed| {
            let mut e = GridWorld::new(3);
            e.seed(seed);
            Box::new(e) as Box<dyn Environment>
        })
    }

    fn point_factory() -> impl EnvFactory {
        FnEnvFactory(|seed| {
            let mut e = PointMass::new();
            e.seed(seed);
            Box::new(e) as Box<dyn Environment>
        })
    }

    fn spec(algorithm: Algorithm, cores: usize, steps: usize) -> ExecSpec {
        let mut s = ExecSpec::new(
            Framework::StableBaselines,
            algorithm,
            Deployment { nodes: 1, cores_per_node: cores },
            steps,
            7,
        );
        s.ppo = rl_algos::ppo::PpoConfig::fast_test();
        s.sac =
            rl_algos::sac::SacConfig { start_steps: 64, ..rl_algos::sac::SacConfig::fast_test() };
        s
    }

    #[test]
    fn ppo_run_reports_consistent_accounting() {
        let report = run(&spec(Algorithm::Ppo, 4, 1024), &grid_factory()).expect("runs");
        assert!(report.env_steps >= 1024);
        assert_eq!(report.env_work, report.env_steps, "grid world: 1 unit/step");
        assert!(report.updates > 0);
        assert!(report.usage.wall_s > 0.0);
        assert!(report.usage.energy_j > 0.0);
        assert_eq!(report.usage.bytes_moved, 0, "single node ships nothing");
    }

    #[test]
    fn sac_run_reports_consistent_accounting() {
        let report = run(&spec(Algorithm::Sac, 2, 300), &point_factory()).expect("runs");
        assert!(report.env_steps >= 300);
        assert!(report.updates > 0, "SAC must update after warmup");
        assert!(report.usage.wall_s > 0.0);
        assert!(report.learn_flops > 0);
    }

    #[test]
    fn more_cores_is_faster_in_simulated_time() {
        let two = run(&spec(Algorithm::Ppo, 2, 1024), &grid_factory()).expect("runs");
        let four = run(&spec(Algorithm::Ppo, 4, 1024), &grid_factory()).expect("runs");
        assert!(
            four.usage.wall_s < two.usage.wall_s,
            "4 cores {} should beat 2 cores {}",
            four.usage.wall_s,
            two.usage.wall_s
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run(&spec(Algorithm::Ppo, 4, 512), &grid_factory()).expect("runs");
        let b = run(&spec(Algorithm::Ppo, 4, 512), &grid_factory()).expect("runs");
        assert_eq!(a.train_returns, b.train_returns, "SB3-like is deterministic");
        assert_eq!(a.usage.wall_s, b.usage.wall_s);
    }

    #[test]
    fn two_nodes_rejected() {
        let mut s = spec(Algorithm::Ppo, 4, 512);
        s.deployment.nodes = 2;
        assert!(run(&s, &grid_factory()).is_err());
    }
}
