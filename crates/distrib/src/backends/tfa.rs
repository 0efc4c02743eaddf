//! The TF-Agents-like backend: a parallel collection driver on one node.
//!
//! TF-Agents trains on a single node but overlaps environment stepping
//! *and* policy inference across CPU cores (its parallel driver /
//! `ParallelPyEnvironment`). We reproduce that with a lockstep batched
//! driver: one vectorized runtime actor fans environment steps across
//! cores while the policy evaluates all workers' observations in a single
//! batched forward per tick, refreshed with [`SyncPolicy::EveryRound`].
//! Inference is charged inside the collection phase, and collection
//! samples from a fresh per-round worker stream, decoupled from the
//! learner's rng.
//! The framework's per-step path is the leanest of the three, which is
//! where the paper's "lowest power consumption" observation comes from
//! (§VI-B, solution 11).

use super::{CollectRng, Inference, Layout, Plan};
use crate::framework::Framework;
use crate::runtime::SyncPolicy;

pub(super) fn plan() -> Plan {
    Plan {
        layout: Layout::Vectorized,
        sync: SyncPolicy::EveryRound,
        collect_rng: CollectRng::Fresh { offset: 1000 },
        inference: Inference::InCollection,
        profile: Framework::TfAgents.profile(),
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

    fn spec(algorithm: Algorithm, cores: usize, steps: usize) -> ExecSpec {
        let mut s = ExecSpec::new(
            Framework::TfAgents,
            algorithm,
            Deployment { nodes: 1, cores_per_node: cores },
            steps,
            11,
        );
        s.ppo = rl_algos::ppo::PpoConfig::fast_test();
        s.sac =
            rl_algos::sac::SacConfig { start_steps: 64, ..rl_algos::sac::SacConfig::fast_test() };
        s
    }

    #[test]
    fn ppo_run_completes_with_parallel_collection() {
        let report = run(&spec(Algorithm::Ppo, 4, 1024), &grid_factory()).expect("runs");
        assert!(report.env_steps >= 1024);
        assert!(report.updates > 0);
        assert!(report.usage.wall_s > 0.0);
    }

    #[test]
    fn parallel_collection_is_reproducible() {
        // Per-worker seeding decouples results from thread scheduling.
        let a = run(&spec(Algorithm::Ppo, 4, 512), &grid_factory()).expect("runs");
        let b = run(&spec(Algorithm::Ppo, 4, 512), &grid_factory()).expect("runs");
        assert_eq!(a.train_returns, b.train_returns);
        assert_eq!(a.usage.wall_s, b.usage.wall_s);
    }

    #[test]
    fn tfa_uses_less_energy_than_rllib_at_equal_config() {
        // The §VI-B signal at equal deployment: the lean driver undercuts
        // Ray's heavyweight per-step machinery on both time and energy.
        let tfa = run(&spec(Algorithm::Ppo, 4, 1024), &grid_factory()).expect("runs");
        let mut ray_spec = spec(Algorithm::Ppo, 4, 1024);
        ray_spec.framework = Framework::RayRllib;
        let ray = run(&ray_spec, &grid_factory()).expect("runs");
        assert!(
            tfa.usage.energy_j < ray.usage.energy_j,
            "TF-Agents {} J should undercut RLlib {} J",
            tfa.usage.energy_j,
            ray.usage.energy_j
        );
        assert!(tfa.usage.wall_s < ray.usage.wall_s);
    }

    #[test]
    fn sac_runs_on_point_mass() {
        let factory = FnEnvFactory(|seed| {
            let mut e = PointMass::new();
            e.seed(seed);
            Box::new(e) as Box<dyn Environment>
        });
        let report = run(&spec(Algorithm::Sac, 2, 300), &factory).expect("runs");
        assert!(report.env_steps >= 300);
        assert!(report.updates > 0);
    }
}
