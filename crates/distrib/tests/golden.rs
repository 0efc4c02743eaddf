//! Absolute output pins for every training path.
//!
//! `determinism.rs` compares one run against another; these tests compare
//! runs against values recorded once, so a refactor of the training
//! loops cannot move an output without failing here. Each case pins the
//! report's counters as exact integers, the simulated time and energy as
//! raw `f64` bits, and the training returns and final policy parameters
//! as FNV-1a hashes over their raw bits.

#[path = "support/stop_at.rs"]
mod stop_at;

use cluster_sim::{ClusterSession, ClusterSpec};
use dist_exec::backend::{run, EnvFactory, FnEnvFactory};
use dist_exec::spec::{Deployment, ExecSpec};
use dist_exec::{train_impala, ExecReport, Framework, ImpalaOpts, TrainedModel};
use gymrs::envs::{GridWorld, PointMass};
use gymrs::Environment;
use rl_algos::impala::ImpalaConfig;
use rl_algos::ppo::PpoConfig;
use rl_algos::sac::SacConfig;
use rl_algos::Algorithm;
use tinynn::Mlp;

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

/// Everything a case pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    returns_len: usize,
    returns_hash: u64,
    wall_s: u64,
    energy_j: u64,
    env_steps: u64,
    env_work: u64,
    learn_flops: u64,
    updates: u64,
    bytes_moved: u64,
    params_hash: u64,
}

fn fnv(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_mlp(hash: &mut u64, net: &Mlp) {
    let mut net = net.clone();
    net.visit_params(|params, _| params.iter().for_each(|p| fnv(hash, p.to_bits())));
}

fn pin(report: &ExecReport) -> Pin {
    let mut returns_hash = FNV_OFFSET;
    report.train_returns.iter().for_each(|r| fnv(&mut returns_hash, r.to_bits()));
    let mut params_hash = FNV_OFFSET;
    match &report.model {
        TrainedModel::Ppo(policy) => {
            hash_mlp(&mut params_hash, &policy.actor);
            hash_mlp(&mut params_hash, &policy.critic);
            policy.log_std.iter().for_each(|v| fnv(&mut params_hash, v.to_bits()));
        }
        TrainedModel::Sac(learner) => hash_mlp(&mut params_hash, &learner.actor),
    }
    Pin {
        returns_len: report.train_returns.len(),
        returns_hash,
        wall_s: report.usage.wall_s.to_bits(),
        energy_j: report.usage.energy_j.to_bits(),
        env_steps: report.env_steps,
        env_work: report.env_work,
        learn_flops: report.learn_flops,
        updates: report.updates,
        bytes_moved: report.usage.bytes_moved,
        params_hash,
    }
}

fn spec(framework: Framework, algorithm: Algorithm, nodes: usize) -> ExecSpec {
    let steps = if algorithm == Algorithm::Ppo { 512 } else { 320 };
    let mut s =
        ExecSpec::new(framework, algorithm, Deployment { nodes, cores_per_node: 2 }, steps, 21);
    s.ppo = PpoConfig::fast_test();
    s.sac = SacConfig { start_steps: 64, ..SacConfig::fast_test() };
    s
}

fn run_case(framework: Framework, algorithm: Algorithm, nodes: usize) -> Pin {
    let spec = spec(framework, algorithm, nodes);
    let report = match algorithm {
        Algorithm::Ppo => run(&spec, &grid_factory()),
        Algorithm::Sac => run(&spec, &point_factory()),
    };
    pin(&report.expect("runs"))
}

macro_rules! golden {
    ($name:ident, $actual:expr, $expected:expr) => {
        #[test]
        fn $name() {
            let actual = $actual;
            assert_eq!(actual, $expected, "{}: {actual:#x?}", stringify!($name));
        }
    };
}

fn run_impala() -> Pin {
    let opts = ImpalaOpts {
        deployment: Deployment { nodes: 2, cores_per_node: 2 },
        total_steps: 1_024,
        seed: 21,
        config: ImpalaConfig { hidden: vec![16, 16], n_steps: 256, ..Default::default() },
        actor_sync_period: 4,
        ..Default::default()
    };
    let mut session = ClusterSession::new(ClusterSpec::paper_testbed(2));
    let mut report = train_impala(&opts, &grid_factory(), &mut session).expect("runs");
    report.usage = session.finish();
    pin(&report)
}

/// A four-iteration budget that the per-iteration stop ends after two.
fn run_stopped() -> Pin {
    let mut spec = spec(Framework::StableBaselines, Algorithm::Ppo, 1);
    spec.total_steps = 4 * spec.ppo.n_steps;
    pin(&stop_at::run_stopped_after(&spec, &grid_factory(), 2).expect("runs"))
}

golden!(sb3_ppo_1x2, run_case(Framework::StableBaselines, Algorithm::Ppo, 1), PIN_SB3_PPO_1X2);
golden!(sb3_sac_1x2, run_case(Framework::StableBaselines, Algorithm::Sac, 1), PIN_SB3_SAC_1X2);
golden!(tfa_ppo_1x2, run_case(Framework::TfAgents, Algorithm::Ppo, 1), PIN_TFA_PPO_1X2);
golden!(tfa_sac_1x2, run_case(Framework::TfAgents, Algorithm::Sac, 1), PIN_TFA_SAC_1X2);
golden!(rllib_ppo_1x2, run_case(Framework::RayRllib, Algorithm::Ppo, 1), PIN_RLLIB_PPO_1X2);
golden!(rllib_sac_1x2, run_case(Framework::RayRllib, Algorithm::Sac, 1), PIN_RLLIB_SAC_1X2);
golden!(rllib_ppo_2x2, run_case(Framework::RayRllib, Algorithm::Ppo, 2), PIN_RLLIB_PPO_2X2);
golden!(rllib_sac_2x2, run_case(Framework::RayRllib, Algorithm::Sac, 2), PIN_RLLIB_SAC_2X2);
golden!(impala_2x2, run_impala(), PIN_IMPALA_2X2);
golden!(sb3_ppo_stopped_at_iteration_2, run_stopped(), PIN_SB3_PPO_STOPPED_AT_ITERATION_2);

// Measured once on the implementation these pins guard.
const PIN_SB3_PPO_1X2: Pin = Pin {
    returns_len: 21,
    returns_hash: 0x2e64948d3d16b6e5,
    wall_s: 0x4028546f4cadc767,
    energy_j: 0x407457b78fee8a96,
    env_steps: 512,
    env_work: 512,
    learn_flops: 48055824,
    updates: 48,
    bytes_moved: 0,
    params_hash: 0xb447007cb118362,
};

const PIN_SB3_SAC_1X2: Pin = Pin {
    returns_len: 4,
    returns_hash: 0xd0a9cf033e36d7f,
    wall_s: 0x402047fe5f1ea712,
    energy_j: 0x406b7063657a0c52,
    env_steps: 320,
    env_work: 320,
    learn_flops: 392556288,
    updates: 129,
    bytes_moved: 0,
    params_hash: 0x9ef6f4c085891ea5,
};

const PIN_TFA_PPO_1X2: Pin = Pin {
    returns_len: 29,
    returns_hash: 0xf5cb39f856952c9c,
    wall_s: 0x402c582aff3224c0,
    energy_j: 0x4077e3ea15d369da,
    env_steps: 512,
    env_work: 512,
    learn_flops: 48055824,
    updates: 48,
    bytes_moved: 0,
    params_hash: 0x28a79adf6b5acc8f,
};

const PIN_TFA_SAC_1X2: Pin = Pin {
    returns_len: 4,
    returns_hash: 0xd0a9cf033e36d7f,
    wall_s: 0x40222fe69c1a971f,
    energy_j: 0x406f76bca92c1a3c,
    env_steps: 320,
    env_work: 320,
    learn_flops: 392556288,
    updates: 129,
    bytes_moved: 0,
    params_hash: 0x9ef6f4c085891ea5,
};

const PIN_RLLIB_PPO_1X2: Pin = Pin {
    returns_len: 27,
    returns_hash: 0x3b832f86e9283bde,
    wall_s: 0x4039aad53f2e8b7c,
    energy_j: 0x40857a34020f5d72,
    env_steps: 512,
    env_work: 512,
    learn_flops: 48058194,
    updates: 48,
    bytes_moved: 0,
    params_hash: 0x312e7f525a773c6c,
};

const PIN_RLLIB_SAC_1X2: Pin = Pin {
    returns_len: 4,
    returns_hash: 0xb748d2d534435f4b,
    wall_s: 0x403064617d624533,
    energy_j: 0x407ba08e0cbb9260,
    env_steps: 320,
    env_work: 320,
    learn_flops: 392556288,
    updates: 129,
    bytes_moved: 0,
    params_hash: 0x9cbb0d882fe57d33,
};

const PIN_RLLIB_PPO_2X2: Pin = Pin {
    returns_len: 23,
    returns_hash: 0x93e7b749caf09f59,
    wall_s: 0x402af5ecc9a89140,
    energy_j: 0x4085e1ac07cc22da,
    env_steps: 512,
    env_work: 512,
    learn_flops: 48067674,
    updates: 48,
    bytes_moved: 54352,
    params_hash: 0xc2eceecc902c2111,
};

const PIN_RLLIB_SAC_2X2: Pin = Pin {
    returns_len: 4,
    returns_hash: 0xede2de0ed78e246c,
    wall_s: 0x40244713681a4e3e,
    energy_j: 0x40809a81b1d338a2,
    env_steps: 320,
    env_work: 320,
    learn_flops: 392556288,
    updates: 129,
    bytes_moved: 110736,
    params_hash: 0xc9a86f24d4aa7d6c,
};

const PIN_IMPALA_2X2: Pin = Pin {
    returns_len: 49,
    returns_hash: 0xc434e9d36cdee8db,
    wall_s: 0x403acb51a73c9a66,
    energy_j: 0x4095f1956aee06f0,
    env_steps: 1024,
    env_work: 1024,
    learn_flops: 6750674,
    updates: 4,
    bytes_moved: 41296,
    params_hash: 0xc27890c27045366c,
};

const PIN_SB3_PPO_STOPPED_AT_ITERATION_2: Pin = Pin {
    returns_len: 21,
    returns_hash: 0x2e64948d3d16b6e5,
    wall_s: 0x4028546f4cadc767,
    energy_j: 0x407457b78fee8a96,
    env_steps: 512,
    env_work: 512,
    learn_flops: 48055824,
    updates: 48,
    bytes_moved: 0,
    params_hash: 0xb447007cb118362,
};
