//! The framework-like execution backends, written as data.
//!
//! The paper's frameworks differ only in where collection, inference and
//! weight sync run on cores and nodes (§V-b, §VI-B to §VI-D). Each
//! framework module holds one private `Plan` value, and every framework
//! trains through the same two loops: one for PPO and IMPALA, one for
//! SAC.
//!
//! | Backend | Layout | Sync | Collection rng | Inference | SAC seed tag |
//! |---|---|---|---|---|---|
//! | Stable-Baselines-like ([`sb3`]) | vectorized | `EveryRound` | master | own phase | 1 |
//! | TF-Agents-like ([`tfa`]) | vectorized | `EveryRound` | fresh, offset 1000 | in collection | 1 |
//! | RLlib-like ([`rllib`]) | per-env | `RemotePeriodic { period: 2 }` | fresh, offset 1 | in collection | 2 |
//! | IMPALA-like ([`impala`]) | per-env | `Periodic { period: actor_sync_period }` | fresh, offset 1 | in collection | — |

pub mod common;
pub mod impala;
pub mod rllib;
pub mod sb3;
pub mod tfa;

pub use impala::{train_impala, ImpalaOpts};

use crate::backend::EnvFactory;
use crate::framework::{Framework, FrameworkProfile};
use crate::report::{ExecReport, TrainedModel};
use crate::runtime::{
    merge_wave, Collector, CollectorBlueprint, Control, Driver, FaultPolicy, Runtime, SyncPolicy,
    TransportConfig, WaveOutcome, WorkerSpec,
};
use crate::spec::{Deployment, ExecSpec};
use cluster_sim::{ClusterSession, NodeWork, SessionEvent};
use common::{sac_step, worker_seed};
use gymrs::{Environment, Space};
use rl_algos::buffer::RolloutBuffer;
use rl_algos::impala::ImpalaLearner;
use rl_algos::policy::ActorCritic;
use rl_algos::ppo::PpoLearner;
use rl_algos::sac::{SacConfig, SacLearner};
use rl_algos::Algorithm;
use rng::Rng;

/// Where a framework's collection actors run.
#[derive(PartialEq, Eq)]
enum Layout {
    /// One actor on node 0 steps one sub-environment per core in
    /// lockstep, with batched policy evaluation.
    Vectorized,
    /// One single-environment actor per core; worker `w` runs on node
    /// `w / cores`.
    PerEnv,
}

/// Which random stream a collection round samples actions from.
enum CollectRng {
    /// The learner's master rng rides the collect command and comes back
    /// advanced, so collection and update draw from one stream.
    Master,
    /// Worker `w` samples from a fresh `worker_seed(seed, w, iteration + offset)`.
    Fresh { offset: u64 },
}

/// Where collection-time inference is charged.
#[derive(PartialEq, Eq)]
enum Inference {
    /// Its own compute phase on the learner's streams, serialized after
    /// environment stepping.
    OwnPhase,
    /// Folded into each node's collection phase, overlapping stepping.
    InCollection,
}

/// Everything that tells one framework's execution from another's.
struct Plan {
    layout: Layout,
    sync: SyncPolicy,
    collect_rng: CollectRng,
    inference: Inference,
    profile: FrameworkProfile,
    /// Round tag of the SAC interaction environments' worker seeds.
    sac_seed_tag: u64,
}

impl Plan {
    fn of(framework: Framework) -> Self {
        match framework {
            Framework::RayRllib => rllib::plan(),
            Framework::StableBaselines => sb3::plan(),
            Framework::TfAgents => tfa::plan(),
        }
    }
}

/// The framework-independent half of a training request.
struct Run {
    deployment: Deployment,
    total_steps: usize,
    seed: u64,
    fault: FaultPolicy,
    window: Option<usize>,
    transport: TransportConfig,
}

/// Run the training described by `spec` on environments from `factory`,
/// narrating costs to `session`. After every iteration `on_iteration`
/// receives the iteration number and the tail-mean training return
/// ([`crate::runtime::report_mean`]; NaN before the first finished
/// episode) and decides whether the trial goes on, which is how pruners
/// stop a running trial.
///
/// Invalid specs and worker failures the spec's
/// [`FaultPolicy`] cannot absorb surface as `Err`; training never panics
/// the study.
pub fn train(
    spec: &ExecSpec,
    factory: &dyn EnvFactory,
    session: &mut ClusterSession,
    mut on_iteration: impl FnMut(u64, f64) -> Control,
) -> Result<ExecReport, String> {
    spec.validate()?;
    let run = Run {
        deployment: spec.deployment,
        total_steps: spec.total_steps,
        seed: spec.seed,
        fault: spec.fault,
        window: spec.window,
        transport: TransportConfig::resolve(spec.transport.as_deref())?,
    };
    let plan = Plan::of(spec.framework);
    match spec.algorithm {
        Algorithm::Ppo => train_on_policy(
            &plan,
            &run,
            |obs_dim, space, rng| {
                Learner::Ppo(PpoLearner::new(obs_dim, space, spec.ppo.clone(), rng))
            },
            factory,
            session,
            &mut on_iteration,
        ),
        Algorithm::Sac => {
            Ok(train_sac(&plan, &run, spec.sac.clone(), factory, session, &mut on_iteration))
        }
    }
}

/// The on-policy learner a plan trains.
enum Learner {
    Ppo(PpoLearner),
    Impala(ImpalaLearner),
}

impl Learner {
    /// Environment steps per update.
    fn n_steps(&self) -> usize {
        match self {
            Learner::Ppo(l) => l.config().n_steps,
            Learner::Impala(l) => l.config().n_steps,
        }
    }

    fn policy(&self) -> &ActorCritic {
        match self {
            Learner::Ppo(l) => &l.policy,
            Learner::Impala(l) => &l.policy,
        }
    }

    /// Apply the learning-rate schedule at training `progress` in [0, 1].
    fn anneal(&mut self, progress: f64) {
        if let Learner::Ppo(l) = self {
            l.anneal(progress);
        }
    }

    /// One update over `batch`; returns the FLOPs it spent. IMPALA's
    /// V-trace update draws no randomness.
    fn update(&mut self, batch: &RolloutBuffer, rng: &mut Rng) -> u64 {
        match self {
            Learner::Ppo(l) => {
                let before = l.flops;
                l.update(batch, rng);
                l.flops - before
            }
            Learner::Impala(l) => {
                let before = l.flops;
                l.update(batch);
                l.flops - before
            }
        }
    }

    /// The trained policy, learning FLOPs and update count.
    fn finish(self) -> (ActorCritic, u64, u64) {
        match self {
            Learner::Ppo(l) => (l.policy, l.flops, l.updates),
            Learner::Impala(l) => (l.policy, l.flops, l.updates),
        }
    }
}

/// The one PPO/IMPALA training loop: collect a round on the plan's
/// actors, update on node 0, narrate both, ask `on_iteration` whether to
/// go on.
fn train_on_policy(
    plan: &Plan,
    run: &Run,
    make_learner: impl FnOnce(usize, &Space, &mut Rng) -> Learner,
    factory: &dyn EnvFactory,
    session: &mut ClusterSession,
    on_iteration: &mut dyn FnMut(u64, f64) -> Control,
) -> Result<ExecReport, String> {
    let profile = plan.profile;
    let nodes = run.deployment.nodes;
    let cores = run.deployment.cores_per_node;
    let vectorized = plan.layout == Layout::Vectorized;
    // Actors as (node, env seeds): the one vectorized actor steps a
    // sub-environment per core; per-env actors get one each.
    let actors: Vec<(usize, Vec<u64>)> = match plan.layout {
        Layout::Vectorized => vec![(0, (0..cores).map(|i| worker_seed(run.seed, i, 0)).collect())],
        Layout::PerEnv => {
            (0..nodes * cores).map(|w| (w / cores, vec![worker_seed(run.seed, w, 0)])).collect()
        }
    };
    let lanes_per_actor = if vectorized { cores } else { 1 };

    // Every actor lives for the whole trial; its respawn factory (and,
    // for the process transport, its blueprint) rebuilds it from the
    // original seeds after a failure.
    let recorder = session.recorder();
    let env_blueprint = factory.blueprint();
    let mut spaces = None;
    let specs: Vec<WorkerSpec<'_>> = actors
        .into_iter()
        .map(|(node, seeds)| {
            let collector = Collector::build(factory, &seeds, vectorized, recorder.clone());
            spaces.get_or_insert_with(|| collector.spaces());
            let mut wspec = WorkerSpec::new(node, collector);
            if let Some(env) = &env_blueprint {
                wspec = wspec.with_blueprint(CollectorBlueprint {
                    env: env.clone(),
                    seeds: seeds.clone(),
                    vectorized,
                });
            }
            let respawn_recorder = recorder.clone();
            wspec.with_respawn(move || {
                Collector::build(factory, &seeds, vectorized, respawn_recorder.clone())
            })
        })
        .collect();
    let (obs_dim, action_space) = spaces.ok_or("deployment has no cores")?;
    let mut rng = Rng::new(run.seed);
    let mut learner = make_learner(obs_dim, &action_space, &mut rng);
    let n_steps = learner.n_steps();

    let mut runtime = Runtime::spawn_with(specs, learner.policy(), run.transport.clone())
        .with_fault_policy(run.fault);
    if let Some(w) = run.window {
        runtime = runtime.with_window(w);
    }
    runtime.set_recorder(recorder);
    let mut driver = Driver::new(session);
    let mut infer_flops = 0u64;

    while (driver.env_steps() as usize) < run.total_steps {
        learner.anneal(driver.env_steps() as f64 / run.total_steps as f64);
        // Weight sync on the plan's cadence; weights crossing to remote
        // nodes are narrated as one transfer.
        driver.broadcast(&mut runtime, learner.policy(), plan.sync)?;

        // Lane redistribution: the round batch is divided across the
        // healthy lanes, so a quarantined worker's share moves to the
        // survivors instead of shrinking the batch.
        let per_actor = (n_steps / (runtime.active_workers().max(1) * lanes_per_actor)).max(1);
        let rngs = match plan.collect_rng {
            CollectRng::Master => vec![rng.clone()],
            CollectRng::Fresh { offset } => (0..runtime.n_workers())
                .map(|w| Rng::new(worker_seed(run.seed, w, driver.iteration() + offset)))
                .collect(),
        };
        // Collection merges in worker-index order, whatever the
        // completion order.
        let outcome = runtime.collect_round(driver.iteration(), per_actor, rngs)?;
        driver.note_faults(&outcome.faults);
        let WaveOutcome {
            merged,
            returns,
            node_env_work,
            node_infer_flops,
            shipped_bytes,
            rngs,
            ..
        } = merge_wave(outcome, nodes);
        if let CollectRng::Master = plan.collect_rng {
            rng = rngs.into_iter().next().expect("one vectorized actor");
        }
        driver.note_returns(returns);
        driver.note_steps(merged.len() as u64, node_env_work.iter().sum());
        let round_infer_flops: u64 = node_infer_flops.iter().sum();
        infer_flops += round_infer_flops;

        // Narration: nodes collect concurrently, remote experience
        // crosses the wire, the learner updates on node 0.
        let node_spec = driver.cluster().node;
        let per_node_overhead = profile.per_step_overhead_units * (per_actor * cores) as f64;
        let work: Vec<NodeWork> = (0..nodes)
            .map(|n| {
                let mut units = node_env_work[n] as f64;
                if plan.inference == Inference::InCollection {
                    units += node_spec.flops_to_units(node_infer_flops[n]);
                }
                NodeWork { node: n, units: units + per_node_overhead, streams: cores }
            })
            .collect();
        driver.apply(&SessionEvent::Compute { work });
        if plan.inference == Inference::OwnPhase {
            driver.apply(&SessionEvent::Compute {
                work: vec![NodeWork {
                    node: 0,
                    units: node_spec.flops_to_units(round_infer_flops),
                    streams: profile.learner_streams,
                }],
            });
        }
        if shipped_bytes > 0 {
            driver.apply(&SessionEvent::Transfer { bytes: shipped_bytes });
        }
        let update_flops = learner.update(&merged, &mut rng);
        driver.apply(&SessionEvent::Compute {
            work: vec![NodeWork {
                node: 0,
                units: node_spec.flops_to_units(update_flops),
                streams: profile.learner_streams,
            }],
        });
        driver.apply(&SessionEvent::Overhead { seconds: profile.per_iter_overhead_s });
        if driver.end_iteration(on_iteration) == Control::Stop {
            break;
        }
    }
    driver.note_wire(runtime.transport_stats().bytes_total());
    runtime.shutdown();

    let stats = driver.finish();
    let (policy, learn_flops, updates) = learner.finish();
    Ok(ExecReport {
        model: TrainedModel::Ppo(Box::new(policy)),
        usage: Default::default(),
        env_steps: stats.env_steps,
        env_work: stats.env_work,
        learn_flops: learn_flops + infer_flops,
        train_returns: stats.train_returns,
        updates,
        degraded: stats.degraded,
    })
}

/// The one SAC training loop. SAC keeps the learner in the interaction
/// loop (every step feeds the replay buffer and may trigger updates), so
/// there is no detachable collection to hand to runtime actors: one
/// interaction environment per core steps on the driver, and the
/// narration carries the distributed shape (concurrent nodes, experience
/// and weight traffic).
fn train_sac(
    plan: &Plan,
    run: &Run,
    config: SacConfig,
    factory: &dyn EnvFactory,
    session: &mut ClusterSession,
    on_iteration: &mut dyn FnMut(u64, f64) -> Control,
) -> ExecReport {
    let profile = plan.profile;
    let nodes = run.deployment.nodes;
    let cores = run.deployment.cores_per_node;
    let n_workers = nodes * cores;
    let mut rng = Rng::new(run.seed);

    let mut envs: Vec<Box<dyn Environment>> =
        (0..n_workers).map(|w| factory.make(worker_seed(run.seed, w, plan.sac_seed_tag))).collect();
    let obs_dim = envs[0].observation_space().dim();
    let aspace = envs[0].action_space();
    let mut learner = SacLearner::new(obs_dim, &aspace, config, &mut rng);
    let mut obs: Vec<Vec<f64>> = envs.iter_mut().map(|e| e.reset()).collect();
    let mut ep_rets = vec![0.0; n_workers];

    let mut driver = Driver::new(session);
    // Round size: lockstep sweeps over the interaction environments.
    let round = 32usize;
    // Approximate per-transition payload for the experience shipping.
    let transition_bytes = (obs_dim * 2 + 4) as u64 * 8;

    while (driver.env_steps() as usize) < run.total_steps {
        let flops_before = learner.flops;
        let mut node_env_work = vec![0u64; nodes];
        let mut remote_steps = 0u64;
        let mut iter_steps = 0u64;
        for _ in 0..round {
            for w in 0..n_workers {
                if (driver.env_steps() + iter_steps) as usize >= run.total_steps {
                    break;
                }
                let (units, fin) = sac_step(
                    &mut learner,
                    envs[w].as_mut(),
                    &mut obs[w],
                    &mut ep_rets[w],
                    &mut rng,
                );
                let node = w / cores;
                node_env_work[node] += units;
                if node != 0 {
                    remote_steps += 1;
                }
                iter_steps += 1;
                if let Some(r) = fin {
                    driver.note_return(r);
                }
            }
        }
        driver.note_steps(iter_steps, node_env_work.iter().sum());
        let update_flops = learner.flops - flops_before;

        let node_spec = driver.cluster().node;
        let work: Vec<NodeWork> = (0..nodes)
            .map(|n| NodeWork {
                node: n,
                units: node_env_work[n] as f64
                    + profile.per_step_overhead_units * (round * cores) as f64,
                streams: cores,
            })
            .collect();
        driver.apply(&SessionEvent::Compute { work });
        if remote_steps > 0 {
            driver.apply(&SessionEvent::Transfer { bytes: remote_steps * transition_bytes });
            // Weight broadcast back to the remote interaction workers.
            driver.apply(&SessionEvent::Transfer { bytes: learner.param_bytes() });
        }
        driver.apply(&SessionEvent::Compute {
            work: vec![NodeWork {
                node: 0,
                units: node_spec.flops_to_units(update_flops),
                streams: profile.learner_streams,
            }],
        });
        driver.apply(&SessionEvent::Overhead {
            seconds: profile.per_iter_overhead_s * round as f64 / 256.0,
        });
        if driver.end_iteration(on_iteration) == Control::Stop {
            break;
        }
    }

    let stats = driver.finish();
    let learn_flops = learner.flops;
    let updates = learner.updates;
    ExecReport {
        model: TrainedModel::Sac(Box::new(learner)),
        usage: Default::default(),
        env_steps: stats.env_steps,
        env_work: stats.env_work,
        learn_flops,
        train_returns: stats.train_returns,
        updates,
        degraded: stats.degraded,
    }
}
