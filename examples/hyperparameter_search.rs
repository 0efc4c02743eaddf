//! The §III-C extension: drive the methodology with an Optuna-style
//! workflow — a TPE-like sampler plus a median pruner — to tune PPO's
//! learning rate and entropy bonus on the point-mass task, and compare
//! against plain Random Search.
//!
//! ```text
//! cargo run --release --example hyperparameter_search
//! cargo run --release --example hyperparameter_search -- --resume
//! ```
//!
//! With `--resume` the example demonstrates the crash-resume path
//! instead: a journaled study's write-ahead log is cut after half of its
//! finished trials, as a crash would leave it, then the study is rebuilt
//! from the cut log — finished trials are adopted from the journal and
//! only the remainder execute.

use rl_decision_tools::decision::prelude::*;
use rl_decision_tools::gymrs::envs::PointMass;
use rl_decision_tools::gymrs::Environment;
use rl_decision_tools::rl_algos::ppo::{PpoConfig, PpoLearner};
use rng::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The example's one metric, as a typed key: every set/rank/read site
/// below goes through this handle instead of repeating the string.
const RETURN: MetricKey = MetricKey("return");

/// Train PPO briefly with the configured hyperparameters; report the mean
/// training return of the final iterations, giving the pruner an
/// intermediate value after every iteration.
fn objective(cfg: &Configuration, ctx: &mut TrialContext) -> Result<MetricValues, String> {
    let lr = cfg.float("lr").ok_or("lr missing")?;
    let ent = cfg.float("ent_coef").ok_or("ent_coef missing")?;
    let seed = 100 + ctx.trial_id as u64;
    let mut env = PointMass::new();
    env.seed(seed);
    let mut rng = Rng::new(seed);
    let ppo = PpoConfig {
        lr,
        ent_coef: ent,
        hidden: vec![32, 32],
        n_steps: 512,
        epochs: 6,
        ..PpoConfig::default()
    };
    let mut learner = PpoLearner::new(4, &env.action_space(), ppo, &mut rng);
    let mut obs = env.reset();
    let mut recent = -10.0;
    for iter in 0..8u64 {
        let out = learner.collect(&mut env, &mut obs, 512, &mut rng);
        if !out.episodes.is_empty() {
            recent = out.episodes.iter().map(|e| e.0).sum::<f64>() / out.episodes.len() as f64;
        }
        learner.update(&out.rollout, &mut rng);
        if ctx.report(iter, recent) {
            // Pruned: return what we have so far.
            return Ok(MetricValues::new().with_key(RETURN, recent));
        }
    }
    Ok(MetricValues::new().with_key(RETURN, recent))
}

fn run_search(explorer: impl Explorer + 'static, prune: bool, label: &str) {
    let space =
        ParamSpace::builder().log_float("lr", 1e-5, 3e-3).float("ent_coef", 0.0, 0.02).build();
    let mut builder = Study::builder(label)
        .space(space)
        .explorer(explorer)
        .metric(MetricDef::maximize_key(RETURN))
        .seed(3)
        .objective(objective);
    if prune {
        builder = builder.pruner(MedianPruner::new());
    }
    let study = builder.build().expect("valid study");
    let trials = study.run().expect("study runs");

    let complete = trials.iter().filter(|t| t.is_complete()).count();
    let pruned = trials.iter().filter(|t| t.status == TrialStatus::Pruned).count();
    let best = SortedRanking::by(MetricDef::maximize_key(RETURN)).best(&trials);
    print!("{label:<28} {complete:>3} complete, {pruned:>2} pruned | ");
    match best {
        Some(i) => println!(
            "best return {:+.3} at {}",
            trials[i].metrics.get_key(RETURN).unwrap_or(f64::NAN),
            trials[i].config
        ),
        None => println!("no completed trials"),
    }
}

/// Whether a WAL line records a trial's end (completed, pruned or failed).
fn is_finish(line: &str) -> bool {
    StudyEvent::from_line(line).is_ok_and(|e| {
        let k = e.key();
        k == wal_keys::TRIAL_COMPLETED || k == wal_keys::TRIAL_PRUNED || k == wal_keys::TRIAL_FAILED
    })
}

/// The `--resume` demo: cut a journaled study's WAL partway, as a crash,
/// SIGTERM or preemption would, then rebuild the study from the log and
/// finish the budget without re-running what's done.
fn demo_resume(budget: usize) {
    let wal = std::env::temp_dir().join("hyperparameter_search_demo.wal");
    let _ = std::fs::remove_file(&wal);
    let calls = Arc::new(AtomicUsize::new(0));

    let study = || {
        let calls = calls.clone();
        Study::builder("tpe resume demo")
            .space(
                ParamSpace::builder()
                    .log_float("lr", 1e-5, 3e-3)
                    .float("ent_coef", 0.0, 0.02)
                    .build(),
            )
            .explorer(TpeLite::new(budget, RETURN.name(), Direction::Maximize))
            .metric(MetricDef::maximize_key(RETURN))
            .pruner(MedianPruner::new())
            .seed(3)
            .journal(Journal::new(&wal))
            .objective(move |cfg, ctx| {
                calls.fetch_add(1, Ordering::Relaxed);
                objective(cfg, ctx)
            })
            .build()
            .expect("valid study")
    };

    study().run().expect("journaled run");
    // Keep the log up to the `cut`-th finished trial: everything after it
    // is what the crash lost.
    let cut = budget / 2;
    let log = std::fs::read_to_string(&wal).expect("read WAL");
    let mut kept = String::new();
    let mut finished = 0;
    for line in log.lines() {
        if finished == cut {
            break;
        }
        kept.push_str(line);
        kept.push('\n');
        finished += usize::from(is_finish(line));
    }
    std::fs::write(&wal, kept).expect("cut WAL");
    println!("WAL at {} cut after {cut} of {budget} finished trials", wal.display());

    calls.store(0, Ordering::Relaxed);
    let trials = study().resume().expect("resumed run");
    let ran_after = calls.load(Ordering::Relaxed);
    let adopted = trials.len() - ran_after;
    println!(
        "resumed: {} trials total, {adopted} adopted from the journal, {ran_after} executed fresh",
        trials.len()
    );

    let best = SortedRanking::by(MetricDef::maximize_key(RETURN)).best(&trials);
    match best {
        Some(i) => println!(
            "best return {:+.3} at {}",
            trials[i].metrics.get_key(RETURN).unwrap_or(f64::NAN),
            trials[i].config
        ),
        None => println!("no completed trials"),
    }
    let _ = std::fs::remove_file(&wal);
}

fn main() {
    let budget = 14;
    if std::env::args().any(|a| a == "--resume") {
        println!("Interrupt/resume demo: tuning PPO with a journaled study, {budget} trials:\n");
        demo_resume(budget);
        return;
    }
    println!("Tuning PPO (lr, ent_coef) on PointMass, {budget} trials each:\n");
    run_search(RandomSearch::new(budget), false, "random search");
    run_search(
        TpeLite::new(budget, RETURN.name(), Direction::Maximize),
        true,
        "tpe-lite + median pruner",
    );
    println!("\n(The TPE run concentrates trials near good learning rates and the median");
    println!(" pruner abandons clearly-bad ones early — Optuna's behaviour per §III-C.)");
}
