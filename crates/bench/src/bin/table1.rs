//! Reproduce **Table I**: run the 18 sampled configurations end-to-end
//! and print measured vs. paper-reported Reward / Computation Time /
//! Power Consumption.
//!
//! ```text
//! cargo run --release -p bench --bin table1            # scaled budget
//! cargo run --release -p bench --bin table1 -- --paper # full 200k steps
//! cargo run --release -p bench --bin table1 -- --only 2,5,11,16
//! ```

use bench::paper::{PaperRow, TABLE1};
use bench::{run_table1_study, HarnessOpts};
use decision::prelude::*;

fn main() {
    let opts = match HarnessOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "[table1] steps={} (extrapolation x{:.1}), seed={}, altitudes={:?}",
        opts.steps,
        opts.extrapolation(),
        opts.seed,
        opts.altitude_limits
    );

    let trials = match run_table1_study(&opts) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    println!("\nTable I — measured (this run) values:");
    println!(
        "{}",
        decision::report::table::render_table(
            &trials,
            &["draw", "rk_order", "framework", "algorithm", "nodes", "cores"],
            &[
                MetricDef::maximize_key(metric_keys::REWARD),
                MetricDef::minimize_key(metric_keys::TIME_MIN),
                MetricDef::minimize_key(metric_keys::POWER_KJ),
            ],
            None,
        )
    );

    println!("Measured vs. paper (time/power extrapolated to 200k steps):");
    println!(
        "{:>3} {:>28}   {:>18} {:>22} {:>20}",
        "#", "configuration", "reward (meas/paper)", "time min (meas/paper)", "kJ (meas/paper)"
    );
    for t in &trials {
        let id = t.config.int("draw").unwrap_or(0) as usize;
        let Some(row) = PaperRow::by_id(id) else { continue };
        let m = |k: MetricKey| t.metrics.get_key(k).unwrap_or(f64::NAN);
        println!(
            "{:>3} {:>10} {:>4} RK{} {}x{}   {:>8.2} / {:>5.2}    {:>9.1} / {:>6.1}    {:>8.0} / {:>5.0}{}",
            id,
            row.framework.to_string(),
            row.algorithm.to_string(),
            row.rk_order.order(),
            row.nodes,
            row.cores,
            m(metric_keys::REWARD),
            row.reward,
            m(metric_keys::TIME_MIN),
            row.time_min,
            m(metric_keys::POWER_KJ),
            row.power_kj,
            if row.anchored { "  *anchored" } else { "" }
        );
    }

    // Shape checks the paper's §VI-D narrative makes, printed as a
    // verdict list (the bench is a reproduction, not a unit test, so we
    // report rather than assert).
    let get = |id: usize, k: MetricKey| -> Option<f64> {
        trials
            .iter()
            .find(|t| t.config.int("draw") == Some(id as i64))
            .and_then(|t| t.metrics.get_key(k))
    };
    println!("\nShape checks (paper §VI):");
    let checks: Vec<(String, Option<bool>)> = vec![
        (
            "PPO beats SAC everywhere (best PPO reward > best SAC reward)".into(),
            best_reward(&trials, "PPO").zip(best_reward(&trials, "SAC")).map(|(p, s)| p > s),
        ),
        (
            "2 nodes faster than 1 (config 2 vs 1, RLlib RK3)".into(),
            get(2, metric_keys::TIME_MIN).zip(get(1, metric_keys::TIME_MIN)).map(|(a, b)| a < b),
        ),
        (
            "1 node better reward than 2 (config 7 vs 8, RLlib RK8)".into(),
            get(7, metric_keys::REWARD).zip(get(8, metric_keys::REWARD)).map(|(a, b)| a > b),
        ),
        (
            "4 cores faster than 2 (config 11 vs 10, TF-Agents RK3)".into(),
            get(11, metric_keys::TIME_MIN).zip(get(10, metric_keys::TIME_MIN)).map(|(a, b)| a < b),
        ),
        (
            "RK8 costs more time than RK3 (config 17 vs 14, SB)".into(),
            get(17, metric_keys::TIME_MIN).zip(get(14, metric_keys::TIME_MIN)).map(|(a, b)| a > b),
        ),
        ("config 11 is the PPO power minimum".into(), ppo_power_min_is(&trials, 11)),
    ];
    for (label, verdict) in checks {
        let mark = match verdict {
            Some(true) => "PASS",
            Some(false) => "MISS",
            None => "n/a ",
        };
        println!("  [{mark}] {label}");
    }
}

fn best_reward(trials: &[Trial], algo: &str) -> Option<f64> {
    trials
        .iter()
        .filter(|t| t.config.str("algorithm") == Some(algo))
        .filter_map(|t| t.metrics.get_key(metric_keys::REWARD))
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

fn ppo_power_min_is(trials: &[Trial], id: usize) -> Option<bool> {
    let mut best: Option<(usize, f64)> = None;
    for t in trials {
        if t.config.str("algorithm") != Some("PPO") {
            continue;
        }
        let p = t.metrics.get_key(metric_keys::POWER_KJ)?;
        let d = t.config.int("draw")? as usize;
        if best.map(|(_, bp)| p < bp).unwrap_or(true) {
            best = Some((d, p));
        }
    }
    // Only meaningful when the full PPO set (incl. 11) ran.
    if trials.len() < TABLE1.len() {
        return None;
    }
    best.map(|(d, _)| d == id)
}
