//! Multi-study scheduling: a service-shaped front end over the study core.
//!
//! The paper's workflow is service-like — experts *submit* studies and a
//! shared execution substrate works through them — so the crate exposes a
//! [`StudyServer`] that owns one execution runtime (a scoped-thread wave map plus
//! a shared telemetry recorder) and interleaves trials from every
//! submitted study instead of running studies back to back.
//!
//! Scheduling is by **fair waves**: each wave is filled round-robin, one
//! slot per study per pass, until either the server's global width or
//! every study's own [`StudyBuilder::max_concurrent_trials`] cap is
//! reached; the wave then executes concurrently and results are absorbed
//! back into each study's session in id order. Fairness is positional,
//! not probabilistic — a two-study server with width 4 runs 2+2 trials
//! per wave while both have work, and the survivor widens to 4 once the
//! other is exhausted.
//!
//! Every study keeps its own journal, explorer state, and resume
//! semantics (sessions replay their WALs exactly as [`Study::run`] does),
//! so killing a server and resubmitting the same studies resumes all of
//! them. Studies sharing a [`crate::cache::TrialCache`] reuse each
//! other's finished trials across submissions.
//!
//! [`StudyBuilder::max_concurrent_trials`]: crate::study::StudyBuilder::max_concurrent_trials
//! [`Study::run`]: crate::study::Study::run

use crate::study::{Session, Slot, Study};
use crate::trial::Trial;
use telemetry::{Key, SharedRecorder, Value};

/// Telemetry keys recorded by [`StudyServer`].
pub mod server_keys {
    use telemetry::Key;

    /// Span: one submitted study, open from session start to drain.
    pub const STUDY: Key = Key("server.study");

    /// Event: one scheduling wave (`wave`, `trials` fields).
    pub const WAVE: Key = Key("server.wave");

    /// Counter: trial slots executed (or adopted) across all studies.
    pub const TRIALS: Key = Key("server.trials");
}

/// The result of one submitted study after [`StudyServer::run_all`].
#[derive(Debug)]
pub struct StudyOutcome {
    /// The study's name, in submission order.
    pub name: String,
    /// Its trials (empty when the session failed to start).
    pub trials: Vec<Trial>,
    /// Why the study produced no trials, if it didn't (e.g. its journal
    /// belongs to a different study).
    pub error: Option<String>,
}

/// A scheduler that interleaves trials from many studies through one
/// execution runtime.
pub struct StudyServer {
    width: usize,
    recorder: SharedRecorder,
    studies: Vec<Study>,
}

/// One submitted study's live scheduling state.
struct Lane<'a> {
    session: Session<'a>,
    span: telemetry::SpanId,
    /// Slots handed into the current wave (bounded by the study's cap).
    in_wave: usize,
    /// The session returned `None` during the current fill pass.
    idle: bool,
}

impl StudyServer {
    /// A server executing at most `width` trials concurrently across all
    /// submitted studies.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "server width must be at least 1");
        Self { width, recorder: telemetry::null_recorder(), studies: Vec::new() }
    }

    /// Install a telemetry recorder for the scheduler itself (per-study
    /// [`server_keys::STUDY`] spans, per-wave [`server_keys::WAVE`]
    /// events). Studies keep their own recorders.
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Submit a study; returns its index into the outcomes of
    /// [`StudyServer::run_all`].
    pub fn submit(&mut self, study: Study) -> usize {
        self.studies.push(study);
        self.studies.len() - 1
    }

    /// Number of submitted studies.
    pub fn len(&self) -> usize {
        self.studies.len()
    }

    /// True when nothing has been submitted.
    pub fn is_empty(&self) -> bool {
        self.studies.is_empty()
    }

    /// Run every submitted study to completion, interleaving their
    /// trials in fair waves. Outcomes are in submission order. A study
    /// whose session cannot start (corrupt or mismatched journal) is
    /// reported in its outcome's `error` without sinking the others.
    ///
    /// When the server recorder's cooperative-stop flag trips, the
    /// current wave finishes, every study drains gracefully (finished
    /// trials stay durable in each journal) and partial outcomes are
    /// returned — resubmitting the same studies resumes them.
    pub fn run_all(&self) -> Vec<StudyOutcome> {
        let mut outcomes: Vec<StudyOutcome> = self
            .studies
            .iter()
            .map(|s| StudyOutcome { name: s.name().to_string(), trials: Vec::new(), error: None })
            .collect();
        let mut lanes: Vec<Option<Lane<'_>>> = Vec::with_capacity(self.studies.len());
        for (i, study) in self.studies.iter().enumerate() {
            match Session::start(study) {
                Ok(session) => lanes.push(Some(Lane {
                    session,
                    span: self.recorder.span_begin(server_keys::STUDY),
                    in_wave: 0,
                    idle: false,
                })),
                Err(e) => {
                    outcomes[i].error = Some(e);
                    lanes.push(None);
                }
            }
        }

        let mut wave_no: u64 = 0;
        while lanes.iter().any(Option::is_some) {
            // Fill the wave round-robin: one slot per open lane per pass.
            let mut wave: Vec<(usize, Slot)> = Vec::with_capacity(self.width);
            loop {
                let mut pulled = false;
                for (i, entry) in lanes.iter_mut().enumerate() {
                    if wave.len() == self.width {
                        break;
                    }
                    let Some(lane) = entry else { continue };
                    let cap = self.studies[i].max_concurrent_trials().unwrap_or(self.width);
                    if lane.idle || lane.in_wave >= cap.max(1) {
                        continue;
                    }
                    match lane.session.next_slot() {
                        Some(slot) => {
                            lane.in_wave += 1;
                            wave.push((i, slot));
                            pulled = true;
                        }
                        None => lane.idle = true,
                    }
                }
                if !pulled || wave.len() == self.width {
                    break;
                }
            }

            if wave.is_empty() {
                // Every open lane is out of work: close them all.
                for (i, entry) in lanes.iter_mut().enumerate() {
                    if let Some(lane) = entry.take() {
                        outcomes[i].trials = lane.session.finish();
                        self.recorder.span_end(lane.span);
                    }
                }
                break;
            }

            wave_no += 1;
            self.recorder.event(
                server_keys::WAVE,
                &[
                    (Key("wave"), Value::U64(wave_no)),
                    (Key("trials"), Value::U64(wave.len() as u64)),
                ],
            );
            self.recorder.counter_add(server_keys::TRIALS, wave.len() as u64);

            let studies = &self.studies;
            let results = crate::par::par_map(wave, |(i, slot)| (i, studies[i].execute(slot)));

            // Absorb per lane, in id order within each study.
            let mut per_lane: Vec<Vec<Trial>> = (0..lanes.len()).map(|_| Vec::new()).collect();
            for (i, trial) in results {
                per_lane[i].push(trial);
            }
            for (i, entry) in lanes.iter_mut().enumerate() {
                let Some(lane) = entry else { continue };
                lane.session.absorb(std::mem::take(&mut per_lane[i]));
                lane.in_wave = 0;
                if lane.idle {
                    // Re-poll after absorbing: an idle lane may be truly
                    // exhausted or just momentarily out of proposals.
                    lane.idle = false;
                    if lane.session.is_exhausted() {
                        let lane = entry.take().unwrap();
                        outcomes[i].trials = lane.session.finish();
                        self.recorder.span_end(lane.span);
                    }
                }
            }
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::GridSearch;
    use crate::metrics::{MetricDef, MetricValues};
    use crate::space::ParamSpace;
    use crate::storage::Journal;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn grid_study(name: &str, n: i64) -> Study {
        Study::builder(name)
            .space(ParamSpace::builder().categorical_int("k", 0..n).build())
            .explorer(GridSearch::new())
            .metric(MetricDef::minimize("loss"))
            .objective(|cfg, _| Ok(MetricValues::new().with("loss", cfg.int("k").unwrap() as f64)))
            .build()
            .unwrap()
    }

    #[test]
    fn interleaved_studies_match_solo_runs() {
        let mut server = StudyServer::new(4);
        server.submit(grid_study("a", 7));
        server.submit(grid_study("b", 5));
        let outcomes = server.run_all();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].name, "a");
        assert!(outcomes.iter().all(|o| o.error.is_none()));

        let solo_a = grid_study("a", 7).run_parallel(4).unwrap();
        let solo_b = grid_study("b", 5).run_parallel(4).unwrap();
        assert_eq!(outcomes[0].trials, solo_a, "interleaving must not change study a");
        assert_eq!(outcomes[1].trials, solo_b, "interleaving must not change study b");
    }

    #[test]
    fn waves_interleave_fairly_and_respect_per_study_caps() {
        let live = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let peak = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let mk = |idx: usize| {
            let (live, peak) = (live.clone(), peak.clone());
            Study::builder(format!("s{idx}"))
                .space(ParamSpace::builder().categorical_int("k", 0..8).build())
                .explorer(GridSearch::new())
                .metric(MetricDef::minimize("loss"))
                .max_concurrent_trials(2)
                .objective(move |cfg, _| {
                    let now = live[idx].fetch_add(1, Ordering::SeqCst) + 1;
                    peak[idx].fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(3));
                    live[idx].fetch_sub(1, Ordering::SeqCst);
                    Ok(MetricValues::new().with("loss", cfg.int("k").unwrap() as f64))
                })
                .build()
                .unwrap()
        };
        let mut server = StudyServer::new(8);
        server.submit(mk(0));
        server.submit(mk(1));
        let outcomes = server.run_all();
        assert!(outcomes.iter().all(|o| o.trials.len() == 8));
        for (i, p) in peak.iter().enumerate() {
            assert!(
                p.load(Ordering::SeqCst) <= 2,
                "study {i} ran {} trials concurrently despite a cap of 2",
                p.load(Ordering::SeqCst)
            );
        }
    }

    #[test]
    fn scheduler_records_spans_waves_and_trial_counts() {
        let ring = Arc::new(telemetry::RingRecorder::new());
        let mut server = StudyServer::new(4).with_recorder(ring.clone());
        server.submit(grid_study("a", 6));
        server.submit(grid_study("b", 4));
        let outcomes = server.run_all();
        assert_eq!(outcomes[0].trials.len() + outcomes[1].trials.len(), 10);
        let snap = ring.snapshot();
        assert_eq!(snap.spans_named(server_keys::STUDY.name()).count(), 2);
        assert_eq!(snap.counter(server_keys::TRIALS.name()), Some(10));
        assert!(snap.events.iter().any(|e| e.key == server_keys::WAVE.name()));
    }

    #[test]
    fn a_bad_journal_fails_its_study_without_sinking_the_server() {
        let mut path = std::env::temp_dir();
        path.push(format!("decision-server-badwal-{}", std::process::id()));
        Journal::new(&path).clear().unwrap();
        // Seed the journal with a different study's checkpoint.
        let other = Study::builder("other")
            .space(ParamSpace::builder().categorical_int("k", 0..2).build())
            .explorer(GridSearch::new())
            .metric(MetricDef::minimize("loss"))
            .journal(Journal::new(&path))
            .seed(99)
            .objective(|cfg, _| Ok(MetricValues::new().with("loss", cfg.int("k").unwrap() as f64)))
            .build()
            .unwrap();
        other.run().unwrap();

        let mismatched = Study::builder("mismatched")
            .space(ParamSpace::builder().categorical_int("k", 0..2).build())
            .explorer(GridSearch::new())
            .metric(MetricDef::minimize("loss"))
            .journal(Journal::new(&path))
            .objective(|cfg, _| Ok(MetricValues::new().with("loss", cfg.int("k").unwrap() as f64)))
            .build()
            .unwrap();
        let mut server = StudyServer::new(2);
        server.submit(mismatched);
        server.submit(grid_study("fine", 3));
        let outcomes = server.run_all();
        assert!(outcomes[0].error.as_deref().unwrap().contains("different study"));
        assert!(outcomes[0].trials.is_empty());
        assert_eq!(outcomes[1].trials.len(), 3);
        assert!(outcomes[1].error.is_none());
        Journal::new(&path).clear().unwrap();
    }
}
