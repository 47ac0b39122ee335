//! Tracing from outside the program: an inference backend that times the real
//! one, spans kept in memory, and the self-time decomposition of an apply.
//!
//! Nothing here adds a span inside the library. The traced session runs with
//! [`TimingBackend`], which forwards every inference call to the default
//! [`EmbeddedBackend`] and records its start and end. Right after the forwarded
//! call it replays the same task phase by phase
//! (`EmbeddedMessagePassing::{new, warm_start, run}`), checks that the replay
//! reproduced the forwarded result bit for bit, and records the replay as a
//! span of its own, which is subtracted from the apply it happened in.

use pdms_core::{
    EmbeddedBackend, EmbeddedMessagePassing, InferenceBackend, InferenceOutcome, InferenceTask,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One forwarded inference call and its out-of-band replay.
#[derive(Debug, Clone, Copy)]
pub struct InferRecord {
    /// The forwarded `EmbeddedBackend::infer` call.
    pub infer: (Instant, Instant),
    /// The whole replay, comparison included.
    pub replay: (Instant, Instant),
    /// Replay phase: `EmbeddedMessagePassing::new` (arena build).
    pub arena_build: Duration,
    /// Replay phase: `warm_start`.
    pub warm_start: Duration,
    /// Replay phase: `run` (the message-passing rounds).
    pub rounds_time: Duration,
    /// Rounds the forwarded call ran.
    pub rounds: usize,
    /// Whether the forwarded call converged.
    pub converged: bool,
    /// Remote messages per round of the model (`messages_per_round`).
    pub messages_per_round: usize,
    /// Model size the call ran on.
    pub variables: usize,
    /// Feedback factors of the model.
    pub evidences: usize,
    /// The replay reproduced the forwarded rounds and posteriors bit for bit.
    pub replay_identical: bool,
}

/// The default embedded backend behind a stopwatch.
#[derive(Debug, Clone, Default)]
pub struct TimingBackend {
    inner: EmbeddedBackend,
    log: Arc<Mutex<Vec<InferRecord>>>,
}

impl TimingBackend {
    /// Takes every record logged since the last call.
    pub fn drain(&self) -> Vec<InferRecord> {
        std::mem::take(&mut *self.log.lock().expect("trace log lock poisoned"))
    }
}

impl InferenceBackend for TimingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn infer(&self, task: &InferenceTask<'_>) -> InferenceOutcome {
        let start = Instant::now();
        let outcome = self.inner.infer(task);
        let end = Instant::now();
        let r0 = Instant::now();
        let mut machine = EmbeddedMessagePassing::new(
            task.model,
            task.priors,
            task.default_prior,
            self.inner.config.clone(),
        );
        let r1 = Instant::now();
        if let Some(previous) = task.warm_start {
            machine.warm_start(previous);
        }
        let r2 = Instant::now();
        let report = machine.run();
        let r3 = Instant::now();
        let record = InferRecord {
            infer: (start, end),
            arena_build: r1 - r0,
            warm_start: r2 - r1,
            rounds_time: r3 - r2,
            rounds: outcome.rounds,
            converged: outcome.converged,
            messages_per_round: machine.messages_per_round(),
            variables: task.model.variable_count(),
            evidences: task.model.evidence_count(),
            replay_identical: report.rounds == outcome.rounds
                && report.converged == outcome.converged
                && bits_equal(&report.posteriors, &outcome.posteriors),
            replay: (r0, Instant::now()),
        };
        self.log
            .lock()
            .expect("trace log lock poisoned")
            .push(record);
        outcome
    }
}

/// Element-wise bit equality of two float slices.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One recorded span, written out when the run ends.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the step (apply) the span belongs to.
    pub apply: usize,
    /// Layer name (`sharding`, `embedded`, `replay.embedded`, ...).
    pub layer: &'static str,
    /// Offset of the start from the trace epoch.
    pub start: Duration,
    /// Offset of the end from the trace epoch.
    pub end: Duration,
    /// Layer of the enclosing span, if any.
    pub parent: Option<&'static str>,
}

/// Self times of one traced apply. They partition the apply's own time: its
/// wall time minus the replays that ran inside it.
#[derive(Debug, Clone, Copy)]
pub struct SelfTimes {
    /// Inside `apply_batch`, outside every shard task: catalog and topology
    /// mirror updates, component bookkeeping, partition, snapshot patch.
    pub sharding: Duration,
    /// Inside shard tasks, outside inference: evidence maintenance, model
    /// build, posterior table, splice assembly.
    pub session: Duration,
    /// Inside the forwarded inference calls.
    pub embedded: Duration,
}

impl SelfTimes {
    /// Sum of the three self times.
    pub fn total(&self) -> Duration {
        self.sharding + self.session + self.embedded
    }
}

/// Splits one traced apply into layer self times.
///
/// `apply` is the apply's span, `records` the inference calls it made, and
/// `shard_time` the summed shard-task time the session reported. Fails when a
/// span leaks out of the apply, when two inner spans overlap (they must run one
/// after the other, so their time can be attributed once), or when a self time
/// would be negative.
pub fn self_times(
    apply: (Instant, Instant),
    records: &[InferRecord],
    shard_time: Duration,
) -> Result<SelfTimes, String> {
    let mut inner: Vec<(Instant, Instant)> = Vec::new();
    let mut embedded = Duration::ZERO;
    let mut replay = Duration::ZERO;
    for record in records {
        inner.push(record.infer);
        embedded += record.infer.1 - record.infer.0;
        inner.push(record.replay);
        replay += record.replay.1 - record.replay.0;
    }
    inner.sort();
    let mut cursor = apply.0;
    for (start, end) in &inner {
        if *start < cursor || *end > apply.1 {
            return Err("an inference span overlaps another or leaks out of its apply".into());
        }
        cursor = *end;
    }
    let wall = apply.1 - apply.0;
    let session = shard_time
        .checked_sub(embedded + replay)
        .ok_or("shard time is shorter than the inference inside it")?;
    let sharding = wall
        .checked_sub(shard_time)
        .ok_or("shard time exceeds the apply's wall time")?;
    let times = SelfTimes {
        sharding,
        session,
        embedded,
    };
    debug_assert_eq!(times.total(), wall - replay);
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(infer: (Instant, Instant), replay: (Instant, Instant)) -> InferRecord {
        InferRecord {
            infer,
            replay,
            arena_build: Duration::ZERO,
            warm_start: Duration::ZERO,
            rounds_time: Duration::ZERO,
            rounds: 1,
            converged: true,
            messages_per_round: 0,
            variables: 0,
            evidences: 0,
            replay_identical: true,
        }
    }

    #[test]
    fn self_times_partition_the_apply_minus_replays() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        let apply = (t, t + ms(100));
        let records = [
            record((t + ms(10), t + ms(30)), (t + ms(30), t + ms(50))),
            record((t + ms(60), t + ms(70)), (t + ms(70), t + ms(75))),
        ];
        let times = self_times(apply, &records, ms(80)).expect("valid spans");
        assert_eq!(times.embedded, ms(30));
        assert_eq!(times.session, ms(25)); // 80 - 30 inference - 25 replay
        assert_eq!(times.sharding, ms(20));
        assert_eq!(times.total(), ms(75)); // 100 wall - 25 replay
    }

    #[test]
    fn overlapping_or_leaking_spans_are_rejected() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        let apply = (t, t + ms(100));
        let overlap = [
            record((t + ms(10), t + ms(30)), (t + ms(30), t + ms(35))),
            record((t + ms(20), t + ms(40)), (t + ms(40), t + ms(45))),
        ];
        assert!(self_times(apply, &overlap, ms(60)).is_err());
        let leak = [record((t + ms(80), t + ms(90)), (t + ms(90), t + ms(110)))];
        assert!(self_times(apply, &leak, ms(40)).is_err());
        let short_shards = [record((t + ms(10), t + ms(30)), (t + ms(30), t + ms(40)))];
        assert!(self_times(apply, &short_shards, ms(25)).is_err());
    }
}
