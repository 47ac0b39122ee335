//! Shared fixtures and measurement loops for the warm shard-splice comparison.
//!
//! Used by two entry points that must agree on methodology:
//!
//! * the `merge_splice` Criterion bench (`benches/merge_splice.rs`) for
//!   interactive `cargo bench` runs;
//! * the `bench_merge_splice` binary, which writes the committed
//!   `BENCH_merge_splice.json` record tracking the splice path against cold
//!   shard rebuilds.
//!
//! The workload is merge-heavy islands churn: an island federation whose even
//! epochs **bridge** two previously separate islands (the
//! `ChurnConfig::merge_rate` draw — the same generator the CLI's
//! `churn --merge-rate` and `Scenario::MergeHeavyChurn` drive) and whose odd
//! epochs **sever** the surviving bridges again — component merges *and* splits
//! recur for the whole run, against donor shards sitting at their converged
//! fixpoints. The identical pre-generated event stream is driven through two
//! sharded sessions that differ in exactly one knob: `AnalysisConfig::splice`
//! `Some(true)` (the warm path: donor analyses remapped, only bridge evidence
//! searched, warm-started inference) versus `Some(false)` (the PR 4 behavior:
//! every merged or split shard rebuilt cold). Both run `shard_parallelism = 1`, so the
//! comparison is pure per-shard work — no threads, sound on 1-core hosts.
//!
//! Reported per fixture: end-to-end churn wall time for both modes, the mean
//! apply time of merge epochs and of split epochs (per-epoch minima over the
//! repeat runs), and the resulting speedups. The module test pins that both
//! modes produce equivalent posteriors, so the timing comparison measures cost,
//! not different answers.

use pdms_core::{apply_event, AnalysisConfig, EmbeddedConfig, EventEffect};
use pdms_core::{Engine, NetworkEvent, ShardedSession};
use pdms_schema::MappingId;
use pdms_workloads::{multi_component_network, ChurnConfig, ChurnGenerator};
use std::time::{Duration, Instant};

pub use crate::shard_scaling::bench_analysis;

/// Embedded configuration of the merge-splice measurements: deterministic
/// reliable delivery, history off, and a round cap that bounds the occasional
/// component whose loopy iteration oscillates instead of converging (capped
/// rounds cost both modes the same, so they dilute the comparison without
/// skewing it; convergent components stop at the tolerance, which is where the
/// warm start's round savings show).
pub fn bench_embedded() -> EmbeddedConfig {
    EmbeddedConfig {
        max_rounds: 60,
        ..Default::default()
    }
}

/// One benchmark network plus the pre-generated merge-heavy churn epochs.
pub struct Fixture {
    /// Short fixture label (`islands_6x10`).
    pub name: String,
    /// The generated catalog.
    pub catalog: pdms_schema::Catalog,
    /// Pre-generated epoch batches (identical for both modes under test).
    pub epochs: Vec<Vec<NetworkEvent>>,
}

/// What one epoch's `apply_batch` did, with its wall time.
#[derive(Debug, Clone, Copy)]
pub struct EpochTiming {
    /// Wall time of the `apply_batch` call.
    pub duration: Duration,
    /// Component merges the batch performed.
    pub merges: usize,
    /// Component splits the batch performed.
    pub splits: usize,
    /// Shards served by the warm splice path.
    pub spliced: usize,
    /// Shards rebuilt cold.
    pub rebuilt: usize,
}

impl EpochTiming {
    /// True when the epoch changed the component structure at all.
    pub fn is_structural(&self) -> bool {
        self.merges > 0 || self.splits > 0
    }
}

/// The standard fixtures: two island federations under recurring bridge/sever
/// structural churn, one small and one larger.
pub fn standard_fixtures() -> Vec<Fixture> {
    vec![
        merge_fixture(4, 12, 0.2, 12, 62),
        merge_fixture(6, 12, 0.2, 16, 62),
    ]
}

/// Builds an islands fixture whose `epochs` pre-generated batches repeatedly
/// **bridge and sever** islands: even epochs draw one island-bridging mapping
/// from the [`ChurnGenerator`] (`ChurnConfig::merge_rate` — the same draw the
/// CLI's `churn --merge-rate` and `Scenario::MergeHeavyChurn` make), odd epochs
/// sever the surviving bridges again. Every even epoch is one component merge
/// and every odd epoch one split, forever — the recurring structural events the
/// splice path exists for — while the bulk of each donor shard's state is at its
/// converged fixpoint when the event hits, as it would be in a quiescent
/// federation that keeps gaining and losing inter-community mappings.
pub fn merge_fixture(
    islands: usize,
    peers: usize,
    probability: f64,
    epochs: usize,
    seed: u64,
) -> Fixture {
    let network = multi_component_network(islands, peers, probability, seed);
    let mut shadow = network.catalog.clone();
    let mut generator = ChurnGenerator::new(ChurnConfig {
        // Pure structural churn: the generator's island-bridging draw is the
        // only event source, so every epoch's cost *is* the structural event
        // under measurement.
        corrupt_rate: 0.0,
        repair_rate: 0.0,
        drop_rate: 0.0,
        new_mappings_per_epoch: 0.0,
        merge_rate: 1.0,
        seed,
        ..Default::default()
    });
    let mut bridges: Vec<MappingId> = Vec::new();
    let mut batches = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let mut events = generator.epoch_events(&shadow);
        if epoch % 2 == 1 {
            // Sever epoch: drop this epoch's bridge draw and remove the
            // surviving bridges instead — a component split per bridged pair.
            // Alternating keeps net structural growth at zero, so every merge
            // joins two *fresh* islands rather than feeding one ever-growing
            // mega-component.
            events.clear();
            events.extend(
                bridges
                    .drain(..)
                    .map(|mapping| NetworkEvent::RemoveMapping { mapping }),
            );
        }
        // Replay against the shadow catalog to learn the ids the additions get.
        for event in &events {
            if let Some(EventEffect::MappingAdded(id)) = apply_event(&mut shadow, event) {
                bridges.push(id);
            }
        }
        batches.push(events);
    }
    Fixture {
        name: format!("islands_{islands}x{peers}"),
        catalog: network.catalog,
        epochs: batches,
    }
}

/// Builds the sharded session for one mode (`splice` on or off).
pub fn build_session(fixture: &Fixture, splice: bool) -> ShardedSession {
    Engine::builder()
        .analysis(AnalysisConfig {
            splice: Some(splice),
            ..bench_analysis()
        })
        .embedded(bench_embedded())
        .delta(0.1)
        .build_sharded(fixture.catalog.clone())
}

/// Drives every epoch through a fresh session of the given mode, returning the
/// per-epoch timings (and leaving total time as their sum).
pub fn run_churn(fixture: &Fixture, splice: bool) -> Vec<EpochTiming> {
    let mut session = build_session(fixture, splice);
    let mut timings = Vec::with_capacity(fixture.epochs.len());
    for events in &fixture.epochs {
        let start = Instant::now();
        let report = std::hint::black_box(session.apply_batch(events));
        timings.push(EpochTiming {
            duration: start.elapsed(),
            merges: report.merges,
            splits: report.splits,
            spliced: report.shards_spliced,
            rebuilt: report.shards_rebuilt,
        });
    }
    timings
}

/// End-to-end churn wall time of one mode (the criterion bench's unit of work).
pub fn time_churn(fixture: &Fixture, splice: bool) -> Duration {
    run_churn(fixture, splice).iter().map(|t| t.duration).sum()
}

/// `run_churn` repeated `repeats` times, keeping the per-epoch *minimum* wall
/// time (the noise-robust statistic) and the counters of the first run (they
/// are identical across runs — the event stream is pre-generated).
pub fn measure(fixture: &Fixture, splice: bool, repeats: usize) -> Vec<EpochTiming> {
    let mut best = run_churn(fixture, splice);
    for _ in 1..repeats.max(1) {
        for (slot, fresh) in best.iter_mut().zip(run_churn(fixture, splice)) {
            slot.duration = slot.duration.min(fresh.duration);
        }
    }
    best
}

/// Mean duration of the epochs selected by `pick` (`None` when none match).
pub fn mean_of(timings: &[EpochTiming], pick: impl Fn(&EpochTiming) -> bool) -> Option<Duration> {
    let selected: Vec<Duration> = timings
        .iter()
        .filter(|t| pick(t))
        .map(|t| t.duration)
        .collect();
    if selected.is_empty() {
        return None;
    }
    Some(selected.iter().sum::<Duration>() / selected.len() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_recurs_merges_and_splits_and_modes_agree() {
        let fixture = merge_fixture(3, 8, 0.2, 8, 5);
        let mut warm = build_session(&fixture, true);
        let mut cold = build_session(&fixture, false);
        let mut merges = 0;
        let mut splits = 0;
        let mut spliced = 0;
        for events in &fixture.epochs {
            let warm_report = warm.apply_batch(events);
            let cold_report = cold.apply_batch(events);
            assert_eq!(warm_report.merges, cold_report.merges);
            assert_eq!(warm_report.splits, cold_report.splits);
            assert_eq!(cold_report.shards_spliced, 0);
            merges += warm_report.merges;
            splits += warm_report.splits;
            spliced += warm_report.shards_spliced;
        }
        assert!(merges > 0, "the fixture must keep bridging islands");
        assert!(splits > 0, "the fixture must keep severing bridges");
        assert!(spliced > 0, "merges must be served by the splice path");
        assert_eq!(warm.stats().shard_rebuilds, 0, "splice mode never rebuilds");
        // The timing comparison is only meaningful if both modes answer alike
        // (bit-exactness under deterministic schedules is pinned in
        // tests/splice.rs; the bench schedule stops on tolerance, so compare to
        // iterative-convergence precision).
        for slot in 0..warm.catalog().mapping_slot_count() {
            let mapping = pdms_schema::MappingId(slot);
            let a = warm.posteriors().mapping_probability(mapping);
            let b = cold.posteriors().mapping_probability(mapping);
            assert!(
                (a - b).abs() < 1e-2,
                "modes diverged on {mapping}: {a} vs {b}"
            );
            assert_eq!(a < 0.5, b < 0.5, "classification flip on {mapping}");
        }
    }

    #[test]
    fn epoch_classification_and_means_are_consistent() {
        let fixture = merge_fixture(3, 8, 0.2, 6, 9);
        let timings = measure(&fixture, true, 2);
        assert_eq!(timings.len(), fixture.epochs.len());
        assert!(timings.iter().any(|t| t.merges > 0));
        let structural = mean_of(&timings, EpochTiming::is_structural);
        assert!(structural.is_some());
        assert!(mean_of(&timings, |_| false).is_none());
    }
}
