//! Shared fixtures and measurement loops for the component-sharded engine
//! comparison.
//!
//! Used by two entry points that must agree on methodology:
//!
//! * the `shard_scaling` Criterion bench (`benches/shard_scaling.rs`) for
//!   interactive `cargo bench` runs;
//! * the `bench_shard_scaling` binary, which writes the committed
//!   `BENCH_shard_scaling.json` record tracking the sharded engine against the
//!   single-session engine.
//!
//! Three questions, three measurements:
//!
//! 1. **Churn throughput (measured, serial).** The same pre-generated epoch
//!    batches are driven through a single [`EngineSession`] (which re-runs
//!    inference over the *whole* model on every batch) and through a
//!    [`ShardedSession`] pinned to `shard_parallelism = 1` (which re-runs only
//!    the touched shards). The win is pure locality — no threads involved, so
//!    the measurement is sound on a single-core host.
//! 2. **Batching (measured, serial).** The same event stream through
//!    `apply_batch` once per epoch versus once per *event*: one inference pass
//!    per touched shard per batch versus one per event.
//! 3. **Parallel dispatch (modeled from measured per-shard costs).** Cold
//!    per-shard build costs are measured serially (one shard at a time), then
//!    replayed over `w`-worker pools with the same greedy work-stealing order
//!    [`pdms_graph::run_stealing`] uses (tasks in order, each grabbed by the
//!    first idle worker); the modeled tail is the maximum per-worker busy time.
//!    This mirrors the `enumeration_tail` methodology, sound on 1-core hosts.

use pdms_core::{AnalysisConfig, Engine, EngineSession, NetworkEvent, ShardedSession};
use pdms_workloads::{hub_heavy_network, multi_component_network, ChurnConfig, ChurnGenerator};
use std::time::{Duration, Instant};

/// One benchmark network plus the churn epochs driven through it.
pub struct Fixture {
    /// Short fixture label (`islands_6x12`, `hub_heavy_32`).
    pub name: String,
    /// The generated catalog.
    pub catalog: pdms_schema::Catalog,
    /// Pre-generated epoch batches (identical for every engine under test).
    pub epochs: Vec<Vec<NetworkEvent>>,
}

/// Analysis bounds shared by every measurement.
pub fn bench_analysis() -> AnalysisConfig {
    AnalysisConfig {
        max_cycle_len: 4,
        max_path_len: 3,
        parallelism: 1,
        shard_parallelism: 1,
        ..Default::default()
    }
}

/// The two standard fixtures: a 6 × 12 multi-component island federation and a
/// single-component hub-heavy scale-free network (the sharded engine's worst
/// case: one shard, so all it can win on is batching).
pub fn standard_fixtures() -> Vec<Fixture> {
    vec![
        fixture_islands(6, 12, 0.16, 5),
        fixture_hub_heavy(32, 1.6, 7),
    ]
}

/// Builds the multi-component fixture with `epochs` pre-generated churn batches.
pub fn fixture_islands(islands: usize, peers: usize, probability: f64, seed: u64) -> Fixture {
    let network = multi_component_network(islands, peers, probability, seed);
    let epochs = churn_epochs(&network.catalog, 8, seed);
    Fixture {
        name: format!("islands_{islands}x{peers}"),
        catalog: network.catalog,
        epochs,
    }
}

/// Builds the hub-heavy single-component fixture.
pub fn fixture_hub_heavy(peers: usize, hub_exponent: f64, seed: u64) -> Fixture {
    let network = hub_heavy_network(peers, 2, hub_exponent, seed);
    let epochs = churn_epochs(&network.catalog, 8, seed);
    Fixture {
        name: format!("hub_heavy_{peers}"),
        catalog: network.catalog,
        epochs,
    }
}

/// Pre-generates `epochs` churn batches against the *initial* catalog state (all
/// engines under test then see the byte-identical event stream).
fn churn_epochs(
    catalog: &pdms_schema::Catalog,
    epochs: usize,
    seed: u64,
) -> Vec<Vec<NetworkEvent>> {
    let mut generator = ChurnGenerator::new(ChurnConfig {
        seed,
        // Correspondence churn only: keep the component structure stable so every
        // engine sees the same shard layout for the whole run (merges/splits are
        // correctness-tested in tests/sharded_session.rs; here they would just
        // add rebuild noise to the throughput comparison).
        new_mappings_per_epoch: 0.0,
        ..Default::default()
    });
    (0..epochs)
        .map(|_| generator.epoch_events(catalog))
        .collect()
}

/// Builds the single-session engine over the fixture.
pub fn build_single(fixture: &Fixture) -> EngineSession {
    Engine::builder()
        .analysis(bench_analysis())
        .delta(0.1)
        .build(fixture.catalog.clone())
}

/// Builds the sharded engine (serial shard dispatch) over the fixture.
pub fn build_sharded(fixture: &Fixture) -> ShardedSession {
    Engine::builder()
        .analysis(bench_analysis())
        .delta(0.1)
        .build_sharded(fixture.catalog.clone())
}

/// Drives every epoch through a fresh single session, returning the total apply
/// wall time.
pub fn time_single_churn(fixture: &Fixture) -> Duration {
    let mut session = build_single(fixture);
    let start = Instant::now();
    for events in &fixture.epochs {
        std::hint::black_box(session.apply(events));
    }
    start.elapsed()
}

/// Drives every epoch through a fresh sharded session (one batch per epoch,
/// serial dispatch), returning the total ingestion wall time.
pub fn time_sharded_churn(fixture: &Fixture) -> Duration {
    let mut session = build_sharded(fixture);
    let start = Instant::now();
    for events in &fixture.epochs {
        std::hint::black_box(session.apply_batch(events));
    }
    start.elapsed()
}

/// Drives every epoch through a fresh sharded session one event at a time — the
/// unbatched ingestion the batched path replaces.
pub fn time_sharded_per_event(fixture: &Fixture) -> Duration {
    let mut session = build_sharded(fixture);
    let start = Instant::now();
    for events in &fixture.epochs {
        for event in events {
            std::hint::black_box(session.apply_batch(std::slice::from_ref(event)));
        }
    }
    start.elapsed()
}

/// Cold-build cost of the single-session engine.
pub fn time_single_build(fixture: &Fixture) -> Duration {
    let start = Instant::now();
    std::hint::black_box(build_single(fixture));
    start.elapsed()
}

/// Measures each shard's cold-build cost serially: one one-shard session build
/// over each shard's sub-catalog, one at a time on the calling thread.
pub fn per_shard_build_costs(fixture: &Fixture) -> Vec<Duration> {
    let sharded = build_sharded(fixture);
    sharded
        .shards()
        .iter()
        .map(|shard| {
            let sub = shard.session().catalog().clone();
            let start = Instant::now();
            std::hint::black_box(
                Engine::builder()
                    .analysis(bench_analysis())
                    .delta(0.1)
                    .build_sharded(sub),
            );
            start.elapsed()
        })
        .collect()
}

/// Replays measured per-shard costs over a `workers`-wide pool with the greedy
/// injector order `run_stealing` uses: each idle worker grabs the next task.
/// Returns the modeled tail (maximum per-worker busy time).
pub fn modeled_dispatch_tail(costs: &[Duration], workers: usize) -> Duration {
    let workers = workers.max(1);
    let mut busy = vec![Duration::ZERO; workers];
    for cost in costs {
        let idlest = busy
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| **b)
            .map(|(i, _)| i)
            .expect("at least one worker");
        busy[idlest] += *cost;
    }
    busy.into_iter().max().expect("at least one worker")
}

/// Best-of-`repeats` wrapper (minimum wall time, the noise-robust statistic).
pub fn best_of<F: FnMut() -> Duration>(repeats: usize, mut f: F) -> Duration {
    (0..repeats.max(1))
        .map(|_| f())
        .min()
        .expect("at least one repeat")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_nontrivial_and_engines_agree() {
        let fixture = fixture_islands(3, 8, 0.18, 5);
        assert!(fixture.epochs.iter().any(|e| !e.is_empty()));
        let mut single = build_single(&fixture);
        let mut sharded = build_sharded(&fixture);
        assert!(sharded.shard_count() >= 3);
        // The engines the bench compares must agree on the fixture itself,
        // otherwise the timing comparison is meaningless.
        for events in &fixture.epochs {
            single.apply(events);
            sharded.apply_batch(events);
        }
        // With the realistic (tolerance-stopped) schedule the engines agree to
        // iterative convergence tolerance — the bit-exact regime is covered by
        // tests/sharded_session.rs with the fixed-round schedule.
        for slot in 0..single.catalog().mapping_slot_count() {
            let mapping = pdms_schema::MappingId(slot);
            let a = single.posteriors().mapping_probability(mapping);
            let b = sharded.posteriors().mapping_probability(mapping);
            assert!(
                (a - b).abs() < 1e-2,
                "engines diverged on {mapping}: {a} vs {b}"
            );
            assert_eq!(a < 0.5, b < 0.5, "classification flip on {mapping}");
        }
    }

    #[test]
    fn modeled_tail_shrinks_with_workers_and_respects_the_max() {
        let costs: Vec<Duration> = [40u64, 10, 10, 10, 10, 10]
            .into_iter()
            .map(Duration::from_millis)
            .collect();
        let serial = modeled_dispatch_tail(&costs, 1);
        assert_eq!(serial, Duration::from_millis(90));
        let two = modeled_dispatch_tail(&costs, 2);
        assert!(two < serial);
        // The tail can never drop below the most expensive single shard.
        assert!(modeled_dispatch_tail(&costs, 16) >= Duration::from_millis(40));
    }
}
