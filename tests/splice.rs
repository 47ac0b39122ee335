//! Golden equality of the warm shard-splice path against cold rebuilds.
//!
//! On a component merge or split the sharded engine splices the donor shards'
//! cached analyses and converged posteriors instead of replaying the full
//! sub-catalog pipeline (`crates/core/src/sharding.rs`). The splice is a pure
//! cost optimisation — these tests pin that claim:
//!
//! * spliced shards hold **exactly** the evidence set a cold rebuild enumerates
//!   (compared as sets of `(source, mappings, split)` under global ids);
//! * posteriors match a freshly built sharded session over the same churned
//!   catalog — the *cold comparison point* — bit-for-bit when both sides walk a
//!   cold path, and within the PR 4 warm-restart ulp envelope (measured ≤ 7,
//!   asserted ≤ 32) across warm churn, where iterative restarts may land on
//!   opposite phases of a last-bit limit cycle;
//! * the end-of-churn `rebuild_from_scratch` closes the loop at full bit
//!   identity;
//! * the fallback knob (`AnalysisConfig { splice: Some(false), .. }`) walks the
//!   cold path and produces the same results, so both lifecycles stay green.

use pdms::core::{AnalysisConfig, EmbeddedConfig, Engine, NetworkEvent};
use pdms::core::{ShardedSession, VariableKey};
use pdms::graph::GeneratorConfig;
use pdms::schema::{AttributeId, Catalog, MappingId, PeerId};
use pdms::workloads::{SyntheticConfig, SyntheticNetwork};

/// Deterministic embedded schedule (reliable delivery, fixed round budget) so
/// every engine under comparison performs identical floating-point work.
fn fixed_rounds() -> EmbeddedConfig {
    EmbeddedConfig {
        max_rounds: 80,
        tolerance: 0.0,
        send_probability: 1.0,
        seed: 11,
        ..Default::default()
    }
}

fn analysis() -> AnalysisConfig {
    AnalysisConfig {
        max_cycle_len: 4,
        max_path_len: 3,
        ..Default::default()
    }
}

/// A sharded session with the default (splicing) lifecycle.
fn sharded(catalog: Catalog) -> ShardedSession {
    Engine::builder()
        .analysis(analysis())
        .embedded(fixed_rounds())
        .delta(0.1)
        .build_sharded(catalog)
}

fn islands_network(seed: u64) -> Catalog {
    SyntheticNetwork::generate(SyntheticConfig {
        topology: GeneratorConfig::islands(3, 8, 0.18, seed),
        attributes: 5,
        error_rate: 0.1,
        seed,
    })
    .catalog
}

/// A mapping bridging the smallest peer of two different shards, identity
/// correspondences over the shared attribute count.
fn bridge_event(catalog: &Catalog, source: PeerId, target: PeerId) -> NetworkEvent {
    let shared = catalog
        .peer_schema(source)
        .attribute_count()
        .min(catalog.peer_schema(target).attribute_count());
    let correspondences: Vec<_> = (0..shared)
        .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
        .collect();
    NetworkEvent::AddMapping {
        source,
        target,
        correspondences,
    }
}

fn ulp_distance(a: f64, b: f64) -> u64 {
    (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
}

/// Evidence of a sharded session as an order-insensitive, global-id set.
fn evidence_set(session: &ShardedSession) -> Vec<(String, Vec<MappingId>, Option<usize>)> {
    let mut set: Vec<_> = session
        .merged_evidences()
        .iter()
        .map(|e| (format!("{:?}", e.source), e.mappings.clone(), e.split))
        .collect();
    set.sort();
    set
}

/// Asserts every posterior of the two sharded sessions agrees to `max_ulps`
/// last-bit steps (0 = bit identity), with an absolute escape hatch for the
/// shrink-to-zero regime: a posterior an iteration drives geometrically toward 0
/// (overwhelming negative evidence) keeps shrinking through the subnormals
/// instead of quantizing at a fixpoint, so a warm-continued and a cold-restarted
/// run are ulp-incomparable there even though both values are ≈ 0 — `abs_tol`
/// (0.0 in strict contexts) accepts such pairs.
fn assert_sessions_close(
    a: &ShardedSession,
    b: &ShardedSession,
    max_ulps: u64,
    abs_tol: f64,
    ctx: &str,
) {
    assert_eq!(
        a.catalog().mapping_slot_count(),
        b.catalog().mapping_slot_count(),
        "{ctx}: catalogs diverged"
    );
    let max_attrs = a
        .catalog()
        .peers()
        .map(|p| a.catalog().peer_schema(p).attribute_count())
        .max()
        .unwrap_or(0);
    let close = |x: f64, y: f64| ulp_distance(x, y) <= max_ulps || (x - y).abs() <= abs_tol;
    for slot in 0..a.catalog().mapping_slot_count() {
        let mapping = MappingId(slot);
        let x = a.posteriors().mapping_probability(mapping);
        let y = b.posteriors().mapping_probability(mapping);
        assert!(
            close(x, y),
            "{ctx}: coarse posterior of {mapping} diverged ({x} vs {y}, {} ulps)",
            ulp_distance(x, y)
        );
        for attr in 0..max_attrs {
            let attribute = AttributeId(attr);
            let x = a
                .posteriors()
                .probability_ignoring_bottom(mapping, attribute);
            let y = b
                .posteriors()
                .probability_ignoring_bottom(mapping, attribute);
            assert!(
                close(x, y),
                "{ctx}: posterior of {mapping}/{attribute} diverged ({x} vs {y}, {} ulps)",
                ulp_distance(x, y)
            );
        }
    }
}

#[test]
fn spliced_merge_matches_cold_rebuild_and_reports_no_rebuilds() {
    let catalog = islands_network(21);
    let mut spliced = sharded(catalog.clone());
    let shards_before = spliced.shard_count();
    assert!(shards_before >= 3);

    // Bridge the two first islands: one merge, served by the splice path.
    let first_peers: Vec<PeerId> = spliced.shards().iter().map(|s| s.peers()[0]).collect();
    let events = vec![bridge_event(
        spliced.catalog(),
        first_peers[0],
        first_peers[1],
    )];
    let report = spliced.apply_batch(&events);
    assert_eq!(report.merges, 1);
    assert_eq!(report.shards_spliced, 1, "the merge must be spliced");
    assert_eq!(report.shards_rebuilt, 0, "nothing may rebuild cold");
    assert_eq!(spliced.shard_count(), shards_before - 1);

    // Cold comparison point: a sharded session built fresh over the final
    // catalog walks the cold path on every shard. The donors were cold-built and
    // this is the first batch, so the splice must match it bit for bit — and
    // hold exactly the same evidence set.
    let cold = sharded(spliced.catalog().clone());
    assert_eq!(
        evidence_set(&spliced),
        evidence_set(&cold),
        "spliced evidence must equal the cold enumeration"
    );
    assert_sessions_close(&spliced, &cold, 0, 0.0, "merge vs cold rebuild");

    // The splice's enumeration work was exactly the bridge's neighborhood.
    assert!(report.splice_evidence_added <= spliced.evidence_count());
    assert_eq!(spliced.stats().shards_spliced, 1);
    assert_eq!(
        spliced.stats().splice_evidence_added,
        report.splice_evidence_added
    );
}

#[test]
fn spliced_split_matches_cold_rebuild() {
    let catalog = islands_network(22);
    let mut session = sharded(catalog);
    let shards_before = session.shard_count();

    // Merge two islands, then sever the bridge again: one splice-served merge
    // followed by one splice-served split (the bridge id is the next slot).
    let first_peers: Vec<PeerId> = session.shards().iter().map(|s| s.peers()[0]).collect();
    let bridge = MappingId(session.catalog().mapping_slot_count());
    let merge_report = session.apply_batch(&[bridge_event(
        session.catalog(),
        first_peers[0],
        first_peers[1],
    )]);
    assert_eq!(merge_report.shards_spliced, 1);
    let split_report = session.apply_batch(&[NetworkEvent::RemoveMapping { mapping: bridge }]);
    assert_eq!(split_report.splits, 1);
    assert_eq!(
        split_report.shards_spliced, 2,
        "both split halves must be spliced"
    );
    assert_eq!(split_report.shards_rebuilt, 0);
    assert_eq!(
        split_report.splice_evidence_added, 0,
        "a split adds no mappings, so no evidence search runs"
    );
    assert_eq!(session.shard_count(), shards_before);

    // The catalog is back to (a tombstone-extended copy of) the original islands;
    // a cold session over it is the golden reference.
    let cold = sharded(session.catalog().clone());
    assert_eq!(evidence_set(&session), evidence_set(&cold));
    assert_sessions_close(&session, &cold, 0, 0.0, "split vs cold rebuild");
}

#[test]
fn splice_knob_only_changes_the_path_never_the_result() {
    // The same structural churn stream through a splicing and a non-splicing
    // session: identical evidence sets, posteriors agreeing at the shared
    // fixpoint, different lifecycle counters. The deep round budget lets every
    // component run to its fixpoint — a warm continuation and a cold restart can
    // only be compared once both have converged (fixpoint rounds are free under
    // change-driven message caching, so the budget costs little).
    let deep = EmbeddedConfig {
        max_rounds: 2500,
        ..fixed_rounds()
    };
    let catalog = islands_network(23);
    let mut warm = Engine::builder()
        .analysis(AnalysisConfig {
            splice: Some(true),
            ..analysis()
        })
        .embedded(deep.clone())
        .delta(0.1)
        .build_sharded(catalog.clone());
    let mut cold = Engine::builder()
        .analysis(AnalysisConfig {
            splice: Some(false),
            ..analysis()
        })
        .embedded(deep)
        .delta(0.1)
        .build_sharded(catalog);
    let first_peers: Vec<PeerId> = warm.shards().iter().map(|s| s.peers()[0]).collect();
    let bridge = MappingId(warm.catalog().mapping_slot_count());
    let batches: Vec<Vec<NetworkEvent>> = vec![
        // Merge islands 0 and 1, with correspondence churn in the same batch.
        vec![
            bridge_event(warm.catalog(), first_peers[0], first_peers[1]),
            NetworkEvent::Corrupt {
                mapping: MappingId(0),
                attribute: AttributeId(0),
                wrong_target: AttributeId(1),
            },
        ],
        // Merge the third island in.
        vec![bridge_event(warm.catalog(), first_peers[1], first_peers[2])],
        // Sever the first bridge: a split.
        vec![NetworkEvent::RemoveMapping { mapping: bridge }],
        // Repair the corruption.
        vec![NetworkEvent::Repair {
            mapping: MappingId(0),
            attribute: AttributeId(0),
        }],
    ];
    for (i, batch) in batches.iter().enumerate() {
        let warm_report = warm.apply_batch(batch);
        let cold_report = cold.apply_batch(batch);
        assert_eq!(warm_report.merges, cold_report.merges, "batch {i}");
        assert_eq!(warm_report.splits, cold_report.splits, "batch {i}");
        assert_eq!(
            cold_report.shards_spliced, 0,
            "batch {i}: splice(false) must never splice"
        );
        assert_eq!(evidence_set(&warm), evidence_set(&cold), "batch {i}");
        assert_sessions_close(&warm, &cold, 32, 1e-12, &format!("batch {i}"));
    }
    assert!(warm.stats().shards_spliced >= 3, "merges + split halves");
    assert_eq!(warm.stats().shard_rebuilds, 0);
    assert!(cold.stats().shard_rebuilds >= 3);
    assert_eq!(cold.stats().shards_spliced, 0);
}

/// Deterministic pseudo-random structural churn: bridges islands, severs random
/// mappings, corrupts and repairs correspondences, adds and retires peers.
fn churn_epoch(catalog: &Catalog, epoch: usize, seed: u64) -> Vec<NetworkEvent> {
    let mut state = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(epoch as u64 + 1);
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound.max(1)
    };
    let mut events = Vec::new();
    let live: Vec<MappingId> = catalog.mappings().collect();
    if !live.is_empty() {
        let m = live[next(live.len())];
        let (_, target) = catalog.mapping_endpoints(m);
        let size = catalog.peer_schema(target).attribute_count();
        if size > 1 {
            events.push(NetworkEvent::Corrupt {
                mapping: m,
                attribute: AttributeId(next(size)),
                wrong_target: AttributeId(next(size)),
            });
        }
        events.push(NetworkEvent::Repair {
            mapping: live[next(live.len())],
            attribute: AttributeId(0),
        });
    }
    let peers: Vec<PeerId> = catalog.peers().collect();
    let source = peers[next(peers.len())];
    let target = peers[next(peers.len())];
    if source != target {
        events.push(bridge_event(catalog, source, target));
    }
    if epoch % 2 == 1 && !live.is_empty() {
        events.push(NetworkEvent::RemoveMapping {
            mapping: live[next(live.len())],
        });
    }
    if epoch.is_multiple_of(3) {
        events.push(NetworkEvent::AddPeer {
            name: format!("late-{epoch}"),
            attributes: vec!["x".into(), "y".into(), "z".into()],
        });
    }
    if epoch % 4 == 3 {
        events.push(NetworkEvent::RemovePeer {
            peer: peers[next(peers.len())],
        });
    }
    events
}

#[test]
fn random_structural_churn_stays_inside_the_warm_ulp_envelope() {
    for seed in [31u64, 47] {
        let catalog = islands_network(seed);
        // Deep round budget: components run to (or into the last ulp of) their
        // fixpoints; fixpoint rounds are free under change-driven caching.
        let deep = EmbeddedConfig {
            max_rounds: 2500,
            ..fixed_rounds()
        };
        let mut warm = Engine::builder()
            .analysis(AnalysisConfig {
                splice: Some(true),
                ..analysis()
            })
            .embedded(deep.clone())
            .delta(0.1)
            .build_sharded(catalog.clone());
        let mut cold = Engine::builder()
            .analysis(AnalysisConfig {
                splice: Some(false),
                ..analysis()
            })
            .embedded(deep.clone())
            .delta(0.1)
            .build_sharded(catalog.clone());
        let mut reference = Engine::builder()
            .analysis(analysis())
            .embedded(deep)
            .delta(0.1)
            .build(catalog);
        for epoch in 0..10 {
            let events = churn_epoch(reference.catalog(), epoch, seed);
            reference.apply(&events);
            warm.apply_batch(&events);
            cold.apply_batch(&events);
            let ctx = format!("seed {seed} epoch {epoch}");
            // Same ulp envelope as PR 4's warm-path guarantee (measured ≤ 7):
            // spliced-vs-cold and spliced-vs-single-session agreement.
            assert_sessions_close(&warm, &cold, 32, 1e-12, &ctx);
            assert_eq!(evidence_set(&warm), evidence_set(&cold), "{ctx}");
            for slot in 0..reference.catalog().mapping_slot_count() {
                let mapping = MappingId(slot);
                let a = reference.posteriors().mapping_probability(mapping);
                let b = warm.posteriors().mapping_probability(mapping);
                assert!(
                    ulp_distance(a, b) <= 32,
                    "{ctx}: {mapping} vs single session ({a} vs {b})"
                );
            }
        }
        assert!(
            warm.stats().shards_spliced > 0,
            "seed {seed}: churn must exercise the splice path"
        );
        // End-of-churn rebuild: both sharded engines and the single session walk
        // the identical cold path — full bit identity, evidence ids included.
        warm.rebuild_from_scratch();
        cold.rebuild_from_scratch();
        reference.rebuild_from_scratch();
        assert_sessions_close(&warm, &cold, 0, 0.0, &format!("seed {seed} rebuilt"));
        assert_eq!(
            reference.analysis().evidences,
            warm.merged_evidences(),
            "seed {seed}: rebuilt evidence ids diverged"
        );
    }
}

#[test]
fn spliced_shards_keep_serving_priors_and_incremental_applies() {
    // After a splice the merged shard is a first-class incremental session:
    // correspondence churn must keep flowing through the cheap Apply path, and
    // prior lookups must resolve through the session's global prior store.
    let catalog = islands_network(29);
    let mut session = sharded(catalog);
    let first_peers: Vec<PeerId> = session.shards().iter().map(|s| s.peers()[0]).collect();
    let report = session.apply_batch(&[bridge_event(
        session.catalog(),
        first_peers[0],
        first_peers[1],
    )]);
    assert_eq!(report.shards_spliced, 1);
    let report = session.apply_batch(&[NetworkEvent::Corrupt {
        mapping: MappingId(0),
        attribute: AttributeId(0),
        wrong_target: AttributeId(1),
    }]);
    assert_eq!(report.shards_touched, 1, "post-splice churn uses Apply");
    assert_eq!(report.shards_spliced + report.shards_rebuilt, 0);
    let key = VariableKey {
        mapping: MappingId(0),
        attribute: Some(AttributeId(0)),
    };
    assert!((0.0..=1.0).contains(&session.priors().prior(&key)));
    assert!(
        session
            .posteriors()
            .probability_ignoring_bottom(MappingId(0), AttributeId(0))
            < 0.5
    );
}
