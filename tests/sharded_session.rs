//! Golden equality: the component-sharded engine against the single-session engine.
//!
//! The sharded engine is *exact* — evidence paths never cross weak-component
//! boundaries — so its posteriors must not merely approximate the single session's,
//! they must **reproduce them bit for bit** whenever both engines walk the same
//! iteration path. These tests pin the embedded backend to its deterministic mode
//! (reliable delivery, `tolerance: 0.0`, a fixed round budget) and assert
//! `f64::to_bits` equality of every posterior on every cold build, exact
//! evidence-id equality on cold builds, and exact batch/per-event equivalence of
//! the coalescing ingestion path.
//!
//! Under *incremental* churn the two engines legitimately restart from different
//! states (the single session warm-restarts every variable each batch; the sharded
//! engine re-runs touched shards and keeps untouched ones verbatim). Components
//! whose iteration settles into a last-bit limit cycle instead of an exact
//! fixpoint can then land on opposite phases of that final ulp, so the warm-path
//! assertions allow a small ulp envelope (measured ≤ 7, asserted ≤ 32) — and the
//! end-of-churn rebuild check closes the loop at full bit identity again.

use pdms::core::{
    AnalysisConfig, EmbeddedConfig, Engine, EngineSession, NetworkEvent, RoutingPolicy,
    ShardedSession,
};
use pdms::graph::GeneratorConfig;
use pdms::schema::{AttributeId, Catalog, MappingId, PeerId, Predicate, Query};
use pdms::workloads::{SyntheticConfig, SyntheticNetwork};

/// The deterministic embedded schedule: reliable delivery, no early-out tolerance,
/// a fixed round budget. Every reinference — cold, warm, sharded or global — runs
/// exactly this many rounds, and the fixtures below reach their exact message
/// fixpoint well inside the budget, so skipped shards and re-run shards land on
/// identical bits.
fn fixed_rounds() -> EmbeddedConfig {
    EmbeddedConfig {
        max_rounds: 80,
        tolerance: 0.0,
        send_probability: 1.0,
        seed: 11,
        record_history: false,
    }
}

fn analysis() -> AnalysisConfig {
    AnalysisConfig {
        max_cycle_len: 4,
        max_path_len: 3,
        ..Default::default()
    }
}

fn single(catalog: Catalog) -> EngineSession {
    Engine::builder()
        .analysis(analysis())
        .embedded(fixed_rounds())
        .delta(0.1)
        .build(catalog)
}

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

fn hub_heavy_network(seed: u64) -> Catalog {
    SyntheticNetwork::generate(SyntheticConfig {
        topology: GeneratorConfig::scale_free_skewed(16, 2, 1.6, seed),
        attributes: 5,
        error_rate: 0.1,
        seed,
    })
    .catalog
}

/// Distance in representation space: 0 for identical bits, 1 for adjacent
/// doubles, …
fn ulp_distance(a: f64, b: f64) -> u64 {
    let (x, y) = (a.to_bits() as i64, b.to_bits() as i64);
    x.abs_diff(y)
}

/// Asserts every posterior agrees to at most `max_ulps` last-bit steps — the
/// warm-path guarantee (see the module docs; 0 ulps = bit-identical).
fn assert_posteriors_within_ulps(
    single: &EngineSession,
    sharded: &ShardedSession,
    max_ulps: u64,
    context: &str,
) {
    let catalog = single.catalog();
    assert_eq!(
        catalog.mapping_slot_count(),
        sharded.catalog().mapping_slot_count()
    );
    let max_attrs = catalog
        .peers()
        .map(|p| catalog.peer_schema(p).attribute_count())
        .max()
        .unwrap_or(0);
    for slot in 0..catalog.mapping_slot_count() {
        let mapping = MappingId(slot);
        let a = single.posteriors().mapping_probability(mapping);
        let b = sharded.posteriors().mapping_probability(mapping);
        assert!(
            ulp_distance(a, b) <= max_ulps,
            "{context}: coarse posterior of {mapping} diverged ({a} vs {b})"
        );
        for attr in 0..max_attrs {
            let attribute = AttributeId(attr);
            let a = single
                .posteriors()
                .probability_ignoring_bottom(mapping, attribute);
            let b = sharded
                .posteriors()
                .probability_ignoring_bottom(mapping, attribute);
            assert!(
                ulp_distance(a, b) <= max_ulps,
                "{context}: posterior of {mapping}/{attribute} diverged ({a} vs {b}, {} ulps)",
                ulp_distance(a, b)
            );
        }
    }
}

/// Asserts bit-identical posteriors over every mapping slot and attribute (fine,
/// coarse and default lookup paths all exercised).
fn assert_posteriors_bit_identical(
    single: &EngineSession,
    sharded: &ShardedSession,
    context: &str,
) {
    let catalog = single.catalog();
    assert_eq!(
        catalog.mapping_slot_count(),
        sharded.catalog().mapping_slot_count()
    );
    let max_attrs = catalog
        .peers()
        .map(|p| catalog.peer_schema(p).attribute_count())
        .max()
        .unwrap_or(0);
    for slot in 0..catalog.mapping_slot_count() {
        let mapping = MappingId(slot);
        let a = single.posteriors().mapping_probability(mapping);
        let b = sharded.posteriors().mapping_probability(mapping);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{context}: coarse posterior of {mapping} diverged ({a} vs {b})"
        );
        for attr in 0..max_attrs {
            let attribute = AttributeId(attr);
            let a = single
                .posteriors()
                .probability_ignoring_bottom(mapping, attribute);
            let b = sharded
                .posteriors()
                .probability_ignoring_bottom(mapping, attribute);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: posterior of {mapping}/{attribute} diverged ({a} vs {b})"
            );
        }
    }
}

/// Asserts the two sessions hold the same evidence as a set (order-insensitive:
/// incremental appends order per-shard tails differently than the global session).
fn assert_evidence_sets_equal(single: &EngineSession, sharded: &ShardedSession, context: &str) {
    let mut a: Vec<_> = single
        .analysis()
        .evidences
        .iter()
        .map(|e| (format!("{:?}", e.source), e.mappings.clone(), e.split))
        .collect();
    let mut b: Vec<_> = sharded
        .merged_evidences()
        .iter()
        .map(|e| (format!("{:?}", e.source), e.mappings.clone(), e.split))
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "{context}: evidence sets diverged");
}

#[test]
fn cold_build_is_bit_identical_to_the_single_session() {
    for (name, catalog) in [
        ("islands-21", islands_network(21)),
        ("islands-22", islands_network(22)),
        ("hub-heavy-7", hub_heavy_network(7)),
    ] {
        let single = single(catalog.clone());
        let sharded = sharded(catalog);
        // The partition is the weak-component decomposition.
        let components = pdms::graph::connected_components(single.topology());
        assert_eq!(sharded.shard_count(), components.len(), "{name}");
        // Evidence ids are bit-identical on cold builds: the merged shard order
        // reproduces the global enumeration order exactly.
        assert_eq!(
            single.analysis().evidences,
            sharded.merged_evidences(),
            "{name}: cold evidence ids diverged"
        );
        assert_posteriors_bit_identical(&single, &sharded, name);
    }
}

#[test]
fn shard_parallelism_knob_is_result_invariant() {
    let catalog = islands_network(33);
    let serial = Engine::builder()
        .analysis(analysis())
        .embedded(fixed_rounds())
        .delta(0.1)
        .shard_parallelism(1)
        .build_sharded(catalog.clone());
    let threaded = Engine::builder()
        .analysis(analysis())
        .embedded(fixed_rounds())
        .delta(0.1)
        .shard_parallelism(4)
        .build_sharded(catalog.clone());
    assert_eq!(serial.merged_evidences(), threaded.merged_evidences());
    let reference = single(catalog);
    assert_posteriors_bit_identical(&reference, &serial, "serial");
    assert_posteriors_bit_identical(&reference, &threaded, "threaded");
}

/// A deterministic event stream mixing correspondence churn with structural churn:
/// cross-island mapping additions (merges), removals of previously added bridges
/// (splits), peer arrivals and peer departures.
fn churn_epoch(catalog: &Catalog, epoch: usize, seed: u64) -> Vec<NetworkEvent> {
    let mut state = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(epoch as u64);
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound.max(1)
    };
    let mut events = Vec::new();
    let live: Vec<MappingId> = catalog.mappings().collect();
    // Correspondence churn: corrupt one, repair one, drop one.
    if !live.is_empty() {
        let m = live[next(live.len())];
        let (_, target) = catalog.mapping_endpoints(m);
        let target_size = catalog.peer_schema(target).attribute_count();
        if target_size > 1 {
            events.push(NetworkEvent::Corrupt {
                mapping: m,
                attribute: AttributeId(next(target_size)),
                wrong_target: AttributeId(next(target_size)),
            });
        }
        let m = live[next(live.len())];
        events.push(NetworkEvent::Repair {
            mapping: m,
            attribute: AttributeId(0),
        });
    }
    // Structural churn: every epoch adds one mapping between a random ordered pair
    // (often cross-island: a component merge), and every second epoch removes a
    // random live mapping (sometimes a bridge: a component split).
    let peers: Vec<PeerId> = catalog.peers().collect();
    let source = peers[next(peers.len())];
    let target = peers[next(peers.len())];
    if source != target {
        let shared = catalog
            .peer_schema(source)
            .attribute_count()
            .min(catalog.peer_schema(target).attribute_count());
        let correspondences: Vec<_> = (0..shared)
            .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
            .collect();
        events.push(NetworkEvent::AddMapping {
            source,
            target,
            correspondences,
        });
    }
    if !epoch.is_multiple_of(2) && !live.is_empty() {
        events.push(NetworkEvent::RemoveMapping {
            mapping: live[next(live.len())],
        });
    }
    // Peer arrivals and departures.
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
fn random_churn_with_merges_and_splits_stays_exact() {
    for seed in [5u64, 17] {
        let catalog = islands_network(seed);
        // A deep round budget so components run to (or into the last ulp of) their
        // fixpoints; rounds at an exact fixpoint cost nothing thanks to
        // change-driven message caching.
        let deep = EmbeddedConfig {
            max_rounds: 2500,
            ..fixed_rounds()
        };
        let mut reference = Engine::builder()
            .analysis(analysis())
            .embedded(deep.clone())
            .delta(0.1)
            .build(catalog.clone());
        let mut shards = Engine::builder()
            .analysis(analysis())
            .embedded(deep)
            .delta(0.1)
            .build_sharded(catalog);
        let mut merges = 0;
        let mut splits = 0;
        for epoch in 0..10 {
            let events = churn_epoch(reference.catalog(), epoch, seed);
            reference.apply(&events);
            let report = shards.apply_batch(&events);
            merges += report.merges;
            splits += report.splits;
            // Warm path: exact up to the last-bit limit-cycle phase, which can
            // compound through the per-variable message product into a handful of
            // ulps (empirically ≤ 7 across both seeds; 32 leaves margin while
            // still asserting ~1e-15 relative agreement).
            assert_posteriors_within_ulps(
                &reference,
                &shards,
                32,
                &format!("seed {seed} epoch {epoch}"),
            );
            assert_evidence_sets_equal(&reference, &shards, &format!("seed {seed} epoch {epoch}"));
            // The partition stays the weak-component decomposition of the mutated
            // catalog.
            assert_eq!(
                shards.shard_count(),
                pdms::graph::connected_components(reference.topology()).len(),
                "seed {seed} epoch {epoch}"
            );
        }
        // The schedule actually exercised the shard lifecycle.
        assert!(merges > 0, "seed {seed}: no merge happened");
        assert!(splits > 0, "seed {seed}: no split happened");
        // Rebuilding both engines from the churned catalog walks the identical
        // cold path on both sides: full bit identity, including evidence ids.
        reference.rebuild_from_scratch();
        shards.rebuild_from_scratch();
        assert_posteriors_bit_identical(&reference, &shards, &format!("seed {seed} rebuilt"));
        assert_eq!(
            reference.analysis().evidences,
            shards.merged_evidences(),
            "seed {seed}: rebuilt evidence ids diverged"
        );
    }
}

#[test]
fn batch_application_equals_per_event_application() {
    let catalog = islands_network(41);
    // The batch adds a mapping that a later event of the same batch removes again
    // (ids are allocated sequentially, so the id is predictable), plus ordinary
    // churn around it.
    let next_id = catalog.mapping_slot_count();
    let correspondences: Vec<_> = (0..3)
        .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
        .collect();
    let events = vec![
        NetworkEvent::Corrupt {
            mapping: MappingId(0),
            attribute: AttributeId(0),
            wrong_target: AttributeId(1),
        },
        NetworkEvent::AddMapping {
            source: PeerId(0),
            target: PeerId(9),
            correspondences: correspondences.clone(),
        },
        NetworkEvent::Corrupt {
            mapping: MappingId(next_id),
            attribute: AttributeId(1),
            wrong_target: AttributeId(0),
        },
        NetworkEvent::RemoveMapping {
            mapping: MappingId(next_id),
        },
        NetworkEvent::AddMapping {
            source: PeerId(1),
            target: PeerId(2),
            correspondences,
        },
    ];

    // Single-session engine: one batch vs. one event at a time.
    let mut batched = single(catalog.clone());
    let report = batched.apply(&events);
    assert_eq!(report.mappings_coalesced, 1);
    let mut stepped = single(catalog.clone());
    for event in &events {
        stepped.apply(std::slice::from_ref(event));
    }
    assert_eq!(
        batched.analysis().evidences,
        stepped.analysis().evidences,
        "coalescing must not change evidence ids"
    );
    assert_eq!(
        batched.catalog().mapping_slot_count(),
        stepped.catalog().mapping_slot_count(),
        "coalesced slots must still be allocated"
    );
    assert!(batched.catalog().is_mapping_removed(MappingId(next_id)));
    for slot in 0..batched.catalog().mapping_slot_count() {
        let mapping = MappingId(slot);
        assert_eq!(
            batched.posteriors().mapping_probability(mapping).to_bits(),
            stepped.posteriors().mapping_probability(mapping).to_bits(),
            "batch vs per-event posterior of {mapping}"
        );
    }

    // Sharded engine: the same batch, again bit-identical to the single session.
    let mut shards = sharded(catalog);
    let shard_report = shards.apply_batch(&events);
    assert_eq!(shard_report.mappings_coalesced, 1);
    assert_posteriors_bit_identical(&batched, &shards, "sharded batch");
    assert_evidence_sets_equal(&batched, &shards, "sharded batch");
}

#[test]
fn events_may_interleave_with_a_coalesced_pair() {
    // Regression: a non-doomed AddMapping landing *between* a doomed add and its
    // removal must not trip the topology-mirror id-alignment assert (the doomed
    // mapping's mirror edge is tombstoned early while the catalog still counts it
    // live), and the final state must match per-event application exactly.
    // (Seed 41's components quantize to exact fixpoints inside the round budget,
    // so the bit-identity assertion is meaningful on the warm path too.)
    let catalog = islands_network(41);
    let doomed_id = catalog.mapping_slot_count();
    let correspondences: Vec<_> = (0..3)
        .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
        .collect();
    let events = vec![
        NetworkEvent::AddMapping {
            source: PeerId(0),
            target: PeerId(1),
            correspondences: correspondences.clone(),
        },
        // Interleaved, surviving addition in the same component.
        NetworkEvent::AddMapping {
            source: PeerId(1),
            target: PeerId(0),
            correspondences: correspondences.clone(),
        },
        NetworkEvent::RemoveMapping {
            mapping: MappingId(doomed_id),
        },
        // One more surviving addition after the pair closed.
        NetworkEvent::AddMapping {
            source: PeerId(2),
            target: PeerId(0),
            correspondences,
        },
    ];
    let mut batched = single(catalog.clone());
    let report = batched.apply(&events);
    assert_eq!(report.mappings_coalesced, 1);
    let mut stepped = single(catalog.clone());
    for event in &events {
        stepped.apply(std::slice::from_ref(event));
    }
    assert_eq!(batched.analysis().evidences, stepped.analysis().evidences);
    let mut shards = sharded(catalog);
    let shard_report = shards.apply_batch(&events);
    assert_eq!(shard_report.mappings_coalesced, 1);
    assert_evidence_sets_equal(&batched, &shards, "interleaved coalescing");
    assert_posteriors_bit_identical(&batched, &shards, "interleaved coalescing");
}

#[test]
fn coalesced_pairs_do_no_evidence_work() {
    let catalog = islands_network(8);
    let mut session = single(catalog.clone());
    let evidences_before = session.analysis().evidences.len();
    let rounds_before = session.stats().total_rounds;
    let next_id = catalog.mapping_slot_count();
    let correspondences: Vec<_> = (0..3)
        .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
        .collect();
    let report = session.apply(&[
        NetworkEvent::AddMapping {
            source: PeerId(0),
            target: PeerId(1),
            correspondences,
        },
        NetworkEvent::RemoveMapping {
            mapping: MappingId(next_id),
        },
    ]);
    assert_eq!(report.mappings_coalesced, 1);
    assert_eq!(report.analysis.evidences_added, 0);
    assert_eq!(report.analysis.evidences_removed, 0);
    assert_eq!(session.analysis().evidences.len(), evidences_before);
    // No evidence changed, so no inference ran at all.
    assert_eq!(session.stats().total_rounds, rounds_before);
    // The slot exists and is tombstoned, like per-event application would leave it.
    assert_eq!(session.catalog().mapping_slot_count(), next_id + 1);
    assert!(session.catalog().is_mapping_removed(MappingId(next_id)));
}

#[test]
fn malformed_events_are_ignored_by_both_sessions() {
    // Events naming peers, mappings or attributes the catalog does not hold are
    // ignored: no panic, no catalog change, one `events_ignored` each.
    let catalog = islands_network(41);
    let peers = catalog.peer_count();
    let slots = catalog.mapping_slot_count();
    let beyond = catalog
        .peers()
        .map(|p| catalog.peer_schema(p).attribute_count())
        .max()
        .map(AttributeId)
        .expect("the network has peers");
    let identity: Vec<_> = (0..3)
        .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
        .collect();
    let unknown_target = NetworkEvent::AddMapping {
        source: PeerId(0),
        target: PeerId(peers),
        correspondences: identity.clone(),
    };
    let malformed = [
        unknown_target.clone(),
        NetworkEvent::AddMapping {
            source: PeerId(peers + 3),
            target: PeerId(0),
            correspondences: identity.clone(),
        },
        NetworkEvent::AddMapping {
            source: PeerId(0),
            target: PeerId(1),
            correspondences: vec![(beyond, AttributeId(0), None)],
        },
        NetworkEvent::AddPeer {
            name: "twin".into(),
            attributes: vec!["x".into(), "x".into()],
        },
        NetworkEvent::Corrupt {
            mapping: MappingId(slots),
            attribute: AttributeId(0),
            wrong_target: AttributeId(1),
        },
        NetworkEvent::Repair {
            mapping: MappingId(slots + 7),
            attribute: AttributeId(0),
        },
        NetworkEvent::Drop {
            mapping: MappingId(slots),
            attribute: AttributeId(0),
        },
        NetworkEvent::Corrupt {
            mapping: MappingId(0),
            attribute: beyond,
            wrong_target: AttributeId(beyond.0 + 1),
        },
    ];
    let before = format!("{catalog:?}");
    let mut session = single(catalog.clone());
    let mut shards = sharded(catalog.clone());
    for event in &malformed {
        let report = session.apply(std::slice::from_ref(event));
        assert_eq!(
            (report.events_applied, report.events_ignored),
            (0, 1),
            "single session: {event:?}"
        );
        let report = shards.apply_batch(std::slice::from_ref(event));
        assert_eq!(
            (report.events_applied, report.events_ignored),
            (0, 1),
            "sharded session: {event:?}"
        );
    }
    assert_eq!(format!("{:?}", session.catalog()), before);
    assert_eq!(format!("{:?}", shards.catalog()), before);

    // An ignored addition allocates no id, so the coalescing lookahead skips it
    // too: the addition `RemovePeer` withdraws is the one that really got id
    // `slots`, and the one after it survives with a live mirror edge.
    let batch = [
        unknown_target,
        NetworkEvent::AddMapping {
            source: PeerId(0),
            target: PeerId(1),
            correspondences: identity.clone(),
        },
        NetworkEvent::AddMapping {
            source: PeerId(2),
            target: PeerId(0),
            correspondences: identity,
        },
        NetworkEvent::RemovePeer { peer: PeerId(1) },
    ];
    let report = session.apply(&batch);
    assert_eq!((report.events_ignored, report.mappings_coalesced), (1, 1));
    let shard_report = shards.apply_batch(&batch);
    assert_eq!(
        (shard_report.events_ignored, shard_report.mappings_coalesced),
        (1, 1)
    );
    assert!(session.catalog().is_mapping_removed(MappingId(slots)));
    assert!(!session.catalog().is_mapping_removed(MappingId(slots + 1)));
    let rebuilt = pdms::core::cycle_analysis::build_topology(session.catalog());
    let rebuilt_edges: Vec<_> = rebuilt.edges().collect();
    assert_eq!(
        session.topology().edges().collect::<Vec<_>>(),
        rebuilt_edges
    );
    assert_eq!(shards.topology().edges().collect::<Vec<_>>(), rebuilt_edges);
    let cold = single(session.catalog().clone());
    assert_eq!(
        session.analysis().evidences.len(),
        cold.analysis().evidences.len()
    );
    assert_evidence_sets_equal(&cold, &shards, "ignored addition in a batch");
}

#[test]
fn routing_and_evaluation_match_the_single_session() {
    let catalog = islands_network(13);
    let reference = single(catalog.clone());
    let shards = sharded(catalog);
    let query = Query::new()
        .project(AttributeId(0))
        .select(AttributeId(1), Predicate::Contains("river".into()));
    let requests: Vec<(PeerId, Query)> = reference
        .catalog()
        .peers()
        .map(|p| (p, query.clone()))
        .collect();
    let policy = RoutingPolicy::uniform(0.5);
    let a = reference.route_all(&requests, &policy);
    let b = shards.route_all(&requests, &policy);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.reached, y.reached);
        assert_eq!(x.tainted, y.tainted);
        assert_eq!(x.forwarded_mappings(), y.forwarded_mappings());
    }
    let ea = reference.evaluate(0.5);
    let eb = shards.evaluate(0.5);
    assert_eq!(ea.true_positives, eb.true_positives);
    assert_eq!(ea.false_positives, eb.false_positives);
    assert_eq!(ea.flagged(), eb.flagged());
}

#[test]
fn remove_peer_splits_the_shard_and_stays_exact() {
    // Two triangles joined through a cut vertex: removing the middle peer splits
    // the component.
    let mut catalog = Catalog::new();
    let peers: Vec<PeerId> = (0..5)
        .map(|i| {
            catalog.add_peer_with_schema(format!("p{i}"), |s| {
                s.attributes(["x", "y", "z"]);
            })
        })
        .collect();
    let identity = |mut m: pdms::schema::MappingBuilder| {
        for a in 0..3 {
            m = m.correct(AttributeId(a), AttributeId(a));
        }
        m
    };
    // Triangle 0-1-2 and triangle 2-3-4 share peer 2.
    for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)] {
        catalog.add_mapping(peers[a], peers[b], identity);
    }
    let mut reference = single(catalog.clone());
    let mut shards = sharded(catalog);
    assert_eq!(shards.shard_count(), 1);

    let events = vec![NetworkEvent::RemovePeer { peer: peers[2] }];
    reference.apply(&events);
    let report = shards.apply_batch(&events);
    assert!(report.splits > 0, "removing the cut vertex must split");
    // {0,1}, {2}, {3,4}: three shards.
    assert_eq!(shards.shard_count(), 3);
    assert_posteriors_bit_identical(&reference, &shards, "remove-peer split");
    assert_evidence_sets_equal(&reference, &shards, "remove-peer split");
}

#[test]
fn batch_size_knob_chunks_the_stream() {
    // The voting backend is one-shot: its posteriors are a pure function of the
    // final analysis state, so chunked, whole-batch and single-session ingestion
    // must agree bit for bit — this isolates the chunking semantics from
    // iterative-restart numerics (which `random_churn_…` covers with its ulp
    // envelope).
    use pdms::core::VotingBackend;
    let catalog = islands_network(3);
    let mut chunked = Engine::builder()
        .analysis(analysis())
        .backend(VotingBackend)
        .delta(0.1)
        .batch_size(2)
        .build_sharded(catalog.clone());
    let mut whole = Engine::builder()
        .analysis(analysis())
        .backend(VotingBackend)
        .delta(0.1)
        .build_sharded(catalog.clone());
    let mut reference = Engine::builder()
        .analysis(analysis())
        .backend(VotingBackend)
        .delta(0.1)
        .build(catalog);
    let mut events = Vec::new();
    for epoch in 0..3 {
        events.extend(churn_epoch(reference.catalog(), epoch, 99));
    }
    // Chunked ingestion processes ceil(n / 2) batches; every chunk boundary is
    // itself a valid batch boundary.
    let report = chunked.apply_batch(&events);
    assert_eq!(report.batches, events.len().div_ceil(2));
    let whole_report = whole.apply_batch(&events);
    assert_eq!(whole_report.batches, 1);
    reference.apply(&events);
    assert_posteriors_bit_identical(&reference, &chunked, "chunked");
    assert_posteriors_bit_identical(&reference, &whole, "whole");
}
