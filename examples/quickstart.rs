//! Quickstart: build a tiny PDMS session, detect the faulty mapping, route a query
//! around it, then watch the session absorb a network change incrementally.
//!
//! Run with `cargo run --example quickstart`.

use pdms::core::{AnalysisConfig, Engine, Granularity, NetworkEvent, RoutingPolicy};
use pdms::schema::{AttributeId, Catalog, PeerId, Predicate, Query};

fn main() {
    // 1. Describe the PDMS: four art databases, five pairwise schema mappings.
    //    Every schema has the same eleven attributes here for brevity; in general each
    //    peer brings its own schema and mappings connect semantically similar
    //    attributes.
    let attribute_names = [
        "Creator",
        "Item",
        "CreatedOn",
        "Title",
        "Subject",
        "Medium",
        "Height",
        "Width",
        "Location",
        "Owner",
        "Licence",
    ];
    let mut catalog = Catalog::new();
    let peers: Vec<PeerId> = (1..=4)
        .map(|i| {
            catalog.add_peer_with_schema(format!("p{i}"), |schema| {
                schema.attributes(attribute_names);
            })
        })
        .collect();
    let creator = AttributeId(0);
    let item = AttributeId(1);
    let created_on = AttributeId(2);
    let all_correct = |mut m: pdms::schema::MappingBuilder| {
        for a in 0..attribute_names.len() {
            m = m.correct(AttributeId(a), AttributeId(a));
        }
        m
    };
    catalog.add_mapping(peers[0], peers[1], all_correct); // m12
    catalog.add_mapping(peers[1], peers[2], all_correct); // m23
    catalog.add_mapping(peers[2], peers[3], all_correct); // m34
    catalog.add_mapping(peers[3], peers[0], all_correct); // m41
                                                          // m24 was generated automatically and erroneously maps Creator onto CreatedOn.
    catalog.add_mapping(peers[1], peers[3], |mut m| {
        m = m.erroneous(creator, created_on, creator);
        for a in 1..attribute_names.len() {
            m = m.correct(AttributeId(a), AttributeId(a));
        }
        m
    });

    // 2. Build a session. The builder chooses the paper's defaults (fine
    //    granularity, embedded message passing, Δ estimated from the schema sizes);
    //    `.backend(..)` would swap in exact inference or a custom implementation of
    //    the `InferenceBackend` trait. Building runs the full pipeline once per
    //    weakly connected component (this network is one): cycle and parallel-path
    //    discovery, factor-graph construction, and message passing.
    let mut session = Engine::builder()
        .granularity(Granularity::Fine)
        .build_sharded(catalog);
    println!(
        "backend `{}` converged after {} rounds (delta = {:.2})\n",
        session.backend_name(),
        session.rounds(),
        session.delta()
    );
    println!("posterior P(mapping preserves Creator):");
    for mapping in session.catalog().mappings().collect::<Vec<_>>() {
        let (from, to) = session.catalog().mapping_endpoints(mapping);
        let p = session
            .posteriors()
            .probability(session.catalog(), mapping, creator);
        println!(
            "  {} -> {}  {mapping}: {p:.3}{}",
            session.catalog().peer_name(from),
            session.catalog().peer_name(to),
            if p < 0.5 {
                "   <-- flagged as faulty"
            } else {
                ""
            }
        );
    }

    // 3. Pose the introductory query at p2 ("names of all artists having created a
    //    piece of work related to some river") and let the cached posteriors steer
    //    routing — no per-query recomputation.
    let query = Query::new()
        .project(creator)
        .select(item, Predicate::Contains("river".into()));
    let outcome = session.route(peers[1], &query, &RoutingPolicy::uniform(0.5));
    println!("\nquery routed from p2:");
    println!("  peers reached:        {}", outcome.reached.len());
    println!("  false-positive peers: {}", outcome.tainted.len());
    for decision in &outcome.decisions {
        println!(
            "  {} {} -> {}: {}",
            decision.mapping,
            decision.from,
            decision.to,
            if decision.forwarded {
                "forwarded"
            } else {
                "blocked"
            }
        );
    }

    // 4. The network evolves: p2's administrator repairs m24. The session applies the
    //    delta incrementally — only the shard holding m24 runs, only the evidence
    //    paths through m24 are re-observed, and message passing restarts warm from
    //    the previous posteriors.
    let report = session.apply_batch(&[NetworkEvent::Repair {
        mapping: pdms::schema::MappingId(4),
        attribute: creator,
    }]);
    let p_repaired =
        session
            .posteriors()
            .probability(session.catalog(), pdms::schema::MappingId(4), creator);
    println!(
        "\nafter repairing m24: {} of {} shards touched, {} warm rounds; \
         P(m24 preserves Creator) = {p_repaired:.3}",
        report.shards_touched,
        session.shard_count(),
        report.rounds,
    );

    // 5. At scale, evidence discovery parallelizes. Realistic PDMS topologies are
    //    scale-free — a few hub peers carry most mappings — so the enumeration uses a
    //    work-stealing schedule: hub origins are split into first-hop subtasks that
    //    idle workers steal. The knobs are `AnalysisConfig` fields and only affect
    //    scheduling; evidence ids and posteriors are bit-identical at every setting.
    let hub_network = pdms::workloads::hub_heavy_network(32, 2, 1.6, 42);
    let hub_session = Engine::builder()
        .analysis(AnalysisConfig {
            parallelism: 0,            // auto: every available core
            heavy_origin_threshold: 0, // auto: split origins with >= 4 first hops
            steal_granularity: 0,      // auto: one first-hop edge per stolen subtask
            ..Default::default()
        })
        .build_sharded(hub_network.catalog);
    println!(
        "\nhub-heavy network (32 peers, scale-free): {} evidence paths, {} rounds \
         — same ids at any worker count",
        hub_session.evidence_count(),
        hub_session.rounds(),
    );
}
