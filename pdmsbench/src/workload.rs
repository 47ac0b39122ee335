//! The benchmark's workloads: fixture catalogs and the seeded inputs driven
//! through them.
//!
//! Every input — event batches and routed queries — is generated from the
//! `--seed` argument before any timing starts, and every event is validated
//! against a shadow copy of the catalog as it is generated: an event the
//! catalog would ignore is never emitted. The benchmark measures cost; it does
//! not probe the handling of malformed events.

use pdms_core::{apply_event, AnalysisConfig, CycleAnalysis, EventEffect, NetworkEvent};
use pdms_graph::GeneratorConfig;
use pdms_schema::{AttributeId, Catalog, MappingId, PeerId, Query};
use pdms_workloads::{
    multi_component_network, ChurnConfig, ChurnGenerator, SyntheticConfig, SyntheticNetwork,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct queries generated per run; reads cycle through them.
pub const QUERY_POOL: usize = 8192;

/// Islands-churn batches per cycle; the last batch of a cycle restores the
/// fixture's catalog (see `island_churn`).
pub const SEVER_EVERY: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-event `Corrupt`/`Repair` pairs on one connected 256-peer network.
    Er256Edits,
    /// Churn epochs with island bridges and periodic severing on a 16×16
    /// island federation.
    IslandsChurn,
    /// One-event edits, each followed by a block of routed queries, on the
    /// 128-peer network.
    Er128ReadMix,
}

/// The pre-generated inputs of one run.
pub struct Inputs {
    /// Event batches, one `apply_batch` call each, in order.
    pub steps: Vec<Vec<NetworkEvent>>,
    /// Routed queries: `(origin peer, query over the origin's schema)`.
    pub queries: Vec<(PeerId, Query)>,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "er256-edits" => Some(Workload::Er256Edits),
            "islands-churn" => Some(Workload::IslandsChurn),
            "er128-read-mix" => Some(Workload::Er128ReadMix),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Er256Edits => "er256-edits",
            Workload::IslandsChurn => "islands-churn",
            Workload::Er128ReadMix => "er128-read-mix",
        }
    }

    /// The analysis configuration of every session, with every knob pinned so
    /// that no `PDMS_*` environment variable changes the program being
    /// measured. Evidence: cycles up to 5 mappings, parallel-path branches up
    /// to 3 (probe TTLs 5/3). Scheduling: one worker for enumeration and for
    /// shard dispatch, so layer self times partition an apply and figures do
    /// not depend on other load on the host; the library's default hub
    /// splitting; a batch size larger than any submitted slice, so every
    /// `apply_batch` call is one batch; warm splicing on.
    pub fn analysis(self) -> AnalysisConfig {
        AnalysisConfig {
            max_cycle_len: 5,
            max_path_len: 3,
            include_parallel_paths: true,
            parallelism: 1,
            heavy_origin_threshold: pdms_graph::DEFAULT_HEAVY_ORIGIN_THRESHOLD,
            steal_granularity: pdms_graph::DEFAULT_STEAL_GRANULARITY,
            shard_parallelism: 1,
            batch_size: 1 << 20,
            splice: Some(true),
        }
    }

    /// The fixture catalog. It does not depend on the seed: the seed drives the
    /// inputs, so runs with different seeds measure the same network.
    pub fn catalog(self) -> Catalog {
        match self {
            // Topology seed 5 for both sizes: the networks of the ROADMAP's
            // baseline table (ER256: 1162 evidences over 4767 variables, one
            // weakly connected component; ER128: 1184 over 2417).
            Workload::Er256Edits => erdos_renyi(256, 0.0125, 5),
            Workload::IslandsChurn => multi_component_network(16, 16, 0.15, 20).catalog,
            Workload::Er128ReadMix => erdos_renyi(128, 0.025, 5),
        }
    }

    /// Queries routed after every apply: a block that makes routing the
    /// larger share of a step on the read mix, a trickle elsewhere (enough to
    /// measure route latency over the whole run, little next to an apply).
    pub fn reads_per_step(self) -> usize {
        match self {
            Workload::Er256Edits => 4,
            Workload::IslandsChurn => 16,
            Workload::Er128ReadMix => 128,
        }
    }

    /// Number of steps the timed loop ends on a multiple of, so every run ends
    /// with the catalog in the same structural state (edit pairs repaired,
    /// island bridges severed).
    pub fn step_unit(self) -> usize {
        match self {
            Workload::Er256Edits | Workload::Er128ReadMix => 2,
            Workload::IslandsChurn => SEVER_EVERY,
        }
    }

    /// Generates up to `max_steps` batches and the query pool from `seed`.
    pub fn generate(self, catalog: &Catalog, seed: u64, max_steps: usize) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let queries = query_pool(catalog, &mut rng);
        let steps = match self {
            Workload::Er256Edits | Workload::Er128ReadMix => {
                edit_pairs(catalog, &self.analysis(), &mut rng, max_steps)
            }
            Workload::IslandsChurn => island_churn(catalog, rng.gen(), max_steps),
        };
        Inputs { steps, queries }
    }
}

fn erdos_renyi(peers: usize, probability: f64, topology_seed: u64) -> Catalog {
    SyntheticNetwork::generate(SyntheticConfig {
        topology: GeneratorConfig::erdos_renyi(peers, probability, topology_seed),
        attributes: 6,
        error_rate: 0.05,
        seed: 7,
    })
    .catalog
}

/// `Corrupt` then `Repair` of one seeded correct correspondence, as two
/// one-event batches, repeated. Only mappings that lie on some evidence path
/// are edited, so every apply runs an inference pass; the catalog is back to
/// the fixture after every pair.
fn edit_pairs(
    catalog: &Catalog,
    analysis: &AnalysisConfig,
    rng: &mut StdRng,
    max_steps: usize,
) -> Vec<Vec<NetworkEvent>> {
    let evidence = CycleAnalysis::analyze(catalog, analysis);
    let mut candidates: Vec<(MappingId, AttributeId, AttributeId, usize)> = Vec::new();
    for mapping in catalog.mappings() {
        if evidence.evidences_through(mapping).is_empty() {
            continue;
        }
        let (_, target) = catalog.mapping_endpoints(mapping);
        let target_size = catalog.peer_schema(target).attribute_count();
        for (attribute, correspondence) in catalog.mapping(mapping).correspondences() {
            if correspondence.is_correct() && target_size > 1 {
                candidates.push((mapping, attribute, correspondence.target, target_size));
            }
        }
    }
    assert!(!candidates.is_empty(), "fixture has no editable mapping");
    let mut shadow = catalog.clone();
    let mut steps = Vec::with_capacity(max_steps);
    while steps.len() + 2 <= max_steps {
        let (mapping, attribute, target, size) = candidates[rng.gen_range(0..candidates.len())];
        let mut wrong = rng.gen_range(0..size - 1);
        if wrong >= target.0 {
            wrong += 1;
        }
        let pair = [
            NetworkEvent::Corrupt {
                mapping,
                attribute,
                wrong_target: AttributeId(wrong),
            },
            NetworkEvent::Repair { mapping, attribute },
        ];
        for event in pair {
            assert!(
                apply_event(&mut shadow, &event).is_some(),
                "generated edit does not apply: {event:?}"
            );
            steps.push(vec![event]);
        }
    }
    steps
}

/// `ChurnGenerator` epochs: corruptions and repairs at rates balanced around
/// the fixture's error rate, 0.5 new mappings between random peers and 0.5
/// island bridges per epoch on average. Every [`SEVER_EVERY`]-th batch closes a cycle: after its
/// epoch it restores every fixture correspondence the stream changed and
/// removes every mapping the stream added, including the ones this batch just
/// added, which the session coalesces. Each cycle thus starts from the
/// fixture's catalog, which keeps the stream stationary.
fn island_churn(catalog: &Catalog, seed: u64, max_steps: usize) -> Vec<Vec<NetworkEvent>> {
    let mut generator = ChurnGenerator::new(ChurnConfig {
        corrupt_rate: 0.008,
        repair_rate: 0.07,
        drop_rate: 0.0,
        new_mappings_per_epoch: 0.5,
        new_mapping_error_rate: 0.15,
        merge_rate: 0.5,
        seed,
    });
    let mut shadow = catalog.clone();
    let mut added: Vec<MappingId> = Vec::new();
    let mut steps = Vec::with_capacity(max_steps);
    while steps.len() < max_steps {
        let mut batch = Vec::new();
        for event in generator.epoch_events(&shadow) {
            // Keep only events that change the shadow catalog: the session
            // must receive valid input only.
            match apply_event(&mut shadow, &event) {
                None => continue,
                Some(EventEffect::MappingAdded(mapping)) => added.push(mapping),
                Some(_) => {}
            }
            batch.push(event);
        }
        if (steps.len() + 1) % SEVER_EVERY == 0 {
            let restore = restore_events(catalog, &shadow);
            let removals = added
                .drain(..)
                .map(|mapping| NetworkEvent::RemoveMapping { mapping });
            for event in restore.into_iter().chain(removals) {
                assert!(
                    apply_event(&mut shadow, &event).is_some(),
                    "generated event does not apply: {event:?}"
                );
                batch.push(event);
            }
        }
        if batch.is_empty() {
            // Nothing drawn this epoch: draw again for the same batch slot.
            continue;
        }
        steps.push(batch);
    }
    steps
}

/// The edits that bring every correspondence of the fixture's mappings in
/// `current` back to its state in `fixture`: a `Repair` where the fixture's
/// correspondence was correct, a `Corrupt` to the fixture's wrong target
/// otherwise (both keep the recorded ground truth).
fn restore_events(fixture: &Catalog, current: &Catalog) -> Vec<NetworkEvent> {
    let mut events = Vec::new();
    for mapping in fixture.mappings() {
        let now = current.mapping(mapping);
        for (attribute, original) in fixture.mapping(mapping).correspondences() {
            if now.apply(attribute) == Some(original.target) {
                continue;
            }
            events.push(if original.is_correct() {
                NetworkEvent::Repair { mapping, attribute }
            } else {
                NetworkEvent::Corrupt {
                    mapping,
                    attribute,
                    wrong_target: original.target,
                }
            });
        }
    }
    events
}

/// [`QUERY_POOL`] queries, each projecting two distinct attributes of a
/// random origin peer that has at least one outgoing mapping.
fn query_pool(catalog: &Catalog, rng: &mut StdRng) -> Vec<(PeerId, Query)> {
    let origins: Vec<PeerId> = catalog
        .peers()
        .filter(|p| !catalog.outgoing_mappings(*p).is_empty())
        .collect();
    assert!(!origins.is_empty(), "fixture has no routable peer");
    (0..QUERY_POOL)
        .map(|_| {
            let origin = origins[rng.gen_range(0..origins.len())];
            let size = catalog.peer_schema(origin).attribute_count();
            let first = rng.gen_range(0..size);
            let mut second = rng.gen_range(0..size.max(2) - 1);
            if second >= first {
                second += 1;
            }
            let mut query = Query::new().project(AttributeId(first));
            if second < size {
                query = query.project(AttributeId(second));
            }
            (origin, query)
        })
        .collect()
}
