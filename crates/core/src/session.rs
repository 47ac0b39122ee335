//! The engine builder and the per-shard engine session.
//!
//! The paper's pipeline — evidence discovery, the per-peer model (Section 4.1),
//! inference (Sections 4.2–4.3), the prior update (Section 4.4) and routing — is
//! configured by one value, the [`EngineBuilder`], and served by one session type,
//! the [`crate::sharding::ShardedSession`] that
//! [`EngineBuilder::build_sharded`] returns. Recomputing everything on every
//! change cannot scale to evolving networks where each epoch changes a handful of
//! mappings out of thousands, so a session is:
//!
//! * **built once** from a catalog via the builder
//!   (`Engine::builder().granularity(..).backend(..).build_sharded(catalog)`),
//!   running the full pipeline a single time;
//! * **updated by deltas**: [`crate::sharding::ShardedSession::apply_batch`]
//!   consumes [`NetworkEvent`]s (peer/mapping additions, removals, corruptions,
//!   repairs — the Section 4.4 dynamics) and invalidates only the cycles and
//!   parallel paths that touch the changed mappings. Additions search just the
//!   paths through the new edge, removals drop just the paths through the dead
//!   edge, correspondence edits re-observe just the paths through the edited
//!   mapping — everything else is reused verbatim;
//! * **warm-started**: iterative backends restart message passing from the previous
//!   posteriors ([`crate::embedded::EmbeddedMessagePassing::warm_start`]), so
//!   inference after a local change takes a fraction of the cold-start rounds.
//!
//! Routing and evaluation read the session's posterior snapshot through
//! [`crate::routing::route_query`] and [`crate::metrics::precision_recall`].
//!
//! The [`EngineSession`] defined here is the engine each shard runs over its
//! component's sub-catalog. It stays public, and [`EngineBuilder::build`] with it,
//! because it is also the whole-catalog reference: `tests/sharded_session.rs`,
//! `tests/session_incremental.rs` and `tests/splice.rs` compare the sharded session
//! against it, and the `shard_scaling` emitter times it as its single-session
//! baseline. An incremental session always reaches the same posteriors as a
//! from-scratch build on the mutated catalog (exactly for one-shot backends, to
//! convergence tolerance for iterative ones) — `tests/session_incremental.rs`
//! asserts this round trip against [`EngineSession::rebuild_from_scratch`], the one
//! cold path.
//!
//! ```
//! use pdms_core::{Engine, NetworkEvent};
//! use pdms_schema::{AttributeId, Catalog, MappingId};
//!
//! // Two peers, one correct and one faulty mapping between them and back.
//! let mut catalog = Catalog::new();
//! let a = catalog.add_peer_with_schema("a", |s| { s.attributes(["x", "y", "z"]); });
//! let b = catalog.add_peer_with_schema("b", |s| { s.attributes(["x", "y", "z"]); });
//! catalog.add_mapping(a, b, |m| m.correct(AttributeId(0), AttributeId(0)));
//! catalog.add_mapping(b, a, |m| m.erroneous(AttributeId(0), AttributeId(1), AttributeId(0)));
//!
//! let mut session = Engine::builder().build_sharded(catalog);
//! // The cycle a -> b -> a returns attribute y instead of x: negative feedback, both
//! // mappings become suspicious (no other evidence distinguishes them).
//! assert!(session.posteriors().mapping_probability(MappingId(0)) < 0.5);
//!
//! // Repairing the faulty correspondence re-observes the cycle in place.
//! session.apply_batch(&[NetworkEvent::Repair {
//!     mapping: MappingId(1),
//!     attribute: AttributeId(0),
//! }]);
//! assert!(session.posteriors().mapping_probability(MappingId(0)) > 0.5);
//! ```

use crate::backend::{EmbeddedBackend, InferenceBackend, InferenceTask};
use crate::cycle_analysis::{build_topology, AnalysisConfig, AnalysisDelta, CycleAnalysis};
use crate::delta::estimate_delta_for_catalog;
use crate::dynamics::{
    apply_event_traced, correspondences_fit, has_distinct_names, schema_size, EventEffect,
    NetworkEvent,
};
use crate::embedded::EmbeddedConfig;
use crate::local_graph::{Granularity, MappingModel, VariableKey};
use crate::posterior::PosteriorTable;
use crate::priors::PriorStore;
use crate::sharding::ShardSeed;
use pdms_graph::{DiGraph, EdgeId, NodeId};
use pdms_schema::{Catalog, MappingId, PeerId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The entry point of the API: [`Engine::builder`] starts every session.
#[derive(Debug, Clone, Copy)]
pub struct Engine;

impl Engine {
    /// Starts a builder with the paper's defaults:
    ///
    /// ```
    /// use pdms_core::backend::ExactBackend;
    /// use pdms_core::local_graph::Granularity;
    /// use pdms_core::Engine;
    /// use pdms_schema::{AttributeId, Catalog};
    ///
    /// let mut catalog = Catalog::new();
    /// let a = catalog.add_peer_with_schema("a", |s| { s.attributes(["x", "y", "z"]); });
    /// let b = catalog.add_peer_with_schema("b", |s| { s.attributes(["x", "y", "z"]); });
    /// catalog.add_mapping(a, b, |m| m.correct(AttributeId(0), AttributeId(0)));
    /// catalog.add_mapping(b, a, |m| m.correct(AttributeId(0), AttributeId(0)));
    ///
    /// let session = Engine::builder()
    ///     .granularity(Granularity::Fine)
    ///     .backend(ExactBackend)
    ///     .delta(0.1)
    ///     .build_sharded(catalog);
    /// assert!(session.posteriors().mapping_probability(pdms_schema::MappingId(0)) > 0.5);
    /// ```
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }
}

/// Configuration of a session, and the builder that starts one (obtained from
/// [`Engine::builder`]). Cheap to clone, so one value can configure many cold builds.
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    analysis: AnalysisConfig,
    granularity: Granularity,
    delta: Option<f64>,
    embedded: EmbeddedConfig,
    backend: Option<Arc<dyn InferenceBackend>>,
    priors: Option<PriorStore>,
}

impl EngineBuilder {
    /// A builder with the paper's defaults (fine granularity, embedded backend,
    /// estimated Δ, maximum-entropy priors).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cycle / parallel-path discovery bounds and the scheduling knobs
    /// (enumeration workers, hub splitting, shard dispatch workers, batch size,
    /// splicing) — the one place each of them is set.
    ///
    /// ```
    /// use pdms_core::{AnalysisConfig, Engine};
    ///
    /// let catalog = {
    ///     let mut c = pdms_schema::Catalog::new();
    ///     let a = c.add_peer_with_schema("a", |s| { s.attributes(["x"]); });
    ///     let b = c.add_peer_with_schema("b", |s| { s.attributes(["x"]); });
    ///     use pdms_schema::AttributeId;
    ///     c.add_mapping(a, b, |m| m.correct(AttributeId(0), AttributeId(0)));
    ///     c.add_mapping(b, a, |m| m.correct(AttributeId(0), AttributeId(0)));
    ///     c
    /// };
    /// // Hub-splitting knobs never change the evidence — only how it is scheduled.
    /// let fine = Engine::builder()
    ///     .analysis(AnalysisConfig {
    ///         parallelism: 4,
    ///         heavy_origin_threshold: 1,
    ///         steal_granularity: 1,
    ///         ..Default::default()
    ///     })
    ///     .build_sharded(catalog.clone());
    /// let serial = Engine::builder()
    ///     .analysis(AnalysisConfig { parallelism: 1, ..Default::default() })
    ///     .build_sharded(catalog);
    /// assert_eq!(fine.merged_evidences(), serial.merged_evidences());
    /// ```
    pub fn analysis(mut self, analysis: AnalysisConfig) -> Self {
        self.analysis = analysis;
        self
    }

    /// Sets the variable granularity (Section 4.1).
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Pins the compensating-error probability Δ (Section 4.5); unset, Δ is estimated
    /// from the catalog's schema sizes.
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Sets the inference backend.
    pub fn backend(mut self, backend: impl InferenceBackend + 'static) -> Self {
        self.backend = Some(Arc::new(backend));
        self
    }

    /// Sets an already-shared inference backend (how shard builds share one
    /// backend instance).
    pub(crate) fn backend_arc(mut self, backend: Arc<dyn InferenceBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the embedded message-passing parameters consumed by the default
    /// [`crate::backend::EmbeddedBackend`] (ignored once an explicit backend is set).
    pub fn embedded(mut self, embedded: EmbeddedConfig) -> Self {
        self.embedded = embedded;
        self
    }

    /// Starts from an explicit prior store (e.g. default prior 0.7 for mappings from
    /// an aligner of known quality, or pinned expert-validated mappings).
    pub fn priors(mut self, priors: PriorStore) -> Self {
        self.priors = Some(priors);
        self
    }

    /// Builds one whole-catalog [`EngineSession`]: runs the full pipeline once over
    /// `catalog` and caches analysis, model and posteriors for incremental
    /// maintenance.
    ///
    /// Programs serve a catalog with [`EngineBuilder::build_sharded`]. This method
    /// stays public because it builds the engine each shard runs and the
    /// whole-catalog reference that the sharded session's equivalence tests and
    /// the `shard_scaling` emitter's single-session baseline compare against.
    pub fn build(self, catalog: Catalog) -> EngineSession {
        let backend = self.resolve_backend();
        let mut session = EngineSession {
            catalog,
            analysis_config: self.analysis,
            granularity: self.granularity,
            delta_override: self.delta,
            backend,
            priors: self.priors.unwrap_or_default(),
            topology: DiGraph::default(),
            analysis: CycleAnalysis::default(),
            model: MappingModel::default(),
            variable_posteriors: BTreeMap::new(),
            posteriors: PosteriorTable::new(0.5),
            rounds: 0,
            converged: true,
            stats: SessionStats::default(),
        };
        session.rebuild_from_scratch();
        session
    }

    /// Builds the serving session: the catalog is partitioned into
    /// weakly-connected-component shards, each running its own incremental
    /// [`EngineSession`], dispatched in parallel over
    /// [`AnalysisConfig::shard_parallelism`] workers. Exact by construction —
    /// evidence paths never cross component boundaries. A connected catalog is one
    /// shard. See [`crate::sharding::ShardedSession`].
    pub fn build_sharded(self, catalog: Catalog) -> crate::sharding::ShardedSession {
        crate::sharding::ShardedSession::build(self, catalog)
    }

    /// The cycle / parallel-path discovery bounds set so far.
    pub(crate) fn analysis_config(&self) -> &AnalysisConfig {
        &self.analysis
    }

    /// The backend a build uses: the one set explicitly, else the embedded message
    /// passing over the configured [`EmbeddedConfig`].
    fn resolve_backend(&self) -> Arc<dyn InferenceBackend> {
        self.backend
            .clone()
            .unwrap_or_else(|| Arc::new(EmbeddedBackend::new(self.embedded.clone())))
    }

    /// The per-shard configuration of a [`crate::sharding::ShardedSession`] over
    /// `catalog`, with Δ resolved (the pinned value, else the estimate over
    /// `catalog`), and the prior store the session starts from.
    pub(crate) fn into_shard_seed(self, catalog: &Catalog) -> (ShardSeed, PriorStore) {
        let backend = self.resolve_backend();
        let seed = ShardSeed {
            analysis: self.analysis,
            granularity: self.granularity,
            backend,
            delta: self
                .delta
                .unwrap_or_else(|| estimate_delta_for_catalog(catalog)),
        };
        (seed, self.priors.unwrap_or_default())
    }
}

/// Everything a shard splice (see `crate::sharding`) assembles *before* inference:
/// the merged sub-catalog, its live topology mirror, the spliced evidence analysis,
/// and the donors' converged posteriors keyed by the new shard-local variables.
/// [`EngineSession::from_spliced_parts`] turns this into a running session without
/// ever paying the full enumeration pipeline.
pub(crate) struct SplicedParts {
    pub(crate) catalog: Catalog,
    pub(crate) topology: DiGraph,
    pub(crate) analysis: CycleAnalysis,
    /// Warm-start posteriors for the variables untouched by the splice (donor
    /// variables not on a bridging or edited mapping). Variables absent here
    /// restart from the unit message, exactly like [`EngineSession::apply`] treats
    /// added or edited mappings.
    pub(crate) warm: BTreeMap<VariableKey, f64>,
}

/// Scans a batch for additions that a later event of the *same* batch withdraws
/// again — either an explicit [`NetworkEvent::RemoveMapping`] naming the id the
/// addition will receive (ids are allocated sequentially from
/// [`Catalog::mapping_slot_count`], so batch authors can know them), or a
/// [`NetworkEvent::RemovePeer`] covering one of its endpoints. Such pairs are
/// *coalesced*: the slot is allocated and tombstoned for id stability, but evidence
/// discovery is skipped on both sides. Additions that [`apply_event_traced`] will
/// reject as malformed allocate no id and are skipped here too, judged against the
/// peers the batch has added so far.
pub(crate) fn doomed_additions(
    catalog: &Catalog,
    events: &[NetworkEvent],
) -> std::collections::BTreeSet<pdms_schema::MappingId> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut next = catalog.mapping_slot_count();
    // Schema sizes of the peers added earlier in the batch, in id order.
    let mut added_peers: Vec<usize> = Vec::new();
    let schema_size = |peer: PeerId, added_peers: &[usize]| {
        schema_size(catalog, peer)
            .or_else(|| added_peers.get(peer.0 - catalog.peer_count()).copied())
    };
    let mut pending: BTreeMap<pdms_schema::MappingId, (PeerId, PeerId)> = BTreeMap::new();
    let mut doomed = BTreeSet::new();
    for event in events {
        match event {
            NetworkEvent::AddPeer { attributes, .. } if has_distinct_names(attributes) => {
                added_peers.push(attributes.len());
            }
            NetworkEvent::AddMapping {
                source,
                target,
                correspondences,
            } if !correspondences.is_empty()
                && correspondences_fit(
                    schema_size(*source, &added_peers),
                    schema_size(*target, &added_peers),
                    correspondences,
                ) =>
            {
                pending.insert(pdms_schema::MappingId(next), (*source, *target));
                next += 1;
            }
            NetworkEvent::RemoveMapping { mapping } if pending.remove(mapping).is_some() => {
                doomed.insert(*mapping);
            }
            NetworkEvent::RemovePeer { peer } => {
                let dead: Vec<pdms_schema::MappingId> = pending
                    .iter()
                    .filter(|(_, (source, target))| source == peer || target == peer)
                    .map(|(mapping, _)| *mapping)
                    .collect();
                for mapping in dead {
                    pending.remove(&mapping);
                    doomed.insert(mapping);
                }
            }
            _ => {}
        }
    }
    doomed
}

/// What one [`EngineSession::apply`] call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApplyReport {
    /// Events that actually changed the catalog.
    pub events_applied: usize,
    /// Events that were no-ops (repair without ground truth, drop of a missing
    /// correspondence, removal of a removed mapping, empty mapping).
    pub events_ignored: usize,
    /// Mappings that were added *and* removed within this same batch. Their
    /// catalog/topology slots are still allocated (and tombstoned) so identifiers
    /// line up with per-event application, but evidence discovery and removal were
    /// skipped entirely — the batch-coalescing rule (see `docs/SHARDING.md`).
    pub mappings_coalesced: usize,
    /// What the incremental analysis maintenance did.
    pub analysis: AnalysisDelta,
    /// Rounds the (warm-started) inference used after the update — 0 when the batch
    /// touched no evidence and inference was skipped entirely.
    pub rounds: usize,
    /// Whether inference converged after the update.
    pub converged: bool,
}

/// Cumulative maintenance statistics of a session.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Full from-scratch pipeline runs (1 after `build`).
    pub full_builds: usize,
    /// Incremental `apply` calls.
    pub incremental_applies: usize,
    /// Inference rounds summed over the session's lifetime.
    pub total_rounds: usize,
    /// Evidence paths discovered incrementally.
    pub evidences_added: usize,
    /// Evidence paths dropped incrementally.
    pub evidences_removed: usize,
    /// Evidence paths re-observed in place.
    pub evidences_reobserved: usize,
}

/// A stateful, incrementally maintained inference session over an evolving catalog:
/// the engine each shard of a [`crate::sharding::ShardedSession`] runs.
///
/// Programs use the sharded session. `EngineSession` stays public because it is
/// also the whole-catalog reference that `tests/sharded_session.rs`,
/// `tests/session_incremental.rs` and `tests/splice.rs` compare the sharded session
/// against, and the single-session baseline of the `shard_scaling` emitter.
#[derive(Debug, Clone)]
pub struct EngineSession {
    catalog: Catalog,
    analysis_config: AnalysisConfig,
    granularity: Granularity,
    delta_override: Option<f64>,
    backend: Arc<dyn InferenceBackend>,
    priors: PriorStore,
    /// Live mirror of the catalog's mapping network: one node per peer, one edge per
    /// mapping slot (edge ids == mapping ids, tombstones aligned). Maintained
    /// event-by-event so incremental evidence discovery never pays a
    /// [`build_topology`] rebuild.
    topology: DiGraph,
    analysis: CycleAnalysis,
    model: MappingModel,
    variable_posteriors: BTreeMap<VariableKey, f64>,
    posteriors: PosteriorTable,
    rounds: usize,
    converged: bool,
    stats: SessionStats,
}

impl EngineSession {
    /// Builds a session from pre-spliced parts: the analysis is taken as given (the
    /// splice already appended the evidence through the bridging mappings), so the
    /// only work left is one warm-started inference pass. The splice counterpart of
    /// [`EngineBuilder::build`]; `delta` is always pinned (shard sub-catalogs must
    /// not re-estimate it from their own schemas).
    pub(crate) fn from_spliced_parts(
        analysis_config: AnalysisConfig,
        granularity: Granularity,
        delta: f64,
        backend: Arc<dyn InferenceBackend>,
        priors: PriorStore,
        parts: SplicedParts,
    ) -> EngineSession {
        let mut session = EngineSession {
            catalog: parts.catalog,
            analysis_config,
            granularity,
            delta_override: Some(delta),
            backend,
            priors,
            topology: parts.topology,
            analysis: parts.analysis,
            model: MappingModel::default(),
            variable_posteriors: BTreeMap::new(),
            posteriors: PosteriorTable::new(0.5),
            rounds: 0,
            converged: true,
            stats: SessionStats::default(),
        };
        let warm = parts.warm;
        session.reinfer((!warm.is_empty()).then_some(&warm));
        session
    }

    /// The posterior of every model variable as of the most recent inference run —
    /// the warm state a shard splice carries into the merged shard.
    pub(crate) fn variable_posteriors(&self) -> &BTreeMap<VariableKey, f64> {
        &self.variable_posteriors
    }

    /// The catalog in its current (post-deltas) state.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The cached evidence analysis.
    pub fn analysis(&self) -> &CycleAnalysis {
        &self.analysis
    }

    /// The live topology mirror of the catalog (edge ids == mapping ids; tombstoned
    /// mappings are tombstoned edges). Maintained incrementally across
    /// [`EngineSession::apply`] calls.
    pub fn topology(&self) -> &DiGraph {
        &self.topology
    }

    /// The cached probabilistic model.
    pub fn model(&self) -> &MappingModel {
        &self.model
    }

    /// The cached posterior snapshot all routing and evaluation runs against.
    pub fn posteriors(&self) -> &PosteriorTable {
        &self.posteriors
    }

    /// The accumulated prior store. Inside a shard this is the shard's projection
    /// of the sharded session's global store onto shard-local mapping ids.
    pub fn priors(&self) -> &PriorStore {
        &self.priors
    }

    /// Copies the global store's entries for mapping `global` into this session's
    /// store under `local` — how a shard picks up the priors of a mapping that an
    /// incremental apply is about to add.
    pub(crate) fn copy_mapping_priors(
        &mut self,
        global_priors: &PriorStore,
        global: MappingId,
        local: MappingId,
    ) {
        self.priors.copy_mapping(global_priors, global, local);
    }

    /// Name of the inference backend in use.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Rounds the most recent inference run used.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Whether the most recent inference run converged.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Cumulative maintenance statistics.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Δ in effect: the pinned value or the schema-size estimate over the current
    /// catalog.
    pub fn delta(&self) -> f64 {
        self.delta_override
            .unwrap_or_else(|| estimate_delta_for_catalog(&self.catalog))
    }

    /// Applies a batch of network events, invalidating only the evidence touching
    /// the changed mappings, then re-runs inference warm-started from the previous
    /// posteriors.
    ///
    /// Add/remove pairs that cancel within the batch are *coalesced*: the mapping's
    /// id slot (and its tombstoned topology edge) is still allocated, so every
    /// identifier matches per-event application exactly, but no evidence is ever
    /// searched for or dropped through it. The final analysis, posterior and id
    /// state is identical to applying the events one at a time.
    pub fn apply(&mut self, events: &[NetworkEvent]) -> ApplyReport {
        // `analysis.evidences_reused` is recounted exactly at the end of the batch;
        // everything else accumulates through `AnalysisDelta::merge`.
        let mut report = ApplyReport::default();
        let doomed = doomed_additions(&self.catalog, events);
        // Events are processed strictly in order: each incremental analysis update
        // sees the catalog exactly as of its own event, so a batch adding two
        // mappings discovers a cycle using both exactly once (from the second edge).
        // Correspondence-level edits only mark their mapping: re-observation is
        // deferred and deduplicated, so a batch corrupting five attributes of one
        // mapping re-observes its evidence once, not five times.
        let mut edited: std::collections::BTreeSet<pdms_schema::MappingId> =
            std::collections::BTreeSet::new();
        let mut added: std::collections::BTreeSet<pdms_schema::MappingId> =
            std::collections::BTreeSet::new();
        for event in events {
            // `retired` is non-empty only for RemovePeer: the mappings its single
            // PeerRetired effect withdrew.
            match apply_event_traced(&mut self.catalog, event) {
                None => report.events_ignored += 1,
                Some((effect, retired)) => {
                    report.events_applied += 1;
                    match effect {
                        EventEffect::PeerAdded(_) => {
                            // Keep the topology mirror's node set aligned with the
                            // catalog's peer ids.
                            let node = self.topology.add_node();
                            debug_assert_eq!(node.0 + 1, self.catalog.peer_count());
                        }
                        EventEffect::MappingAdded(mapping) => {
                            let (source, target) = self.catalog.mapping_endpoints(mapping);
                            let edge = self.topology.add_edge(NodeId(source.0), NodeId(target.0));
                            debug_assert_eq!(edge.0, mapping.0, "mirror edge ids = mapping ids");
                            if doomed.contains(&mapping) {
                                // The same batch removes this mapping again: tombstone
                                // the mirror edge now so later in-batch searches never
                                // route evidence through it, and skip the discovery
                                // pass outright.
                                self.topology.remove_edge(edge);
                            } else {
                                let delta = self.analysis.add_mapping_incremental_in(
                                    &self.catalog,
                                    &self.topology,
                                    mapping,
                                    &self.analysis_config,
                                );
                                report.analysis.merge(delta);
                                added.insert(mapping);
                            }
                        }
                        EventEffect::MappingRemoved(mapping) => {
                            self.remove_one_mapping(
                                mapping,
                                &doomed,
                                &mut report,
                                &mut edited,
                                &mut added,
                            );
                        }
                        EventEffect::PeerRetired(_) => {
                            for mapping in retired {
                                self.remove_one_mapping(
                                    mapping,
                                    &doomed,
                                    &mut report,
                                    &mut edited,
                                    &mut added,
                                );
                            }
                        }
                        EventEffect::MappingChanged(mapping) => {
                            edited.insert(mapping);
                        }
                    }
                }
            }
        }
        if !edited.is_empty() {
            let edited_list: Vec<pdms_schema::MappingId> = edited.iter().copied().collect();
            let delta = self
                .analysis
                .reobserve_mappings(&self.catalog, &edited_list);
            report.analysis.merge(delta);
        }
        // Exact reuse count: the evidence paths still present that go through no
        // added or edited mapping were left completely untouched by this batch.
        // (The per-delta min-merge undercounts or overcounts when a batch mixes
        // additions with edits, because each delta measures against a different
        // evidence total.)
        report.analysis.evidences_reused = self
            .analysis
            .evidences
            .iter()
            .filter(|e| {
                !edited.iter().any(|m| e.contains(*m)) && !added.iter().any(|m| e.contains(*m))
            })
            .count();
        let analysis_changed = report.analysis.evidences_added > 0
            || report.analysis.evidences_removed > 0
            || report.analysis.evidences_reobserved > 0;
        // Events that applied but touched no evidence (an isolated AddPeer, a new
        // mapping on a peer with no return paths yet) leave the model — and thus the
        // posteriors — bit-identical, so inference is skipped entirely.
        if analysis_changed {
            // Warm-start only the variables of untouched mappings: their messages sit
            // at (or near) the fixpoint. Variables on changed or added mappings
            // restart from the unit message — seeding them with stale posteriors
            // would anchor the iteration at the pre-change fixpoint and slow
            // convergence down.
            let warm: BTreeMap<VariableKey, f64> = self
                .variable_posteriors
                .iter()
                .filter(|(key, _)| !edited.contains(&key.mapping) && !added.contains(&key.mapping))
                .map(|(key, p)| (*key, *p))
                .collect();
            self.reinfer(Some(&warm));
            report.rounds = self.rounds;
        }
        // When inference was skipped, rounds stays 0: no inference ran for this
        // update. `converged` always describes the posteriors currently served.
        report.converged = self.converged;
        self.stats.incremental_applies += 1;
        self.stats.evidences_added += report.analysis.evidences_added;
        self.stats.evidences_removed += report.analysis.evidences_removed;
        self.stats.evidences_reobserved += report.analysis.evidences_reobserved;
        report
    }

    /// Processes one mapping removal: drops the mirror edge and the evidence through
    /// the mapping — unless the mapping was added by this very batch (coalesced), in
    /// which case the edge is already tombstoned and no evidence ever existed.
    fn remove_one_mapping(
        &mut self,
        mapping: pdms_schema::MappingId,
        doomed: &std::collections::BTreeSet<pdms_schema::MappingId>,
        report: &mut ApplyReport,
        edited: &mut std::collections::BTreeSet<pdms_schema::MappingId>,
        added: &mut std::collections::BTreeSet<pdms_schema::MappingId>,
    ) {
        if doomed.contains(&mapping) {
            report.mappings_coalesced += 1;
        } else {
            self.topology.remove_edge(EdgeId(mapping.0));
            let delta = self.analysis.remove_mapping_incremental(mapping);
            report.analysis.merge(delta);
        }
        edited.remove(&mapping);
        added.remove(&mapping);
    }

    /// Folds the current posteriors back into the priors (the Section 4.4 update), so
    /// subsequent inference starts from the accumulated evidence. Returns the folded
    /// posteriors, keyed like this session's model, so a sharded session can fold
    /// the same observations into its global store.
    pub(crate) fn update_priors(&mut self) -> BTreeMap<VariableKey, f64> {
        let as_map = self.posteriors.as_variable_map(&self.model);
        self.priors.update_all(&as_map);
        as_map
    }

    /// Discards every cache and recomputes the full pipeline (the non-incremental
    /// path; also useful to bound warm-start drift in very long sessions).
    pub fn rebuild_from_scratch(&mut self) {
        self.topology = build_topology(&self.catalog);
        self.analysis = CycleAnalysis::analyze(&self.catalog, &self.analysis_config);
        self.reinfer(None);
        self.stats.full_builds += 1;
    }

    /// Rebuilds the model from the cached analysis and re-runs inference, optionally
    /// warm-starting iterative backends from the given previous posteriors.
    fn reinfer(&mut self, warm_start: Option<&BTreeMap<VariableKey, f64>>) {
        let delta = self.delta();
        self.model = MappingModel::build(&self.catalog, &self.analysis, self.granularity, delta);
        let prior_map = self.priors.snapshot();
        let default_prior = self.priors.default_prior();
        let warm_start = warm_start.filter(|map| !map.is_empty());
        let outcome = self.backend.infer(&InferenceTask {
            model: &self.model,
            analysis: &self.analysis,
            priors: &prior_map,
            default_prior,
            warm_start,
        });
        self.rounds = outcome.rounds;
        self.converged = outcome.converged;
        self.stats.total_rounds += outcome.rounds;
        self.variable_posteriors = self
            .model
            .variables
            .iter()
            .zip(&outcome.posteriors)
            .map(|(key, p)| (*key, *p))
            .collect();
        self.posteriors =
            PosteriorTable::from_model(&self.model, &outcome.posteriors, default_prior);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExactBackend, VotingBackend};
    use crate::metrics::precision_recall;
    use crate::routing::{route_query, RoutingPolicy};
    use pdms_schema::{AttributeId, Predicate, Query};

    /// The introductory network over the given attributes: the ring p1 → p2 → p3 →
    /// p4 → p1 of correct mappings plus the chord m24 (p2 → p4), whose first
    /// correspondence points at the third attribute instead of the first.
    fn intro_catalog_over(attributes: &[&str]) -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..4)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{}", i + 1), |s| {
                    s.attributes(attributes.iter().copied());
                })
            })
            .collect();
        let correct_from = |first: usize| {
            move |mut m: pdms_schema::MappingBuilder| {
                for a in first..attributes.len() {
                    m = m.correct(AttributeId(a), AttributeId(a));
                }
                m
            }
        };
        cat.add_mapping(peers[0], peers[1], correct_from(0));
        cat.add_mapping(peers[1], peers[2], correct_from(0));
        cat.add_mapping(peers[2], peers[3], correct_from(0));
        cat.add_mapping(peers[3], peers[0], correct_from(0));
        cat.add_mapping(peers[1], peers[3], |m| {
            correct_from(1)(m.erroneous(AttributeId(0), AttributeId(2), AttributeId(0)))
        });
        cat
    }

    /// The worked example's eleven attributes, so Δ is estimated at 0.1.
    fn intro_catalog() -> Catalog {
        intro_catalog_over(&[
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
        ])
    }

    /// Three attributes: small enough for the exact backend (the fine model stays
    /// under the 24-variable enumeration limit).
    fn intro_catalog_small() -> Catalog {
        intro_catalog_over(&["Creator", "Item", "CreatedOn"])
    }

    fn exact_session() -> EngineSession {
        Engine::builder()
            .backend(ExactBackend)
            .delta(0.1)
            .build(intro_catalog_small())
    }

    #[test]
    fn builder_runs_the_full_pipeline_once() {
        let session = exact_session();
        assert_eq!(session.stats().full_builds, 1);
        assert_eq!(session.backend_name(), "exact");
        assert!(session.converged());
        assert!(session.posteriors().mapping_probability(MappingId(4)) < 0.5);
        assert!(session.posteriors().mapping_probability(MappingId(0)) > 0.5);
    }

    #[test]
    fn apply_reports_reuse_and_invalidation() {
        let mut session = exact_session();
        let evidences_before = session.analysis().evidences.len();
        // Corrupting the ring mapping m23 only re-observes the paths through it.
        let report = session.apply(&[NetworkEvent::Corrupt {
            mapping: MappingId(1),
            attribute: AttributeId(1),
            wrong_target: AttributeId(0),
        }]);
        assert_eq!(report.events_applied, 1);
        assert_eq!(report.analysis.evidences_removed, 0);
        assert_eq!(report.analysis.evidences_added, 0);
        assert!(report.analysis.evidences_reobserved > 0);
        assert!(report.analysis.evidences_reused < evidences_before);
        assert_eq!(session.analysis().evidences.len(), evidences_before);
        // The corruption is visible in the posterior snapshot.
        assert!(
            session
                .posteriors()
                .probability_ignoring_bottom(MappingId(1), AttributeId(1))
                < 0.5
        );
    }

    #[test]
    fn remove_mapping_drops_only_its_evidence() {
        let mut session = exact_session();
        let through_chord = session.analysis().evidences_through(MappingId(4)).len();
        assert!(through_chord > 0);
        let before = session.analysis().evidences.len();
        let report = session.apply(&[NetworkEvent::RemoveMapping {
            mapping: MappingId(4),
        }]);
        assert_eq!(report.analysis.evidences_removed, through_chord);
        assert_eq!(session.analysis().evidences.len(), before - through_chord);
        assert!(session
            .analysis()
            .evidences_through(MappingId(4))
            .is_empty());
        // Evidence ids stay dense and aligned with observations.
        for (i, evidence) in session.analysis().evidences.iter().enumerate() {
            assert_eq!(evidence.id, i);
        }
        for observation in &session.analysis().observations {
            assert!(observation.evidence < session.analysis().evidences.len());
        }
        // Removing it again is a no-op event.
        let report = session.apply(&[NetworkEvent::RemoveMapping {
            mapping: MappingId(4),
        }]);
        assert_eq!(report.events_applied, 0);
        assert_eq!(report.events_ignored, 1);
    }

    #[test]
    fn add_peer_then_mapping_grows_the_evidence() {
        let mut session = exact_session();
        let before = session.analysis().evidences.len();
        let report = session.apply(&[NetworkEvent::AddPeer {
            name: "p5".into(),
            attributes: vec!["Creator".into(), "Item".into(), "CreatedOn".into()],
        }]);
        assert_eq!(report.events_applied, 1);
        assert_eq!(report.analysis.evidences_added, 0);
        assert_eq!(session.catalog().peer_count(), 5);
        // Close a new cycle p4 -> p5 -> p1.
        let correspondences: Vec<_> = (0..3)
            .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
            .collect();
        let report = session.apply(&[
            NetworkEvent::AddMapping {
                source: PeerId(3),
                target: PeerId(4),
                correspondences: correspondences.clone(),
            },
            NetworkEvent::AddMapping {
                source: PeerId(4),
                target: PeerId(0),
                correspondences,
            },
        ]);
        assert_eq!(report.events_applied, 2);
        assert!(report.analysis.evidences_added > 0);
        assert!(session.analysis().evidences.len() > before);
    }

    #[test]
    fn routing_from_p2_avoids_the_faulty_chord() {
        let session = exact_session();
        let query = Query::new()
            .project(AttributeId(0))
            .select(AttributeId(1), Predicate::Contains("river".into()));
        let outcome = route_query(
            session.catalog(),
            session.posteriors(),
            PeerId(1),
            &query,
            &RoutingPolicy::uniform(0.5),
        );
        assert!(!outcome
            .decisions
            .iter()
            .any(|d| d.mapping == MappingId(4) && d.forwarded));
    }

    #[test]
    fn update_priors_accumulates_like_the_engine() {
        let mut session = exact_session();
        session.update_priors();
        let key = VariableKey {
            mapping: MappingId(4),
            attribute: Some(AttributeId(0)),
        };
        assert!(session.priors().prior(&key) < 0.5);
    }

    #[test]
    fn embedded_config_reaches_the_default_backend() {
        // Two rounds are not enough to converge on the intro network (the default
        // would run to ~12), so rounds() == 2 proves the embedded config reached the
        // backend the builder resolves when none is set.
        let capped = Engine::builder()
            .embedded(EmbeddedConfig {
                max_rounds: 2,
                ..Default::default()
            })
            .delta(0.1)
            .build(intro_catalog_small());
        assert_eq!(capped.rounds(), 2);
        assert!(!capped.converged());
    }

    #[test]
    fn topology_mirror_tracks_the_catalog_through_churn() {
        use crate::cycle_analysis::build_topology;
        let mut session = exact_session();
        let assert_mirrors = |session: &EngineSession| {
            let rebuilt = build_topology(session.catalog());
            let mirror = session.topology();
            assert_eq!(mirror.node_count(), rebuilt.node_count());
            assert_eq!(mirror.edge_count(), rebuilt.edge_count());
            let mirror_edges: Vec<_> = mirror.edges().collect();
            let rebuilt_edges: Vec<_> = rebuilt.edges().collect();
            assert_eq!(mirror_edges, rebuilt_edges);
        };
        assert_mirrors(&session);
        session.apply(&[NetworkEvent::AddPeer {
            name: "p5".into(),
            attributes: vec!["Creator".into(), "Item".into(), "CreatedOn".into()],
        }]);
        assert_mirrors(&session);
        let correspondences: Vec<_> = (0..3)
            .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
            .collect();
        session.apply(&[
            NetworkEvent::AddMapping {
                source: PeerId(3),
                target: PeerId(4),
                correspondences: correspondences.clone(),
            },
            NetworkEvent::AddMapping {
                source: PeerId(4),
                target: PeerId(0),
                correspondences,
            },
            NetworkEvent::RemoveMapping {
                mapping: MappingId(4),
            },
        ]);
        assert_mirrors(&session);
        // A full rebuild resynchronises from scratch and still matches.
        session.rebuild_from_scratch();
        assert_mirrors(&session);
    }

    #[test]
    fn parallelism_knob_does_not_change_the_session_result() {
        let build = |analysis: AnalysisConfig| {
            Engine::builder()
                .backend(ExactBackend)
                .delta(0.1)
                .analysis(analysis)
                .build(intro_catalog_small())
        };
        let serial = build(AnalysisConfig {
            parallelism: 1,
            ..Default::default()
        });
        // Multi-threaded, and aggressive work stealing: every origin with two or
        // more first hops is split into one subtask per first hop.
        for threaded in [
            AnalysisConfig {
                parallelism: 4,
                ..Default::default()
            },
            AnalysisConfig {
                parallelism: 4,
                heavy_origin_threshold: 2,
                steal_granularity: 1,
                ..Default::default()
            },
        ] {
            let threaded = build(threaded);
            assert_eq!(
                serial.analysis().evidences,
                threaded.analysis().evidences,
                "evidence ids must not depend on the schedule"
            );
            for m in 0..5 {
                assert_eq!(
                    serial.posteriors().mapping_probability(MappingId(m)),
                    threaded.posteriors().mapping_probability(MappingId(m))
                );
            }
        }
    }

    #[test]
    fn peer_only_batches_skip_reinference() {
        // Embedded backend: every inference run adds rounds to the total, so a
        // stable total proves the backend never ran.
        let mut session = Engine::builder().delta(0.1).build(intro_catalog_small());
        let rounds_before = session.stats().total_rounds;
        assert!(rounds_before > 0);
        let report = session.apply(&[NetworkEvent::AddPeer {
            name: "lurker".into(),
            attributes: vec!["Creator".into()],
        }]);
        assert_eq!(report.events_applied, 1);
        // No evidence changed, so inference was skipped entirely.
        assert_eq!(session.stats().total_rounds, rounds_before);
        assert_eq!(
            report.analysis.evidences_reused,
            session.analysis().evidences.len()
        );
    }

    #[test]
    fn delta_is_estimated_from_schema_sizes() {
        let session = Engine::builder().build(intro_catalog());
        assert!((session.delta() - 0.1).abs() < 1e-12);
        let session = Engine::builder().delta(0.01).build(intro_catalog());
        assert_eq!(session.delta(), 0.01);
    }

    #[test]
    fn full_pipeline_detects_the_faulty_mapping_and_routes_around_it() {
        let session = Engine::builder().build(intro_catalog());
        assert!(session.converged());
        assert!(session.rounds() > 0);
        // m24 flagged for Creator, others fine.
        let p_m24 =
            session
                .posteriors()
                .probability(session.catalog(), MappingId(4), AttributeId(0));
        assert!(p_m24 < 0.5, "m24 Creator posterior {p_m24}");
        for m in 0..4 {
            let p =
                session
                    .posteriors()
                    .probability(session.catalog(), MappingId(m), AttributeId(0));
            assert!(p > 0.5, "mapping {m} posterior {p}");
        }
        // Routing the introductory query from p2 avoids m24 and reaches every peer.
        let query = Query::new()
            .project(AttributeId(0))
            .select(AttributeId(1), Predicate::Contains("river".into()));
        let outcome = route_query(
            session.catalog(),
            session.posteriors(),
            PeerId(1),
            &query,
            &RoutingPolicy::uniform(0.5),
        );
        assert_eq!(outcome.reached.len(), 3);
        assert!(outcome.tainted.is_empty());
        assert!(!outcome.forwarded_mappings().contains(&MappingId(4)));
        // Evaluation: precision 1.0 at θ = 0.5 (only the truly faulty pair is flagged).
        let eval = precision_recall(session.catalog(), session.posteriors(), 0.5);
        assert_eq!(eval.true_positives, 1);
        assert_eq!(eval.false_positives, 0);
        assert_eq!(eval.precision(), 1.0);
    }

    #[test]
    fn exact_and_embedded_backends_agree_on_classification() {
        // Δ is pinned to the paper's 0.1: the three-attribute schemas would otherwise
        // estimate Δ = 0.5, which makes all the evidence too weak to classify.
        let embedded = Engine::builder().delta(0.1).build(intro_catalog_small());
        let exact = exact_session();
        for m in 0..5 {
            let pe = embedded.posteriors().mapping_probability(MappingId(m));
            let px = exact.posteriors().mapping_probability(MappingId(m));
            assert_eq!(pe < 0.5, px < 0.5, "mapping {m}: embedded {pe} exact {px}");
        }
    }

    #[test]
    fn voting_backend_over_penalises() {
        let voting = Engine::builder()
            .backend(VotingBackend)
            .build(intro_catalog());
        // The voting heuristic cannot exonerate correct mappings that share a negative
        // cycle with the faulty one: their score is dragged down to the break-even 0.5,
        // so a slightly cautious threshold (0.55) wrongly flags them too — exactly the
        // weakness Section 6 describes — while the probabilistic engine keeps them
        // above 0.5 (see `full_pipeline_detects_the_faulty_mapping_and_routes_around_it`).
        let eval = precision_recall(voting.catalog(), voting.posteriors(), 0.55);
        assert!(eval.flagged() > 1, "flagged {}", eval.flagged());
        assert!(eval.precision() < 1.0);
    }

    #[test]
    fn prior_update_accumulates_between_runs() {
        let mut session = Engine::builder().build(intro_catalog());
        let p1 = session
            .posteriors()
            .probability_ignoring_bottom(MappingId(4), AttributeId(0));
        session.update_priors();
        let m24_key = VariableKey {
            mapping: MappingId(4),
            attribute: Some(AttributeId(0)),
        };
        let prior_after = session.priors().prior(&m24_key);
        assert!(prior_after < 0.5, "prior after update {prior_after}");
        // A second cold run starting from the updated priors pushes the posterior
        // further.
        session.rebuild_from_scratch();
        let p2 = session
            .posteriors()
            .probability_ignoring_bottom(MappingId(4), AttributeId(0));
        assert!(
            p2 <= p1 + 1e-9,
            "second run {p2} should not exceed first run {p1}"
        );
    }

    #[test]
    fn analysis_exposes_feedback_counts() {
        let session = Engine::builder().build(intro_catalog());
        let (pos, neg, _neutral) = session.analysis().feedback_counts();
        assert!(pos > 0);
        assert!(neg > 0);
    }
}
