//! The output-correctness gate: the session at the end of a run against a cold
//! oracle built from the same final catalog.

use pdms_core::{RoutingOutcome, RoutingPolicy, ShardedSession};
use pdms_schema::{AttributeId, MappingId, PeerId, Query};
use std::collections::BTreeSet;

/// Warm-restart envelope of the repository's splice tests: posteriors of a
/// warm-continued and a cold-started run agree to this many last-bit steps.
pub const MAX_ULPS: u64 = 32;

/// Absolute envelope for the library's default inference config. It stops
/// at the first round whose largest posterior change is below its tolerance
/// (1e-4), so a warm-continued and a cold-started run stop at different points
/// of their approach to the same fixpoint.
pub const ABS_TOL: f64 = 1e-3;

/// What the gate compared.
#[derive(Debug, Default)]
pub struct OracleReport {
    /// Evidence paths compared id for id.
    pub evidences: usize,
    /// Shards whose posteriors were held to the envelope: converged on both
    /// sides.
    pub compared_shards: usize,
    /// Largest absolute posterior difference on the compared shards.
    pub max_abs: f64,
    /// Shards left out because either side ends at its round cap.
    pub unconverged_shards: usize,
    /// Routed queries compared against the oracle.
    pub routes: usize,
    /// Routed queries not compared because a decision hinged on a posterior
    /// within [`ABS_TOL`] of the threshold.
    pub borderline_routes: usize,
}

/// Distance between two floats in last-bit steps.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
}

/// Checks `session` against `oracle`, a cold build over `session`'s final
/// catalog: identical evidence ids, posteriors inside the warm-restart
/// envelope on every shard that converged on both sides, and identical routing
/// outcomes for the `queries` that start in such a shard.
pub fn check(
    session: &ShardedSession,
    oracle: &ShardedSession,
    queries: &[(PeerId, Query)],
    policy: &RoutingPolicy,
) -> Result<OracleReport, String> {
    let mut report = OracleReport::default();
    let warm = session.merged_evidences();
    let cold = oracle.merged_evidences();
    if warm != cold {
        return Err(format!(
            "evidence ids differ from the cold oracle ({} vs {} paths)",
            warm.len(),
            cold.len()
        ));
    }
    report.evidences = warm.len();

    let mut compared: BTreeSet<PeerId> = BTreeSet::new();
    let mut outside = Vec::new();
    let mut outside_shards = 0;
    for shard in oracle.shards() {
        let peers = shard.peers();
        let mine = session.shard_of(peers[0]);
        if mine.peers() != peers {
            return Err(format!("shard of peer {} covers other peers", peers[0].0));
        }
        if !(mine.session().converged() && shard.session().converged()) {
            report.unconverged_shards += 1;
            continue;
        }
        let before = outside.len();
        for local in shard.session().catalog().mappings() {
            let mapping = shard.global_mapping(local);
            let (source, _) = oracle.catalog().mapping_endpoints(mapping);
            let attributes = oracle.catalog().peer_schema(source).attribute_count();
            for attribute in
                std::iter::once(None).chain((0..attributes).map(|a| Some(AttributeId(a))))
            {
                let read = |s: &ShardedSession| match attribute {
                    Some(a) => s.posteriors().probability_ignoring_bottom(mapping, a),
                    None => s.posteriors().mapping_probability(mapping),
                };
                let (x, y) = (read(session), read(oracle));
                report.max_abs = report.max_abs.max((x - y).abs());
                if ulp_distance(x, y) > MAX_ULPS && (x - y).abs() > ABS_TOL {
                    outside.push((mapping, attribute, x, y));
                }
            }
        }
        outside_shards += usize::from(outside.len() > before);
        report.compared_shards += 1;
        compared.insert(peers[0]);
    }
    if let Some((mapping, attribute, x, y)) = outside.first() {
        return Err(format!(
            "{} posteriors on {outside_shards} of {} converged shards left the envelope; \
             first: mapping {} attribute {:?}, {x} vs {y} (largest difference {:.3e})",
            outside.len(),
            report.compared_shards,
            mapping.0,
            attribute,
            report.max_abs,
        ));
    }

    // Routing stays inside the origin's component, so a query is held to the
    // oracle exactly when its origin's shard was. A query whose outcome hinges
    // on a posterior inside the envelope around θ may legitimately go either
    // way and is counted, not compared.
    for (origin, query) in queries {
        if !compared.contains(&session.shard_of(*origin).peers()[0]) {
            continue;
        }
        let a = session.route(*origin, query, policy);
        let b = oracle.route(*origin, query, policy);
        let forwarded = |o: &RoutingOutcome| -> Vec<(MappingId, bool)> {
            o.decisions
                .iter()
                .map(|d| (d.mapping, d.forwarded))
                .collect()
        };
        if a.reached == b.reached && forwarded(&a) == forwarded(&b) {
            report.routes += 1;
            continue;
        }
        let borderline = |o: &RoutingOutcome| {
            o.decisions
                .iter()
                .any(|d| (d.min_posterior - policy.default_threshold).abs() <= ABS_TOL)
        };
        if borderline(&a) || borderline(&b) {
            report.borderline_routes += 1;
        } else {
            return Err(format!(
                "routing from peer {} differs from the cold oracle",
                origin.0
            ));
        }
    }
    Ok(report)
}
