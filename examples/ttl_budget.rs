//! Adaptive probe-TTL expansion: discover only the cycles that matter.
//!
//! Section 5.1.2 of the paper argues that long cycles carry almost no evidence, and
//! describes a concrete strategy: start probing with a low TTL, raise it gradually, and
//! stop as soon as the newly discovered cycles no longer move the posteriors. This
//! example runs that strategy on an SRS-style clustered network (the kind of topology
//! Section 3.2.1 measures) and prints the whole trajectory — how much evidence each TTL
//! adds and how little the posteriors change beyond TTL ≈ 4–6.
//!
//! Run with `cargo run --example ttl_budget`.

use pdms::core::{expand_ttl, TtlExpansionConfig};
use pdms::workloads::{SrsConfig, SrsNetwork};

fn main() {
    let network = SrsNetwork::generate(SrsConfig {
        peers: 24,
        mean_cluster_size: 6,
        intra_cluster_density: 0.7,
        hub_links: 2,
        attributes: 10,
        error_rate: 0.1,
        seed: 54,
    });
    println!(
        "SRS-style network: {} peers, {} mappings, clustering coefficient {:.2}, max degree {}",
        network.catalog.peer_count(),
        network.catalog.mapping_count(),
        network.clustering_coefficient,
        network.max_degree
    );

    let expansion = expand_ttl(
        &network.catalog,
        &TtlExpansionConfig {
            start_ttl: 2,
            max_ttl: 8,
            epsilon: 0.01,
            patience: 1,
            ..Default::default()
        },
    );

    println!(
        "\n{:>5} {:>10} {:>11} {:>16} {:>8}",
        "TTL", "evidence", "variables", "max Δposterior", "rounds"
    );
    for step in &expansion.steps {
        println!(
            "{:>5} {:>10} {:>11} {:>16} {:>8}",
            step.ttl,
            step.evidence_count,
            step.variable_count,
            step.max_posterior_change
                .map(|c| format!("{c:.4}"))
                .unwrap_or_else(|| "-".to_string()),
            step.rounds
        );
    }
    println!(
        "\nexpansion {} at TTL {} after probing {} TTL values.",
        if expansion.converged {
            "stopped (posteriors stable)"
        } else {
            "hit the TTL budget"
        },
        expansion.chosen_ttl,
        expansion.probes()
    );

    // Show what the chosen TTL buys: detection quality against the injected errors.
    let full = pdms::core::Engine::builder().build_sharded(network.catalog.clone());
    let eval_full = full.evaluate(0.5);
    println!(
        "detection at the default analysis bounds: {} flagged, precision {:.2}, recall {:.2}",
        eval_full.flagged(),
        eval_full.precision(),
        eval_full.recall()
    );
}
