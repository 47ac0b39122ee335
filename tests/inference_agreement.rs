//! Cross-crate agreement of the inference backends on models built from catalogs.
//!
//! Brute-force enumeration, the one exact oracle, evaluates the same probabilistic
//! model as loopy belief propagation: the loopy approximation must stay close to it
//! (the property Figure 9 measures), and the exact marginals must blame exactly the
//! corrupted mapping when the evidence is clear-cut.

use pdms::core::{AnalysisConfig, CycleAnalysis, Granularity, MappingModel, VariableKey};
use pdms::factor::{exact_marginals, run_sum_product, SumProductConfig};
use pdms::schema::{AttributeId, Catalog, PeerId};
use std::collections::BTreeMap;

/// Builds a ring catalog of `peers` peers over `attributes` attributes, with the listed
/// `(mapping index, attribute)` pairs corrupted.
fn ring_catalog(peers: usize, attributes: usize, errors: &[(usize, usize)]) -> Catalog {
    let mut catalog = Catalog::new();
    let ids: Vec<PeerId> = (0..peers)
        .map(|i| {
            catalog.add_peer_with_schema(format!("p{i}"), |schema| {
                for a in 0..attributes {
                    schema.attribute(format!("attr{a}"));
                }
            })
        })
        .collect();
    for i in 0..peers {
        let source = ids[i];
        let target = ids[(i + 1) % peers];
        catalog.add_mapping(source, target, |mut m| {
            for a in 0..attributes {
                let attr = AttributeId(a);
                let corrupted = errors.contains(&(i, a));
                m = if corrupted {
                    m.erroneous(attr, AttributeId((a + 1) % attributes), attr)
                } else {
                    m.correct(attr, attr)
                };
            }
            m
        });
    }
    catalog
}

fn model_for(catalog: &Catalog) -> MappingModel {
    let analysis = CycleAnalysis::analyze(catalog, &AnalysisConfig::default());
    MappingModel::build(catalog, &analysis, Granularity::Fine, 0.1)
}

#[test]
fn loopy_bp_stays_close_to_exact_on_the_ring() {
    let catalog = ring_catalog(5, 3, &[(1, 0)]);
    let model = model_for(&catalog);
    let graph = model.global_factor_graph(&BTreeMap::new(), 0.7);
    let exact = exact_marginals(&graph).expect("the 15-variable ring is under the cap");
    let loopy = run_sum_product(&graph, SumProductConfig::default());
    assert!(loopy.converged);
    for (e, l) in exact.iter().zip(&loopy.posteriors) {
        assert!(
            (e - l).abs() < 0.1,
            "loopy {l} strays too far from exact {e} (Figure 9 bound is a few percent)"
        );
    }
}

#[test]
fn exact_marginals_blame_the_corrupted_chord() {
    // The introductory-network shape: a ring plus a faulty chord. The chord is the only
    // mapping shared by every negative observation, so the exact marginals must single
    // out its corrupted attribute and keep every other variable clearly correct.
    let mut catalog = ring_catalog(4, 3, &[]);
    let chord = catalog.add_mapping(PeerId(1), PeerId(3), |m| {
        m.erroneous(AttributeId(0), AttributeId(1), AttributeId(0))
            .correct(AttributeId(1), AttributeId(1))
            .correct(AttributeId(2), AttributeId(2))
    });
    let model = model_for(&catalog);
    let graph = model.global_factor_graph(&BTreeMap::new(), 0.6);
    let marginals = exact_marginals(&graph).expect("the chorded ring is under the cap");
    let faulty = VariableKey {
        mapping: chord,
        attribute: Some(AttributeId(0)),
    };
    assert!(model.variables.contains(&faulty));
    for (key, p) in model.variables.iter().zip(&marginals) {
        if *key == faulty {
            assert!(*p < 0.4, "corrupted chord {key:?} has marginal {p}");
        } else {
            assert!(*p > 0.6, "variable {key:?} has marginal {p}");
        }
    }
}
