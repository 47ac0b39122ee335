//! Property-based cross-check of the exact oracle: on randomly generated tree-shaped
//! factor graphs, where sum-product is exact (Section 3.1), loopy belief propagation
//! and brute-force enumeration must agree to numerical precision. The two share no
//! code beyond the factor definitions, so each checks the other.

use pdms::factor::{
    exact_marginals, run_sum_product, Factor, FactorGraph, SumProductConfig, VariableId,
};
use proptest::prelude::*;

/// Most variables a generated tree may have.
const MAX_TREE_VARIABLES: usize = 12;

/// Strategy: a random tree-shaped factor graph with a prior on every variable. Each
/// feedback factor joins one already-covered variable with 1–3 new ones, so no factor
/// closes a cycle; generation stops at [`MAX_TREE_VARIABLES`] variables.
fn tree_strategy() -> impl Strategy<Value = FactorGraph> {
    let factors = prop::collection::vec(
        (
            0usize..MAX_TREE_VARIABLES,
            1usize..=3,
            prop::bool::ANY,
            0.01f64..0.5,
        ),
        1..8,
    );
    let priors = prop::collection::vec(0.02f64..0.98, MAX_TREE_VARIABLES);
    (factors, priors).prop_map(|(factors, priors)| {
        let mut graph = FactorGraph::new();
        let mut ids = vec![graph.add_variable("x0")];
        for (anchor, new, positive, delta) in factors {
            let new = new.min(MAX_TREE_VARIABLES - ids.len());
            if new == 0 {
                break;
            }
            let mut scope: Vec<VariableId> = vec![ids[anchor % ids.len()]];
            for _ in 0..new {
                let id = graph.add_variable(format!("x{}", ids.len()));
                ids.push(id);
                scope.push(id);
            }
            graph.add_factor(Factor::feedback(scope, positive, delta));
        }
        for (id, p) in ids.iter().zip(&priors) {
            graph.add_prior(*id, *p);
        }
        graph
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sum_product_matches_enumeration_on_random_trees(graph in tree_strategy()) {
        prop_assert!(graph.is_tree());
        let exact = exact_marginals(&graph).unwrap();
        let report = run_sum_product(&graph, SumProductConfig {
            max_iterations: 64,
            tolerance: 0.0,
            ..Default::default()
        });
        for v in graph.variables() {
            let (e, s) = (exact[v.0], report.posterior(v));
            prop_assert!((e - s).abs() < 1e-9, "{}: enumeration {} vs sum-product {}", v, e, s);
        }
    }
}
