//! Centralized exact-inference baseline.
//!
//! The "global inference process" the paper compares against in Figure 9: gather the
//! whole factor graph in one place and compute exact marginals. It is not a PDMS
//! algorithm (it needs central coordination and its cost is exponential in the number
//! of mapping variables), but it is the gold standard the decentralized approximation
//! is measured against.

use crate::local_graph::{MappingModel, VariableKey};
use crate::posterior::PosteriorTable;
use pdms_factor::{exact_marginals, TooManyVariables};
use std::collections::BTreeMap;

/// Runs exact inference on the global factor graph of the model.
///
/// Returns the exact posterior per model variable.
///
/// # Errors
/// Returns [`TooManyVariables`] when the model has more variables than enumeration
/// accepts ([`pdms_factor::exact::MAX_EXACT_VARIABLES`]; the joint enumeration is
/// `2^n`).
pub fn exact_posteriors(
    model: &MappingModel,
    priors: &BTreeMap<VariableKey, f64>,
    default_prior: f64,
) -> Result<Vec<f64>, TooManyVariables> {
    // The global factor graph adds variables in model order, so indices line up.
    exact_marginals(&model.global_factor_graph(priors, default_prior))
}

/// Runs exact inference and wraps the result as a [`PosteriorTable`].
///
/// # Errors
/// Returns [`TooManyVariables`] under the same condition as [`exact_posteriors`].
pub fn exact_posterior_table(
    model: &MappingModel,
    priors: &BTreeMap<VariableKey, f64>,
    default_prior: f64,
) -> Result<PosteriorTable, TooManyVariables> {
    exact_posteriors(model, priors, default_prior)
        .map(|posteriors| PosteriorTable::from_model(model, &posteriors, default_prior))
}

/// Relative error of an approximate posterior vector against the exact one, per
/// variable: `|approx − exact| / exact` (with the convention that an exact value of 0
/// contributes the absolute error instead, to avoid division by zero).
pub fn relative_errors(exact: &[f64], approximate: &[f64]) -> Vec<f64> {
    assert_eq!(exact.len(), approximate.len(), "length mismatch");
    exact
        .iter()
        .zip(approximate)
        .map(|(e, a)| {
            if e.abs() < 1e-12 {
                (a - e).abs()
            } else {
                (a - e).abs() / e
            }
        })
        .collect()
}

/// Mean of the relative errors.
pub fn mean_relative_error(exact: &[f64], approximate: &[f64]) -> f64 {
    let errors = relative_errors(exact, approximate);
    if errors.is_empty() {
        0.0
    } else {
        errors.iter().sum::<f64>() / errors.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_analysis::{AnalysisConfig, CycleAnalysis};
    use crate::embedded::{run_embedded, EmbeddedConfig};
    use crate::local_graph::Granularity;
    use pdms_schema::{AttributeId, Catalog, PeerId};

    fn ring_catalog(n: usize, faulty: Option<usize>) -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..n)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
                    s.attributes(["alpha", "beta"]);
                })
            })
            .collect();
        for i in 0..n {
            cat.add_mapping(peers[i], peers[(i + 1) % n], |m| {
                if Some(i) == faulty {
                    m.erroneous(AttributeId(0), AttributeId(1), AttributeId(0))
                        .correct(AttributeId(1), AttributeId(1))
                } else {
                    m.correct(AttributeId(0), AttributeId(0))
                        .correct(AttributeId(1), AttributeId(1))
                }
            });
        }
        cat
    }

    #[test]
    fn exact_posteriors_line_up_with_model_variables() {
        let cat = ring_catalog(4, None);
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let model = MappingModel::build(&cat, &analysis, Granularity::Fine, 0.1);
        let exact = exact_posteriors(&model, &BTreeMap::new(), 0.5).unwrap();
        assert_eq!(exact.len(), model.variable_count());
        // Everything is correct and feedback positive: every posterior above 0.5.
        assert!(exact.iter().all(|p| *p > 0.5));

        // A 13-peer ring has 13 mappings × 2 attributes = 26 variables, past the cap.
        let cat = ring_catalog(13, None);
        let config = AnalysisConfig {
            max_cycle_len: 13,
            ..Default::default()
        };
        let analysis = CycleAnalysis::analyze(&cat, &config);
        let model = MappingModel::build(&cat, &analysis, Granularity::Fine, 0.1);
        assert_eq!(
            exact_posteriors(&model, &BTreeMap::new(), 0.5),
            Err(TooManyVariables {
                variables: 26,
                limit: pdms_factor::exact::MAX_EXACT_VARIABLES,
            })
        );
    }

    #[test]
    fn exact_table_applies_model_structure() {
        let cat = ring_catalog(3, Some(1));
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let model = MappingModel::build(&cat, &analysis, Granularity::Fine, 0.1);
        let table = exact_posterior_table(&model, &BTreeMap::new(), 0.5).unwrap();
        assert!(!table.is_empty());
    }

    #[test]
    fn embedded_stays_within_a_few_percent_of_exact() {
        // This is the Figure 9 claim at the unit-test scale.
        let cat = ring_catalog(5, Some(2));
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let model = MappingModel::build(&cat, &analysis, Granularity::Fine, 0.1);
        let priors = BTreeMap::new();
        let exact = exact_posteriors(&model, &priors, 0.8).unwrap();
        let embedded = run_embedded(&model, &priors, 0.8, EmbeddedConfig::default());
        let mean = mean_relative_error(&exact, &embedded.posteriors);
        assert!(mean < 0.06, "mean relative error {mean}");
    }

    #[test]
    fn relative_error_helpers() {
        let exact = vec![0.5, 0.0, 1.0];
        let approx = vec![0.55, 0.1, 0.9];
        let errors = relative_errors(&exact, &approx);
        assert!((errors[0] - 0.1).abs() < 1e-12);
        assert!((errors[1] - 0.1).abs() < 1e-12);
        assert!((errors[2] - 0.1).abs() < 1e-12);
        assert!((mean_relative_error(&exact, &approx) - 0.1).abs() < 1e-12);
        assert_eq!(mean_relative_error(&[], &[]), 0.0);
    }
}
