//! Pluggable inference backends behind one object-safe trait.
//!
//! Every inference strategy (a sharded solver, an async remote service, an
//! experiment-specific approximation) plugs in without editing the session: an
//! [`crate::session::EngineSession`] only knows the [`InferenceBackend`] trait, and
//! the three built-in strategies — [`EmbeddedBackend`] (the paper's decentralized message passing),
//! [`ExactBackend`] (the centralized gold standard), [`VotingBackend`] (the earlier
//! cycle-voting heuristic) — are ordinary implementations that callers can swap,
//! wrap, or replace via `Arc<dyn InferenceBackend>`.
//!
//! A backend consumes an [`InferenceTask`] (model, analysis, priors, and an optional
//! warm start carried over from a previous run) and produces an [`InferenceOutcome`]
//! (per-variable posteriors plus convergence bookkeeping). Backends are `Send + Sync`
//! so sessions can be shared across threads and future backends can fan work out.

use crate::baseline_exact::exact_posteriors;
use crate::baseline_voting::VotingBaseline;
use crate::cycle_analysis::CycleAnalysis;
use crate::embedded::{EmbeddedConfig, EmbeddedMessagePassing};
use crate::local_graph::{MappingModel, VariableKey};
use std::collections::BTreeMap;
use std::fmt;

/// Everything a backend needs to estimate mapping-quality posteriors.
#[derive(Debug)]
pub struct InferenceTask<'a> {
    /// The probabilistic model (variables + feedback factors).
    pub model: &'a MappingModel,
    /// The structural analysis the model was built from (used by evidence-level
    /// backends such as the voting heuristic).
    pub analysis: &'a CycleAnalysis,
    /// Explicit per-variable priors; missing entries use `default_prior`.
    pub priors: &'a BTreeMap<VariableKey, f64>,
    /// Prior for variables without an explicit entry.
    pub default_prior: f64,
    /// Posteriors of a previous run on a largely unchanged model, if any. Iterative
    /// backends may use them to warm-start their messages; one-shot backends ignore
    /// them. Warm starts never change a fixpoint, only how fast it is reached.
    pub warm_start: Option<&'a BTreeMap<VariableKey, f64>>,
}

/// What one inference run produced.
#[derive(Debug, Clone)]
pub struct InferenceOutcome {
    /// Posterior `P(correct)` per model variable, in model variable order.
    pub posteriors: Vec<f64>,
    /// Iterations/rounds used (0 for non-iterative backends).
    pub rounds: usize,
    /// Whether the backend converged (always `true` for one-shot backends).
    pub converged: bool,
}

/// An inference strategy over the mapping-quality model.
///
/// Implementations must be `Send + Sync`: sessions hold them behind
/// `Arc<dyn InferenceBackend>` and may be driven from multiple threads.
pub trait InferenceBackend: fmt::Debug + Send + Sync {
    /// Short human-readable backend name (used in reports and logs).
    fn name(&self) -> &'static str;

    /// Runs inference over the task's model.
    fn infer(&self, task: &InferenceTask<'_>) -> InferenceOutcome;
}

/// The paper's decentralized embedded message passing (Section 4.3).
#[derive(Debug, Clone, Default)]
pub struct EmbeddedBackend {
    /// Message-passing parameters (rounds, tolerance, loss model).
    pub config: EmbeddedConfig,
}

impl EmbeddedBackend {
    /// Backend with explicit message-passing parameters.
    pub fn new(config: EmbeddedConfig) -> Self {
        Self { config }
    }
}

impl InferenceBackend for EmbeddedBackend {
    fn name(&self) -> &'static str {
        "embedded"
    }

    fn infer(&self, task: &InferenceTask<'_>) -> InferenceOutcome {
        let mut machine = EmbeddedMessagePassing::new(
            task.model,
            task.priors,
            task.default_prior,
            self.config.clone(),
        );
        if let Some(previous) = task.warm_start {
            machine.warm_start(previous);
        }
        let report = machine.run();
        InferenceOutcome {
            posteriors: report.posteriors,
            rounds: report.rounds,
            converged: report.converged,
        }
    }
}

/// Centralized exact inference (the Figure 9 baseline; exponential in model size).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactBackend;

impl InferenceBackend for ExactBackend {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn infer(&self, task: &InferenceTask<'_>) -> InferenceOutcome {
        let posteriors = exact_posteriors(task.model, task.priors, task.default_prior);
        InferenceOutcome {
            posteriors,
            rounds: 0,
            converged: true,
        }
    }
}

/// The cycle-voting heuristic of the paper's earlier work (the Section 6 baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct VotingBackend;

impl InferenceBackend for VotingBackend {
    fn name(&self) -> &'static str {
        "voting"
    }

    fn infer(&self, task: &InferenceTask<'_>) -> InferenceOutcome {
        let baseline = VotingBaseline::from_analysis(task.analysis);
        let posteriors = task
            .model
            .variables
            .iter()
            .map(|key| match key.attribute {
                Some(attr) => baseline.score(key.mapping, attr),
                // Coarse mode: the worst per-attribute score of the mapping's own
                // votes; a mapping without any vote keeps the default prior.
                None => baseline
                    .mapping_score(key.mapping)
                    .unwrap_or(task.default_prior),
            })
            .collect();
        InferenceOutcome {
            posteriors,
            rounds: 0,
            converged: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_analysis::AnalysisConfig;
    use crate::local_graph::Granularity;
    use pdms_schema::{AttributeId, Catalog, PeerId};
    use std::sync::Arc;

    fn faulty_ring() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..3)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
                    s.attributes(["alpha", "beta"]);
                })
            })
            .collect();
        for i in 0..3 {
            let from = peers[i];
            let to = peers[(i + 1) % 3];
            cat.add_mapping(from, to, |m| {
                if i == 1 {
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

    fn task_parts(granularity: Granularity) -> (CycleAnalysis, MappingModel) {
        let cat = faulty_ring();
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let model = MappingModel::build(&cat, &analysis, granularity, 0.1);
        (analysis, model)
    }

    #[test]
    fn all_backends_produce_one_posterior_per_variable() {
        let (analysis, model) = task_parts(Granularity::Fine);
        let priors = BTreeMap::new();
        let task = InferenceTask {
            model: &model,
            analysis: &analysis,
            priors: &priors,
            default_prior: 0.5,
            warm_start: None,
        };
        let backends: Vec<Arc<dyn InferenceBackend>> = vec![
            Arc::new(EmbeddedBackend::default()),
            Arc::new(ExactBackend),
            Arc::new(VotingBackend),
        ];
        for backend in backends {
            let outcome = backend.infer(&task);
            assert_eq!(
                outcome.posteriors.len(),
                model.variable_count(),
                "{}",
                backend.name()
            );
            assert!(outcome.converged, "{}", backend.name());
            for p in &outcome.posteriors {
                assert!((0.0..=1.0).contains(p), "{}: posterior {p}", backend.name());
            }
        }
    }

    #[test]
    fn backends_are_object_safe_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let backends: Vec<Arc<dyn InferenceBackend>> = vec![
            Arc::new(EmbeddedBackend::default()),
            Arc::new(ExactBackend),
            Arc::new(VotingBackend),
        ];
        for backend in &backends {
            assert_send_sync(backend);
        }
    }

    #[test]
    fn warm_start_preserves_the_embedded_fixpoint_and_speeds_convergence() {
        let (analysis, model) = task_parts(Granularity::Fine);
        let priors = BTreeMap::new();
        let backend = EmbeddedBackend::default();
        let cold = backend.infer(&InferenceTask {
            model: &model,
            analysis: &analysis,
            priors: &priors,
            default_prior: 0.5,
            warm_start: None,
        });
        // Warm-start from the converged posteriors: same fixpoint, fewer rounds.
        let mut previous = BTreeMap::new();
        for (i, key) in model.variables.iter().enumerate() {
            previous.insert(*key, cold.posteriors[i]);
        }
        let warm = backend.infer(&InferenceTask {
            model: &model,
            analysis: &analysis,
            priors: &priors,
            default_prior: 0.5,
            warm_start: Some(&previous),
        });
        assert!(warm.converged);
        // On a toy model that cold-converges in ~3 rounds the seeded messages may
        // need one settle round; the real speedup (fractions of the cold rounds)
        // shows on the churn workloads — see benches/incremental_vs_full.rs.
        assert!(
            warm.rounds <= cold.rounds + 1,
            "warm {} vs cold {}",
            warm.rounds,
            cold.rounds
        );
        for (a, b) in cold.posteriors.iter().zip(&warm.posteriors) {
            assert!((a - b).abs() < 1e-3, "cold {a} vs warm {b}");
        }
    }

    #[test]
    fn voting_backend_coarse_mode_uses_worst_attribute_score() {
        let (analysis, model) = task_parts(Granularity::Coarse);
        let priors = BTreeMap::new();
        let task = InferenceTask {
            model: &model,
            analysis: &analysis,
            priors: &priors,
            default_prior: 0.5,
            warm_start: None,
        };
        let outcome = VotingBackend.infer(&task);
        let baseline = VotingBaseline::from_analysis(&analysis);
        for (i, key) in model.variables.iter().enumerate() {
            assert_eq!(key.attribute, None);
            let expected = baseline.mapping_score(key.mapping).unwrap_or(0.5);
            assert_eq!(outcome.posteriors[i], expected, "mapping {}", key.mapping);
        }
        // The faulty mapping's only vote is negative, so its coarse score is 0.
        let faulty = model
            .variables
            .iter()
            .position(|k| k.mapping == pdms_schema::MappingId(1))
            .expect("faulty mapping has a variable");
        assert_eq!(outcome.posteriors[faulty], 0.0);
    }
}
