//! Prior beliefs and their Expectation-Maximisation-style update (Section 4.4).
//!
//! Peers start with whatever prior knowledge they have about their mappings — often
//! nothing, in which case the maximum-entropy prior `P(correct) = 0.5` is used. As the
//! network evolves, each change of the local factor graph produces a new posterior
//! observation; the paper folds those observations back into the prior with a simple
//! running average
//!
//! ```text
//! P(m = correct) = (1/k) Σ_{i=1..k} P_i(m = correct | {F_i})
//! ```
//!
//! so the prior slowly converges towards the maximum-likelihood estimate as evidence
//! accumulates.

use crate::local_graph::VariableKey;
use pdms_schema::MappingId;
use std::collections::BTreeMap;

/// Per-variable prior store with evidence accumulation.
#[derive(Debug, Clone)]
pub struct PriorStore {
    default: f64,
    /// Explicit priors (initial knowledge or accumulated evidence).
    priors: BTreeMap<VariableKey, f64>,
    /// Number of posterior observations folded into each prior so far.
    observations: BTreeMap<VariableKey, usize>,
}

impl PriorStore {
    /// Creates a store with the maximum-entropy default.
    pub fn uninformed() -> Self {
        Self::with_default(0.5)
    }

    /// Creates a store with a caller-chosen default prior (e.g. 0.7 when mappings come
    /// from an aligner with a known accuracy).
    pub fn with_default(default: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&default),
            "prior {default} outside [0, 1]"
        );
        Self {
            default,
            priors: BTreeMap::new(),
            observations: BTreeMap::new(),
        }
    }

    /// Sets an explicit initial prior, e.g. 1.0 for an expert-validated mapping.
    pub fn set_initial(&mut self, key: VariableKey, probability: f64) {
        assert!((0.0..=1.0).contains(&probability));
        self.priors.insert(key, probability);
        self.observations.insert(key, 1);
    }

    /// Current prior of a variable.
    pub fn prior(&self, key: &VariableKey) -> f64 {
        self.priors.get(key).copied().unwrap_or(self.default)
    }

    /// The default prior used for variables never seen.
    pub fn default_prior(&self) -> f64 {
        self.default
    }

    /// Number of observations folded into a variable's prior.
    pub fn observation_count(&self, key: &VariableKey) -> usize {
        self.observations.get(key).copied().unwrap_or(0)
    }

    /// Folds one posterior observation into the prior as a running average.
    ///
    /// The first observation replaces the uninformed default entirely (a running
    /// average starting from a non-observation would anchor the prior at 0.5 forever);
    /// subsequent observations are averaged in with weight `1/k`.
    pub fn update(&mut self, key: VariableKey, posterior: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&posterior),
            "posterior {posterior} outside [0, 1]"
        );
        let count = self.observations.entry(key).or_insert(0);
        let new = if *count == 0 && !self.priors.contains_key(&key) {
            posterior
        } else {
            let old = self.priors.get(&key).copied().unwrap_or(self.default);
            let k = (*count + 1) as f64;
            old + (posterior - old) / k
        };
        *count += 1;
        self.priors.insert(key, new);
        new
    }

    /// Folds a whole batch of posteriors (one inference round) into the priors.
    pub fn update_all(&mut self, posteriors: &BTreeMap<VariableKey, f64>) {
        for (key, p) in posteriors {
            self.update(*key, *p);
        }
    }

    /// A snapshot of the current priors in the shape consumed by
    /// [`crate::local_graph::MappingModel::global_factor_graph`] and
    /// [`crate::embedded::EmbeddedMessagePassing`].
    pub fn snapshot(&self) -> BTreeMap<VariableKey, f64> {
        self.priors.clone()
    }

    /// Copies every entry of `source`'s variables on mapping `from` into this store
    /// under mapping `to`, priors and observation counts alike. This is how a shard
    /// projects the global store onto its local mapping ids (see
    /// [`crate::sharding::ShardedSession::priors`]).
    pub(crate) fn copy_mapping(&mut self, source: &PriorStore, from: MappingId, to: MappingId) {
        let first = VariableKey {
            mapping: from,
            attribute: None,
        };
        for (key, p) in source
            .priors
            .range(first..)
            .take_while(|(k, _)| k.mapping == from)
        {
            let local = VariableKey {
                mapping: to,
                attribute: key.attribute,
            };
            self.priors.insert(local, *p);
            self.observations
                .insert(local, source.observation_count(key));
        }
    }
}

impl Default for PriorStore {
    fn default() -> Self {
        Self::uninformed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdms_schema::AttributeId;

    fn key(m: usize) -> VariableKey {
        VariableKey {
            mapping: MappingId(m),
            attribute: Some(AttributeId(0)),
        }
    }

    #[test]
    fn default_prior_is_maximum_entropy() {
        let store = PriorStore::uninformed();
        assert_eq!(store.prior(&key(0)), 0.5);
        assert_eq!(store.observation_count(&key(0)), 0);
    }

    #[test]
    fn first_observation_replaces_the_default() {
        let mut store = PriorStore::uninformed();
        let updated = store.update(key(0), 0.9);
        assert!((updated - 0.9).abs() < 1e-12);
        assert_eq!(store.observation_count(&key(0)), 1);
    }

    #[test]
    fn running_average_accumulates_evidence() {
        let mut store = PriorStore::uninformed();
        store.update(key(0), 0.9);
        store.update(key(0), 0.5);
        assert!((store.prior(&key(0)) - 0.7).abs() < 1e-12);
        store.update(key(0), 0.1);
        assert!((store.prior(&key(0)) - 0.5).abs() < 1e-12);
        assert_eq!(store.observation_count(&key(0)), 3);
    }

    #[test]
    fn worked_example_prior_update_direction() {
        // Section 4.5: posteriors 0.59 / 0.3 on an uninformed prior lead to updated
        // priors of about 0.55 / 0.4 — i.e. the update moves the prior towards the
        // posterior but not all the way once earlier evidence (the 0.5 start, counted
        // as an explicit initial belief) is in the store.
        let mut store = PriorStore::uninformed();
        store.set_initial(key(1), 0.5);
        store.set_initial(key(4), 0.5);
        let updated_good = store.update(key(1), 0.59);
        let updated_bad = store.update(key(4), 0.3);
        assert!((updated_good - 0.545).abs() < 1e-9);
        assert!((updated_bad - 0.4).abs() < 1e-9);
    }

    #[test]
    fn explicit_initial_prior_survives_as_anchor() {
        let mut store = PriorStore::uninformed();
        store.set_initial(key(2), 1.0);
        assert_eq!(store.prior(&key(2)), 1.0);
        let updated = store.update(key(2), 0.0);
        assert!((updated - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_all_and_snapshot_round_trip() {
        let mut store = PriorStore::with_default(0.6);
        let mut batch = BTreeMap::new();
        batch.insert(key(0), 0.8);
        batch.insert(key(1), 0.2);
        store.update_all(&batch);
        let snap = store.snapshot();
        assert_eq!(snap.len(), 2);
        assert!((snap[&key(0)] - 0.8).abs() < 1e-12);
        assert!((snap[&key(1)] - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_posterior_panics() {
        let mut store = PriorStore::uninformed();
        store.update(key(0), 1.5);
    }
}
