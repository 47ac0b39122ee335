//! End-to-end: generate an ontology workload, export it to OWL + alignment documents,
//! re-import the documents, and verify the inference engine reaches the same verdicts
//! on the imported catalog as on the original one (the Section 5.2 tool pipeline).

use pdms::core::{Engine, EngineBuilder};
use pdms::rdf::{
    export_catalog, import_catalog, import_catalog_with_oracle, parse_alignment, parse_ontology,
    Judgement,
};
use pdms::schema::AttributeId;
use pdms::workloads::{generate_ontology_suite, OntologySuiteConfig};
use std::collections::BTreeMap;

fn builder() -> EngineBuilder {
    Engine::builder()
        .delta(0.1)
        .analysis(pdms::core::AnalysisConfig {
            max_cycle_len: 3,
            max_path_len: 2,
            include_parallel_paths: true,
            ..Default::default()
        })
}

#[test]
fn exported_and_reimported_catalog_reaches_the_same_verdicts() {
    let suite = generate_ontology_suite(&OntologySuiteConfig::default());
    let export = export_catalog(&suite.catalog);

    let ontologies: Vec<_> = export
        .ontologies
        .iter()
        .map(|(name, xml)| parse_ontology(xml, name).expect("exported OWL parses"))
        .collect();
    let alignments: Vec<_> = export
        .alignments
        .iter()
        .map(|xml| parse_alignment(xml).expect("exported alignment parses"))
        .collect();
    let import = import_catalog(&ontologies, &alignments).expect("import succeeds");

    assert_eq!(import.catalog.peer_count(), suite.catalog.peer_count());
    assert_eq!(
        import.catalog.mapping_count(),
        suite.catalog.mapping_count()
    );

    // Same inference input ⇒ same posteriors, whether the catalog came from the
    // generator or went through the OWL/alignment files (ground truth is not part of
    // the inference input, so the unjudged import is fine here).
    let original = builder().build_sharded(suite.catalog.clone());
    let reimported = builder().build_sharded(import.catalog.clone());
    for (mapping, attribute, p) in original.posteriors().fine_entries() {
        let q = reimported
            .posteriors()
            .probability_ignoring_bottom(mapping, attribute);
        assert!(
            (p - q).abs() < 1e-9,
            "posterior mismatch for {mapping}/{attribute}: {p} vs {q}"
        );
    }
}

#[test]
fn oracle_judged_import_supports_precision_evaluation() {
    let suite = generate_ontology_suite(&OntologySuiteConfig::default());
    let export = export_catalog(&suite.catalog);

    // Ground truth lookup tables derived from the generator.
    let mut concept_of_name: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut attribute_of_concept: BTreeMap<(String, usize), AttributeId> = BTreeMap::new();
    for peer in suite.catalog.peers() {
        let schema = suite.catalog.peer_schema(peer);
        for attribute in schema.attributes() {
            let concept = suite.concept(peer, attribute.id);
            concept_of_name.insert((schema.name().to_string(), attribute.name.clone()), concept);
            attribute_of_concept
                .entry((schema.name().to_string(), concept))
                .or_insert(attribute.id);
        }
    }

    let ontologies: Vec<_> = export
        .ontologies
        .iter()
        .map(|(name, xml)| parse_ontology(xml, name).expect("exported OWL parses"))
        .collect();
    let alignments: Vec<_> = export
        .alignments
        .iter()
        .map(|xml| parse_alignment(xml).expect("exported alignment parses"))
        .collect();
    let import = import_catalog_with_oracle(
        &ontologies,
        &alignments,
        |source, source_attr, target, target_attr| {
            let Some(&concept) =
                concept_of_name.get(&(source.to_string(), source_attr.to_string()))
            else {
                return Judgement::Unknown;
            };
            let expected = attribute_of_concept
                .get(&(target.to_string(), concept))
                .copied();
            match concept_of_name.get(&(target.to_string(), target_attr.to_string())) {
                Some(&proposed) if proposed == concept => Judgement::Correct,
                _ => Judgement::Erroneous(expected),
            }
        },
    )
    .expect("judged import succeeds");

    // The judged import carries the same number of erroneous correspondences as the
    // generator reports.
    let reimported_errors: usize = import
        .catalog
        .mappings()
        .map(|m| import.catalog.mapping(m).error_count())
        .sum();
    assert_eq!(reimported_errors, suite.erroneous_correspondences);

    // And the engine's evaluation on the imported catalog behaves like Figure 12: at a
    // low threshold most flagged correspondences are genuinely erroneous.
    let session = builder().build_sharded(import.catalog);
    let eval = session.evaluate(0.3);
    assert!(
        eval.flagged() > 0,
        "something must be flagged at theta = 0.3"
    );
    assert!(
        eval.precision() > 0.5,
        "precision {} at theta = 0.3 should beat a coin flip",
        eval.precision()
    );
}
