//! Import OWL ontologies and RDF alignment documents from disk, assess the mappings.
//!
//! This mirrors the tool described in Section 5.2 of the paper: a suite of
//! bibliographic ontologies is serialised to OWL (RDF/XML), the automatically created
//! mappings are serialised in the KnowledgeWeb alignment format, both are written to a
//! scratch directory, read back, imported into a PDMS catalog, and handed to the
//! probabilistic message-passing engine, which flags the erroneous correspondences.
//!
//! Run with `cargo run --example rdf_import`.

use pdms::core::Engine;
use pdms::rdf::{
    export_catalog, import_catalog_with_oracle, parse_alignment, parse_ontology, Judgement,
};
use pdms::schema::AttributeId;
use pdms::workloads::{generate_ontology_suite, OntologySuiteConfig};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Produce a realistic workload: six bibliographic ontologies aligned pairwise by
    //    a string-similarity matcher (the EON-substitute workload of Figure 12).
    let suite = generate_ontology_suite(&OntologySuiteConfig::default());
    println!(
        "generated {} ontologies, {} mappings, {} correspondences ({} erroneous)",
        suite.catalog.peer_count(),
        suite.catalog.mapping_count(),
        suite.total_correspondences,
        suite.erroneous_correspondences
    );

    // 2. Serialise everything to OWL + alignment files, exactly the artefacts an
    //    external tool (or the EON contest) would hand us.
    let export = export_catalog(&suite.catalog);
    let dir: PathBuf = std::env::temp_dir().join("pdms-rdf-import-example");
    fs::create_dir_all(&dir)?;
    let mut ontology_files = Vec::new();
    for (name, xml) in &export.ontologies {
        let path = dir.join(format!("{name}.owl"));
        fs::write(&path, xml)?;
        ontology_files.push((name.clone(), path));
    }
    let mut alignment_files = Vec::new();
    for (i, xml) in export.alignments.iter().enumerate() {
        let path = dir.join(format!("alignment-{i:03}.rdf"));
        fs::write(&path, xml)?;
        alignment_files.push(path);
    }
    println!(
        "wrote {} OWL files and {} alignment files to {}",
        ontology_files.len(),
        alignment_files.len(),
        dir.display()
    );

    // 3. Read the files back and import them into a fresh catalog. The ground-truth
    //    oracle (which concept each attribute renders) comes from the workload
    //    generator; real deployments would skip it and work unjudged.
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

    let ontologies = ontology_files
        .iter()
        .map(|(name, path)| {
            let text = fs::read_to_string(path)?;
            Ok(parse_ontology(&text, name)?)
        })
        .collect::<Result<Vec<_>, Box<dyn std::error::Error>>>()?;
    let alignments = alignment_files
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path)?;
            Ok(parse_alignment(&text)?)
        })
        .collect::<Result<Vec<_>, Box<dyn std::error::Error>>>()?;

    let oracle = |source: &str, source_attr: &str, target: &str, target_attr: &str| {
        let Some(&concept) = concept_of_name.get(&(source.to_string(), source_attr.to_string()))
        else {
            return Judgement::Unknown;
        };
        let expected = attribute_of_concept
            .get(&(target.to_string(), concept))
            .copied();
        let proposed_concept = concept_of_name.get(&(target.to_string(), target_attr.to_string()));
        match (expected, proposed_concept) {
            (Some(_), Some(&proposed)) if proposed == concept => Judgement::Correct,
            (expected, _) => Judgement::Erroneous(expected),
        }
    };
    let import = import_catalog_with_oracle(&ontologies, &alignments, oracle)?;
    println!(
        "re-imported {} peers, {} mappings, {} correspondences ({} known erroneous)",
        import.catalog.peer_count(),
        import.catalog.mapping_count(),
        import.imported_correspondences,
        import.catalog.erroneous_mapping_count()
    );

    // 4. Run the message-passing engine over the imported catalog and report how well
    //    it spots the faulty correspondences, exactly like Figure 12.
    let session = Engine::builder().build_sharded(import.catalog);
    println!(
        "\ninference: {} evidence paths, {} variables, {} rounds (converged: {})",
        session.evidence_count(),
        session.variable_count(),
        session.rounds(),
        session.converged()
    );
    for theta in [0.3, 0.5, 0.6] {
        let eval = session.evaluate(theta);
        println!(
            "theta = {theta:.2}: flagged {:3}  precision {:.2}  recall {:.2}",
            eval.flagged(),
            eval.precision(),
            eval.recall()
        );
    }
    Ok(())
}
