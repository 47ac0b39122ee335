//! `pdms-cli` — the command-line counterpart of the tool described in Section 5.2.
//!
//! The paper's evaluation tool imports OWL schemas and simple RDF mappings, builds the
//! PDMS factor graph, runs the message passing, and reports posterior quality values.
//! This binary does the same over a directory of files, and can also generate such a
//! directory from the built-in workloads so the pipeline can be tried end to end:
//!
//! ```text
//! pdms-cli generate --out ./workload [--seed 2006]      write OWL + alignment files
//! pdms-cli assess   --dir ./workload [--theta 0.5]      import the files, run inference
//! pdms-cli intro                                        the worked example of Section 4.5
//! pdms-cli churn    [--peers 16] [--epochs 8]           shard maintenance under churn
//! ```
//!
//! Run via `cargo run --bin pdms-cli -- <command> [options]`.

use pdms::core::{Engine, RoutingPolicy};
use pdms::rdf::{export_catalog, import_catalog, parse_alignment, parse_ontology};
use pdms::schema::{AttributeId, Predicate, Query};
use pdms::workloads::{
    generate_ontology_suite, intro_network, ChurnConfig, ChurnGenerator, OntologySuiteConfig,
    SyntheticConfig, SyntheticNetwork,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let options = match parse_options(&args[1..]) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "generate" => generate(&options),
        "assess" => assess(&options),
        "intro" => intro(&options),
        "churn" => churn(&options),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
pdms-cli — probabilistic mapping-quality assessment for Peer Data Management Systems

USAGE:
  pdms-cli generate --out <dir> [--seed <n>]
      Generate the bibliographic ontology workload and write one .owl file per
      ontology plus one alignment .rdf file per automatically created mapping.

  pdms-cli assess --dir <dir> [--theta <t>] [--max-cycle-len <n>] [--delta <d>]
      Import every .owl and alignment .rdf file of the directory, run the embedded
      message-passing engine, and print the posterior quality of every imported
      correspondence (those below theta are flagged as probably erroneous).

  pdms-cli intro [--theta <t>]
      Run the worked example of Section 4.5: detect the faulty Creator mapping in the
      four-peer art network and route the introductory query around it.

  pdms-cli churn [--peers <n>] [--epochs <n>] [--seed <n>]
                 [--topology small-world|scale-free|hub-heavy|erdos-renyi|ring|islands]
                 [--islands <n>] [--hub-exponent <a>] [--parallelism <n>]
                 [--steal-granularity <n>] [--heavy-threshold <n>]
                 [--batch-size <n>] [--shard-parallelism <n>] [--merge-rate <p>]
      Generate a synthetic network and drive a session (one incremental engine per
      weakly connected component) through epochs of churn (corruptions, repairs,
      new mappings), printing per-epoch shard maintenance: touched, spliced and
      rebuilt shards, merges, splits, bridge evidence, inference rounds, shards
      left unconverged and dispatch timing.
      `--topology hub-heavy` selects the scale-free network with super-linear
      preferential attachment (exponent --hub-exponent, default 1.6) whose hub
      peers the work-stealing enumeration splits into stolen subtasks;
      `--topology islands` generates --islands disjoint Erdos-Renyi communities of
      --peers nodes each (a multi-component network, one shard per island).
      --parallelism / --steal-granularity / --heavy-threshold expose the
      scheduling knobs (0 = auto: every available core, the built-in hub-splitting
      defaults). Events are ingested in batches of --batch-size (0 = one batch per
      epoch) and shards dispatched over --shard-parallelism workers (0 = every
      available core).
      --merge-rate is the probability that a churn epoch adds an island-bridging
      mapping (a component merge, the event the warm splice path exists for;
      default 0).
";

#[derive(Debug, Default)]
struct Options {
    values: BTreeMap<String, String>,
}

impl Options {
    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("option --{key} has an unparsable value `{raw}`")),
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!(
                "unexpected argument `{arg}` (options start with --)"
            ));
        };
        let value = iter
            .next()
            .ok_or_else(|| format!("option --{key} needs a value"))?;
        options.values.insert(key.to_string(), value.clone());
    }
    Ok(options)
}

fn generate(options: &Options) -> Result<(), String> {
    let out: PathBuf = options
        .get("out")
        .ok_or("generate needs --out <dir>")?
        .into();
    let seed: u64 = options.parsed("seed", 2006)?;
    let suite = generate_ontology_suite(&OntologySuiteConfig {
        seed,
        ..Default::default()
    });
    fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let export = export_catalog(&suite.catalog);
    for (name, xml) in &export.ontologies {
        let path = out.join(format!("{name}.owl"));
        fs::write(&path, xml).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for (i, xml) in export.alignments.iter().enumerate() {
        let path = out.join(format!("alignment-{i:03}.rdf"));
        fs::write(&path, xml).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!(
        "wrote {} ontologies and {} alignments ({} correspondences, seed {seed}) to {}",
        export.ontologies.len(),
        export.alignments.len(),
        suite.total_correspondences,
        out.display()
    );
    println!("assess them with: pdms-cli assess --dir {}", out.display());
    Ok(())
}

fn assess(options: &Options) -> Result<(), String> {
    let dir: PathBuf = options.get("dir").ok_or("assess needs --dir <dir>")?.into();
    let theta: f64 = options.parsed("theta", 0.5)?;
    let max_cycle_len: usize = options.parsed("max-cycle-len", 4)?;
    let delta: f64 = options.parsed("delta", 0.1)?;

    let mut ontologies = Vec::new();
    let mut alignments = Vec::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        match path.extension().and_then(|e| e.to_str()) {
            Some("owl") => {
                let text = read(&path)?;
                let name = stem(&path);
                let ontology =
                    parse_ontology(&text, &name).map_err(|e| format!("{}: {e}", path.display()))?;
                println!(
                    "imported ontology `{}` ({} concepts) from {}",
                    ontology.name,
                    ontology.concept_count(),
                    path.display()
                );
                ontologies.push(ontology);
            }
            Some("rdf") | Some("xml") => {
                let text = read(&path)?;
                let alignment =
                    parse_alignment(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                alignments.push(alignment);
            }
            _ => {}
        }
    }
    if ontologies.is_empty() {
        return Err(format!("no .owl files found in {}", dir.display()));
    }
    println!(
        "imported {} ontologies and {} alignment documents",
        ontologies.len(),
        alignments.len()
    );

    let import = import_catalog(&ontologies, &alignments).map_err(|e| e.to_string())?;
    let session = Engine::builder()
        .delta(delta)
        .analysis(pdms::core::AnalysisConfig {
            max_cycle_len,
            max_path_len: max_cycle_len.saturating_sub(1).max(1),
            ..Default::default()
        })
        .build_sharded(import.catalog);
    let catalog = session.catalog();
    println!(
        "analysis: {} evidence paths, {} variables, {} rounds (converged: {})",
        session.evidence_count(),
        session.variable_count(),
        session.rounds(),
        session.converged()
    );

    // Print every correspondence with its posterior, flagged ones first.
    let mut rows: Vec<(f64, String)> = Vec::new();
    for mapping_id in catalog.mappings() {
        let (source, target) = catalog.mapping_endpoints(mapping_id);
        let source_schema = catalog.peer_schema(source);
        let target_schema = catalog.peer_schema(target);
        for (attribute, correspondence) in catalog.mapping(mapping_id).correspondences() {
            let p = session
                .posteriors()
                .probability_ignoring_bottom(mapping_id, attribute);
            let source_name = source_schema
                .attribute(attribute)
                .map(|a| a.name.clone())
                .unwrap_or_else(|| attribute.to_string());
            let target_name = target_schema
                .attribute(correspondence.target)
                .map(|a| a.name.clone())
                .unwrap_or_else(|| correspondence.target.to_string());
            rows.push((
                p,
                format!(
                    "{:<14} {:<24} -> {:<14} {:<24} P(correct) = {p:.3}{}",
                    source_schema.name(),
                    source_name,
                    target_schema.name(),
                    target_name,
                    if p < theta { "   FLAGGED" } else { "" }
                ),
            ));
        }
    }
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let flagged = rows.iter().filter(|(p, _)| *p < theta).count();
    println!(
        "\n{} correspondences assessed, {flagged} flagged at theta = {theta}:",
        rows.len()
    );
    for (_, line) in &rows {
        println!("  {line}");
    }
    Ok(())
}

fn intro(options: &Options) -> Result<(), String> {
    let theta: f64 = options.parsed("theta", 0.5)?;
    let (catalog, mappings) = intro_network();
    let session = Engine::builder().build_sharded(catalog);
    let catalog = session.catalog();
    println!("worked example of Section 4.5 (four art databases, five mappings)");
    println!(
        "delta = {:.2}, rounds = {}\n",
        session.delta(),
        session.rounds()
    );
    let creator = AttributeId(0);
    for mapping in catalog.mappings() {
        let (from, to) = catalog.mapping_endpoints(mapping);
        let p = session.posteriors().probability(catalog, mapping, creator);
        println!(
            "  {mapping} {:>3} -> {:<3}  P(Creator preserved) = {p:.3}{}",
            catalog.peer_name(from),
            catalog.peer_name(to),
            if p < theta { "   <-- faulty" } else { "" }
        );
    }
    let query = Query::new()
        .project(creator)
        .select(AttributeId(1), Predicate::Contains("river".into()));
    let outcome = session.route(
        catalog.mapping_endpoints(mappings.m23).0,
        &query,
        &RoutingPolicy::uniform(theta),
    );
    println!(
        "\nquery from p2: reached {} peers, {} false positives, faulty mapping used: {}",
        outcome.reached.len(),
        outcome.tainted.len(),
        outcome.forwarded_mappings().contains(&mappings.m24)
    );
    Ok(())
}

fn churn(options: &Options) -> Result<(), String> {
    let peers: usize = options.parsed("peers", 16)?;
    let epochs: usize = options.parsed("epochs", 8)?;
    let seed: u64 = options.parsed("seed", 2006)?;
    let islands: usize = options.parsed("islands", 4)?;
    let hub_exponent: f64 = options.parsed("hub-exponent", 1.6)?;
    let parallelism: usize = options.parsed("parallelism", 0)?;
    let steal_granularity: usize = options.parsed("steal-granularity", 0)?;
    let heavy_threshold: usize = options.parsed("heavy-threshold", 0)?;
    let batch_size: usize = options.parsed("batch-size", 0)?;
    let shard_parallelism: usize = options.parsed("shard-parallelism", 0)?;
    let merge_rate: f64 = options.parsed("merge-rate", 0.0)?;

    let topology_name = options.get("topology").unwrap_or("small-world");
    let topology = match topology_name {
        "small-world" => pdms::graph::GeneratorConfig::small_world(peers, 2, 0.2, seed),
        "scale-free" => pdms::graph::GeneratorConfig::scale_free(peers, 2, seed),
        "hub-heavy" => {
            pdms::graph::GeneratorConfig::scale_free_skewed(peers, 2, hub_exponent, seed)
        }
        "erdos-renyi" => pdms::graph::GeneratorConfig::erdos_renyi(peers, 0.15, seed),
        "ring" => pdms::graph::GeneratorConfig::ring(peers),
        "islands" => pdms::graph::GeneratorConfig::islands(islands, peers, 0.15, seed),
        other => {
            return Err(format!(
                "unknown --topology `{other}` (expected small-world, scale-free, hub-heavy, \
                 erdos-renyi, ring or islands)"
            ))
        }
    };
    let network = SyntheticNetwork::generate(SyntheticConfig {
        topology,
        attributes: 8,
        error_rate: 0.1,
        seed,
    });
    let analysis_config = pdms::core::AnalysisConfig {
        max_cycle_len: 5,
        max_path_len: 3,
        include_parallel_paths: true,
        parallelism,
        steal_granularity,
        heavy_origin_threshold: heavy_threshold,
        shard_parallelism,
        batch_size,
        splice: None,
    };
    let mut session = Engine::builder()
        .analysis(analysis_config)
        .delta(0.1)
        .build_sharded(network.catalog.clone());
    println!(
        "synthetic {} network: {} peers, {} mappings, {} evidence paths across {} shards",
        topology_name,
        session.catalog().peer_count(),
        session.catalog().mapping_count(),
        session.evidence_count(),
        session.shard_count(),
    );
    let mut generator = ChurnGenerator::new(ChurnConfig {
        seed,
        merge_rate,
        ..Default::default()
    });
    println!(
        "{:>5} {:>7} {:>7} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9} {:>7} {:>7} {:>9} {:>9}",
        "epoch",
        "events",
        "shards",
        "touched",
        "spliced",
        "rebuilt",
        "merges",
        "splits",
        "bridge-ev",
        "rounds",
        "unconv",
        "shard-ms",
        "worst-ms"
    );
    for epoch in 0..epochs {
        let events = generator.epoch_events(session.catalog());
        let report = session.apply_batch(&events);
        println!(
            "{epoch:>5} {:>7} {:>7} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9} {:>7} {:>7} {:>9.2} {:>9.2}",
            report.events_applied,
            session.shard_count(),
            report.shards_touched,
            report.shards_spliced,
            report.shards_rebuilt,
            report.merges,
            report.splits,
            report.splice_evidence_added,
            report.rounds,
            report.unconverged_shards,
            report.shard_time.as_secs_f64() * 1e3,
            report.slowest_shard.as_secs_f64() * 1e3,
        );
    }
    let stats = session.stats();
    println!(
        "\nsharded totals: {} batches, {} events, {} incremental shard applies, {} warm \
         splices (+{} bridge evidence paths), {} cold shard rebuilds, {} merges, {} splits, \
         {} coalesced pairs, {} unconverged shard passes",
        stats.batches,
        stats.events_applied,
        stats.shard_applies,
        stats.shards_spliced,
        stats.splice_evidence_added,
        stats.shard_rebuilds,
        stats.merges,
        stats.splits,
        stats.mappings_coalesced,
        stats.unconverged_shards,
    );
    Ok(())
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn stem(path: &Path) -> String {
    path.file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("ontology")
        .to_string()
}
