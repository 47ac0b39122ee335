//! End-to-end and per-layer benchmark of the component-sharded PDMS session.
//!
//! ```text
//! cargo run --release --manifest-path pdmsbench/Cargo.toml -- \
//!     --workload <er256-edits|islands-churn|er128-read-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one closed-loop client: the next batch or query is submitted
//! only after the previous call returned. With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer metrics of a
//! traced run. The last line of standard output is one JSON object; lines
//! before it start with `#` and describe the run. See `README.md`.

mod oracle;
mod stats;
mod trace;
mod workload;

use pdms_core::{
    BatchReport, CycleAnalysis, Engine, EngineBuilder, Granularity, MappingModel, PosteriorTable,
    RoutingPolicy, SessionStats, ShardedSession,
};
use pdms_schema::{Catalog, PeerId};
use stats::{median, overhead, percentile, ratio};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{InferRecord, Span, TimingBackend};
use workload::{Inputs, Workload};

/// Applies an untraced run makes at least, so its p95 has ten samples beyond it.
const MIN_APPLIES: usize = 200;
/// Applies a traced run makes at least.
const MIN_TRACED_APPLIES: usize = 40;
/// Cold builds are repeated for at least this long (and at least
/// [`SETUP_MIN_REPEATS`] times); `setup_s` is their median.
const SETUP_SECONDS: f64 = 3.0;
/// Fewest cold builds timed per run.
const SETUP_MIN_REPEATS: usize = 5;
/// Queries the correctness gate routes through the session and the oracle.
const ORACLE_QUERIES: usize = 128;
/// Batches generated per run; the loop stops early if it runs out.
const MAX_STEPS: usize = 3000;
/// Samples a reported tail percentile must leave beyond it.
const TAIL_SAMPLES: usize = 10;
/// Forwarding and detection threshold θ.
const THETA: f64 = 0.5;
/// Compensating-error probability Δ, pinned as in the repository's fixtures.
const DELTA: f64 = 0.1;
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The session configuration: the workload's pinned analysis knobs (see
/// [`Workload::analysis`]), fine granularity, Δ pinned, and the library's
/// default inference config.
fn builder(workload: Workload) -> EngineBuilder {
    Engine::builder()
        .analysis(workload.analysis())
        .granularity(Granularity::Fine)
        .delta(DELTA)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run produced: the JSON result plus `#` notes.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: pdmsbench --workload <er256-edits|islands-churn|er128-read-mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!("# {}", environment(args.workload));
    let catalog = args.workload.catalog();
    let inputs = args.workload.generate(&catalog, args.seed, MAX_STEPS);
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        run_traced(args.workload, args.seed, &catalog, &inputs, budget)
    } else {
        run_untraced(args.workload, &catalog, &inputs, budget)
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    match to_json(&outcome) {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Host, toolchain, commit and resolved knob values of the run.
fn environment(workload: Workload) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    let analysis = workload.analysis();
    let (threshold, granularity) = analysis.steal_config().resolved();
    format!(
        "workload={} nproc={nproc} rustc=\"{rustc}\" commit={} parallelism={} \
         heavy_origin_threshold={threshold} steal_granularity={granularity} \
         shard_parallelism={} batch_size={} splice={} max_cycle_len={} max_path_len={} \
         granularity=fine delta={DELTA} inference=default-embedded",
        workload.name(),
        git_commit(),
        pdms_graph::effective_parallelism(analysis.parallelism),
        pdms_graph::effective_shard_parallelism(analysis.shard_parallelism),
        pdms_graph::effective_batch_size(analysis.batch_size),
        pdms_graph::effective_splice(analysis.splice),
        analysis.max_cycle_len,
        analysis.max_path_len,
    )
}

/// The commit of the checkout, read from `.git` without running git; `unknown`
/// outside a git work tree.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .map_or_else(|| format!("({reference})"), |c| c.trim().to_string()),
        None => head.to_string(),
    }
}

/// Per-shard bookkeeping before an apply, keyed by the shard's smallest peer.
struct Census(BTreeMap<PeerId, (usize, SessionStats)>);

/// A shard the apply changed: an incremental apply, a splice or a rebuild.
struct Changed {
    index: usize,
    /// Maintenance statistics the apply added (all of them for a new shard).
    delta: SessionStats,
    /// Whether an inference pass ran on it.
    inferred: bool,
}

impl Census {
    fn take(session: &ShardedSession) -> Census {
        Census(
            session
                .shards()
                .iter()
                .map(|s| (s.peers()[0], (s.peers().len(), *s.session().stats())))
                .collect(),
        )
    }

    /// The shards `session` changed since the census was taken.
    fn changed(&self, session: &ShardedSession) -> Vec<Changed> {
        let mut out = Vec::new();
        for (index, shard) in session.shards().iter().enumerate() {
            let after = *shard.session().stats();
            let before = self
                .0
                .get(&shard.peers()[0])
                .filter(|(len, b)| {
                    *len == shard.peers().len()
                        && b.incremental_applies <= after.incremental_applies
                        && b.full_builds <= after.full_builds
                })
                .map(|(_, b)| *b);
            match before {
                Some(b) if b.incremental_applies == after.incremental_applies => {}
                Some(b) => out.push(Changed {
                    index,
                    delta: SessionStats {
                        full_builds: after.full_builds - b.full_builds,
                        incremental_applies: after.incremental_applies - b.incremental_applies,
                        total_rounds: after.total_rounds - b.total_rounds,
                        evidences_added: after.evidences_added - b.evidences_added,
                        evidences_removed: after.evidences_removed - b.evidences_removed,
                        evidences_reobserved: after.evidences_reobserved - b.evidences_reobserved,
                    },
                    inferred: after.total_rounds > b.total_rounds,
                }),
                None => out.push(Changed {
                    index,
                    delta: after,
                    inferred: true,
                }),
            }
        }
        out
    }
}

/// Routing tallies over a set of routed queries.
#[derive(Default)]
struct RouteTally {
    latencies_us: Vec<f64>,
    reached: usize,
    clean: usize,
    decisions: usize,
    forwarded: usize,
}

impl RouteTally {
    fn route_all(&mut self, session: &ShardedSession, queries: &[(PeerId, pdms_schema::Query)]) {
        let policy = RoutingPolicy::uniform(THETA);
        for (origin, query) in queries {
            let start = Instant::now();
            let outcome = black_box(session.route(*origin, query, &policy));
            self.latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            self.reached += outcome.reached.len();
            self.clean += outcome.clean_reach();
            self.decisions += outcome.decisions.len();
            self.forwarded += outcome.decisions.iter().filter(|d| d.forwarded).count();
        }
    }
}

/// The block of queries routed after step `step`: the pool, read in order
/// and cyclically, [`Workload::reads_per_step`] at a time.
fn read_block(
    queries: &[(PeerId, pdms_schema::Query)],
    workload: Workload,
    step: usize,
) -> &[(PeerId, pdms_schema::Query)] {
    let size = workload.reads_per_step();
    let start = (step * size) % queries.len();
    &queries[start..(start + size).min(queries.len())]
}

/// What the closed loop observed.
#[derive(Default)]
struct Drive {
    steps: usize,
    apply_ms: Vec<f64>,
    apply_total: Duration,
    events: usize,
    routes: RouteTally,
    passes: usize,
    unconverged: usize,
    failed: usize,
    failures: Vec<String>,
}

/// Drives the closed loop: one `apply_batch` per step (plus, on the read mix,
/// one block of routed queries), until `budget` has passed and at least
/// `min_steps` steps ran, ending on a whole step unit.
fn drive(
    session: &mut ShardedSession,
    inputs: &Inputs,
    workload: Workload,
    budget: Duration,
    min_steps: usize,
    mut tracer: Option<&mut Tracer>,
) -> Drive {
    let mut out = Drive::default();
    let unit = workload.step_unit();
    let start = Instant::now();
    for (step, batch) in inputs.steps.iter().enumerate() {
        if step % unit == 0 && step >= min_steps && start.elapsed() >= budget {
            break;
        }
        let census = Census::take(session);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| session.apply_batch(batch)));
        let t1 = Instant::now();
        out.steps += 1;
        let report = match result {
            Ok(report) => report,
            Err(_) => {
                out.failed += 1;
                out.failures
                    .push(format!("step {step}: apply_batch panicked"));
                // The session's state is unknown after a panic: stop here.
                break;
            }
        };
        if report.events_applied != batch.len() || report.events_ignored != 0 {
            out.failed += 1;
            out.failures.push(format!(
                "step {step}: {} of {} events applied",
                report.events_applied,
                batch.len()
            ));
        }
        out.apply_ms.push((t1 - t0).as_secs_f64() * 1e3);
        out.apply_total += t1 - t0;
        out.events += batch.len();
        let changed = census.changed(session);
        for shard in changed.iter().filter(|c| c.inferred) {
            out.passes += 1;
            out.unconverged += usize::from(!session.shards()[shard.index].session().converged());
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            if let Err(message) = tracer.observe(step, session, batch, (t0, t1), &report, &changed)
            {
                out.failed += 1;
                out.failures.push(format!("step {step}: {message}"));
            }
        }
        let before = out.routes.latencies_us.len();
        out.routes
            .route_all(session, read_block(&inputs.queries, workload, step));
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.routes(step, &out.routes.latencies_us[before..]);
        }
    }
    out
}

/// Queries the oracle re-routes: the first block of the pool.
fn oracle_queries(inputs: &Inputs) -> &[(PeerId, pdms_schema::Query)] {
    &inputs.queries[..ORACLE_QUERIES.min(inputs.queries.len())]
}

/// Runs the correctness gate against a cold build of the final catalog.
fn gate(session: &ShardedSession, inputs: &Inputs, workload: Workload) -> Result<String, String> {
    let oracle = builder(workload).build_sharded(session.catalog().clone());
    let queries = oracle_queries(inputs);
    let report = oracle::check(session, &oracle, queries, &RoutingPolicy::uniform(THETA))?;
    Ok(format!(
        "oracle: {} evidence ids identical; posteriors of {} converged shards within the \
         envelope (max abs difference {:.3e}); {} shards unconverged at the end; {} routes \
         identical, {} borderline",
        report.evidences,
        report.compared_shards,
        report.max_abs,
        report.unconverged_shards,
        report.routes,
        report.borderline_routes,
    ))
}

fn run_untraced(
    workload: Workload,
    catalog: &Catalog,
    inputs: &Inputs,
    budget: Duration,
) -> Outcome {
    let mut setup_s = Vec::new();
    let mut session = None;
    while setup_s.len() < SETUP_MIN_REPEATS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        drop(session.take());
        let fresh = catalog.clone();
        let start = Instant::now();
        let built = builder(workload).build_sharded(fresh);
        setup_s.push(start.elapsed().as_secs_f64());
        session = Some(black_box(built));
    }
    let mut session = session.expect("at least one setup repeat");
    let drive = drive(&mut session, inputs, workload, budget, MIN_APPLIES, None);
    // Read before the gate builds its oracle, so the peak is the workload's.
    let peak_rss = peak_rss_mb();

    let mut notes = vec![format!(
        "{} applies, {} events, {} routed queries, {} inference passes ({} unconverged), shards {}",
        drive.apply_ms.len(),
        drive.events,
        drive.routes.latencies_us.len(),
        drive.passes,
        drive.unconverged,
        session.shard_count()
    )];
    let mut correct = drive.failed == 0;
    let mut failed = drive.failed;
    match gate(&session, inputs, workload) {
        Ok(note) => notes.push(note),
        Err(message) => {
            correct = false;
            failed += 1;
            notes.push(format!("oracle FAILED: {message}"));
        }
    }
    notes.extend(drive.failures.iter().cloned());
    let evaluation = session.evaluate(THETA);
    let mut metrics = Vec::new();
    let mut put = |name, value: Option<f64>, unit| match value {
        Some(value) => metrics.push(Metric { name, value, unit }),
        None => {
            correct = false;
            notes.push(format!("{name}: too few samples"));
        }
    };
    put("setup_s", median(&setup_s), "s");
    put("apply_p50_ms", median(&drive.apply_ms), "ms");
    put(
        "apply_p95_ms",
        percentile(&drive.apply_ms, 0.95, TAIL_SAMPLES),
        "ms",
    );
    put(
        "events_per_s",
        Some(ratio(drive.events as f64, drive.apply_total.as_secs_f64())),
        "events/s",
    );
    put("route_p50_us", median(&drive.routes.latencies_us), "us");
    put(
        "route_p95_us",
        percentile(&drive.routes.latencies_us, 0.95, TAIL_SAMPLES),
        "us",
    );
    put("detect_f1", Some(evaluation.f1()), "ratio");
    put(
        "route_clean_frac",
        Some(ratio(
            drive.routes.clean as f64,
            drive.routes.reached as f64,
        )),
        "ratio",
    );
    put(
        "converged_frac",
        Some(1.0 - ratio(drive.unconverged as f64, drive.passes as f64)),
        "ratio",
    );
    put("peak_rss_mb", peak_rss, "MB");
    Outcome {
        correct,
        attempted: drive.steps + drive.routes.latencies_us.len(),
        failed,
        metrics,
        notes,
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-layer sums over the traced applies, and the spans behind them.
#[derive(Default)]
struct Tracer {
    backend: TimingBackend,
    epoch: Option<Instant>,
    spans: Vec<Span>,
    /// The global catalog as of the last apply, for the `apply_event` replays.
    shadow: Catalog,
    analysis: pdms_core::AnalysisConfig,
    applies: usize,
    apply_own: Duration,
    sharding_self: Duration,
    session_self: Duration,
    embedded_infer: Duration,
    shard_time: Duration,
    /// Slowest shard task per apply, summed, from the untraced replay of
    /// the same steps (the traced tasks also hold replays).
    slowest_shard: Duration,
    /// Shards changed by the traced applies, summed.
    changed_shards: usize,
    batch: BatchReport,
    passes: usize,
    arena_build: Duration,
    warm_start: Duration,
    rounds_time: Duration,
    rounds: usize,
    message_rounds: f64,
    unconverged: usize,
    variables: usize,
    evidences: usize,
    model_build: Duration,
    table_build: Duration,
    analyze: Duration,
    evidences_added: usize,
    evidences_removed: usize,
    evidences_reobserved: usize,
    evidences_held: usize,
    events: usize,
    apply_event: Duration,
}

impl Tracer {
    fn at(&self, instant: Instant) -> Duration {
        instant - self.epoch.expect("trace epoch set")
    }

    fn span(
        &mut self,
        apply: usize,
        layer: &'static str,
        s: (Instant, Instant),
        parent: Option<&'static str>,
    ) {
        let span = Span {
            apply,
            layer,
            start: self.at(s.0),
            end: self.at(s.1),
            parent,
        };
        self.spans.push(span);
    }

    /// Accounts one traced apply and runs its out-of-band replays.
    fn observe(
        &mut self,
        step: usize,
        session: &ShardedSession,
        batch: &[pdms_core::NetworkEvent],
        apply: (Instant, Instant),
        report: &BatchReport,
        changed: &[Changed],
    ) -> Result<(), String> {
        let records: Vec<InferRecord> = self.backend.drain();
        let times = trace::self_times(apply, &records, report.shard_time)?;
        if records.iter().any(|r| !r.replay_identical) {
            return Err("an inference replay did not reproduce the forwarded call".into());
        }
        self.applies += 1;
        self.apply_own += times.total();
        self.sharding_self += times.sharding;
        self.session_self += times.session;
        self.embedded_infer += times.embedded;
        // Replays ran inside shard tasks; the shard layer's own time leaves
        // them out.
        self.shard_time += times.session + times.embedded;
        accumulate(&mut self.batch, report);
        self.span(step, "sharding", apply, None);
        for record in &records {
            self.passes += 1;
            self.arena_build += record.arena_build;
            self.warm_start += record.warm_start;
            self.rounds_time += record.rounds_time;
            self.rounds += record.rounds;
            self.message_rounds += (record.messages_per_round * record.rounds) as f64;
            self.unconverged += usize::from(!record.converged);
            self.variables += record.variables;
            self.evidences += record.evidences;
            self.span(step, "embedded", record.infer, Some("sharding"));
            self.span(step, "replay.embedded", record.replay, Some("sharding"));
        }

        // Out-of-band replays of the changed shards' post-apply state.
        for shard in changed {
            let shard_session = session.shards()[shard.index].session();
            let t0 = Instant::now();
            let analysis = black_box(CycleAnalysis::analyze(
                shard_session.catalog(),
                &self.analysis,
            ));
            let t1 = Instant::now();
            let model = MappingModel::build(
                shard_session.catalog(),
                shard_session.analysis(),
                Granularity::Fine,
                session.delta(),
            );
            let t2 = Instant::now();
            let by_key = shard_session
                .posteriors()
                .as_variable_map(shard_session.model());
            let posteriors: Vec<f64> = shard_session
                .model()
                .variables
                .iter()
                .map(|key| by_key[key])
                .collect();
            let t3 = Instant::now();
            let table = PosteriorTable::from_model(
                shard_session.model(),
                &posteriors,
                shard_session.posteriors().default_probability(),
            );
            let t4 = Instant::now();
            black_box((&analysis, &model, &table));
            self.analyze += t1 - t0;
            self.model_build += t2 - t1;
            self.table_build += t4 - t3;
            self.span(step, "replay.cycle_analysis", (t0, t1), None);
            self.span(step, "replay.local_graph", (t1, t2), None);
            self.span(step, "replay.posterior", (t3, t4), None);
            self.evidences_added += shard.delta.evidences_added;
            self.evidences_removed += shard.delta.evidences_removed;
            self.evidences_reobserved += shard.delta.evidences_reobserved;
            self.evidences_held += shard_session.analysis().evidences.len();
            self.changed_shards += 1;
        }
        let t0 = Instant::now();
        for event in batch {
            black_box(pdms_core::apply_event(&mut self.shadow, event));
        }
        let t1 = Instant::now();
        self.events += batch.len();
        self.apply_event += t1 - t0;
        self.span(step, "replay.dynamics", (t0, t1), None);
        Ok(())
    }

    fn routes(&mut self, step: usize, latencies_us: &[f64]) {
        // Route calls run back to back; one span covers the block.
        let total: f64 = latencies_us.iter().sum();
        let end = Instant::now();
        let start = end - Duration::from_secs_f64(total / 1e6);
        self.span(step, "routing", (start, end), None);
    }

    /// Writes the spans as JSON lines under the benchmark's `out/` directory.
    fn write_spans(&self, workload: Workload, seed: u64) -> std::io::Result<String> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        let mut text = String::new();
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
            let _ = writeln!(
                text,
                "{{\"apply\":{},\"layer\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent}}}",
                span.apply,
                span.layer,
                span.start.as_nanos() as f64 / 1e3,
                span.end.as_nanos() as f64 / 1e3,
            );
        }
        std::fs::write(&path, text)?;
        Ok(path.display().to_string())
    }
}

fn accumulate(sum: &mut BatchReport, report: &BatchReport) {
    sum.events_ignored += report.events_ignored;
    sum.mappings_coalesced += report.mappings_coalesced;
    sum.merges += report.merges;
    sum.splits += report.splits;
    sum.shards_touched += report.shards_touched;
    sum.shards_rebuilt += report.shards_rebuilt;
    sum.shards_spliced += report.shards_spliced;
    sum.splice_evidence_added += report.splice_evidence_added;
}

fn run_traced(
    workload: Workload,
    seed: u64,
    catalog: &Catalog,
    inputs: &Inputs,
    budget: Duration,
) -> Outcome {
    let mut tracer = Tracer {
        shadow: catalog.clone(),
        analysis: workload.analysis(),
        ..Tracer::default()
    };
    let mut session = builder(workload)
        .backend(tracer.backend.clone())
        .build_sharded(catalog.clone());
    tracer.backend.drain();
    tracer.epoch = Some(Instant::now());
    let drive = drive(
        &mut session,
        inputs,
        workload,
        budget,
        MIN_TRACED_APPLIES,
        Some(&mut tracer),
    );

    let mut notes = Vec::new();
    let mut correct = drive.failed == 0;
    let mut failed = drive.failed;
    notes.extend(drive.failures.iter().cloned());

    // Transparency: the same steps through an untraced session must end in
    // bit-identical posteriors and identical evidence ids.
    let mut plain = builder(workload).build_sharded(catalog.clone());
    let mut plain_total = Duration::ZERO;
    for (step, batch) in inputs.steps[..drive.steps].iter().enumerate() {
        let start = Instant::now();
        let report = black_box(plain.apply_batch(batch));
        plain_total += start.elapsed();
        tracer.slowest_shard += report.slowest_shard;
        // The same reads between applies, as in the traced loop, so the
        // applies compared with the traced ones see the same cache state.
        RouteTally::default().route_all(&plain, read_block(&inputs.queries, workload, step));
    }
    if !tables_identical(session.posteriors(), plain.posteriors())
        || session.merged_evidences() != plain.merged_evidences()
    {
        correct = false;
        failed += 1;
        notes.push("transparency FAILED: traced run differs from the untraced run".into());
    } else {
        notes.push(format!(
            "transparency: {} steps traced and untraced end bit-identical",
            drive.steps
        ));
    }
    match gate(&session, inputs, workload) {
        Ok(note) => notes.push(note),
        Err(message) => {
            correct = false;
            failed += 1;
            notes.push(format!("oracle FAILED: {message}"));
        }
    }
    match tracer.write_spans(workload, seed) {
        Ok(path) => notes.push(format!("{} spans written to {path}", tracer.spans.len())),
        Err(err) => notes.push(format!("spans not written: {err}")),
    }

    let t = &tracer;
    let applies = t.applies.max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / applies;
    let per_apply = |n: usize| n as f64 / applies;
    let per_pass = |n: usize| ratio(n as f64, t.passes as f64);
    let routes = &drive.routes;
    let metrics = vec![
        metric("embedded.infer_ms", ms(t.embedded_infer), "ms"),
        metric("embedded.arena_build_ms", ms(t.arena_build), "ms"),
        metric("embedded.warm_start_ms", ms(t.warm_start), "ms"),
        metric("embedded.rounds_ms", ms(t.rounds_time), "ms"),
        metric("embedded.rounds", per_apply(t.rounds), "count/apply"),
        metric(
            "embedded.ms_per_round",
            ratio(t.rounds_time.as_secs_f64() * 1e3, t.rounds as f64),
            "ms",
        ),
        metric(
            "embedded.messages_per_round",
            ratio(t.message_rounds, t.rounds as f64),
            "count",
        ),
        metric(
            "embedded.unconverged",
            per_pass(t.unconverged),
            "count/pass",
        ),
        metric("local_graph.model_build_ms", ms(t.model_build), "ms"),
        metric("local_graph.variables", per_pass(t.variables), "count/pass"),
        metric("local_graph.evidences", per_pass(t.evidences), "count/pass"),
        metric("posterior.table_build_ms", ms(t.table_build), "ms"),
        metric(
            "cycle_analysis.evidences_added",
            per_apply(t.evidences_added),
            "count/apply",
        ),
        metric(
            "cycle_analysis.evidences_removed",
            per_apply(t.evidences_removed),
            "count/apply",
        ),
        metric(
            "cycle_analysis.evidences_reobserved",
            per_apply(t.evidences_reobserved),
            "count/apply",
        ),
        metric(
            "cycle_analysis.reuse_ratio",
            ratio(
                t.evidences_held.saturating_sub(
                    t.evidences_added + t.evidences_reobserved + t.batch.splice_evidence_added,
                ) as f64,
                t.evidences_held as f64,
            ),
            "ratio",
        ),
        metric("cycle_analysis.analyze_ms", ms(t.analyze), "ms"),
        metric("sharding.apply_ms", ms(t.apply_own), "ms"),
        metric("sharding.self_ms", ms(t.sharding_self), "ms"),
        metric("session.self_ms", ms(t.session_self), "ms"),
        metric("sharding.shard_ms", ms(t.shard_time), "ms"),
        metric("sharding.slowest_shard_ms", ms(t.slowest_shard), "ms"),
        metric(
            "sharding.shards_touched",
            per_apply(t.batch.shards_touched),
            "count/apply",
        ),
        metric(
            "sharding.shards_spliced",
            per_apply(t.batch.shards_spliced),
            "count/apply",
        ),
        metric(
            "sharding.shards_rebuilt",
            per_apply(t.batch.shards_rebuilt),
            "count/apply",
        ),
        metric("sharding.merges", per_apply(t.batch.merges), "count/apply"),
        metric("sharding.splits", per_apply(t.batch.splits), "count/apply"),
        metric(
            "sharding.mappings_coalesced",
            per_apply(t.batch.mappings_coalesced),
            "count/apply",
        ),
        metric(
            "sharding.splice_evidence_added",
            per_apply(t.batch.splice_evidence_added),
            "count/apply",
        ),
        metric(
            "dynamics.apply_event_us",
            ratio(t.apply_event.as_secs_f64() * 1e6, t.events as f64),
            "us",
        ),
        metric(
            "dynamics.events_ignored",
            t.batch.events_ignored as f64,
            "count",
        ),
        metric(
            "routing.route_us",
            ratio(
                routes.latencies_us.iter().sum(),
                routes.latencies_us.len() as f64,
            ),
            "us",
        ),
        metric(
            "routing.decisions_per_query",
            ratio(routes.decisions as f64, routes.latencies_us.len() as f64),
            "count",
        ),
        metric(
            "routing.reached_per_query",
            ratio(routes.reached as f64, routes.latencies_us.len() as f64),
            "count",
        ),
        metric(
            "routing.forward_ratio",
            ratio(routes.forwarded as f64, routes.decisions as f64),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            overhead(t.apply_own.as_secs_f64(), plain_total.as_secs_f64()),
            "ratio",
        ),
    ];
    notes.insert(
        0,
        format!(
            "baseline columns: one-event apply {:.2} ms, warm rounds {:.1}, full analyze {:.2} ms, \
             model build {:.2} ms, arena build {:.2} ms, evidence paths/vars {:.0}/{:.0} \
             ({} traced applies, self times sum to the traced apply time)",
            ms(t.apply_own),
            ratio(t.rounds as f64, t.passes as f64),
            ms(t.analyze),
            ms(t.model_build),
            ms(t.arena_build),
            ratio(t.evidences_held as f64, t.changed_shards as f64),
            per_pass(t.variables),
            t.applies,
        ),
    );
    Outcome {
        correct,
        attempted: drive.steps + routes.latencies_us.len(),
        failed,
        metrics,
        notes,
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Bit identity of two posterior snapshots, entry by entry.
fn tables_identical(a: &PosteriorTable, b: &PosteriorTable) -> bool {
    let fine = |t: &PosteriorTable| -> Vec<(usize, usize, u64)> {
        t.fine_entries()
            .map(|(m, attr, p)| (m.0, attr.0, p.to_bits()))
            .collect()
    };
    let coarse = |t: &PosteriorTable| -> Vec<(usize, u64)> {
        t.coarse_entries()
            .map(|(m, p)| (m.0, p.to_bits()))
            .collect()
    };
    fine(a) == fine(b)
        && coarse(a) == coarse(b)
        && a.default_probability().to_bits() == b.default_probability().to_bits()
}

/// The result line: one JSON object with every metric, value as measured.
fn to_json(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    ))
}
