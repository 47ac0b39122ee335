//! Emits `BENCH_shard_scaling.json`: the committed record of the component-sharded
//! engine against the single-session engine.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release -p pdms-bench --bin bench_shard_scaling
//! ```
//!
//! Three comparisons per fixture (see `pdms_bench::shard_scaling` for the
//! methodology): measured churn throughput (single session re-inferring the whole
//! model per batch vs. sharded session re-inferring touched shards only), measured
//! batching win (one batch per epoch vs. one batch per event), and the parallel
//! dispatch tail modeled from serially measured per-shard cold-build costs.

use pdms_bench::shard_scaling::{
    best_of, build_sharded, modeled_dispatch_tail, per_shard_build_costs, standard_fixtures,
    time_sharded_churn, time_sharded_per_event, time_single_build, time_single_churn,
};

const REPEATS: usize = 5;
const WORKER_POOLS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let mut entries = Vec::new();
    for fixture in standard_fixtures() {
        eprintln!("measuring {} ...", fixture.name);
        let sharded = build_sharded(&fixture);
        let components = sharded.shard_count();
        let evidences = sharded.evidence_count();
        let events: usize = fixture.epochs.iter().map(Vec::len).sum();

        let single_churn = best_of(REPEATS, || time_single_churn(&fixture));
        let sharded_churn = best_of(REPEATS, || time_sharded_churn(&fixture));
        let per_event = best_of(REPEATS, || time_sharded_per_event(&fixture));
        let single_build = best_of(REPEATS, || time_single_build(&fixture));
        let costs = per_shard_build_costs(&fixture);

        let pools = WORKER_POOLS
            .iter()
            .map(|&workers| {
                let tail = modeled_dispatch_tail(&costs, workers);
                format!(
                    concat!(
                        "        {{\n",
                        "          \"workers\": {workers},\n",
                        "          \"modeled_build_tail_ms\": {tail:.3},\n",
                        "          \"speedup_vs_single_build\": {speedup:.2}\n",
                        "        }}"
                    ),
                    workers = workers,
                    tail = tail.as_secs_f64() * 1e3,
                    speedup =
                        single_build.as_secs_f64() / tail.as_secs_f64().max(f64::MIN_POSITIVE),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");

        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"fixture\": \"{name}\",\n",
                "      \"peers\": {peers},\n",
                "      \"mappings\": {mappings},\n",
                "      \"components\": {components},\n",
                "      \"evidences\": {evidences},\n",
                "      \"churn_epochs\": {epochs},\n",
                "      \"churn_events\": {events},\n",
                "      \"single_session_churn_ms\": {single_churn:.3},\n",
                "      \"sharded_churn_ms\": {sharded_churn:.3},\n",
                "      \"churn_speedup\": {churn_speedup:.2},\n",
                "      \"sharded_per_event_ms\": {per_event:.3},\n",
                "      \"batching_speedup\": {batching_speedup:.2},\n",
                "      \"single_build_ms\": {single_build:.3},\n",
                "      \"shard_dispatch\": [\n{pools}\n      ]\n",
                "    }}"
            ),
            name = fixture.name,
            peers = fixture.catalog.peer_count(),
            mappings = fixture.catalog.mapping_count(),
            components = components,
            evidences = evidences,
            epochs = fixture.epochs.len(),
            events = events,
            single_churn = single_churn.as_secs_f64() * 1e3,
            sharded_churn = sharded_churn.as_secs_f64() * 1e3,
            churn_speedup =
                single_churn.as_secs_f64() / sharded_churn.as_secs_f64().max(f64::MIN_POSITIVE),
            per_event = per_event.as_secs_f64() * 1e3,
            batching_speedup =
                per_event.as_secs_f64() / sharded_churn.as_secs_f64().max(f64::MIN_POSITIVE),
            single_build = single_build.as_secs_f64() * 1e3,
            pools = pools,
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"shard_scaling\",\n",
            "  \"command\": \"cargo run --release -p pdms-bench --bin bench_shard_scaling\",\n",
            "  \"baseline\": \"single EngineSession over the whole catalog (whole-model reinference per batch)\",\n",
            "  \"candidate\": \"ShardedSession: one EngineSession per weakly connected component, batched ingestion, per-shard dispatch\",\n",
            "  \"methodology\": \"churn + batching measured serially (shard_parallelism = 1, sound on 1-core hosts); parallel dispatch tail modeled by replaying serially measured per-shard cold-build costs over w-worker greedy-stealing pools (tail = max per-worker busy time)\",\n",
            "  \"repeats\": {repeats},\n",
            "  \"fixtures\": [\n{entries}\n  ]\n",
            "}}\n"
        ),
        repeats = REPEATS,
        entries = entries.join(",\n"),
    );
    let path = "BENCH_shard_scaling.json";
    std::fs::write(path, &json).expect("write BENCH_shard_scaling.json");
    println!("{json}");
    eprintln!("wrote {path}");
}
