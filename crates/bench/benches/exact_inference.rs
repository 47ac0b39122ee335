//! Criterion bench: the exact oracle (brute-force enumeration) vs. the loopy
//! approximation, on the growing-cycle models of Figure 8.
//!
//! This is the ablation behind using loopy belief propagation at all: enumeration is
//! exponential in the number of variables (and refuses graphs past its cap), while a
//! bounded number of loopy rounds costs time linear in the factor-graph edges.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdms_core::{AnalysisConfig, CycleAnalysis, Granularity, MappingModel, PriorStore};
use pdms_factor::{exact_marginals, run_sum_product, SumProductConfig};
use pdms_workloads::growing_cycle;
use std::collections::BTreeMap;

fn bench_exact_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_inference");
    group.sample_size(20);
    for &extra in &[0usize, 4, 8] {
        // The Figure 8 construction: the example graph with `extra` peers spliced into
        // the long cycle. Build the global factor graph once per size.
        let (catalog, _) = growing_cycle(extra);
        let analysis = CycleAnalysis::analyze(
            &catalog,
            &AnalysisConfig {
                max_cycle_len: 6 + extra,
                max_path_len: 4 + extra,
                include_parallel_paths: true,
                ..Default::default()
            },
        );
        let model = MappingModel::build(&catalog, &analysis, Granularity::Coarse, 0.1);
        let priors: BTreeMap<_, _> = PriorStore::with_default(0.8).snapshot();
        let graph = model.global_factor_graph(&priors, 0.8);
        let variables = graph.variable_count();

        if variables <= 20 {
            group.bench_with_input(
                BenchmarkId::new("enumeration", variables),
                &graph,
                |b, graph| b.iter(|| exact_marginals(graph)),
            );
        }
        group.bench_with_input(
            BenchmarkId::new("loopy_bp", variables),
            &graph,
            |b, graph| {
                b.iter(|| {
                    run_sum_product(
                        graph,
                        SumProductConfig {
                            max_iterations: 10,
                            record_history: false,
                            ..Default::default()
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_exact_backends);
criterion_main!(benches);
