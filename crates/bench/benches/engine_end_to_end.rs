//! Criterion bench: end-to-end session build (topology → analysis → model →
//! inference) on synthetic clustered networks of increasing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdms_core::{AnalysisConfig, EmbeddedConfig, Engine};
use pdms_graph::GeneratorConfig;
use pdms_workloads::{SyntheticConfig, SyntheticNetwork};

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_end_to_end");
    group.sample_size(10);
    for &peers in &[8usize, 16, 24] {
        let network = SyntheticNetwork::generate(SyntheticConfig {
            topology: GeneratorConfig::small_world(peers, 2, 0.2, 5),
            attributes: 10,
            error_rate: 0.15,
            seed: 9,
        });
        group.bench_with_input(BenchmarkId::new("run", peers), &peers, |b, _| {
            b.iter(|| {
                Engine::builder()
                    .delta(0.1)
                    .analysis(AnalysisConfig {
                        max_cycle_len: 5,
                        max_path_len: 3,
                        include_parallel_paths: true,
                        ..Default::default()
                    })
                    .embedded(EmbeddedConfig {
                        max_rounds: 30,
                        ..Default::default()
                    })
                    .build_sharded(network.catalog.clone())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
