//! Graph set-up benchmark: RMAT generation (quadrant sampling plus the
//! counting-sort CSR build) in edges per second, at the 2^18-vertex,
//! degree-12 scale the `graph_sweep` workload builds.

use cosmos_bench::{criterion_group, criterion_main, Criterion, Throughput};
use cosmos_workloads::graph::{Graph, GraphKind};
use std::hint::black_box;

const VERTICES: usize = 1 << 18;
const DEGREE: usize = 12;

fn bench_graph_gen(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph_gen");
    g.throughput(Throughput::Elements((VERTICES * DEGREE) as u64));
    g.bench_function("rmat_2^18x12", |b| {
        b.iter(|| {
            let graph = Graph::generate(GraphKind::Rmat, VERTICES, DEGREE, black_box(42));
            graph.num_edges()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_graph_gen
}
criterion_main!(benches);
