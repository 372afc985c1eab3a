//! Ablation — side-relation guidance (factorization ordering) on vs. off:
//! nodes explored and wall time of the branch-and-bound search.

use criterion::{criterion_group, criterion_main, Criterion};
use symmap_core::decompose::{Mapper, MapperConfig};
use symmap_libchar::catalog;
use symmap_mp3::synthesis;
use symmap_platform::machine::Badge4;

fn bench(c: &mut Criterion) {
    let badge = Badge4::new();
    let library = catalog::full_catalog(&badge);
    let target = synthesis::synthesis_polynomial(0);
    let guided = Mapper::new(&library, MapperConfig::default());
    let unguided = Mapper::new(
        &library,
        MapperConfig {
            use_guidance: false,
            ..MapperConfig::default()
        },
    );
    c.bench_function("ablation/guidance_on", |b| {
        b.iter(|| guided.map_polynomial(&target).unwrap())
    });
    c.bench_function("ablation/guidance_off", |b| {
        b.iter(|| unguided.map_polynomial(&target).unwrap())
    });
    let on = guided.map_polynomial(&target).unwrap();
    let off = unguided.map_polynomial(&target).unwrap();
    println!(
        "\nguidance ablation: nodes explored {} (guided) vs {} (unguided); same winner: {}\n",
        on.nodes_explored,
        off.nodes_explored,
        on.element_names() == off.element_names()
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
