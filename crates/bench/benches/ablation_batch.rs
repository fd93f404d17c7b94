//! Ablation A5: batched publication. `Publisher::publish_batch` marshals N
//! events into **one** wire message, so the publisher pays the per-message
//! charges (connection service per listener, padding) once per batch instead
//! of once per event.
//!
//! The interesting output is the *virtual* invocation-time table printed
//! before the wall-clock samples: under DirectFanout at 64 events the total
//! publisher time collapses from `64 × listeners × service` to roughly
//! `listeners × service`, flattening the per-event cost; the same holds on
//! a one-shard RendezvousMesh, where the publisher side is already O(1)
//! copies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ski_rental::harness::batch_comparison;
use ski_rental::{DisseminationConfig, Flavor, StrategyKind};
use std::time::Duration;
use tps_bench::report::BenchJson;

const BATCH_SIZES: [usize; 4] = [4, 16, 64, 256];
const SUBSCRIBERS: usize = 4;
const SEED: u64 = 2002;

fn virtual_time_table() {
    println!(
        "\nvirtual publisher invocation time for N events, singles vs one batch \
         ({SUBSCRIBERS} subscribers, DirectFanout, seed {SEED})"
    );
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>9}",
        "events", "singles (ms)", "batch (ms)", "ms/event", "speedup"
    );
    let mut json = BenchJson::new("ablation_batch");
    json.meta_num("seed", SEED as f64)
        .meta_num("subscribers", SUBSCRIBERS as f64)
        .meta_str("strategy", "direct-fanout");
    for events in BATCH_SIZES {
        let (singles, batch) = batch_comparison(
            Flavor::SrTps,
            DisseminationConfig::direct_fanout(),
            SUBSCRIBERS,
            events,
            SEED,
        );
        println!(
            "{:>8} {:>14.1} {:>14.1} {:>14.2} {:>8.1}x",
            events,
            singles,
            batch,
            batch / events as f64,
            singles / batch
        );
        json.row()
            .num("events", events as f64)
            .num("singles_ms", singles)
            .num("batch_ms", batch)
            .num("batch_ms_per_event", batch / events as f64)
            .num("speedup", singles / batch);
    }
    json.write_and_announce();
}

fn bench(c: &mut Criterion) {
    virtual_time_table();
    let mut group = c.benchmark_group("ablation_batch");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    for kind in [StrategyKind::DirectFanout, StrategyKind::RendezvousMesh] {
        for events in [16usize, 64] {
            group.bench_with_input(
                BenchmarkId::new(format!("{}_batch", kind.label()), events),
                &events,
                |b, &events| {
                    b.iter(|| {
                        batch_comparison(
                            Flavor::SrTps,
                            DisseminationConfig::of_kind(kind),
                            SUBSCRIBERS,
                            events,
                            SEED,
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
