//! The mega-scale series: simulation throughput and per-node traffic as the
//! flyweight subscriber population grows 1k → 10k → 100k.
//!
//! This is the measurement behind the flyweight edge-peer mode: the headline
//! table prints, per population, the wall time of the whole scenario, the
//! kernel's simulated events per wall-second, and the payload bytes the
//! network moved per node — the two axes (time and space) that the
//! zero-copy datagrams, the arena-indexed kernel and the flyweight
//! representation were built to keep flat-ish per member.
//!
//! Wall-clock use is confined to this crate (`crates/bench/` is detlint
//! D001-exempt): it measures the harness, never simulation behaviour.
//! `TPS_BENCH_SMOKE=1` (set by CI) shrinks the populations so the bench
//! smoke-runs in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simnet::SimDuration;
use ski_rental::harness::Scenario;
use std::time::Duration;
use tps_bench::report::BenchJson;

const SHARDS: usize = 4;
const PUBLISHES: usize = 3;
const SEED: u64 = 2002;

fn smoke() -> bool {
    std::env::var("TPS_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn populations() -> Vec<usize> {
    if smoke() {
        vec![200, 1_000, 2_000]
    } else {
        vec![1_000, 10_000, 100_000]
    }
}

struct ScaleRow {
    population: usize,
    wall: Duration,
    events: u64,
    events_per_sec: f64,
    wire_bytes_per_node: f64,
    delivered: u64,
    missing: usize,
}

/// One full scenario at `population` flyweight subscribers: build, lease,
/// publish `PUBLISHES` offers, drain, and read the kernel's books.
fn run_population(population: usize) -> ScaleRow {
    let start = std::time::Instant::now();
    let mut scenario = Scenario::build_flyweight_mesh(SHARDS, 1, population, SEED);
    scenario.advance(SimDuration::from_secs(8));
    for _ in 0..PUBLISHES {
        scenario.publish_one(0);
        scenario.advance(SimDuration::from_secs(3));
    }
    scenario.advance(SimDuration::from_secs(5));
    let wall = start.elapsed();

    let stats = scenario.network().total_stats();
    let events = scenario.network().events_processed();
    let nodes = (SHARDS + 1 + population) as f64;
    let missing = (0..population)
        .filter(|&i| scenario.received_count(i) != PUBLISHES)
        .count();
    ScaleRow {
        population,
        wall,
        events,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        wire_bytes_per_node: stats.bytes_sent as f64 / nodes,
        delivered: stats.datagrams_delivered,
        missing,
    }
}

fn series_table() {
    println!(
        "\nmega-scale series: {SHARDS}-shard rendezvous mesh, {PUBLISHES} publishes, \
         flyweight subscribers, seed {SEED}{}",
        if smoke() { ", SMOKE" } else { "" }
    );
    println!(
        "{:>12} {:>10} {:>16} {:>16} {:>12} {:>8}",
        "subscribers", "wall", "sim events/sec", "wire bytes/node", "delivered", "missing"
    );
    let mut json = BenchJson::new("scale_population");
    json.meta_num("seed", SEED as f64)
        .meta_num("shards", SHARDS as f64)
        .meta_num("publishes", PUBLISHES as f64)
        .meta_str("mode", if smoke() { "smoke" } else { "full" });
    for population in populations() {
        let row = run_population(population);
        println!(
            "{:>12} {:>9.2}s {:>16.0} {:>16.1} {:>12} {:>8}",
            row.population,
            row.wall.as_secs_f64(),
            row.events_per_sec,
            row.wire_bytes_per_node,
            row.delivered,
            row.missing
        );
        json.row()
            .num("subscribers", row.population as f64)
            .num("wall_secs", row.wall.as_secs_f64())
            .num("sim_events", row.events as f64)
            .num("sim_events_per_sec", row.events_per_sec)
            .num("wire_bytes_per_node", row.wire_bytes_per_node)
            .num("delivered", row.delivered as f64)
            .num("missing", row.missing as f64);
        assert_eq!(
            row.missing, 0,
            "{} subscribers: every flyweight must receive all {} publishes",
            row.population, PUBLISHES
        );
        assert!(
            row.events >= (row.population * PUBLISHES) as u64,
            "the kernel must have simulated at least one event per (subscriber, publish)"
        );
    }
    json.write_and_announce();
}

fn bench(c: &mut Criterion) {
    series_table();
    // Criterion timing on the smallest population only: the table above
    // already covers the big shapes once each, and iterating a 100k build
    // inside the sampler would take minutes for no extra signal.
    let population = if smoke() { 200 } else { 1_000 };
    let mut group = c.benchmark_group("scale_population");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    group.bench_with_input(
        BenchmarkId::new("flyweight-mesh", population),
        &population,
        |b, &population| {
            b.iter(|| run_population(population));
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
