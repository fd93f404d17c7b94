//! Ablation A4: dissemination-strategy sweep. Re-runs the Figure 18
//! experiment (publisher-side invocation time) under each dissemination
//! strategy at 1–32 subscribers, plus the sharded rendezvous-mesh series at
//! N ∈ {1, 2, 4, 8} shards.
//!
//! The interesting output is the *virtual* invocation time table printed
//! before the wall-clock samples: DirectFanout grows linearly with the
//! subscriber count (the paper's Figure 18 trend), RendezvousMesh at one
//! shard stays flat (the publisher sends O(1) copies and the fan-out cost
//! moves to the rendezvous), and Gossip sits in between, governed by its
//! fanout. The mesh table shows publisher copies independent of the
//! subscriber count while the per-rendezvous fan-out shrinks ≈ subscribers/N
//! (plus the N-1 mesh links).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ski_rental::harness::{
    dissemination_comparison, invocation_time_with_dissemination, mesh_fanout_report,
    trace_latency_comparison,
};
use ski_rental::{DisseminationConfig, Flavor, StrategyKind};
use std::time::Duration;
use tps_bench::report::BenchJson;

const SEED: u64 = 2002;

/// `TPS_BENCH_SMOKE=1` (set by CI) shrinks the sweep so the bench
/// smoke-runs in seconds while still exercising every strategy and the
/// mesh code paths — bench rot shows up as a compile or runtime failure.
fn smoke() -> bool {
    std::env::var("TPS_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn subscriber_counts() -> &'static [usize] {
    if smoke() {
        &[1, 4]
    } else {
        &[1, 2, 4, 8, 16, 32]
    }
}

fn mesh_shards() -> &'static [usize] {
    if smoke() {
        &[1, 2]
    } else {
        &[1, 2, 4, 8]
    }
}

fn events() -> usize {
    if smoke() {
        2
    } else {
        5
    }
}

fn virtual_time_table(json: &mut BenchJson) {
    let events = events();
    println!("\nvirtual publisher invocation time (ms/event, mean of {events} events, seed {SEED})");
    let sweeps: Vec<Vec<(StrategyKind, f64)>> = subscriber_counts()
        .iter()
        .map(|&subs| dissemination_comparison(Flavor::SrTps, subs, events, SEED))
        .collect();
    print!("{:<18}", "strategy");
    for subs in subscriber_counts() {
        print!("{subs:>9}");
    }
    println!();
    for (row, kind) in StrategyKind::ALL.into_iter().enumerate() {
        print!("{:<18}", kind.label());
        for (sweep, &subs) in sweeps.iter().zip(subscriber_counts()) {
            print!("{:>9.1}", sweep[row].1);
            json.row()
                .str("table", "invocation_time")
                .str("strategy", kind.label())
                .num("subscribers", subs as f64)
                .num("ms_per_event", sweep[row].1);
        }
        println!();
    }
}

fn mesh_series_table(json: &mut BenchJson) {
    println!("\nrendezvous-mesh cost structure (16 subscribers unless noted, seed {SEED})");
    println!(
        "{:>7} {:>12} {:>15} {:>17} {:>11} {:>10}",
        "shards", "subscribers", "pub copies", "max rdv fan-out", "max leases", "delivered"
    );
    let sub_series: &[usize] = if smoke() { &[16] } else { &[16, 32] };
    for &shards in mesh_shards() {
        for &subs in sub_series {
            let report = mesh_fanout_report(subs, shards, events(), SEED);
            println!(
                "{:>7} {:>12} {:>15} {:>17} {:>11} {:>9.0}%",
                report.shards,
                report.subscribers,
                report.publisher_copies,
                report.max_rendezvous_fanout,
                report.max_rendezvous_clients,
                report.delivered_ratio * 100.0
            );
            json.row()
                .str("table", "mesh_fanout")
                .num("shards", report.shards as f64)
                .num("subscribers", report.subscribers as f64)
                .num("publisher_copies", report.publisher_copies as f64)
                .num("max_rendezvous_fanout", report.max_rendezvous_fanout as f64)
                .num("max_rendezvous_clients", report.max_rendezvous_clients as f64)
                .num("delivered_ratio", report.delivered_ratio);
        }
    }
}

/// The `trace_latency` series: end-to-end *virtual* delivery latency
/// (publish span → delivery span, one sample per subscriber per event) per
/// strategy, from the causal tracing plane. The complement of the
/// publisher-side table above — DirectFanout's cheap overlay hops give the
/// lowest end-to-end latency at small fan-outs, while the rendezvous
/// strategies trade a relay hop for the flat publisher cost.
fn trace_latency_table(json: &mut BenchJson) {
    let subs = if smoke() { 4 } else { 16 };
    let events = events();
    println!("\nend-to-end virtual delivery latency (ms, {subs} subscribers, {events} events, seed {SEED})");
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>9}",
        "strategy", "samples", "p50", "p99", "max"
    );
    for (kind, summary) in trace_latency_comparison(Flavor::SrTps, subs, events, SEED) {
        println!(
            "{:<18} {:>9} {:>9.1} {:>9.1} {:>9.1}",
            kind.label(),
            summary.count,
            summary.p50,
            summary.p99,
            summary.max
        );
        json.row()
            .str("table", "trace_latency")
            .str("strategy", kind.label())
            .num("subscribers", subs as f64)
            .num("samples", summary.count as f64)
            .num("p50_ms", summary.p50)
            .num("p99_ms", summary.p99)
            .num("max_ms", summary.max);
    }
}

fn bench(c: &mut Criterion) {
    let mut json = BenchJson::new("ablation_dissem");
    json.meta_num("seed", SEED as f64)
        .meta_str("mode", if smoke() { "smoke" } else { "full" });
    virtual_time_table(&mut json);
    mesh_series_table(&mut json);
    trace_latency_table(&mut json);
    json.write_and_announce();
    let mut group = c.benchmark_group("ablation_dissem");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    for kind in StrategyKind::ALL {
        for &subs in subscriber_counts() {
            group.bench_with_input(BenchmarkId::new(kind.label(), subs), &subs, |b, &subs| {
                b.iter(|| {
                    invocation_time_with_dissemination(
                        Flavor::SrTps,
                        DisseminationConfig::of_kind(kind),
                        subs,
                        events(),
                        SEED,
                    )
                });
            });
        }
    }
    for &shards in mesh_shards() {
        group.bench_with_input(BenchmarkId::new("mesh-shards", shards), &shards, |b, &shards| {
            b.iter(|| mesh_fanout_report(16, shards, events(), SEED));
        });
    }
    let trace_subs = if smoke() { 4 } else { 16 };
    group.bench_with_input(
        BenchmarkId::new("trace-latency", trace_subs),
        &trace_subs,
        |b, &subs| b.iter(|| trace_latency_comparison(Flavor::SrTps, subs, events(), SEED)),
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
