//! Small-scale versions of the paper's evaluation, asserting that the *shape*
//! of every figure holds: who wins, by roughly what factor, and how the
//! curves move with the number of peers.

use ski_rental::{
    invocation_time, loc_report, mesh_fanout_report, publisher_throughput, stats, subscriber_throughput,
    Flavor,
};

#[test]
fn figure_18_shape_wire_fastest_and_sr_layers_close() {
    let wire = stats(&invocation_time(Flavor::JxtaWire, 1, 40, 2002)).mean;
    let sr_jxta = stats(&invocation_time(Flavor::SrJxta, 1, 40, 2002)).mean;
    let sr_tps = stats(&invocation_time(Flavor::SrTps, 1, 40, 2002)).mean;
    assert!(
        wire < sr_jxta && wire < sr_tps,
        "JXTA-WIRE must be the fastest layer"
    );
    let gap = (sr_tps - sr_jxta).abs() / sr_jxta;
    assert!(
        gap < 0.10,
        "SR-TPS and SR-JXTA should be within ~10% (measured gap {gap:.3})"
    );
    // Same order of magnitude as the paper (hundreds of milliseconds).
    assert!(sr_tps > 100.0 && sr_tps < 1_000.0);
}

#[test]
fn figure_18_shape_invocation_time_grows_with_subscribers() {
    let one = stats(&invocation_time(Flavor::SrJxta, 1, 10, 7)).mean;
    let four = stats(&invocation_time(Flavor::SrJxta, 4, 10, 7)).mean;
    assert!(
        four > one * 2.0,
        "4 subscribers should be at least 2x slower than 1 ({one:.1} -> {four:.1})"
    );
}

#[test]
fn figure_19_shape_throughput_drops_with_subscribers_and_layers_converge() {
    let wire_1 = stats(&publisher_throughput(Flavor::JxtaWire, 1, 30, 3, 2002)).mean;
    let tps_1 = stats(&publisher_throughput(Flavor::SrTps, 1, 30, 3, 2002)).mean;
    let wire_4 = stats(&publisher_throughput(Flavor::JxtaWire, 4, 30, 3, 2002)).mean;
    let tps_4 = stats(&publisher_throughput(Flavor::SrTps, 4, 30, 3, 2002)).mean;
    assert!(wire_1 > tps_1, "wire outpaces SR-TPS with one subscriber");
    assert!(
        wire_4 < wire_1 && tps_4 < tps_1,
        "more subscribers lower the publisher's rate"
    );
    // The absolute gap between layers shrinks as subscribers increase.
    assert!((wire_4 - tps_4) < (wire_1 - tps_1));
}

#[test]
fn figure_20_shape_subscriber_saturates_and_drops_with_more_publishers() {
    let one = stats(&subscriber_throughput(Flavor::SrTps, 1, 20, 2002)).mean;
    let four = stats(&subscriber_throughput(Flavor::SrTps, 4, 20, 2002)).mean;
    assert!(
        one > 3.0 && one < 10.0,
        "1-publisher rate should be a few events/sec ({one:.2})"
    );
    assert!(
        four < one / 2.0,
        "4 publishers should cut the received rate by ~2-3x ({one:.2} -> {four:.2})"
    );
}

#[test]
fn mesh_series_publisher_flat_and_fanout_sharded() {
    // The `mesh` section of `reproduce`: publisher copies stay flat in the
    // subscriber count while the per-rendezvous fan-out shrinks as the shard
    // count N grows.
    const SEED: u64 = 2002;
    // Publisher copies do not grow with subscribers (O(1) at any N).
    for shards in [1usize, 2, 4, 8] {
        let small = mesh_fanout_report(4, shards, 2, SEED);
        let large = mesh_fanout_report(32, shards, 2, SEED);
        assert_eq!(small.publisher_copies, 1, "N={shards}: one copy at 4 subscribers");
        assert_eq!(
            large.publisher_copies, small.publisher_copies,
            "N={shards}: publisher copies must be flat in the subscriber count"
        );
        assert_eq!(large.mesh_links, shards - 1, "full mesh keeps N-1 links");
        assert!(
            (large.delivered_ratio - 1.0).abs() < f64::EPSILON,
            "N={shards}: the mesh must stay exactly-once complete"
        );
        // Per-rendezvous fan-out ≈ subscribers/N + mesh links. The publisher
        // also holds a lease, and uncoordinated hash sharding balances only
        // up to the usual √(s/N) wobble, so the certified bound is the
        // classic within-2x-of-perfect-split one.
        let bound = 2 * (32usize + 1).div_ceil(shards) + large.mesh_links;
        assert!(
            large.max_rendezvous_fanout <= bound,
            "N={shards}: max per-rendezvous fan-out {} exceeds 2*ceil(33/N)+mesh = {bound}",
            large.max_rendezvous_fanout
        );
    }
    // At a fixed subscriber count the per-shard client load strictly shrinks
    // as N grows (16 subscribers: 17 -> ... -> ~4).
    let loads: Vec<usize> = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| mesh_fanout_report(16, n, 2, SEED).max_rendezvous_clients)
        .collect();
    assert!(
        loads.windows(2).all(|w| w[1] < w[0]),
        "per-rendezvous client load must shrink as N grows: {loads:?}"
    );
}

#[test]
fn section_4_4_tps_saves_application_code() {
    let report = loc_report();
    assert!(report.tps_user_loc < report.jxta_user_loc);
    assert!(report.full_api_savings() > 1_000);
}
