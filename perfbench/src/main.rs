//! The repo benchmark's one runner (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! ```
//!
//! Prints every metric by name with its unit and the clock it was read on,
//! checks the workload's outputs, and ends with one JSON object on the last
//! line of standard output. Exits non-zero on a correctness failure.
//!
//! Two clocks: **virtual** metrics are what the modelled JXTA/TPS deployment
//! would take (exact per seed); **host** metrics are what the simulator
//! costs to run (noisy). `--trace 0` reports the end-to-end metrics from
//! untraced reps; `--trace 1` repeats a rep with the benchmark's own spans
//! on, replays every layer's public functions, and reports the per-layer
//! metrics.

mod alloc;
mod clock;
mod layers;
mod spans;
mod stats;
mod workloads;

use layers::LayerCosts;
use spans::Spans;
use stats::median;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{run_rep, Rep, RepOptions, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The seed the sizing numbers in `README.md` were taken at.
const DEFAULT_SEED: u64 = 2002;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds) = (DEFAULT_SEED, DEFAULT_SECONDS);
    let (mut trace, mut smoke) = (false, false);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(Workload::from_name(&name).ok_or(format!(
                    "unknown workload {name:?}; one of {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => {
                seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        out,
    })
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// `host` or `virtual`.
    clock: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str, clock: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        clock,
    }
}

fn median_of(reps: &[Rep], field: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(field).collect::<Vec<_>>())
}

/// The end-to-end metrics, from the untraced reps of every derived seed
/// (one group each), so that one run already averages out what differs from
/// seed to seed.
///
/// The two timings are noisy: median over a group's reps, then median over
/// the groups. Everything else repeats exactly at one seed (heap and
/// allocator counts too), so there is no outlier to guard against and the
/// mean over the groups is the steadier figure — `paper_direct`'s control
/// traffic falls into one of two modes per seed, and a median of eight
/// flips between them.
fn end_to_end(groups: &[Vec<Rep>]) -> Vec<Metric> {
    let timing = |name, field: &dyn Fn(&Rep) -> f64| {
        let per_group: Vec<f64> = groups.iter().map(|g| median_of(g, field)).collect();
        metric(name, median(&per_group), "s", "host")
    };
    let exact = |name, unit, clock, field: &dyn Fn(&Rep) -> f64| {
        let per_group: Vec<f64> = groups.iter().map(|g| field(&g[0])).collect();
        metric(name, stats::mean(&per_group), unit, clock)
    };
    vec![
        timing("setup_s", &|r| r.setup_s),
        timing("run_s", &|r| r.run_s),
        exact("peak_heap_mb", "MB", "host", &|r| r.peak_heap_bytes as f64 / 1e6),
        exact("allocs_per_delivery", "count", "host", &|r| {
            r.run_allocs as f64 / r.virt.delivered as f64
        }),
        exact("deliver_latency_ms_p50", "virtual_ms", "virtual", &|r| {
            r.virt.latency_p50_us as f64 / 1e3
        }),
        exact("deliver_latency_ms_p99", "virtual_ms", "virtual", &|r| {
            r.virt.latency_p99_us as f64 / 1e3
        }),
        exact("wire_copies_per_delivery", "count", "virtual", &|r| {
            r.virt.books.datagrams_sent as f64 / r.virt.delivered as f64
        }),
        exact("wire_bytes_per_delivery", "bytes", "virtual", &|r| {
            r.virt.books.bytes_sent as f64 / r.virt.delivered as f64
        }),
        exact("delivered_share", "ratio", "virtual", &|r| {
            r.virt.delivered as f64 / r.virt.expected as f64
        }),
    ]
}

/// `utime` and `stime` of this process in clock ticks, from
/// `/proc/self/stat`; zeros where there is no procfs.
fn cpu_ticks() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut next = || fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (next(), next())
}

/// Peak resident set in MB, from `/proc/self/status`; 0 without procfs.
fn max_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Everything the traced pass measured.
struct TracedPass {
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    /// `mesh_churn` with its planes off; empty elsewhere.
    planes_off: Vec<Rep>,
    costs: LayerCosts,
    /// The spans of the traced reps; a rep's id is its index in `traced`.
    spans: Spans,
}

/// The per-layer metrics, from the traced pass.
fn per_layer(workload: Workload, pass: &TracedPass) -> Vec<Metric> {
    let rep = pass.traced.last().expect("one traced rep ran");
    let virt = &rep.virt;
    let books = virt.books;
    let counts = rep.counts.expect("the traced rep collects counts");
    let costs = pass.costs;
    let delivered = virt.delivered as f64;
    let run_s = median_of(&pass.untraced, |r| r.run_s);
    let traced_run_s = median_of(&pass.traced, |r| r.run_s);
    let run_ns = run_s * 1e9;
    let planes = workload.uses_planes();
    let plane_overhead_share = if planes {
        (run_s - median_of(&pass.planes_off, |r| r.run_s)) / run_s
    } else {
        0.0
    };
    let why_missing_us = if virt.verdicts > 0 {
        median_of(&pass.untraced, |r| r.forensics_s) * 1e6 / virt.verdicts as f64
    } else {
        0.0
    };
    let simnet_share = costs.kernel_ns_per_event * books.events as f64 / run_ns;
    let decode_share = costs.wire_decode_ns * books.datagrams_delivered as f64 / run_ns;
    let codec_share = (costs.marshal_ns * counts.tps_published as f64
        + costs.unmarshal_ns * counts.tps_delivered as f64)
        / run_ns;
    let (utime, stime) = cpu_ticks();
    let span_s = |name: &str| pass.spans.total_s(name, pass.traced.len() as u32 - 1);
    let count = |name, value: u64| metric(name, value as f64, "count", "virtual");
    vec![
        count("simnet.events", books.events),
        metric(
            "simnet.timer_share",
            books.timers as f64 / books.events as f64,
            "ratio",
            "virtual",
        ),
        metric(
            "simnet.events_per_delivery",
            books.events as f64 / delivered,
            "count",
            "virtual",
        ),
        count("simnet.datagrams_delivered", books.datagrams_delivered),
        count("simnet.datagrams_dropped", books.datagrams_dropped),
        count("simnet.queue_len_end", counts.queue_len_end),
        metric(
            "simnet.host_us_per_event",
            run_s * 1e6 / books.events as f64,
            "us",
            "host",
        ),
        metric(
            "simnet.kernel_ns_per_event",
            costs.kernel_ns_per_event,
            "ns",
            "host",
        ),
        metric("simnet.build_ns_per_node", costs.build_ns_per_node, "ns", "host"),
        metric("simnet.est_share", simnet_share, "ratio", "host"),
        metric("jxta.wire_encode_ns", costs.wire_encode_ns, "ns", "host"),
        metric("jxta.wire_decode_ns", costs.wire_decode_ns, "ns", "host"),
        metric("jxta.message_decode_ns", costs.message_decode_ns, "ns", "host"),
        metric("jxta.xml_parse_ns", costs.xml_parse_ns, "ns", "host"),
        metric(
            "jxta.fan_down_ns_per_lease",
            costs.fan_down_ns_per_lease,
            "ns",
            "host",
        ),
        count("jxta.wire_forwarded", counts.wire_forwarded),
        count("jxta.duplicates", counts.jxta_duplicates),
        count("jxta.mesh_hellos", counts.mesh_hellos),
        count("jxta.leases_per_shard_max", counts.leases_per_shard_max),
        metric("jxta.decode_est_share", decode_share, "ratio", "host"),
        metric("dissem.plan_publish_ns", costs.plan_publish_ns, "ns", "host"),
        metric("dissem.plan_forward_ns", costs.plan_forward_ns, "ns", "host"),
        metric(
            "dissem.publisher_copies_per_event",
            books.publisher_datagrams as f64 / counts.tps_published.max(1) as f64,
            "count",
            "virtual",
        ),
        metric("dissem.adoption_map_ns", costs.adoption_map_ns, "ns", "host"),
        metric(
            "dissem.recovery_virtual_s",
            virt.recovery_us as f64 / 1e6,
            "virtual_s",
            "virtual",
        ),
        metric("tps.marshal_ns", costs.marshal_ns, "ns", "host"),
        metric("tps.unmarshal_ns", costs.unmarshal_ns, "ns", "host"),
        metric("tps.upcast_ns", costs.upcast_ns, "ns", "host"),
        count("tps.events_published", counts.tps_published),
        count("tps.events_delivered", counts.tps_delivered),
        count("tps.duplicates_dropped", counts.tps_duplicates_dropped),
        count("tps.mailbox_depth_max", counts.mailbox_depth_max),
        metric(
            "tps.publish_invocation_ms_p50",
            virt.invocation_p50_us as f64 / 1e3,
            "virtual_ms",
            "virtual",
        ),
        metric("tps.codec_est_share", codec_share, "ratio", "host"),
        metric("telemetry.record_tick_us", counts.record_tick_us, "us", "host"),
        metric("telemetry.why_missing_us", why_missing_us, "us", "host"),
        metric(
            "telemetry.registry_snapshot_us",
            counts.registry_snapshot_us,
            "us",
            "host",
        ),
        metric(
            "telemetry.series_bytes",
            counts.series_bytes as f64,
            "bytes",
            "virtual",
        ),
        count("telemetry.series_count", counts.series_count),
        count("telemetry.alerts_opened", counts.alerts_opened),
        metric(
            "telemetry.plane_overhead_share",
            plane_overhead_share,
            "ratio",
            "host",
        ),
        metric("ski-rental.build_s", span_s("build"), "s", "host"),
        metric("ski-rental.warm_up_s", span_s("warm_up"), "s", "host"),
        metric("ski-rental.publish_s", span_s("publish"), "s", "host"),
        metric("ski-rental.advance_s", span_s("advance"), "s", "host"),
        metric("ski-rental.forensics_s", span_s("forensics"), "s", "host"),
        metric("ski-rental.drop_s", span_s("drop"), "s", "host"),
        metric("ski-rental.deliveries_per_s", delivered / run_s, "1/s", "host"),
        metric(
            "ski-rental.virtual_s_per_wall_s",
            virt.virtual_run_us as f64 / 1e6 / run_s,
            "ratio",
            "host",
        ),
        metric(
            "ski-rental.failed_share",
            (virt.missing + virt.duplicates + virt.never_published) as f64 / virt.expected as f64,
            "ratio",
            "virtual",
        ),
        metric(
            "process.sys_share",
            if utime + stime > 0.0 {
                stime / (utime + stime)
            } else {
                0.0
            },
            "ratio",
            "host",
        ),
        metric(
            "process.alloc_bytes_per_delivery",
            median_of(&pass.untraced, |r| r.run_alloc_bytes as f64) / delivered,
            "bytes",
            "host",
        ),
        metric("process.max_rss_mb", max_rss_mb(), "MB", "host"),
        metric(
            "bench.trace_overhead_share",
            (traced_run_s - run_s) / run_s,
            "ratio",
            "host",
        ),
        metric(
            "bench.unattributed_share",
            1.0 - simnet_share - decode_share - codec_share - plane_overhead_share,
            "ratio",
            "host",
        ),
    ]
}

/// How many seeds one untraced run derives from `--seed` and cycles its reps
/// through. More of them steadies whatever differs from seed to seed
/// (`paper_direct`'s control traffic, and with it its allocations and run
/// time, moves by 3 % between seeds; `mesh_fanout`'s peak heap by 4 %); the
/// count is what fits in `run_seconds` with every derived seed run at least
/// once. `mesh_fanout` gets through its four exactly once, so its
/// rep-to-rep determinism check happens in the traced pass only.
fn derived_seeds(workload: Workload) -> usize {
    match workload {
        Workload::PaperDirect | Workload::TypedFlood => 8,
        Workload::MeshChurn | Workload::MeshFanout => 4,
    }
}

/// The `index`-th seed derived from `seed`; the 0th is `seed` itself.
fn derived_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add(index as u64 * 1_000_003)
}

/// Cycles reps through the derived seeds until another rep would overrun
/// `budget`, and at least once through all of them. Returns one group of
/// reps per derived seed.
fn reps_within(workload: Workload, seed: u64, options: RepOptions, budget: Duration) -> Vec<Vec<Rep>> {
    let started = clock::now();
    let mut groups = vec![Vec::new(); derived_seeds(workload)];
    let mut spans = Spans::new();
    let mut longest = Duration::ZERO;
    for index in 0.. {
        let group = index % groups.len();
        let rep_started = clock::now();
        groups[group].push(run_rep(workload, derived_seed(seed, group), options, &mut spans));
        longest = longest.max(rep_started.elapsed());
        if index + 1 >= groups.len() && started.elapsed() + longest > budget {
            break;
        }
    }
    groups
}

/// The traced pass: rounds of one untraced rep, one rep with the spans on
/// and (on `mesh_churn`) one with the planes off, for as long as half the
/// budget lasts; then the layer replays.
fn traced_pass(args: &Args, untraced_options: RepOptions) -> TracedPass {
    let run = |options: RepOptions, spans: &mut Spans| run_rep(args.workload, args.seed, options, spans);
    let budget = Duration::from_secs(args.seconds) / 2;
    let started = clock::now();
    let mut spans = Spans::new();
    let (mut untraced, mut traced, mut planes_off) = (Vec::new(), Vec::new(), Vec::new());
    let mut longest_round = Duration::ZERO;
    loop {
        let round_started = clock::now();
        untraced.push(run(untraced_options, &mut spans));
        spans.set_recording(true, traced.len() as u32);
        traced.push(run(
            RepOptions {
                collect_counts: true,
                ..untraced_options
            },
            &mut spans,
        ));
        spans.set_recording(false, 0);
        if args.workload.uses_planes() {
            planes_off.push(run(
                RepOptions {
                    planes_off: true,
                    ..untraced_options
                },
                &mut spans,
            ));
        }
        longest_round = longest_round.max(round_started.elapsed());
        if started.elapsed() + longest_round > budget {
            break;
        }
    }
    let leases = traced
        .last()
        .and_then(|rep| rep.counts)
        .map_or(0, |counts| counts.leases_per_shard_max as usize);
    let costs = layers::replay(args.workload, args.workload.shape(args.smoke), leases, args.seed);
    TracedPass {
        untraced,
        traced,
        planes_off,
        costs,
        spans,
    }
}

/// Checks that every rep of one seed modelled exactly the same deployment,
/// naming what differed.
fn check_reps_agree(reps: &[Rep], violations: &mut Vec<String>) {
    let first = &reps[0].virt;
    for rep in &reps[1..] {
        if rep.virt != *first {
            violations.push(format!(
                "determinism: two reps of one seed differ in their virtual results: {:?} vs {:?}",
                rep.virt, first
            ));
        }
    }
}

fn render_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, m) in metrics.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        // `{}` on an f64 prints the shortest digits that read back exactly.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench: {message}");
            eprintln!(
                "usage: bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let shape = args.workload.shape(args.smoke);
    println!(
        "workload {} seed {} shape {shape:?}{}",
        args.workload.name(),
        args.seed,
        if args.smoke { " SMOKE" } else { "" }
    );

    let options = RepOptions {
        smoke: args.smoke,
        ..RepOptions::default()
    };
    // One group of reps per seed run; the reps of a group must agree.
    let (metrics, groups) = if args.trace {
        let pass = traced_pass(&args, options);
        let metrics = per_layer(args.workload, &pass);
        let path = args.out.join(format!("trace_{}.jsonl", args.workload.name()));
        match std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, pass.spans.to_jsonl())) {
            Ok(()) => println!("trace spans: {}", path.display()),
            Err(err) => eprintln!("bench: cannot write {}: {err}", path.display()),
        }
        let mut reps = pass.untraced;
        reps.extend(pass.traced);
        (metrics, vec![reps])
    } else {
        let groups = reps_within(
            args.workload,
            args.seed,
            options,
            Duration::from_secs(args.seconds),
        );
        (end_to_end(&groups), groups)
    };

    let mut violations = Vec::new();
    for group in &groups {
        violations.extend(group.iter().flat_map(|r| r.violations.clone()));
        check_reps_agree(group, &mut violations);
    }
    let reps: Vec<&Rep> = groups.iter().flatten().collect();
    let attempted: u64 = reps.iter().map(|r| r.virt.expected).sum();
    let failed: u64 = reps.iter().map(|r| r.virt.failed).sum();
    let correct = violations.is_empty();

    let virt = &reps[0].virt;
    println!(
        "seeds {} reps {}; seed {}: expected {} delivered {} missing {} duplicates {} \
         latency samples {} verdicts {} never-published {}",
        groups.len(),
        reps.len(),
        args.seed,
        virt.expected,
        virt.delivered,
        virt.missing,
        virt.duplicates,
        virt.latency_samples,
        virt.verdicts,
        virt.never_published
    );
    if reps.len() >= 2 {
        let print_quartiles = |name: &str, values: Vec<f64>| {
            let (q1, q2, q3) = stats::quartiles(&values);
            println!("{name} over all reps: quartiles {q1:.6} {q2:.6} {q3:.6} s");
        };
        print_quartiles("setup_s", reps.iter().map(|r| r.setup_s).collect());
        print_quartiles("run_s", reps.iter().map(|r| r.run_s).collect());
    }
    for m in &metrics {
        println!("{:<36} {:>18.6} {:<10} {}", m.name, m.value, m.unit, m.clock);
    }
    violations.sort();
    violations.dedup();
    for violation in &violations {
        println!("FAILED {violation}");
    }
    println!("{}", render_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let args = parse(&[
            "--workload",
            "mesh_churn",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(args.workload, Workload::MeshChurn);
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.smoke),
            (7, 3, true, false)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "typed_flood", "--trace", "yes"]).is_err());
        assert!(parse(&["--workload", "typed_flood", "--seed"]).is_err());
    }

    #[test]
    fn the_result_line_is_one_json_object_with_every_digit() {
        let line = render_json(
            true,
            6400,
            0,
            &[
                metric("run_s", 1.2034567891, "s", "host"),
                metric("delivered_share", 1.0, "ratio", "virtual"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 6400, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.2034567891, \"unit\": \"s\"}, \
             \"delivered_share\": {\"value\": 1, \"unit\": \"ratio\"}}}"
        );
    }
}
