//! The end-to-end benchmark: camera frames in at the edge, labels out at
//! the cloud, over four workloads.
//!
//! ```text
//! perfbench --workload <sieve_fleet|decode_all_wan|decode_all_open|sieve_open> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the inputs up three times (reporting the median set-up
//! time), runs the workload once untraced and reports the end-to-end
//! metrics. `--trace 1` sets up once, runs untraced and then traced, replays
//! the run's frames and payloads through the layers the benchmark cannot
//! wrap, and reports the per-layer ledger. Both print a host fingerprint
//! line and the correctness checks, then the one-line JSON result last. A
//! failed check exits with status 1.

mod inputs;
mod ledger;
mod pipeline;
mod replay;
mod report;
mod stats;
mod workload;

use std::process::ExitCode;

use inputs::Inputs;
use ledger::Ledger;
use pipeline::{RunOutput, Span};
use report::{accuracy, json_str, lap_sum, peak_rss_mb, result_line, Checks, Metrics};
use stats::slope;
use workload::{Link, Pacing, Selection, Workload, FRAMES_PER_STREAM};

/// Set-ups per untraced invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Host fingerprint: results are only comparable between equal ones.
fn fingerprint(nproc: usize) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_default();
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": {}, \"cpu\": {}, \"rustc\": {}}}",
        json_str(kernel.trim()),
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC"))
    )
}

fn describe(w: &Workload, shards: usize) -> String {
    let pacing = match w.pacing {
        Pacing::Closed => format!("closed loop, window {}", workload::CLOSED_LOOP_WINDOW),
        Pacing::Open { fps } => format!("open loop at {fps:.0} frames/s"),
    };
    let link = match w.link {
        Link::Clean => "clean 1 Gbit/s 20 ms link".to_string(),
        Link::Lossy { loss, cap_fraction } => format!(
            "paper WAN, {:.0}% i.i.d. loss, bottleneck {:.0}% of offered load",
            loss * 100.0,
            cap_fraction * 100.0
        ),
    };
    let policy = match w.selection {
        Selection::IFrame => "IFrameSelector".to_string(),
        Selection::MseTarget(r) => format!("MSE at target rate {r}"),
    };
    format!(
        "workload {}: {} streams, clips of {} down to {} frames, {policy}, {pacing}, {link}, \
         8+2 FEC; threads: generator 1, fleet shards {shards}, cloud 1",
        w.name,
        w.streams,
        FRAMES_PER_STREAM,
        workload::clip_frames(w.streams - 1)
    )
}

/// Process CPU time per camera frame over a run (the generator, which
/// sleeps while it waits, included).
fn cpu_us_per_frame(run: &RunOutput) -> f64 {
    run.cpu_s * 1e6 / run.total_offered().max(1) as f64
}

/// A latency of `run` as the median over windows of each window's exact
/// p50 and p99, using as many windows as leave ten samples above each
/// window's p99. Prints the exact percentiles over the whole measured run.
fn latency(name: &str, run: &RunOutput, samples: &[(u64, f64)]) -> stats::Summary {
    let windows = stats::windows_for(samples.len(), pipeline::WINDOWS);
    let all = stats::Summary::of(&mut samples.iter().map(|s| s.1).collect::<Vec<_>>());
    println!(
        "{name} latency over the measured run: p50 {:.3} ms, p99 {:.3} ms, n {}; \
         reported over {windows} windows",
        all.p50, all.p99, all.n
    );
    stats::windowed(samples, run.span_ns, windows)
}

fn end_to_end(m: &mut Metrics, run: &RunOutput, inputs: &Inputs, setup_s: f64) {
    let offered = run.total_offered() as f64;
    let agg = &run.snapshot.aggregate;
    // Rates and latencies are medians over the run's windows (exact
    // percentiles within each window); whole-run percentiles are printed.
    let rates = stats::rates(&run.decided);
    m.put("throughput_fps", stats::median(&rates), "frames/s");
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("frames/s per window: {}", shown.join(" "));
    // The edge's latencies are per-layer metrics: see `per_layer`.
    let l = latency("label", run, &run.label_lat);
    m.put("label_latency_p50_ms", l.p50, "ms");
    m.put("label_latency_p99_ms", l.p99, "ms");
    m.put(
        "accuracy",
        accuracy(&inputs.cams, &run.offered, &run.labelled),
        "ratio",
    );
    m.put("sampling_rate", agg.kept as f64 / offered, "ratio");
    let c = &run.counts;
    m.put(
        "blocks_usable_frac",
        c.blocks_usable() as f64 / c.blocks_sent.max(1) as f64,
        "ratio",
    );
    let lengths = run.kept.iter().enumerate().flat_map(|(s, kept)| {
        let cam = &inputs.cams[s];
        kept.iter().map(move |&i| {
            cam.video.frames()[i as usize % cam.video.frame_count()]
                .data
                .len()
        })
    });
    m.put(
        "wire_bytes_per_frame",
        replay::wire_bytes(&run.uplink, lengths) as f64 / offered,
        "B",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m.put("setup_s", setup_s, "s");
}

/// Span lengths in microseconds.
fn us(spans: &[Span]) -> Vec<f64> {
    spans.iter().map(|s| s.ns as f64 * 1e-3).collect()
}

fn per_layer(
    m: &mut Metrics,
    w: &Workload,
    inputs: &Inputs,
    plain: &RunOutput,
    traced: &RunOutput,
) {
    let policy = pipeline::selector(w);
    let edge = replay::edge(policy.as_ref(), &inputs.cams);
    let trace = traced.trace.as_ref().expect("traced run carries spans");
    let net = replay::net(&traced.uplink, &trace.sends, &inputs.cams);

    m.summary(
        "video.decode_iframe_us",
        &mut edge.decode_iframe_us.clone(),
        "us",
    );
    m.summary(
        "video.decode_next_us",
        &mut edge.decode_next_us.clone(),
        "us",
    );
    m.summary("video.encode_us", &mut inputs.encode_us.clone(), "us");
    let flat = |v: &[Vec<f64>]| v.iter().flatten().copied().collect::<Vec<f64>>();
    m.summary("core.edge_observe_us", &mut flat(&edge.observe_us), "us");
    m.summary("core.select_observe_us", &mut flat(&edge.select_us), "us");

    let adaptive: Vec<_> = traced
        .snapshot
        .streams
        .iter()
        .filter_map(|s| s.target_rate.map(|t| (s.achieved_rate(), t)))
        .collect();
    let factor = traced.counts.mean_factor();
    let n_adaptive = adaptive.len().max(1) as f64;
    m.put(
        "adapt.achieved_rate",
        adaptive.iter().map(|a| a.0).sum::<f64>() / n_adaptive,
        "ratio",
    );
    m.put("adapt.wan_factor_mean", factor, "ratio");
    m.put(
        "rate_err",
        adaptive
            .iter()
            .map(|&(achieved, target)| (achieved - target * factor).abs() / (target * factor))
            .sum::<f64>()
            / n_adaptive,
        "ratio",
    );

    m.summary("fleet.push_us", &mut us(&trace.push), "us");
    let mut sojourn = us(&trace.sojourn);
    let mut queue_wait: Vec<f64> = trace
        .sojourn
        .iter()
        .map(|s| {
            let observe = &edge.observe_us[s.stream as usize];
            (s.ns as f64 * 1e-3 - observe[s.index as usize % observe.len()]).max(0.0)
        })
        .collect();
    m.summary("fleet.sojourn_us", &mut sojourn, "us");
    m.summary("fleet.queue_wait_us", &mut queue_wait, "us");
    let agg = &traced.snapshot.aggregate;
    m.put(
        "fleet.queue_depth_max",
        traced.max_inflight as f64,
        "frames",
    );
    m.put("fleet.shed", agg.shed as f64, "count");
    m.put("fleet.stolen", traced.snapshot.stolen as f64, "count");
    m.put(
        "fleet.steal_fail",
        traced.snapshot.steal_fail as f64,
        "count",
    );

    m.summary("net.uplink_lock_wait_us", &mut us(&trace.lock_wait), "us");
    m.summary("net.uplink_send_us", &mut us(&trace.send), "us");
    m.summary("net.packetize_us", &mut net.packetize_us.clone(), "us");
    m.summary("net.fec_encode_us", &mut net.fec_encode_us.clone(), "us");
    m.summary("net.fec_recover_us", &mut net.fec_recover_us.clone(), "us");
    m.summary("net.channel_us", &mut net.channel_us.clone(), "us");
    m.summary("net.depacketize_us", &mut net.depacketize_us.clone(), "us");
    let c = &traced.counts;
    m.put(
        "net.overhead_bytes_frac",
        (net.wire_bytes - net.payload_bytes) as f64 / net.wire_bytes.max(1) as f64,
        "ratio",
    );
    m.put("net.blocks_recovered", c.blocks_recovered as f64, "count");
    m.put(
        "net.packets_congestion_dropped",
        c.packets_congestion_dropped as f64,
        "count",
    );
    m.put("net.ecn_marked", traced.ecn_marked as f64, "count");
    m.put("net.feedback_quanta", c.feedback_quanta as f64, "count");
    m.put(
        "net.flush_resolved_blocks",
        traced.flush_resolved as f64,
        "count",
    );
    let offered = traced.total_offered() as f64;
    m.put(
        "blocks_lost_frac",
        c.blocks_lost as f64 / c.blocks_sent.max(1) as f64,
        "ratio",
    );
    m.put(
        "failed_frac",
        (agg.shed + agg.failed + c.blocks_lost) as f64 / offered,
        "ratio",
    );

    // The untraced run's edge latencies, reported but not bounded: on a
    // shared host they follow the host's moment-to-moment speed. The p99
    // is set by how often the hypervisor stalls a vCPU for a few ms, which
    // varies from run to run around 1% of kept frames.
    let edge_lat = latency("edge", plain, &plain.edge_lat);
    m.put("edge_latency_p50_ms", edge_lat.p50, "ms");
    m.put("edge_latency_p99_ms", edge_lat.p99, "ms");
    m.summary("nn.detect_us", &mut us(&trace.detect), "us");
    m.summary("cloud.queue_wait_us", &mut us(&trace.queue_wait), "us");

    // The ledger: the untraced run's CPU time per frame, against the
    // layers' self times (CPU time) from the traced run and the replays.
    let frames = traced.total_offered();
    let mut l = Ledger::new(frames, cpu_us_per_frame(plain) * frames as f64);
    let by_lap = |per: &[Vec<f64>]| -> f64 {
        per.iter()
            .zip(&traced.offered)
            .map(|(p, &n)| lap_sum(p, n))
            .sum()
    };
    let sum_us = |v: &[Span]| v.iter().map(|s| s.ns).sum::<u64>() as f64 * 1e-3;
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    l.add("fleet.push", None, sum_us(&trace.push));
    l.add("core.edge_observe", None, by_lap(&edge.observe_us));
    l.add(
        "video.decode",
        Some("core.edge_observe"),
        by_lap(&edge.decode_us),
    );
    l.add(
        "core.select_observe",
        Some("core.edge_observe"),
        by_lap(&edge.select_us),
    );
    l.add("net.uplink_send", None, sum_us(&trace.send));
    l.add(
        "net.packetize",
        Some("net.uplink_send"),
        sum(&net.packetize_us),
    );
    l.add(
        "net.fec_encode",
        Some("net.packetize"),
        sum(&net.fec_encode_us),
    );
    l.add("net.channel", Some("net.uplink_send"), sum(&net.channel_us));
    l.add(
        "net.depacketize",
        Some("net.uplink_send"),
        sum(&net.depacketize_us),
    );
    l.add(
        "net.fec_recover",
        Some("net.depacketize"),
        sum(&net.fec_recover_us),
    );
    l.add("nn.detect", None, sum_us(&trace.detect));
    for (name, self_us) in l.self_times() {
        println!("ledger {name}: {self_us:.3} us/frame self");
    }
    println!(
        "ledger e2e {:.3} = layers {:.3} + residual {:.3} us/frame",
        l.e2e_us(),
        l.layers_us(),
        l.residual_us()
    );
    m.put("residual_us", l.residual_us(), "us");
    m.put("ledger.e2e_cpu_us", l.e2e_us(), "us");
    m.put("ledger.layers_us", l.layers_us(), "us");
    // Wall time per frame, traced against untraced.
    let per_frame = |r: &RunOutput| r.wall_s / r.total_offered().max(1) as f64;
    m.put(
        "trace.overhead_frac",
        per_frame(traced) / per_frame(plain) - 1.0,
        "ratio",
    );

    m.summary("gen.lag_ms", &mut traced.gen_lag_ms.clone(), "ms");
    m.put("gen.backlog_slope", slope(&traced.backlog), "frames/s");
    let split = inputs.wall_s / (inputs.generate_s + inputs.encode_s).max(f64::MIN_POSITIVE);
    m.put("setup.generate_s", inputs.generate_s * split, "s");
    m.put("setup.encode_s", inputs.encode_s * split, "s");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let shards = nproc;
    println!("host {}", fingerprint(nproc));
    println!("{}", describe(&w, shards));

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_walls = Vec::with_capacity(repeats);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..repeats {
        drop(inputs.take()); // free the previous set before building the next
        let built = inputs::build(&w, args.seed, FRAMES_PER_STREAM, nproc);
        setup_walls.push(built.wall_s);
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let setup_s = stats::median(&setup_walls);
    println!("setup: {setup_walls:?} s (median {setup_s:.3})");

    let iframes_only = w.selection == Selection::IFrame;
    let mut checks = Checks::default();
    let plain = pipeline::run(&w, &inputs.cams, args.seed, args.seconds, shards, false);
    checks.of_run("run", &plain, &inputs.cams, iframes_only, w.closed());
    let mut metrics = Metrics::default();
    let traced = if args.trace {
        let traced = pipeline::run(&w, &inputs.cams, args.seed, args.seconds, shards, true);
        checks.of_run("traced", &traced, &inputs.cams, iframes_only, w.closed());
        per_layer(&mut metrics, &w, &inputs, &plain, &traced);
        Some(traced)
    } else {
        end_to_end(&mut metrics, &plain, &inputs, setup_s);
        None
    };
    for line in checks.lines() {
        println!("{line}");
    }
    let agg = &plain.snapshot.aggregate;
    println!(
        "run: {} frames in {:.3} s, kept {}, blocks resolved by the final flush {}",
        plain.total_offered(),
        plain.wall_s,
        agg.kept,
        traced
            .as_ref()
            .map_or(plain.flush_resolved, |t| t.flush_resolved)
    );
    let correct = checks.all_pass();
    println!(
        "{}",
        result_line(
            correct,
            plain.total_offered(),
            agg.shed + agg.failed,
            &metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
