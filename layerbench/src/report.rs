//! Metric computation and output.

use crate::calib;
use crate::run::{Engine, Layers, Run};
use crate::workload::Workload;
use crate::{Args, Replay};
use std::time::Duration;

/// End-to-end metrics the result line carries with `--trace 0`, in
/// `BENCHMARK.json` order. The table prints more (see
/// [`end_to_end`]); these are the ones steady enough across seeds to
/// gate on.
pub const GATED: [&str; 6] = [
    "wall_per_sim_s",
    "setup_s",
    "peak_heap_mb",
    "round_decide_ms",
    "channel_frames",
    "decided_ratio",
];

/// Named metrics with units, in output order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn print_table(&self, title: &str) {
        println!("# {title}");
        for (name, value, unit) in &self.0 {
            println!("  {name:<34} {value:>18.6} {unit}");
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean decision latency of the correct deciders of one run, ms.
fn mean_latency_ms(run: &Run) -> f64 {
    let l = run.outcome.latencies_ms();
    ratio(l.iter().sum(), l.len() as f64)
}

/// Every end-to-end metric of the untraced runs. A round is one run of
/// each of the workload's protocols; the gated metrics are medians over
/// rounds, which a rare long run (Bracha's coin tail, a host hiccup)
/// cannot drag. Gated host times are scaled to the reference host's
/// speed with the reference time measured around each round
/// ([`crate::calib`]); the raw ones are printed beside them. The pooled
/// percentiles follow the paper's tables.
pub fn end_to_end(
    w: &Workload,
    runs: &[Run],
    round_heap: &[usize],
    round_reference: &[Duration],
) -> Metrics {
    let rounds: Vec<&[Run]> = runs.chunks(w.protocols.len()).collect();
    let per_round = |f: &dyn Fn(&Run) -> f64| -> Vec<f64> {
        rounds.iter().map(|r| r.iter().map(f).sum()).collect()
    };
    let scales: Vec<f64> = round_reference.iter().map(|&d| calib::scale(d)).collect();
    let scaled = |xs: &[f64]| -> Vec<f64> { xs.iter().zip(&scales).map(|(x, k)| x * k).collect() };
    let wall = per_round(&|r| secs(r.wall));
    let sim = per_round(&|r| r.outcome.end.as_secs_f64());
    let wall_per_sim: Vec<f64> = wall.iter().zip(&sim).map(|(w, s)| ratio(*w, *s)).collect();
    let setup = per_round(&|r| secs(r.setup));
    let mut latencies: Vec<f64> = runs.iter().flat_map(|r| r.outcome.latencies_ms()).collect();
    latencies.sort_by(f64::total_cmp);
    let failed = runs.iter().filter(|r| !r.outcome.k_reached()).count() as f64;
    let n = runs.len() as f64;
    let mb = |bytes: usize| bytes as f64 / (1 << 20) as f64;

    let mut m = Metrics::default();
    m.push("wall_s", wall.iter().sum(), "s");
    m.push("wall_per_sim_s", median(scaled(&wall_per_sim)), "s/s");
    m.push("raw_wall_per_sim_s", median(wall_per_sim), "s/s");
    m.push("setup_s", median(scaled(&setup)), "s");
    m.push("raw_setup_s", median(setup), "s");
    m.push(
        "reference_ms",
        median(round_reference.iter().map(|d| secs(*d) * 1e3).collect()),
        "ms",
    );
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m.push(
        "peak_heap_mb",
        median(round_heap.iter().map(|&b| mb(b)).collect()),
        "MB",
    );
    m.push("decide_ms_p50", percentile(&latencies, 0.5), "ms");
    m.push("decide_ms_p90", percentile(&latencies, 0.9), "ms");
    m.push("round_decide_ms", median(per_round(&mean_latency_ms)), "ms");
    m.push(
        "channel_frames",
        median(per_round(&|r| r.outcome.stats.frames_sent() as f64)),
        "frames",
    );
    m.push("failed_ratio", ratio(failed, n), "ratio");
    m.push("decided_ratio", 1.0 - ratio(failed, n), "ratio");
    m
}

/// Counters summed over the traced runs.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub wall: Duration,
    pub events: u64,
    pub frames_bcast: u64,
    pub frames_ucast: u64,
    pub collisions: u64,
    pub deliveries: u64,
    pub queue_drops: u64,
    pub channel_busy: Duration,
    pub mac_failures: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub peak_store_bytes: usize,
    pub reliable_sent: u64,
    pub reliable_delivered: u64,
    pub reliable_retransmits: u64,
}

impl LayerTotals {
    pub fn add_run(&mut self, run: &Run) {
        let o = &run.outcome;
        let s = &o.stats;
        self.wall += run.wall;
        self.events += s.events_processed;
        self.frames_bcast += s.broadcast_frames_sent;
        self.frames_ucast += s.unicast_frames_sent;
        self.collisions += s.collisions;
        self.deliveries += s.deliveries;
        self.queue_drops += s.queue_drops;
        self.channel_busy += s.channel_busy;
        self.mac_failures += s.mac_failures;
        self.accepted += o.probe.accepted.iter().sum::<u64>();
        self.rejected += o.probe.rejected.iter().sum::<u64>();
        self.peak_store_bytes = self.peak_store_bytes.max(o.peak_store_bytes);
    }
}

/// Every per-layer metric of the traced runs.
pub fn per_layer(layers: &Layers, t: &LayerTotals, replay: &Replay, untraced: &[Run]) -> Metrics {
    let app_s = layers.secs(layers.engines.iter().map(|e| e.total_ticks()).sum());
    let fault_s = layers.secs(
        layers
            .fault
            .ticks
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    let self_s = secs(t.wall) - app_s - fault_s;
    let untraced_wall: Duration = untraced.iter().map(|r| r.wall).sum();
    let frames = (t.frames_bcast + t.frames_ucast) as f64;
    let count =
        |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed) as f64;

    let mut m = Metrics::default();
    m.push("sim.self_s", self_s, "s");
    m.push("sim.events", t.events as f64, "count");
    m.push(
        "sim.ns_per_event",
        ratio(self_s * 1e9, t.events as f64),
        "ns",
    );
    m.push("medium.frames_bcast", t.frames_bcast as f64, "frames");
    m.push("medium.frames_ucast", t.frames_ucast as f64, "frames");
    m.push("medium.collisions", t.collisions as f64, "count");
    m.push("medium.deliveries", t.deliveries as f64, "count");
    m.push("medium.queue_drops", t.queue_drops as f64, "count");
    m.push("medium.channel_busy_s", secs(t.channel_busy), "s");
    m.push(
        "medium.deliveries_per_frame",
        ratio(t.deliveries as f64, frames),
        "ratio",
    );
    m.push("fault.calls", count(&layers.fault.calls), "count");
    m.push("fault.self_s", fault_s, "s");
    m.push("fault.drops", count(&layers.fault.drops), "count");
    m.push("reliable.sent", t.reliable_sent as f64, "count");
    m.push("reliable.delivered", t.reliable_delivered as f64, "count");
    m.push(
        "reliable.retransmits",
        t.reliable_retransmits as f64,
        "count",
    );
    m.push("reliable.mac_failures", t.mac_failures as f64, "count");
    for e in Engine::ALL {
        let c = layers.engine(e);
        let p = format!("app.{}", e.name());
        let (frame_s, frame_calls) = (layers.secs(c.frame_ticks.get()), c.frame_calls.get() as f64);
        m.push(format!("{p}.frame_s"), frame_s, "s");
        m.push(format!("{p}.frame_calls"), frame_calls, "count");
        m.push(
            format!("{p}.frame_ns_per_call"),
            ratio(frame_s * 1e9, frame_calls),
            "ns",
        );
        m.push(
            format!("{p}.timer_s"),
            layers.secs(c.timer_ticks.get()),
            "s",
        );
        m.push(
            format!("{p}.timer_calls"),
            c.timer_calls.get() as f64,
            "count",
        );
        m.push(
            format!("{p}.start_s"),
            layers.secs(c.start_ticks.get()),
            "s",
        );
    }
    m.push("codec.parse_ns_per_frame", replay.ns_per_frame, "ns");
    m.push("codec.frames", replay.frames as f64, "frames");
    m.push(
        "codec.bytes_per_frame",
        ratio(replay.bytes as f64, replay.frames as f64),
        "bytes",
    );
    m.push("core.accepted", t.accepted as f64, "count");
    m.push("core.rejected", t.rejected as f64, "count");
    m.push(
        "core.accept_ratio",
        ratio(t.accepted as f64, (t.accepted + t.rejected) as f64),
        "ratio",
    );
    m.push("store.peak_bytes", t.peak_store_bytes as f64, "bytes");
    let (crypto, bytes) = (&layers.crypto, &layers.bytes);
    m.push("crypto.sha_blocks", crypto.sha_blocks as f64, "count");
    m.push("crypto.verify_calls", crypto.verify_calls as f64, "count");
    m.push("crypto.memo_hit_rate", crypto.hit_rate(), "ratio");
    m.push(
        "crypto.lanes_utilization",
        crypto.lanes_utilization(),
        "ratio",
    );
    m.push("bytes.copied", bytes.copied as f64, "bytes");
    m.push("bytes.allocs_saved", bytes.allocs_saved as f64, "count");
    m.push("bytes.arena_bytes", bytes.arena_bytes as f64, "bytes");
    m.push("setup.keyring_s", secs(layers.keyring), "s");
    m.push("setup.sim_new_s", secs(layers.sim_new), "s");
    m.push("trace.overhead_s", secs(t.wall) - secs(untraced_wall), "s");
    m
}

/// Escapes `s` as a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The final result line. With `--trace 0` the metrics are [`GATED`];
/// with `--trace 1` they are every per-layer metric.
pub fn result_line(attempted: usize, failed: usize, metrics: &Metrics, traced: bool) -> String {
    let fields: Vec<String> = metrics
        .0
        .iter()
        .filter(|(name, _, _)| traced || GATED.contains(&name.as_str()))
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// Output of a command, trimmed, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout the benchmark runs in, or `unknown`.
/// `git` is asked only when the working directory is a checkout's root:
/// elsewhere it would search the parent directories.
fn commit() -> String {
    if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON line of run metadata, printed before the result line.
#[allow(clippy::too_many_arguments)]
pub fn metadata(
    w: &Workload,
    args: &Args,
    rounds: usize,
    seeds: &[u64],
    untraced_s: f64,
    traced_s: Option<f64>,
    attempted: usize,
    failed: usize,
) -> String {
    let fields = [
        ("workload", json_str(w.name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("rounds", rounds.to_string()),
        (
            "run_seeds",
            format!(
                "[{}]",
                seeds
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("runs", attempted.to_string()),
        ("failed_runs", failed.to_string()),
        ("commit", json_str(&commit())),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", json_str(&cpu_model())),
        ("rustc", json_str(&command_output("rustc", &["--version"]))),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("untraced_s", json_num(untraced_s)),
        ("traced_s", traced_s.map_or("null".to_string(), json_num)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"meta\": {{{}}}}}", body.join(", "))
}
