//! Layer-attributed benchmark of the Turquois reproduction.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` repeats the same runs traced and prints the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object. See `layerbench/README.md`.

mod calib;
mod heap;
mod report;
mod run;
mod trace;
mod workload;

use report::Metrics;
use run::{Layers, Run};
use std::time::{Duration, Instant};
use turquois_harness::adapters::BrachaApp;
use turquois_harness::Protocol;
use workload::Workload;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Delivered Turquois payloads sampled for the codec replay.
const CAPTURE_FRAMES: usize = 8192;

/// Passes of the codec replay; the median pass is reported.
const REPLAY_PASSES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or(format!(
                    "unknown workload {value:?} (known: {})",
                    workload::NAMES.join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s > 0)
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// The workspace's `TURQUOIS_*` variables switch process-global
/// implementations (memo caches, scalar SHA, legacy queue/store/codec,
/// eager keys) or change what binaries print. The benchmark measures
/// the default program only, so it refuses to run under any of them.
fn knobs_set() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TURQUOIS_"))
        .collect();
    set.sort();
    set
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            std::process::exit(2);
        }
    };
    let knobs = knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "layerbench: refusing to measure with {} set; unset it to benchmark the default program",
            knobs.join(", ")
        );
        std::process::exit(2);
    }
    if let Err(e) = bench(&args) {
        eprintln!("layerbench: {e}");
        std::process::exit(1);
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    let rounds = w.rounds(args.seconds);
    let seeds: Vec<u64> = (0..rounds)
        .map(|r| workload::run_seed(args.seed, r))
        .collect();

    let started = Instant::now();
    let mut runs = Vec::new();
    let mut round_heap = Vec::new();
    let mut round_reference = Vec::new();
    let mut reference_before = calib::reference();
    for &seed in &seeds {
        let base = heap::live();
        heap::reset_peak();
        for scenario in w.cells(seed) {
            let run = run::untraced(w, &scenario, seed)?;
            check_safety(w, &run)?;
            runs.push(run);
        }
        round_heap.push(heap::peak() - base);
        let reference_after = calib::reference();
        round_reference.push((reference_before + reference_after) / 2);
        reference_before = reference_after;
    }
    let untraced_s = started.elapsed().as_secs_f64();
    let attempted = runs.len();
    let failed = runs.iter().filter(|r| !r.outcome.k_reached()).count();
    for r in runs.iter().filter(|r| !r.outcome.k_reached()) {
        eprintln!(
            "layerbench: {} {} seed {} stalled: {} of {} correct processes decided by simtime {}",
            w.name,
            r.protocol.name(),
            r.seed,
            r.outcome.decided_correct(),
            r.outcome.k,
            r.outcome.end
        );
    }

    let e2e = report::end_to_end(w, &runs, &round_heap, &round_reference);
    e2e.print_table(&format!("{} end-to-end (untraced)", w.name));
    let mut traced_s = None;
    let metrics = if args.trace {
        let t = Instant::now();
        let layers = traced_pass(w, &seeds, &runs)?;
        traced_s = Some(t.elapsed().as_secs_f64());
        layers.print_table(&format!("{} per layer (traced)", w.name));
        layers
    } else {
        e2e
    };
    println!(
        "{}",
        report::metadata(w, args, rounds, &seeds, untraced_s, traced_s, attempted, failed)
    );
    println!(
        "{}",
        report::result_line(attempted, failed, &metrics, args.trace)
    );
    Ok(())
}

/// Aborts the benchmark on any safety violation, naming the seed.
fn check_safety(w: &Workload, run: &Run) -> Result<(), String> {
    let o = &run.outcome;
    if !o.agreement_holds() || !o.validity_holds() {
        return Err(format!(
            "SAFETY VIOLATION on {} {} seed {}: agreement {}, validity {}",
            w.name,
            run.protocol.name(),
            run.seed,
            o.agreement_holds(),
            o.validity_holds()
        ));
    }
    Ok(())
}

/// Re-runs every untraced run traced, checks each against its untraced
/// twin, replays the captured codec frames, and returns the per-layer
/// metrics.
fn traced_pass(w: &Workload, seeds: &[u64], untraced: &[Run]) -> Result<Metrics, String> {
    let mut layers = Layers::new(CAPTURE_FRAMES);
    let mut totals = report::LayerTotals::default();
    let mut twins = untraced.iter();
    for &seed in seeds {
        for scenario in w.cells(seed) {
            let twin = twins
                .next()
                .ok_or("traced pass ran more cells than the untraced one")?;
            let (run, sim) = run::traced(w, &scenario, seed, &mut layers)?;
            check_safety(w, &run)?;
            run::same_outcome(&twin.outcome, &run.outcome).map_err(|e| {
                format!(
                    "traced rebuild of {} {} seed {} diverged from Scenario::build_sim: {e}",
                    w.name,
                    run.protocol.name(),
                    seed
                )
            })?;
            if run.protocol == Protocol::Bracha {
                for node in 0..sim.n() {
                    if let Some(app) = sim
                        .app(node)
                        .as_any()
                        .and_then(|a| a.downcast_ref::<BrachaApp>())
                    {
                        let t = app.transport();
                        totals.reliable_sent += t.sent_messages();
                        totals.reliable_delivered += t.delivered_messages();
                        totals.reliable_retransmits += t.transport_retransmits();
                    }
                }
            }
            totals.add_run(&run);
        }
    }
    let replay = replay_codec(w, &layers)?;
    Ok(report::per_layer(&layers, &totals, &replay, untraced))
}

/// Host time of `MessageView::parse` over the captured payloads.
pub struct Replay {
    pub frames: usize,
    pub bytes: usize,
    pub ns_per_frame: f64,
}

fn replay_codec(w: &Workload, layers: &Layers) -> Result<Replay, String> {
    let capture = layers.capture.borrow();
    let frames = &capture.frames;
    if frames.is_empty() {
        return Ok(Replay {
            frames: 0,
            bytes: 0,
            ns_per_frame: 0.0,
        });
    }
    let cfg = turquois_core::Config::evaluation(w.n).map_err(|e| format!("{e:?}"))?;
    let mut passes: Vec<Duration> = (0..REPLAY_PASSES)
        .map(|_| {
            let t = Instant::now();
            for p in frames {
                let view =
                    turquois_core::message::MessageView::parse(std::hint::black_box(p), &cfg);
                std::hint::black_box(view.is_ok());
            }
            t.elapsed()
        })
        .collect();
    passes.sort();
    Ok(Replay {
        frames: frames.len(),
        bytes: frames.iter().map(Vec::len).sum(),
        ns_per_frame: passes[REPLAY_PASSES / 2].as_nanos() as f64 / frames.len() as f64,
    })
}
