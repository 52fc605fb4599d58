//! One scenario run, untraced or traced.
//!
//! The untraced run is `Scenario::run_once` split at its seam: the
//! host time of `Scenario::build_sim` is set-up, the host time of the
//! supervised run loop is the run. The traced run rebuilds the same
//! simulator from the crates' public constructors with every
//! application and the fault model wrapped in a timer
//! ([`crate::trace`]); [`same_outcome`] then proves the rebuild
//! simulated exactly what the untraced run did.

use crate::trace::{ticks, BytesSnapshot, Capture, EngineClock, FaultClock, TimedApp, TimedFault};
use crate::workload::{Workload, PROPOSALS};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use turquois_baselines::abba::{Abba, AbbaKeys};
use turquois_baselines::bracha::Bracha;
use turquois_core::config::Config;
use turquois_core::instance::Turquois;
use turquois_core::KeyRing;
use turquois_crypto::cost::CostModel;
use turquois_crypto::telemetry::HotpathSnapshot;
use turquois_harness::adapters::{
    new_link_tags, AbbaApp, BrachaApp, RunProbe, SharedProbe, TurquoisApp,
};
use turquois_harness::adversary::{byzantine_bracha_app, ByzantineAbbaApp, ByzantineTurquoisApp};
use turquois_harness::{FaultLoad, LossSpec, Protocol, RunOutcome, Scenario};
use wireless_net::fault::{Compose, FaultModel, GilbertElliott, IidLoss};
use wireless_net::sim::{Application, CrashedApp, SimConfig, Simulator};
use wireless_net::supervise::StallReport;
use wireless_net::{RunStatus, SimTime};

/// `Scenario`'s defaults, which it does not expose: one-time key
/// phases pre-distributed to Turquois nodes and the CPU cost model.
const KEY_PHASES: usize = 600;

fn cost_model() -> CostModel {
    CostModel::pentium3_600()
}

/// Which engine an application runs, for per-engine timing. The
/// discriminant indexes [`Layers::engines`].
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Engine {
    Turquois,
    Bracha,
    Abba,
    Byzantine,
}

impl Engine {
    pub const ALL: [Engine; 4] = [
        Engine::Turquois,
        Engine::Bracha,
        Engine::Abba,
        Engine::Byzantine,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Engine::Turquois => "turquois",
            Engine::Bracha => "bracha",
            Engine::Abba => "abba",
            Engine::Byzantine => "byzantine",
        }
    }
}

/// Clocks and counters the traced runs of one invocation share.
pub struct Layers {
    pub engines: [Rc<EngineClock>; 4],
    pub fault: Arc<FaultClock>,
    pub capture: Rc<RefCell<Capture>>,
    pub keyring: Duration,
    pub sim_new: Duration,
    /// Crypto and byte-copy counter increments during the run loops.
    pub crypto: HotpathSnapshot,
    pub bytes: BytesSnapshot,
    /// Host time and ticks over the traced run loops, which calibrate
    /// [`Layers::secs`].
    pub loop_time: Duration,
    pub loop_ticks: u64,
}

impl Layers {
    pub fn new(capture_frames: usize) -> Layers {
        Layers {
            engines: Default::default(),
            fault: Arc::default(),
            capture: Capture::new(capture_frames),
            keyring: Duration::ZERO,
            sim_new: Duration::ZERO,
            crypto: HotpathSnapshot::default(),
            bytes: BytesSnapshot::default(),
            loop_time: Duration::ZERO,
            loop_ticks: 0,
        }
    }

    /// Seconds in `ticks` host ticks.
    pub fn secs(&self, ticks: u64) -> f64 {
        if self.loop_ticks == 0 {
            0.0
        } else {
            ticks as f64 * self.loop_time.as_secs_f64() / self.loop_ticks as f64
        }
    }

    pub fn engine(&self, e: Engine) -> &Rc<EngineClock> {
        &self.engines[e as usize]
    }

    fn wrap(&self, e: Engine, app: Box<dyn Application>) -> Box<dyn Application> {
        let capture = (e == Engine::Turquois).then(|| self.capture.clone());
        TimedApp::boxed(app, self.engine(e).clone(), capture)
    }
}

/// The result of one run with its host timings.
pub struct Run {
    pub protocol: Protocol,
    pub seed: u64,
    /// Host time building the simulator (keys, engines, `Simulator::new`).
    pub setup: Duration,
    /// Host time from the first event to the stop condition.
    pub wall: Duration,
    pub outcome: RunOutcome,
}

/// Set-up cheaper than this is repeated until the builds have taken
/// this long, at most [`SETUP_MAX_BUILDS`] times; the last simulator
/// runs and the median build is reported. A single sub-millisecond
/// build is mostly timer and cache noise.
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(5);
const SETUP_MAX_BUILDS: usize = 50;

/// Runs `scenario` untraced.
pub fn untraced(w: &Workload, scenario: &Scenario, seed: u64) -> Result<Run, String> {
    let mut builds = Vec::new();
    let (mut sim, probe) = loop {
        let t = Instant::now();
        let built = scenario.build_sim().map_err(|e| e.to_string())?;
        builds.push(t.elapsed());
        if builds.iter().sum::<Duration>() >= SETUP_MIN_TOTAL || builds.len() == SETUP_MAX_BUILDS {
            break built;
        }
    };
    builds.sort();
    let setup = builds[builds.len() / 2];
    let t = Instant::now();
    let (status, stall) = run_loop(w, scenario, &mut sim);
    let wall = t.elapsed();
    Ok(Run {
        protocol: scenario.protocol(),
        seed,
        setup,
        wall,
        outcome: outcome(w, &sim, &probe, status, stall)?,
    })
}

/// Runs `scenario` (seeded with `seed`) with every layer timed into
/// `layers`. Returns the run and the simulator, for post-run counters.
pub fn traced(
    w: &Workload,
    scenario: &Scenario,
    seed: u64,
    layers: &mut Layers,
) -> Result<(Run, Simulator), String> {
    let t = Instant::now();
    let (mut sim, probe) = build_traced(w, scenario.protocol(), seed, layers)?;
    let setup = t.elapsed();
    let crypto = HotpathSnapshot::now();
    let bytes = BytesSnapshot::now();
    let t = Instant::now();
    let tick0 = ticks();
    let (status, stall) = run_loop(w, scenario, &mut sim);
    layers.loop_ticks += ticks().saturating_sub(tick0);
    let wall = t.elapsed();
    layers.loop_time += wall;
    layers
        .crypto
        .add(&HotpathSnapshot::now().delta_since(&crypto));
    layers.bytes.add(&BytesSnapshot::now().delta_since(&bytes));
    let outcome = outcome(w, &sim, &probe, status, stall)?;
    Ok((
        Run {
            protocol: scenario.protocol(),
            seed,
            setup,
            wall,
            outcome,
        },
        sim,
    ))
}

fn run_loop(
    w: &Workload,
    scenario: &Scenario,
    sim: &mut Simulator,
) -> (RunStatus, Option<StallReport>) {
    sim.run_until_k_decided_supervised(scenario.correct_count(), SimTime::ZERO + w.time_limit)
}

/// Assembles what `Scenario::run_once` returns from a finished run.
fn outcome(
    w: &Workload,
    sim: &Simulator,
    probe: &SharedProbe,
    status: RunStatus,
    stall: Option<StallReport>,
) -> Result<RunOutcome, String> {
    let n = w.n;
    let cfg = Config::evaluation(n).map_err(|e| format!("{e:?}"))?;
    Ok(RunOutcome {
        stall,
        n,
        f: cfg.f(),
        k: cfg.k(),
        fault_load: w.fault_load,
        faulty: (0..n).map(|i| w.faulty(i, cfg.f())).collect(),
        proposals: (0..n).map(|i| PROPOSALS.proposal(i)).collect(),
        status,
        decisions: sim.decisions().to_vec(),
        start_times: sim.start_times().to_vec(),
        stats: sim.stats().clone(),
        probe: probe.borrow().clone(),
        end: sim.now(),
        peak_store_bytes: sim.peak_store_bytes().iter().copied().max().unwrap_or(0),
    })
}

/// The loss model `Scenario` builds for `spec`, including the
/// golden-ratio seed stride `LossSpec::Composed` gives its parts.
fn loss_model(spec: &LossSpec, seed: u64) -> Result<Box<dyn FaultModel>, String> {
    Ok(match spec {
        LossSpec::Iid(p) => Box::new(IidLoss::new(*p, seed)),
        LossSpec::Burst(p_gb, p_bg, loss_bad) => {
            Box::new(GilbertElliott::new(*p_gb, *p_bg, 0.0, *loss_bad, seed))
        }
        LossSpec::Composed(parts) => Box::new(Compose::new(
            parts
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    loss_model(
                        p,
                        seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
                    )
                })
                .collect::<Result<_, _>>()?,
        )),
        other => return Err(format!("no traced rebuild for loss model {other:?}")),
    })
}

/// `Scenario::build_sim` for the workload's scenario, with the timing
/// wrappers in place.
fn build_traced(
    w: &Workload,
    protocol: Protocol,
    seed: u64,
    layers: &mut Layers,
) -> Result<(Simulator, SharedProbe), String> {
    let n = w.n;
    let cfg = Config::evaluation(n).map_err(|e| format!("{e:?}"))?;
    let f = cfg.f();
    let faulty = |i: usize| w.faulty(i, f);
    let byzantine = w.fault_load == FaultLoad::Byzantine;
    let proposal = |i: usize| PROPOSALS.proposal(i);
    let probe = RunProbe::new(n);
    let cost = cost_model();
    let crashed = || Box::new(CrashedApp) as Box<dyn Application>;

    let apps: Vec<Box<dyn Application>> = match protocol {
        Protocol::Turquois => {
            let t = Instant::now();
            let rings = KeyRing::trusted_setup(n, KEY_PHASES, seed);
            layers.keyring += t.elapsed();
            rings
                .into_iter()
                .enumerate()
                .map(|(i, ring)| {
                    let node_seed = seed + 7 * i as u64;
                    if !faulty(i) {
                        let inst = Turquois::new(cfg, i, proposal(i), ring.clone(), node_seed);
                        let app = TurquoisApp::new(inst, cost, probe.clone())
                            .tick_interval(w.tick)
                            .resettable(cfg, proposal(i), ring, node_seed);
                        layers.wrap(Engine::Turquois, Box::new(app))
                    } else if byzantine {
                        let tracker = Turquois::new(cfg, i, proposal(i), ring.clone(), node_seed);
                        let app = ByzantineTurquoisApp::new(tracker, ring).tick_interval(w.tick);
                        layers.wrap(Engine::Byzantine, Box::new(app))
                    } else {
                        crashed()
                    }
                })
                .collect()
        }
        Protocol::Bracha => {
            let link_tags = new_link_tags();
            (0..n)
                .map(|i| {
                    let engine = Bracha::new(n, f, i, proposal(i), seed + 31 * i as u64);
                    if !faulty(i) {
                        let app =
                            BrachaApp::new(engine, n, seed, cost, probe.clone(), link_tags.clone());
                        layers.wrap(Engine::Bracha, Box::new(app))
                    } else if byzantine {
                        let app = byzantine_bracha_app(
                            engine,
                            n,
                            seed,
                            cost,
                            probe.clone(),
                            link_tags.clone(),
                        );
                        layers.wrap(Engine::Byzantine, Box::new(app))
                    } else {
                        crashed()
                    }
                })
                .collect()
        }
        Protocol::Abba => {
            let t = Instant::now();
            let keys = AbbaKeys::trusted_setup(n, f, seed);
            layers.keyring += t.elapsed();
            keys.into_iter()
                .enumerate()
                .map(|(i, k)| {
                    if !faulty(i) {
                        let engine = Abba::new(n, f, i, proposal(i), k, seed + 17 * i as u64);
                        layers.wrap(
                            Engine::Abba,
                            Box::new(AbbaApp::new(engine, n, cost, probe.clone())),
                        )
                    } else if byzantine {
                        layers.wrap(Engine::Byzantine, Box::new(ByzantineAbbaApp::new(i, n)))
                    } else {
                        crashed()
                    }
                })
                .collect()
        }
    };

    let sim_cfg = SimConfig {
        seed,
        phy: w.phy,
        topology: w.topology.clone(),
        ..SimConfig::default()
    };
    let fault = TimedFault::boxed(loss_model(&w.loss, seed)?, layers.fault.clone());
    let t = Instant::now();
    let sim = Simulator::new(sim_cfg, fault, apps);
    layers.sim_new += t.elapsed();
    Ok((sim, probe))
}

/// `Ok` when two runs simulated the same thing: same stop status,
/// decisions, end simtime and network statistics.
pub fn same_outcome(a: &RunOutcome, b: &RunOutcome) -> Result<(), String> {
    let mut diffs = Vec::new();
    if a.status != b.status {
        diffs.push(format!("status {:?} vs {:?}", a.status, b.status));
    }
    if a.decisions != b.decisions {
        diffs.push("decisions differ".to_string());
    }
    if a.end != b.end {
        diffs.push(format!("end simtime {} vs {}", a.end, b.end));
    }
    let (sa, sb) = (format!("{:?}", a.stats), format!("{:?}", b.stats));
    if sa != sb {
        diffs.push(format!(
            "NetStats differ (frames {} vs {}, deliveries {} vs {}, events {} vs {})",
            a.stats.frames_sent(),
            b.stats.frames_sent(),
            a.stats.deliveries,
            b.stats.deliveries,
            a.stats.events_processed,
            b.stats.events_processed
        ));
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join("; "))
    }
}
