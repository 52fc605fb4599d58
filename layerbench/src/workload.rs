//! The benchmark's workloads: which scenarios one run of each executes.
//!
//! A workload is a list of [`Scenario`] cells per round (one cell per
//! protocol it covers). Every cell of a round shares that round's seed,
//! and round seeds derive from the benchmark's `--seed` argument alone,
//! so the same arguments always simulate the same runs.

use std::time::Duration;
use turquois_harness::{FaultLoad, LossSpec, ProposalDistribution, Protocol, Scenario};
use wireless_net::{PhyConfig, TopologySpec};

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Protocols run in each round, in order.
    pub protocols: &'static [Protocol],
    /// Group size.
    pub n: usize,
    /// Fault load applied to the last `f` processes.
    pub fault_load: FaultLoad,
    /// Injected loss on top of MAC collisions.
    pub loss: LossSpec,
    /// Radio topology.
    pub topology: TopologySpec,
    /// PHY/MAC parameters.
    pub phy: PhyConfig,
    /// Turquois clock tick (no effect on the TCP baselines).
    pub tick: Duration,
    /// Simulated-time budget of one cell.
    pub time_limit: Duration,
    /// Host seconds one round takes on the reference host (2-core
    /// x86-64); [`Workload::rounds`] turns `--seconds` into a fixed
    /// round count with it.
    pub round_s: f64,
}

/// Proposal pattern of every workload: odd identifiers propose 1.
pub const PROPOSALS: ProposalDistribution = ProposalDistribution::Divergent;

/// Every workload, in the order `BENCHMARK.json` lists them, then the
/// ones it leaves out.
pub const NAMES: [&str; 4] = [
    "turquois-byz-n64",
    "tcp-baselines-n25",
    "turquois-mobile-n64",
    "turquois-byz-n128",
];

/// The Turquois clock tick scaled to the population, as in the
/// `table_scale` experiment: 10 ms · n/16, rounded up (10 ms at n = 16).
pub fn scale_tick(n: usize) -> Duration {
    Duration::from_millis((10 * n.max(16) as u64).div_ceil(16))
}

/// The MAC contention window scaled to the population, as in the
/// `table_scale` experiment: `cw_min = 2n − 1` (the paper's 31 at
/// n = 16), with `cw_max` raised to match if needed.
pub fn scale_phy(n: usize) -> PhyConfig {
    let base = PhyConfig::default();
    let cw_min = base.cw_min.max(2 * n as u32 - 1);
    PhyConfig {
        cw_min,
        cw_max: base.cw_max.max(cw_min),
        ..base
    }
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            "turquois-byz-n64" => Workload::byzantine("turquois-byz-n64", 64, 2.0),
            "turquois-byz-n128" => Workload::byzantine("turquois-byz-n128", 128, 25.0),
            // Bracha's local coin gives it a heavy tail of rounds that
            // grows with n: at n = 31 about one divergent run in fifty
            // does not decide within 600 simulated seconds.
            "tcp-baselines-n25" => Workload {
                name: "tcp-baselines-n25",
                protocols: &[Protocol::Bracha, Protocol::Abba],
                n: 25,
                fault_load: FaultLoad::Byzantine,
                loss: Scenario::BASELINE_LOSS,
                topology: TopologySpec::SingleDomain,
                phy: PhyConfig::default(),
                tick: turquois_harness::adapters::TICK_INTERVAL,
                time_limit: Duration::from_secs(1800),
                round_s: 1.9,
            },
            "turquois-mobile-n64" => Workload {
                name: "turquois-mobile-n64",
                protocols: &[Protocol::Turquois],
                n: 64,
                fault_load: FaultLoad::FailStop,
                loss: LossSpec::Composed(vec![
                    LossSpec::Burst(0.05, 0.3, 0.6),
                    Scenario::BASELINE_LOSS,
                ]),
                topology: TopologySpec::Waypoint {
                    side_m: 300.0,
                    comm_range_m: 250.0,
                    interference_range_m: 400.0,
                    speed_mps: 5.0,
                    pause: Duration::from_secs(1),
                    tick: Duration::from_millis(100),
                },
                phy: scale_phy(64),
                tick: scale_tick(64),
                time_limit: Duration::from_secs(600),
                round_s: 0.4,
            },
            _ => return None,
        };
        Some(w)
    }

    /// Turquois with divergent proposals, `f` value-flippers and the
    /// baseline 2 % loss at `table_scale`'s population scaling.
    fn byzantine(name: &'static str, n: usize, round_s: f64) -> Workload {
        Workload {
            name,
            protocols: &[Protocol::Turquois],
            n,
            fault_load: FaultLoad::Byzantine,
            loss: Scenario::BASELINE_LOSS,
            topology: TopologySpec::SingleDomain,
            phy: scale_phy(n),
            tick: scale_tick(n),
            time_limit: Duration::from_secs(600),
            round_s,
        }
    }

    /// Rounds one invocation runs for a nominal `seconds` of measuring:
    /// fixed by the arguments, so every simulated metric is too.
    pub fn rounds(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.round_s).round() as usize).max(1)
    }

    /// Whether process `i` is faulty when `f` processes may be (the
    /// last `f`, as in `Scenario::build_sim`).
    pub fn faulty(&self, i: usize, f: usize) -> bool {
        self.fault_load != FaultLoad::FailureFree && i >= self.n - f
    }

    /// The scenarios of one round, all seeded with `seed`.
    pub fn cells(&self, seed: u64) -> Vec<Scenario> {
        self.protocols
            .iter()
            .map(|&p| {
                Scenario::new(p, self.n)
                    .proposals(PROPOSALS)
                    .fault_load(self.fault_load)
                    .loss(self.loss.clone())
                    .topology(self.topology.clone())
                    .phy(self.phy)
                    .tick_interval(self.tick)
                    .time_limit(self.time_limit)
                    .seed(seed)
            })
            .collect()
    }
}

/// The seed of round `round` under benchmark seed `seed` (SplitMix64
/// finaliser over both, so neighbouring seeds give unrelated runs).
pub fn run_seed(seed: u64, round: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(round as u64 + 1)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
