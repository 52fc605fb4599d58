//! Golden run digests: a fixed grid of simulated runs, each rendered as
//! one plain-text line and compared byte for byte with the checked-in
//! `tests/goldens/runs.txt`.
//!
//! A line pins everything a run can observe: its stop status and end
//! time, every node's decision and decision time, every `NetStats`
//! counter (host-side `events_processed` included), the peak store
//! estimate and the per-node probe counters. Any change to event order,
//! MAC timing, loss draws, codec bytes, validation verdicts or quorum
//! bookkeeping moves at least one of them. The file changes only when a
//! change to the program deliberately changes semantics; regenerate it
//! then by copying the `runs.txt` this test writes under
//! `CARGO_TARGET_TMPDIR` on a mismatch, and say so in the change.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;
use turquois::harness::adapters::RunProbe;
use turquois::harness::runner::{run_indexed, threads_from_env};
use turquois::harness::{
    FaultLoad, LossSpec, ProposalDistribution, Protocol, RunOutcome, Scenario,
};
use turquois::net::stats::NetStats;
use turquois::net::{CrashSchedule, PartitionSchedule, PhyConfig, SimTime, TopologySpec};

/// The checked-in digests, one line per run of [`grid`].
const GOLDEN: &str = include_str!("goldens/runs.txt");

const LOADS: [FaultLoad; 3] = [
    FaultLoad::FailureFree,
    FaultLoad::FailStop,
    FaultLoad::Byzantine,
];
const PROPOSALS: [ProposalDistribution; 2] = [
    ProposalDistribution::Unanimous,
    ProposalDistribution::Divergent,
];

/// `table_scale`'s population-scaled clock tick: 10 ms · n/16.
fn scale_tick(n: usize) -> Duration {
    Duration::from_millis((10 * n.max(16) as u64).div_ceil(16))
}

/// `table_scale`'s population-scaled contention window: `cw_min = 2n − 1`.
fn scale_phy(n: usize) -> PhyConfig {
    let base = PhyConfig::default();
    let cw_min = base.cw_min.max(2 * n as u32 - 1);
    PhyConfig {
        cw_min,
        cw_max: base.cw_max.max(cw_min),
        ..base
    }
}

fn tag(s: &str) -> String {
    s.to_ascii_lowercase()
}

/// The fixed grid: `(label, scenario)` in file order.
fn grid() -> Vec<(String, Scenario)> {
    let mut runs = Vec::new();
    for protocol in Protocol::ALL {
        for load in LOADS {
            for proposals in PROPOSALS {
                for n in [4usize, 7] {
                    for seed in [1u64, 2] {
                        let label = format!(
                            "{}/{}/{}/n{n}/s{seed}",
                            tag(protocol.name()),
                            tag(load.name()),
                            proposals.name()
                        );
                        let scenario = Scenario::new(protocol, n)
                            .proposals(proposals)
                            .fault_load(load)
                            .seed(seed);
                        runs.push((label, scenario));
                    }
                }
            }
        }
    }
    // Shaped like the `turquois-byz-n64` benchmark workload.
    runs.push((
        "turquois/byzantine/divergent/n64/s1/scaled".into(),
        Scenario::new(Protocol::Turquois, 64)
            .proposals(ProposalDistribution::Divergent)
            .fault_load(FaultLoad::Byzantine)
            .phy(scale_phy(64))
            .tick_interval(scale_tick(64))
            .time_limit(Duration::from_secs(600))
            .seed(1),
    ));
    // Random-waypoint mobility under composed burst + i.i.d. loss.
    runs.push((
        "turquois/fail-stop/divergent/n16/s1/waypoint+burst+iid".into(),
        Scenario::new(Protocol::Turquois, 16)
            .proposals(ProposalDistribution::Divergent)
            .fault_load(FaultLoad::FailStop)
            .loss(LossSpec::Composed(vec![
                LossSpec::Burst(0.05, 0.3, 0.6),
                Scenario::BASELINE_LOSS,
            ]))
            .topology(TopologySpec::Waypoint {
                side_m: 300.0,
                comm_range_m: 250.0,
                interference_range_m: 400.0,
                speed_mps: 5.0,
                pause: Duration::from_secs(1),
                tick: Duration::from_millis(100),
            })
            .time_limit(Duration::from_secs(600))
            .seed(1),
    ));
    // Shaped like the `fault_matrix` S4 cell: burst loss plus a jamming
    // window, node 0 crashing at phase 3 and rejoining 250 ms later,
    // and the Byzantine adversary.
    runs.push((
        "turquois/byzantine/divergent/n7/s1/burst+jam+crash-rejoin".into(),
        Scenario::new(Protocol::Turquois, 7)
            .proposals(ProposalDistribution::Divergent)
            .fault_load(FaultLoad::Byzantine)
            .loss(LossSpec::Composed(vec![
                LossSpec::Burst(0.02, 0.25, 0.6),
                LossSpec::Jam {
                    start_ms: 30,
                    len_ms: 60,
                },
            ]))
            .crashes(
                CrashSchedule::new()
                    .crash_at_phase(0, 3)
                    .rejoin_after(Duration::from_millis(250)),
            )
            .seed(1),
    ));
    // Scheduled partition: even halves (below every quorum) from 5 ms,
    // healed at 1 s.
    for protocol in Protocol::ALL {
        let schedule = PartitionSchedule::new()
            .split_at(
                SimTime::from_millis(5),
                vec![(0..4).collect(), (4..7).collect()],
            )
            .heal_at(SimTime::from_millis(1_000));
        runs.push((
            format!(
                "{}/failure-free/divergent/n7/s1/partition",
                tag(protocol.name())
            ),
            Scenario::new(protocol, 7)
                .proposals(ProposalDistribution::Divergent)
                .topology(TopologySpec::Partition(schedule))
                .seed(1),
        ));
    }
    runs
}

fn list<T: std::fmt::Display>(items: &[T]) -> String {
    let parts: Vec<String> = items.iter().map(T::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// One run as one line. The destructuring is exhaustive on purpose: a
/// counter added to `NetStats` or `RunProbe` fails to compile here
/// until it is pinned too.
fn digest(label: &str, o: &RunOutcome) -> String {
    let mut line = format!("{label} status={:?} end={}", o.status, o.end.as_nanos());
    let decisions: Vec<String> = o
        .decisions
        .iter()
        .map(|d| match d {
            Some(d) => format!("{}@{}", u8::from(d.value), d.time.as_nanos()),
            None => "-".into(),
        })
        .collect();
    write!(line, " dec={}", list(&decisions)).unwrap();

    let NetStats {
        broadcast_frames_sent,
        unicast_frames_sent,
        unicast_sends,
        broadcast_sends,
        collisions,
        fault_drops,
        mac_failures,
        queue_drops,
        crash_drops,
        deliveries,
        events_processed,
        loopback_deliveries,
        channel_busy,
        payload_bytes_sent,
        per_node_tx,
        per_node_rx,
        per_node_queue_drops,
    } = &o.stats;
    write!(
        line,
        " bframes={broadcast_frames_sent} uframes={unicast_frames_sent} usends={unicast_sends} \
         bsends={broadcast_sends} coll={collisions} fdrop={fault_drops} macfail={mac_failures} \
         qdrop={queue_drops} cdrop={crash_drops} deliv={deliveries} events={events_processed} \
         loop={loopback_deliveries} busy={} payload={payload_bytes_sent} tx={} rx={} qd={}",
        channel_busy.as_nanos(),
        list(per_node_tx),
        list(per_node_rx),
        list(per_node_queue_drops),
    )
    .unwrap();

    write!(line, " peak_store={}", o.peak_store_bytes).unwrap();

    let RunProbe {
        phase_at_decision,
        accepted,
        rejected,
        keys_exhausted,
        final_phase,
    } = &o.probe;
    let decided_phase: Vec<String> = phase_at_decision
        .iter()
        .map(|p| p.map_or("-".into(), |p| p.to_string()))
        .collect();
    let exhausted: Vec<u8> = keys_exhausted.iter().map(|&b| u8::from(b)).collect();
    write!(
        line,
        " acc={} rej={} fphase={} dphase={} kx={}",
        list(accepted),
        list(rejected),
        list(final_phase),
        list(&decided_phase),
        list(&exhausted),
    )
    .unwrap();
    line
}

/// Writes the actual digests where a mismatching run can be inspected
/// and, if the change is deliberate, copied over the golden file.
fn write_actual(actual: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("goldens");
    std::fs::create_dir_all(&dir).expect("create the goldens output directory");
    let path = dir.join("runs.txt");
    std::fs::write(&path, actual).expect("write the actual digests");
    path
}

#[test]
fn runs_match_checked_in_digests() {
    let runs = grid();
    let lines = run_indexed(threads_from_env(), &runs, |_, (label, scenario)| {
        let outcome = scenario.run_once().expect("valid scenario");
        assert!(outcome.agreement_holds(), "{label}: agreement violated");
        assert!(outcome.validity_holds(), "{label}: validity violated");
        digest(label, &outcome)
    });
    let mut actual = lines.join("\n");
    actual.push('\n');
    if actual == GOLDEN {
        return;
    }

    let path = write_actual(&actual);
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let first = (0..expected.len().max(got.len()))
        .find(|&i| expected.get(i) != got.get(i))
        .expect("texts differ, so some line does");
    let run = |line: Option<&&str>| {
        line.and_then(|l| l.split(' ').next())
            .unwrap_or("<missing>")
            .to_string()
    };
    panic!(
        "run digests differ from tests/goldens/runs.txt at line {} (run {}):\n  \
         expected: {}\n  actual:   {}\nfull actual digests written to {}",
        first + 1,
        run(got.get(first).or(expected.get(first))),
        expected.get(first).copied().unwrap_or("<missing>"),
        got.get(first).copied().unwrap_or("<missing>"),
        path.display()
    );
}
