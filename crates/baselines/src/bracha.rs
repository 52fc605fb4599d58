//! Bracha's asynchronous ⌊(n−1)/3⌋-resilient binary consensus (PODC
//! 1984) — the first baseline of the paper's evaluation.
//!
//! Every logical message is sent through [`ReliableBroadcast`], which is
//! what gives the protocol its O(n³) message complexity and prevents
//! Byzantine equivocation. Rounds have three steps:
//!
//! 1. broadcast `(k, 1, v)`; await `n − f` valid step-1 messages; adopt
//!    the majority value.
//! 2. broadcast `(k, 2, v)`; await `n − f`; if more than `n/2` carry the
//!    same `w`, adopt `w`, else adopt `⊥` (no super-majority witnessed).
//! 3. broadcast `(k, 3, v)`; await `n − f`; with at least `2f + 1`
//!    non-`⊥` `w`: **decide** `w`; with at least `f + 1`: adopt `w`;
//!    otherwise flip the local coin.
//!
//! Messages carry no signatures (the channels are authenticated — IPSec
//! AH in the paper, per-link HMAC in the reproduction's adapter), but a
//! *validation* filter discards values a correct process could not have
//! computed (Bracha's "validated messages"; see `Bracha::is_valid` in the
//! source).
//! Validation is monotone in delivered evidence, so rejected messages
//! are kept pending and re-examined as evidence accumulates.

use crate::rbc::{RbcMessage, RbcView, ReliableBroadcast, Tag};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A step value: a binary value or `⊥` (step 3 only).
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum StepValue {
    /// Binary 0.
    Zero,
    /// Binary 1.
    One,
    /// No super-majority witnessed (legal only in step 3).
    Null,
}

impl StepValue {
    fn from_bit(bit: bool) -> StepValue {
        if bit {
            StepValue::One
        } else {
            StepValue::Zero
        }
    }

    fn as_bit(self) -> Option<bool> {
        match self {
            StepValue::Zero => Some(false),
            StepValue::One => Some(true),
            StepValue::Null => None,
        }
    }

    fn encode(self) -> u8 {
        match self {
            StepValue::Zero => 0,
            StepValue::One => 1,
            StepValue::Null => 2,
        }
    }

    fn decode(byte: u8) -> Option<StepValue> {
        match byte {
            0 => Some(StepValue::Zero),
            1 => Some(StepValue::One),
            2 => Some(StepValue::Null),
            _ => None,
        }
    }

    /// The opposite binary value (used by the evaluation's Byzantine
    /// strategy); `Null` maps to itself.
    pub fn flipped(self) -> StepValue {
        match self {
            StepValue::Zero => StepValue::One,
            StepValue::One => StepValue::Zero,
            StepValue::Null => StepValue::Null,
        }
    }
}

/// Output of feeding one network message to the engine.
#[derive(Debug, Default)]
pub struct BrachaOutput {
    /// Wire messages to send to every process (via the reliable
    /// point-to-point transport).
    pub send: Vec<Bytes>,
    /// Set when this call made the process decide.
    pub newly_decided: Option<bool>,
}

/// Tally index for a [`StepValue`] (`Zero`, `One`, `Null` in order).
#[inline]
fn sv_idx(value: StepValue) -> usize {
    match value {
        StepValue::Zero => 0,
        StepValue::One => 1,
        StepValue::Null => 2,
    }
}

/// Dense-table sentinel: no value accepted from this sender yet.
const NO_VOTE: u8 = u8::MAX;

#[derive(Debug, Default)]
struct RoundState {
    /// Validated step values per step (1-3): dense sender-indexed byte
    /// tables (node ids are dense `0..n`; entries hold
    /// `StepValue::encode` or [`NO_VOTE`]), grown on demand — one byte
    /// per sender.
    accepted: [Vec<u8>; 3],
    /// Incremental per-(step, value) sender tallies over `accepted`
    /// (indexed `[step-1][sv_idx]`), so `is_valid`'s majority probes and
    /// `try_fire`'s quorum counts are O(1) instead of rescanning the
    /// tables on every pending message.
    counts: [[usize; 3]; 3],
    /// Distinct senders accepted per step (replaces the retired
    /// `accepted[step].len()` read in `try_fire`).
    totals: [usize; 3],
    /// Steps already advanced past.
    fired: [bool; 3],
}

impl RoundState {
    /// Records `origin`'s step value if it is the first one accepted
    /// from that sender at `step` (later values from the same sender
    /// are ignored, preserving first-wins semantics).
    fn accept(&mut self, step: u8, origin: usize, value: StepValue) {
        let s = (step - 1) as usize;
        let table = &mut self.accepted[s];
        if table.len() <= origin {
            table.resize(origin + 1, NO_VOTE);
        }
        if table[origin] == NO_VOTE {
            table[origin] = value.encode();
            self.counts[s][sv_idx(value)] += 1;
            self.totals[s] += 1;
        }
    }

    /// Senders whose accepted value at `step` equals `value`. O(1).
    fn count(&self, step: u8, value: StepValue) -> usize {
        debug_assert_eq!(
            self.counts[(step - 1) as usize][sv_idx(value)],
            self.scan_count(step, value)
        );
        self.counts[(step - 1) as usize][sv_idx(value)]
    }

    /// Distinct senders accepted at `step`. O(1).
    fn total(&self, step: u8) -> usize {
        debug_assert_eq!(self.totals[(step - 1) as usize], self.scan_total(step));
        self.totals[(step - 1) as usize]
    }

    /// The retired scan `count` replaced; kept as the `debug_assert!`
    /// oracle (and exercised by the proptest).
    fn scan_count(&self, step: u8, value: StepValue) -> usize {
        self.accepted[(step - 1) as usize]
            .iter()
            .filter(|&&b| b == value.encode())
            .count()
    }

    /// The retired length scan `total` replaced (debug oracle).
    fn scan_total(&self, step: u8) -> usize {
        self.accepted[(step - 1) as usize]
            .iter()
            .filter(|&&b| b != NO_VOTE)
            .count()
    }
}

/// One process's Bracha consensus engine.
#[derive(Debug)]
pub struct Bracha {
    n: usize,
    f: usize,
    me: usize,
    rbc: ReliableBroadcast,
    round: u32,
    step: u8,
    value: StepValue,
    decision: Option<bool>,
    rounds: HashMap<u32, RoundState>,
    /// Delivered-but-not-yet-valid messages, re-examined as evidence
    /// grows.
    pending: Vec<(Tag, StepValue)>,
    rng: StdRng,
    /// Total RBC deliveries (diagnostics).
    deliveries: u64,
}

impl Bracha {
    /// Creates the engine for process `me`, proposing `proposal`.
    ///
    /// # Panics
    ///
    /// Panics unless `3f < n` and `me < n`.
    pub fn new(n: usize, f: usize, me: usize, proposal: bool, seed: u64) -> Self {
        Bracha {
            n,
            f,
            me,
            rbc: ReliableBroadcast::new(n, f, me),
            round: 1,
            step: 1,
            value: StepValue::from_bit(proposal),
            decision: None,
            rounds: HashMap::new(),
            pending: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0xb2ac_4a84),
            deliveries: 0,
        }
    }

    /// This process's id.
    pub fn id(&self) -> usize {
        self.me
    }

    /// Current round.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Current step within the round (1–3).
    pub fn step(&self) -> u8 {
        self.step
    }

    /// The decision, once reached.
    pub fn decision(&self) -> Option<bool> {
        self.decision
    }

    /// Total reliable-broadcast deliveries so far.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Deterministic estimate of the engine's consensus-store footprint
    /// in bytes: 64 per live round plus one byte per accepted vote and
    /// 8 per pending message. Reads the O(1) per-round tallies (the
    /// round map holds a GC-bounded handful of entries), is a function
    /// of logical content only — never of map capacities — and is
    /// identical in both vote-table layouts. Excludes the RBC layer.
    pub fn store_bytes(&self) -> usize {
        let votes: usize = self
            .rounds
            .values()
            .map(|rs| rs.totals.iter().sum::<usize>())
            .sum();
        self.rounds.len() * 64 + votes + 8 * self.pending.len()
    }

    /// Starts the protocol: broadcast the round-1 step-1 value.
    pub fn on_start(&mut self) -> BrachaOutput {
        let mut out = BrachaOutput::default();
        self.send_current(&mut out);
        out
    }

    /// Processes a wire message from link-layer sender `from`.
    ///
    /// The wire bytes are parsed into a borrowed [`RbcView`] (no
    /// payload copy, DESIGN.md §13).
    pub fn on_message(&mut self, from: usize, bytes: &[u8]) -> BrachaOutput {
        let mut out = BrachaOutput::default();
        let Some(view) = RbcView::parse(bytes) else {
            return out;
        };
        let rbc_out = self.rbc.on_view(from, &view);
        out.send.extend(rbc_out.send.iter().map(RbcMessage::encode));
        for (tag, payload) in rbc_out.deliver {
            self.deliveries += 1;
            if payload.len() != 1 {
                continue;
            }
            let Some(value) = StepValue::decode(payload[0]) else {
                continue;
            };
            if tag.step < 1 || tag.step > 3 {
                continue;
            }
            // Null is legal only in step 3.
            if value == StepValue::Null && tag.step != 3 {
                continue;
            }
            self.pending.push((tag, value));
        }
        self.drain_pending(&mut out);
        out
    }

    /// Moves pending messages that have become valid into the accepted
    /// sets and fires any step transitions, to fixpoint.
    fn drain_pending(&mut self, out: &mut BrachaOutput) {
        loop {
            let mut progressed = false;
            let mut still_pending = Vec::new();
            for (tag, value) in std::mem::take(&mut self.pending) {
                if self.is_valid(tag, value) {
                    let rs = self.rounds.entry(tag.round).or_default();
                    rs.accept(tag.step, tag.origin, value);
                    progressed = true;
                } else {
                    still_pending.push((tag, value));
                }
            }
            self.pending = still_pending;
            while self.try_fire(out) {
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Bracha's message validation: would a correct process ever send
    /// this? Monotone in accepted evidence.
    fn is_valid(&self, tag: Tag, value: StepValue) -> bool {
        let majority_feasible = |round: u32, step: usize, v: StepValue, threshold: usize| {
            self.rounds
                .get(&round)
                .map(|rs| rs.count(step as u8, v) >= threshold)
                .unwrap_or(false)
        };
        match tag.step {
            1 => {
                if tag.round == 1 {
                    return true; // initial proposals are free
                }
                // A round-(k) step-1 binary value must have appeared in
                // round k−1 step 3 (adoption), or a coin flip must have
                // been plausible (some ⊥ witnessed there).
                majority_feasible(tag.round - 1, 3, value, 1)
                    || majority_feasible(tag.round - 1, 3, StepValue::Null, 1)
            }
            2 => {
                // The claimed majority value must be adoptable from some
                // (n−f)-subset of step-1 senders — under the step-1
                // tie-break (ties go to One): Zero must strictly
                // outnumber One (⌊(n−f)/2⌋+1 senders), while One also
                // wins a tie (⌈(n−f)/2⌉ suffice). When n−f is odd the
                // thresholds coincide; when it is even a correct process
                // can adopt One from a tie, and demanding the strict
                // majority would pend its step-2 message forever —
                // deadlocking the round once fewer than n−f step-2
                // messages can validate.
                let need = match value {
                    StepValue::One => (self.n - self.f).div_ceil(2),
                    _ => (self.n - self.f) / 2 + 1,
                };
                majority_feasible(tag.round, 1, value, need)
            }
            3 => match value {
                // A binary step-3 value claims a > n/2 step-2 majority.
                StepValue::Zero | StepValue::One => {
                    majority_feasible(tag.round, 2, value, self.n / 2 + 1)
                }
                // ⊥ claims the absence of a super-majority. A correct
                // ⊥-sender accepted n−f step-2 messages with no value
                // above n/2, which forces at least one of *each* value in
                // its view — evidence that must eventually reach us too.
                // (Monotone, and it bars Byzantine ⊥ in unanimous runs.)
                StepValue::Null => {
                    majority_feasible(tag.round, 2, StepValue::Zero, 1)
                        && majority_feasible(tag.round, 2, StepValue::One, 1)
                }
            },
            _ => false,
        }
    }

    /// Fires the current step's transition if its quorum is ready.
    fn try_fire(&mut self, out: &mut BrachaOutput) -> bool {
        let round = self.round;
        let step = self.step;
        let need = self.n - self.f;
        let rs = self.rounds.entry(round).or_default();
        if rs.fired[(step - 1) as usize] {
            return false;
        }
        if rs.total(step) < need {
            return false;
        }
        rs.fired[(step - 1) as usize] = true;
        // O(1) reads from the incremental tallies; `Null` counts are
        // never needed by the transitions below.
        let zero = rs.count(step, StepValue::Zero);
        let one = rs.count(step, StepValue::One);
        match step {
            1 => {
                // Majority value (ties to One, mirroring the Turquois
                // tie-break for comparability).
                self.value = if zero > one {
                    StepValue::Zero
                } else {
                    StepValue::One
                };
                self.step = 2;
            }
            2 => {
                let w = [(StepValue::Zero, zero), (StepValue::One, one)]
                    .into_iter()
                    .find(|&(_, c)| 2 * c > self.n)
                    .map(|(v, _)| v);
                self.value = w.unwrap_or(StepValue::Null);
                self.step = 3;
            }
            _ => {
                let (best, best_count) = if zero > one {
                    (StepValue::Zero, zero)
                } else {
                    (StepValue::One, one)
                };
                if best_count >= 2 * self.f + 1 {
                    if self.decision.is_none() {
                        self.decision = best.as_bit();
                        out.newly_decided = self.decision;
                    }
                    self.value = best;
                } else if best_count >= self.f + 1 {
                    self.value = best;
                } else {
                    self.value = StepValue::from_bit(self.rng.gen_bool(0.5));
                }
                self.step = 1;
                self.round += 1;
                // GC: evidence older than the previous round is dead.
                if self.round > 2 {
                    let floor = self.round - 2;
                    self.rounds.retain(|&r, _| r >= floor);
                    self.rbc.prune_rounds_below(floor);
                    self.pending.retain(|(t, _)| t.round >= floor);
                }
            }
        }
        self.send_current(out);
        true
    }

    fn send_current(&mut self, out: &mut BrachaOutput) {
        let payload = Bytes::copy_from_slice(&[self.value.encode()]);
        let rbc_out = self.rbc.broadcast(self.round, self.step, payload);
        out.send.extend(rbc_out.send.iter().map(RbcMessage::encode));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rbc::RbcMessage;

    /// Lossless full-information network: every sent message reaches
    /// every process (including the sender). Returns decisions.
    fn run_lossless(engines: &mut [Bracha], max_iters: usize) -> Vec<Option<bool>> {
        let mut queue: Vec<(usize, Bytes)> = Vec::new();
        for e in engines.iter_mut() {
            let out = e.on_start();
            let me = e.id();
            queue.extend(out.send.into_iter().map(|b| (me, b)));
        }
        let mut iters = 0;
        while let Some((from, bytes)) = queue.pop() {
            iters += 1;
            if iters > max_iters {
                panic!("message budget exceeded — likely livelock");
            }
            for (to, engine) in engines.iter_mut().enumerate() {
                let out = engine.on_message(from, &bytes);
                queue.extend(out.send.into_iter().map(|b| (to, b)));
            }
            if engines.iter().all(|e| e.decision().is_some()) {
                break;
            }
        }
        engines.iter().map(|e| e.decision()).collect()
    }

    fn group(n: usize, f: usize, proposals: &[bool], seed: u64) -> Vec<Bracha> {
        (0..n)
            .map(|me| Bracha::new(n, f, me, proposals[me % proposals.len()], seed + me as u64))
            .collect()
    }

    #[test]
    fn unanimous_decides_proposed_value() {
        for bit in [false, true] {
            let mut engines = group(4, 1, &[bit], 1);
            let decisions = run_lossless(&mut engines, 2_000_000);
            assert!(
                decisions.iter().all(|d| *d == Some(bit)),
                "bit={bit}: {decisions:?}"
            );
        }
    }

    #[test]
    fn divergent_proposals_agree() {
        for seed in 0..4u64 {
            let mut engines = group(4, 1, &[true, false], seed * 7);
            let decisions = run_lossless(&mut engines, 5_000_000);
            let first = decisions[0].expect("lossless run decides");
            assert!(
                decisions.iter().all(|d| *d == Some(first)),
                "seed={seed}: {decisions:?}"
            );
        }
    }

    #[test]
    fn larger_group_unanimous() {
        let mut engines = group(7, 2, &[true], 3);
        let decisions = run_lossless(&mut engines, 5_000_000);
        assert!(decisions.iter().all(|d| *d == Some(true)));
    }

    #[test]
    fn crashed_minority_does_not_block() {
        // f = 1 process silent from the start (n = 4): the rest decide.
        let mut engines = group(4, 1, &[true], 9);
        let n = 4;
        let mut queue: Vec<(usize, Bytes)> = Vec::new();
        for e in engines.iter_mut().take(3) {
            let out = e.on_start();
            let me = e.id();
            queue.extend(out.send.into_iter().map(|b| (me, b)));
        }
        let mut iters = 0;
        while let Some((from, bytes)) = queue.pop() {
            iters += 1;
            assert!(iters < 2_000_000, "livelock");
            for (to, engine) in engines.iter_mut().enumerate().take(n - 1) {
                // process 3 crashed: receives nothing
                let out = engine.on_message(from, &bytes);
                queue.extend(out.send.into_iter().map(|b| (to, b)));
            }
            if engines[..3].iter().all(|e| e.decision().is_some()) {
                break;
            }
        }
        assert!(engines[..3].iter().all(|e| e.decision() == Some(true)));
    }

    #[test]
    fn byzantine_value_flip_cannot_break_unanimous_validity() {
        // n = 4, f = 1. Process 3 is Byzantine: it reliably-broadcasts
        // the flipped value at steps 1 and 2, ⊥ at step 3 (the paper's
        // §7.2 strategy). Correct processes all propose `true` and must
        // decide `true`.
        let n = 4;
        let f = 1;
        let mut engines: Vec<Bracha> = (0..3).map(|me| Bracha::new(n, f, me, true, me as u64)).collect();
        // The Byzantine node runs its own RBC engine to participate in
        // echo/ready (it wants its lies delivered).
        let mut evil_rbc = ReliableBroadcast::new(n, f, 3);
        let mut queue: Vec<(usize, Bytes)> = Vec::new();
        for e in engines.iter_mut() {
            let out = e.on_start();
            let me = e.id();
            queue.extend(out.send.into_iter().map(|b| (me, b)));
        }
        // Byzantine lies for round 1 (it stays in round 1; that is the
        // worst it can do for a unanimous round-1 decision).
        for (step, value) in [
            (1u8, StepValue::Zero), // flipped
            (2, StepValue::Zero),   // flipped
            (3, StepValue::Null),
        ] {
            let out = evil_rbc.broadcast(1, step, Bytes::copy_from_slice(&[value.encode()]));
            queue.extend(out.send.into_iter().map(|m| (3usize, m.encode())));
        }
        let mut iters = 0;
        while let Some((from, bytes)) = queue.pop() {
            iters += 1;
            assert!(iters < 2_000_000, "livelock");
            // Correct processes receive everything; the Byzantine node's
            // RBC engine also participates (echoes/readies).
            if let Some(msg) = RbcMessage::decode(&bytes) {
                let out = evil_rbc.on_message(from, &msg);
                queue.extend(out.send.into_iter().map(|m| (3usize, m.encode())));
            }
            for (to, engine) in engines.iter_mut().enumerate() {
                let out = engine.on_message(from, &bytes);
                queue.extend(out.send.into_iter().map(|b| (to, b)));
            }
            if engines.iter().all(|e| e.decision().is_some()) {
                break;
            }
        }
        for e in &engines {
            assert_eq!(e.decision(), Some(true), "validity must hold");
        }
    }

    #[test]
    fn even_quorum_tie_adoption_recovers_after_partition() {
        // n = 5, f = 1 ⇒ n − f = 4 is even: a process firing step 1 on
        // a 2–2 tie adopts One (the tie-break). Step-2 validation must
        // accept the resulting One with only ⌈(n−f)/2⌉ = 2 step-1
        // One-senders in existence, or the round deadlocks. Emulated
        // 4|1 partition: traffic crossing the split is buffered and
        // released at the heal (what a reliable transport does), so the
        // majority fires step 1 on exactly the four majority proposals
        // {0, 1, 0, 1} — the tie. Proposals overall are 3×Zero, 2×One:
        // under the pre-fix strict-majority validation the four tie-
        // adopted step-2 Ones could never validate and nobody reached
        // n − f step-2 acceptances — the queue drained undecided.
        let n = 5;
        let mut engines = group(n, 1, &[false, true, false, true, false], 5);
        let mut queue: Vec<(usize, usize, Bytes)> = Vec::new();
        let mut held: Vec<(usize, usize, Bytes)> = Vec::new();
        for e in engines.iter_mut() {
            let out = e.on_start();
            let me = e.id();
            for b in out.send {
                for to in 0..n {
                    queue.push((me, to, b.clone()));
                }
            }
        }
        let mut healed = false;
        let mut iters = 0;
        while !engines.iter().all(|e| e.decision().is_some()) {
            // Heal once the majority side has run its course: decided
            // (fixed validation) or wedged with the network quiescent
            // (the pre-fix deadlock).
            if !healed
                && (queue.is_empty() || engines[..4].iter().all(|e| e.decision().is_some()))
            {
                healed = true;
                queue.append(&mut held);
            }
            let Some((from, to, bytes)) = queue.pop() else {
                panic!("deadlock: network quiescent after heal, undecided");
            };
            iters += 1;
            assert!(iters < 5_000_000, "livelock");
            if !healed && (from == 4) != (to == 4) {
                held.push((from, to, bytes));
                continue;
            }
            let out = engines[to].on_message(from, &bytes);
            for b in out.send {
                for dst in 0..n {
                    queue.push((to, dst, b.clone()));
                }
            }
        }
        let first = engines[0].decision().expect("all decided");
        assert!(
            engines.iter().all(|e| e.decision() == Some(first)),
            "agreement after heal"
        );
    }

    #[test]
    fn step_value_helpers() {
        assert_eq!(StepValue::from_bit(true), StepValue::One);
        assert_eq!(StepValue::One.as_bit(), Some(true));
        assert_eq!(StepValue::Null.as_bit(), None);
        assert_eq!(StepValue::Zero.flipped(), StepValue::One);
        assert_eq!(StepValue::Null.flipped(), StepValue::Null);
        assert_eq!(StepValue::decode(3), None);
        for v in [StepValue::Zero, StepValue::One, StepValue::Null] {
            assert_eq!(StepValue::decode(v.encode()), Some(v));
        }
    }

    #[test]
    fn garbage_bytes_ignored() {
        let mut e = Bracha::new(4, 1, 0, true, 1);
        let out = e.on_message(1, b"garbage");
        assert!(out.send.is_empty());
        assert_eq!(out.newly_decided, None);
    }

    /// Every message the engines emit through a full run decodes, and
    /// re-encoding the decoded message gives back the same bytes.
    #[test]
    fn wire_bytes_match_owned_codec() {
        let n = 4;
        let mut engines = group(n, 1, &[true, false], 21);
        let mut queue: Vec<(usize, Bytes)> = Vec::new();
        for e in engines.iter_mut() {
            let out = e.on_start();
            let me = e.id();
            queue.extend(out.send.into_iter().map(|b| (me, b)));
        }
        let mut iters = 0;
        while let Some((from, bytes)) = queue.pop() {
            iters += 1;
            assert!(iters < 2_000_000, "livelock");
            let owned = RbcMessage::decode(&bytes).expect("engines emit valid messages");
            assert_eq!(&owned.encode()[..], &bytes[..]);
            for (to, engine) in engines.iter_mut().enumerate() {
                let out = engine.on_message(from, &bytes);
                queue.extend(out.send.into_iter().map(|b| (to, b)));
            }
            if engines.iter().all(|e| e.decision().is_some()) {
                break;
            }
        }
        assert!(engines.iter().all(|e| e.decision().is_some()), "the run decided");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// [`RoundState`] incremental tallies vs. the retired scan
        /// oracle under arbitrary interleavings of accepts (including
        /// duplicate senders — first value wins — and conflicting
        /// values) and round garbage collection — and against the
        /// reference hash-map layout on every query.
        #[test]
        fn round_state_tallies_match_scan_oracle(
            ops in proptest::collection::vec(
                // (round, step sel, origin, value sel, gc trigger)
                (1u32..6, 1u8..4, 0usize..7, 0u8..3, 0u8..16),
                1..80,
            ),
        ) {
            // The reference layout: per round and step, one
            // sender→value hash map, first value wins.
            let mut rounds: HashMap<u32, RoundState> = HashMap::new();
            let mut reference: HashMap<u32, [HashMap<usize, StepValue>; 3]> = HashMap::new();
            for (round, step, origin, v, gc) in ops {
                if gc == 0 {
                    // The engine's GC drops whole rounds below a floor.
                    rounds.retain(|&r, _| r >= round);
                    reference.retain(|&r, _| r >= round);
                } else {
                    let value = [StepValue::Zero, StepValue::One, StepValue::Null][v as usize];
                    rounds.entry(round).or_default().accept(step, origin, value);
                    reference.entry(round).or_default()[(step - 1) as usize]
                        .entry(origin)
                        .or_insert(value);
                }
                for (&round, rs) in &rounds {
                    let steps = &reference[&round];
                    for step in 1u8..=3 {
                        let accepted = &steps[(step - 1) as usize];
                        proptest::prop_assert_eq!(rs.total(step), rs.scan_total(step));
                        proptest::prop_assert_eq!(rs.total(step), accepted.len());
                        for value in [StepValue::Zero, StepValue::One, StepValue::Null] {
                            proptest::prop_assert_eq!(
                                rs.count(step, value),
                                rs.scan_count(step, value)
                            );
                            proptest::prop_assert_eq!(
                                rs.count(step, value),
                                accepted.values().filter(|&&x| x == value).count()
                            );
                        }
                    }
                }
            }
        }
    }
}
