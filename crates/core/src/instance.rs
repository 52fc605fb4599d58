//! The `Turquois` protocol instance: the complete per-process engine.
//!
//! This type glues together the pieces of the protocol — the
//! [`ProcessState`] of Algorithm 1, the authenticity validation of §6.1
//! ([`KeyRing`]), and the semantic validation of §6.2 — behind a sans-io
//! interface:
//!
//! * [`Turquois::on_tick`] implements task T1: it produces the broadcast
//!   for the current state. Following the paper's implementation, the
//!   *first* broadcast of a state is bare (implicit validation,
//!   optimistic); if the next tick still broadcasts the same state, the
//!   justification messages are attached (explicit validation).
//! * [`Turquois::on_message`] implements task T2: decode, authenticate,
//!   semantically validate, insert into `V_i`, and advance the state
//!   machine to fixpoint.
//!
//! The caller (simulator adapter, live UDP runtime, or a test harness)
//! owns the clock and the network: the instance never blocks and never
//! talks to a socket.
//!
//! # Two stores
//!
//! The paper leaves the interaction of explicit justifications with
//! stragglers underspecified (validating attachments recursively would
//! require unbounded evidence chains). The reproduction keeps two
//! sender-deduplicated stores (see `DESIGN.md` §5):
//!
//! * **evidence** — every *authentic* message seen, including
//!   justification attachments. Semantic-validation thresholds count this
//!   store. Since every threshold minimum exceeds `f`, Byzantine-only
//!   fabrications can never satisfy a check.
//! * **valid (`V_i`)** — messages that passed both validations; the only
//!   store protocol transitions count.

use crate::config::Config;
use crate::keyring::KeyRing;
use crate::message::{DecodeError, Envelope, Message, MessageView, Status};
use crate::state::{Advance, ProcessState};
use crate::store::MessageStore;
use crate::validation::{semantic_check, EvidenceView, RejectReason};
use bytes::arena::EncodeArena;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use turquois_crypto::memo::MemoCache;
use turquois_crypto::otss::{OneTimeSignature, SignError, Value};
use turquois_crypto::sha256::multilane::sha256_many;
use turquois_crypto::sha256::Digest;

/// How many phases of evidence to retain behind the current phase.
const GC_WINDOW: u32 = 8;

/// Memo-cache key for one verification: every byte
/// [`KeyRing::verify`] reads — `(phase, sender, value, signature)` —
/// so equal keys denote the same computation. Phase leads so GC can
/// prune with a range predicate.
type VerifyKey = (u32, usize, u8, [u8; 32]);

/// Bound on memoized verification outcomes. Honest traffic inside the
/// GC window needs well under `n × (GC_WINDOW + 1) × 3` entries; the
/// headroom absorbs Byzantine signature floods, whose overflow merely
/// evicts (and re-verifies) — never mis-answers.
const VERIFY_CACHE_CAP: usize = 4096;

/// Outcome classification for a processed incoming message.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum MessageOutcome {
    /// Valid and new: inserted into `V_i`.
    Accepted,
    /// Valid but an exact duplicate of a stored message.
    Duplicate,
    /// Undecodable bytes.
    DecodeFailed(DecodeError),
    /// The one-time signature did not verify.
    AuthFailed,
    /// Semantic validation rejected the message.
    SemanticFailed(RejectReason),
}

/// Result of [`Turquois::on_message`].
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct Receipt {
    /// What happened to the message.
    pub outcome: MessageOutcome,
    /// One-time signature verifications performed (for CPU cost
    /// accounting: each is one hash).
    pub sig_verifications: usize,
    /// Whether `φ_i` changed (the adapter should broadcast immediately,
    /// per the clock-tick rule of §7.1).
    pub phase_advanced: bool,
    /// Set when this message caused the process to decide.
    pub newly_decided: Option<bool>,
}

/// A broadcast produced by [`Turquois::on_tick`].
#[derive(Clone, Debug)]
pub struct Outbound {
    /// Encoded wire bytes for the transport.
    pub bytes: Bytes,
    /// The structured message (for tests and adversaries).
    pub message: Message,
}

/// Errors producing an outbound message.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum OutboundError {
    /// The one-time key material does not cover the current phase; a new
    /// key-exchange epoch must be installed (see
    /// [`KeyRing::begin_epoch`]).
    KeysExhausted(SignError),
}

impl std::fmt::Display for OutboundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutboundError::KeysExhausted(e) => write!(f, "one-time keys exhausted: {e}"),
        }
    }
}

impl std::error::Error for OutboundError {}

/// A Turquois *k*-consensus instance for one process.
///
/// # Example
///
/// ```
/// use turquois_core::config::Config;
/// use turquois_core::keyring::KeyRing;
/// use turquois_core::instance::Turquois;
///
/// let cfg = Config::evaluation(4)?;
/// let mut rings = KeyRing::trusted_setup(4, 30, 42);
/// rings.reverse();
/// let mut procs: Vec<Turquois> = (0..4)
///     .map(|i| Turquois::new(cfg, i, true, rings.pop().expect("one per process"), i as u64))
///     .collect();
///
/// // A perfect synchronous round: everyone broadcasts, everyone hears.
/// loop {
///     let msgs: Vec<_> = procs
///         .iter_mut()
///         .map(|p| p.on_tick().expect("keys cover phase").bytes)
///         .collect();
///     for p in procs.iter_mut() {
///         for m in &msgs {
///             p.on_message(m);
///         }
///     }
///     if procs.iter().all(|p| p.decision().is_some()) {
///         break;
///     }
/// }
/// assert!(procs.iter().all(|p| p.decision() == Some(true)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Turquois {
    cfg: Config,
    keyring: KeyRing,
    state: ProcessState,
    evidence: MessageStore,
    valid: MessageStore,
    last_broadcast: Option<Envelope>,
    decided_evidence: Vec<(Envelope, OneTimeSignature)>,
    /// Memoized [`KeyRing::verify`] outcomes (positive *and* negative).
    /// Pure host-time optimization: simulated CPU is still charged per
    /// logical verification via [`Receipt::sig_verifications`].
    verify_cache: MemoCache<VerifyKey>,
    /// [`KeyRing::epoch_stamp`] at the last cache use; installing new
    /// key epochs can turn a cached `false` stale, so a stamp change
    /// clears the cache.
    cache_stamp: u64,
    /// Last broadcast's encoded form: a re-broadcast of an identical
    /// message reuses the wire bytes instead of re-serializing.
    last_wire: Option<(Message, Bytes)>,
    /// Pooled encode scratch for outbound wire bytes (flat-arena
    /// codec, DESIGN.md §13). Host-only: produces the same bytes
    /// [`Message::encode`] would.
    arena: EncodeArena,
    /// Recycled buffer for the authentic justification entries of the
    /// message currently being processed; cleared per message so the
    /// steady state performs no allocation.
    extras_scratch: Vec<(Envelope, OneTimeSignature)>,
    rng: StdRng,
}

impl std::fmt::Debug for Turquois {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Turquois")
            .field("id", &self.state.id())
            .field("phase", &self.state.phase())
            .field("value", &self.state.value())
            .field("status", &self.state.status())
            .field("decision", &self.state.decision())
            .finish_non_exhaustive()
    }
}

impl Turquois {
    /// Creates an instance for process `id` proposing `proposal`.
    ///
    /// `seed` drives the local coin; give each process an independent
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if the keyring belongs to a different process or a
    /// different group size.
    pub fn new(cfg: Config, id: usize, proposal: bool, keyring: KeyRing, seed: u64) -> Self {
        assert_eq!(keyring.id(), id, "keyring belongs to another process");
        assert_eq!(keyring.n(), cfg.n(), "keyring sized for another group");
        Turquois {
            cfg,
            state: ProcessState::new(cfg, id, proposal),
            evidence: MessageStore::new(cfg.n()),
            valid: MessageStore::new(cfg.n()),
            last_broadcast: None,
            decided_evidence: Vec::new(),
            verify_cache: MemoCache::new(VERIFY_CACHE_CAP),
            cache_stamp: keyring.epoch_stamp(),
            last_wire: None,
            arena: EncodeArena::new(),
            extras_scratch: Vec::new(),
            keyring,
            rng: StdRng::seed_from_u64(seed ^ 0xc011_5eed),
        }
    }

    /// Clears the memo cache when the key material changed since its
    /// last use (see [`KeyRing::epoch_stamp`]).
    fn refresh_verify_cache(&mut self) {
        let stamp = self.keyring.epoch_stamp();
        if stamp != self.cache_stamp {
            self.verify_cache.clear();
            self.cache_stamp = stamp;
        }
    }

    /// [`KeyRing::verify`] through the memo cache. Sound because the
    /// key captures the verification's entire input and the cache is
    /// cleared whenever the key material changes (see
    /// [`KeyRing::epoch_stamp`]).
    fn verify_cached(&mut self, env: &Envelope, sig: &OneTimeSignature) -> bool {
        self.verify_cached_with(env, sig, None)
    }

    /// [`Turquois::verify_cached`] with `H(sig)` optionally precomputed
    /// by a lane batch ([`Turquois::prehash_justification`]). The memo
    /// lookup — hit/miss counters, insertion, eviction — is identical
    /// either way; only where the hash work ran differs, so cache
    /// evolution cannot depend on batching.
    fn verify_cached_with(
        &mut self,
        env: &Envelope,
        sig: &OneTimeSignature,
        pre: Option<&Digest>,
    ) -> bool {
        self.refresh_verify_cache();
        let key = (env.phase, env.sender, env.value.index() as u8, sig.0);
        let keyring = &self.keyring;
        self.verify_cache.lookup(key, || match pre {
            Some(sig_hash) => keyring.verify_hashed(env, sig_hash),
            None => keyring.verify(env, sig),
        })
    }

    /// Whether the evidence store already holds `sig` for `env`'s
    /// `(sender, phase, value)`; if so the attachment is authentic
    /// without a memo probe or a hash (DESIGN.md §8). Sound because the
    /// store only ever receives verified entries, [`KeyRing::verify`]
    /// reads exactly those three fields plus the signature, and no
    /// verdict ever flips from `true` to `false` (see
    /// [`KeyRing::epoch_stamp`]). Counted in telemetry as one
    /// verification answered from cache, in both memo modes.
    fn held_evidence(&self, env: &Envelope, sig: &OneTimeSignature) -> bool {
        let held = self.evidence.holds_signature(env, sig);
        if held {
            turquois_crypto::telemetry::count_verify_call();
            turquois_crypto::telemetry::count_cache_hit();
        }
        held
    }

    /// The per-message batched verify queue (DESIGN.md §12): collects
    /// the justification entries whose memo keys will miss, hashes
    /// their signatures through the multi-lane kernel in one batch, and
    /// returns the per-entry precomputed hashes for
    /// [`Turquois::verify_cached_with`]. Held evidence, entries already
    /// cached, and duplicates within the bundle (the first lookup will
    /// insert them) get `None`. With memoization disabled everything
    /// gets `None`, so the `TURQUOIS_NO_MEMO` baseline hashes every
    /// entry that is not held evidence one at a time.
    fn prehash_justification(&mut self, justification: &MessageView<'_>) -> Vec<Option<Digest>> {
        let mut pre = vec![None; justification.justification_len()];
        if justification.justification_len() < 2 || !turquois_crypto::telemetry::memo_enabled() {
            return pre;
        }
        self.refresh_verify_cache();
        let mut seen = std::collections::BTreeSet::new();
        let mut lanes: Vec<usize> = Vec::new();
        for i in 0..justification.justification_len() {
            let (env, sig) = justification.entry(i);
            if self.evidence.holds_signature(&env, &sig) {
                continue;
            }
            let key = (env.phase, env.sender, env.value.index() as u8, sig.0);
            if self.verify_cache.contains(&key) || !seen.insert(key) {
                continue;
            }
            lanes.push(i);
        }
        let inputs: Vec<&[u8]> = lanes.iter().map(|&i| justification.sig_bytes(i)).collect();
        let hashes = sha256_many(&inputs);
        for (&i, hash) in lanes.iter().zip(hashes) {
            pre[i] = Some(hash);
        }
        pre
    }

    /// The configuration in force.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// This process's id.
    pub fn id(&self) -> usize {
        self.state.id()
    }

    /// Current phase `φ_i`.
    pub fn phase(&self) -> u32 {
        self.state.phase()
    }

    /// Current proposal value `v_i`.
    pub fn value(&self) -> Value {
        self.state.value()
    }

    /// Current status.
    pub fn status(&self) -> Status {
        self.state.status()
    }

    /// The decision, once reached.
    pub fn decision(&self) -> Option<bool> {
        self.state.decision()
    }

    /// Whether the current value was drawn from the local coin (read-only
    /// inspection for external checkers).
    pub fn coin_flip(&self) -> bool {
        self.state.coin_flip()
    }

    /// Distinct senders stored in the valid set `V_i` at `phase`
    /// (read-only inspection for external checkers such as
    /// `turquois-check`; protocol transitions count exactly this store).
    pub fn valid_senders_at(&self, phase: u32) -> usize {
        self.valid.count_phase(phase)
    }

    /// Distinct senders in the authentic-evidence store at `phase`
    /// (read-only inspection; semantic validation counts this store).
    pub fn evidence_senders_at(&self, phase: u32) -> usize {
        self.evidence.count_phase(phase)
    }

    /// Approximate resident bytes of the two message stores (evidence
    /// and `V_i`). Deterministic — a function of store *contents*, not
    /// of allocator behaviour — so it can feed stall-report telemetry
    /// without threatening output byte-identity.
    pub fn store_bytes(&self) -> usize {
        self.evidence.approx_bytes() + self.valid.approx_bytes()
    }

    /// Diagnostic snapshot: `(phase, value, coin_flip, valid-store
    /// sender count at the current phase, evidence-store sender count)`.
    pub fn debug_snapshot(&self) -> (u32, Value, bool, usize, usize) {
        let phase = self.state.phase();
        (
            phase,
            self.state.value(),
            self.state.coin_flip(),
            self.valid.count_phase(phase),
            self.evidence.count_phase(phase),
        )
    }

    /// Task T1: produce the broadcast for the current state.
    ///
    /// The first broadcast of a state is bare; re-broadcasts of an
    /// unchanged state attach justification (explicit validation).
    ///
    /// # Errors
    ///
    /// [`OutboundError::KeysExhausted`] when the phase outruns the
    /// distributed key epochs.
    pub fn on_tick(&mut self) -> Result<Outbound, OutboundError> {
        let envelope = self.state.envelope();
        let signature = self
            .keyring
            .sign(envelope.phase, envelope.value)
            .map_err(OutboundError::KeysExhausted)?;
        let rebroadcast = self.last_broadcast == Some(envelope);
        let justification = if rebroadcast {
            self.build_justification(&envelope)
        } else {
            Vec::new()
        };
        self.last_broadcast = Some(envelope);
        let message = Message {
            envelope,
            signature,
            justification,
        };
        // Re-broadcasts of an unchanged message (same envelope, same
        // justification) reuse the previous encoding: the clone of the
        // shared wire buffer is a pointer bump, not a re-serialization.
        if let Some((cached, bytes)) = &self.last_wire {
            if *cached == message {
                return Ok(Outbound {
                    bytes: bytes.clone(),
                    message,
                });
            }
        }
        // Stage into the pooled chunk: the bytes `Message::encode`
        // would produce, in one recycled allocation instead of two
        // fresh ones.
        let bytes = self.arena.encode_with(|buf| message.encode_into(buf));
        self.last_wire = Some((message.clone(), bytes.clone()));
        Ok(Outbound { bytes, message })
    }

    /// Task T2: process an incoming wire message (including loopbacks of
    /// our own broadcasts).
    pub fn on_message(&mut self, bytes: &[u8]) -> Receipt {
        let mut receipt = Receipt {
            outcome: MessageOutcome::Accepted,
            sig_verifications: 0,
            phase_advanced: false,
            newly_decided: None,
        };
        // Borrow the justification entries straight out of the receive
        // buffer — no per-message allocation.
        let view = match MessageView::parse(bytes, &self.cfg) {
            Ok(v) => v,
            Err(e) => {
                receipt.outcome = MessageOutcome::DecodeFailed(e);
                return receipt;
            }
        };
        // Authenticity of the outer message (one logical hash — charged
        // to simulated CPU whether or not the memo cache answers it).
        receipt.sig_verifications += 1;
        if !self.verify_cached(&view.envelope(), &view.signature()) {
            receipt.outcome = MessageOutcome::AuthFailed;
            return receipt;
        }
        self.process(&view, &mut receipt);
        receipt
    }

    /// The back half of [`Turquois::on_message`] for an authentic
    /// outer message: attachment verification, evidence/valid store
    /// insertion, semantic validation of the outer message, and state
    /// advancement.
    fn process(&mut self, view: &MessageView<'_>, receipt: &mut Receipt) {
        let (envelope, signature) = (view.envelope(), view.signature());
        // Authenticity of each attachment; inauthentic ones are dropped,
        // authentic ones become evidence. Re-attached evidence the store
        // already holds is authentic as it stands (see
        // `held_evidence`); the other memo-missing entries are hashed
        // through the multi-lane kernel in one batch first. Every entry
        // still costs one logical verification.
        let pre = self.prehash_justification(view);
        let mut extras = std::mem::take(&mut self.extras_scratch);
        extras.clear();
        for (i, pre_i) in pre.iter().enumerate() {
            let (env, sig) = view.entry(i);
            receipt.sig_verifications += 1;
            let authentic = self.held_evidence(&env, &sig)
                || self.verify_cached_with(&env, &sig, pre_i.as_ref());
            if authentic {
                extras.push((env, sig));
            }
        }

        // Attachments within the GC window enter the evidence store;
        // older ones still count transiently through the view.
        let gc_floor = self.gc_floor();
        for (env, sig) in &extras {
            if env.phase >= gc_floor {
                self.evidence.insert(env, *sig);
            }
        }

        // Attachments that independently pass semantic validation also
        // enter V_i — they are protocol messages in their own right. An
        // attachment V_i already holds would only be a no-op insert, so
        // it skips the O(bundle) check.
        for (env, sig) in &extras {
            if env.phase >= gc_floor
                && !self.valid.contains(env)
                && semantic_check(env, &self.cfg, &EvidenceView::new(&self.evidence, &extras))
                    .is_ok()
            {
                self.valid.insert(env, *sig);
            }
        }

        // Semantic validation of the outer message.
        let semantic = semantic_check(&envelope, &self.cfg, &EvidenceView::new(&self.evidence, &extras));
        // Hand the scratch back for the next message (its capacity is
        // the recycled resource; contents are dead).
        self.extras_scratch = extras;
        if let Err(reason) = semantic {
            receipt.outcome = MessageOutcome::SemanticFailed(reason);
            self.advance(receipt);
            return;
        }

        self.evidence.insert(&envelope, signature);
        let fresh = self.valid.insert(&envelope, signature);
        if !fresh {
            receipt.outcome = MessageOutcome::Duplicate;
        }

        self.advance(receipt);
    }

    fn advance(&mut self, receipt: &mut Receipt) {
        let rng = &mut self.rng;
        let mut coin = || rng.gen_bool(0.5);
        let Advance {
            phase_changed,
            newly_decided,
        } = self.state.try_advance(&self.valid, &mut coin);
        receipt.phase_advanced |= phase_changed;
        if receipt.newly_decided.is_none() {
            receipt.newly_decided = newly_decided;
        }
        if let Some(bit) = newly_decided {
            self.capture_decided_evidence(Value::from_bit(bit));
        }
        if phase_changed {
            let floor = self.gc_floor();
            self.evidence.prune_below(floor);
            self.valid.prune_below(floor);
            // Memoized verifications age out with the evidence: phases
            // below the floor can no longer be looked up.
            self.verify_cache.retain(|key| key.0 >= floor);
        }
    }

    fn gc_floor(&self) -> u32 {
        self.state.phase().saturating_sub(GC_WINDOW).max(1)
    }

    /// Snapshot the quorum that justifies our decision so `decided`
    /// broadcasts stay justifiable after garbage collection.
    fn capture_decided_evidence(&mut self, value: Value) {
        let quorum = self.cfg.quorum_min();
        for psi in self.evidence.decide_phases().collect::<Vec<_>>() {
            if self.cfg.exceeds_quorum(self.evidence.count_value(psi, value)) {
                self.decided_evidence = self.evidence.collect(psi, Some(value), quorum);
                return;
            }
        }
    }

    /// Builds the explicit-validation bundle for re-broadcasting
    /// `envelope` (§6.2). Evidence is shared between requirements: a
    /// message that justifies the value also counts toward the phase
    /// quorum, keeping bundles (and airtime) minimal.
    fn build_justification(&self, envelope: &Envelope) -> Vec<(Envelope, OneTimeSignature)> {
        // Collecting `quorum` entries suffices for the phase top-up:
        // `collect` yields one record per distinct sender, so the first
        // `quorum` of them top the set up to a quorum no matter how many
        // were already contributed by the value evidence — the bound is
        // exactly equivalent to an unbounded scan (DESIGN.md §10), which
        // matters once n reaches 256. The proptest
        // `bounded_bundle_matches_unbounded_scan` compares the two.
        self.build_justification_with(envelope, self.cfg.quorum_min())
    }

    /// [`Turquois::build_justification`] with an explicit phase top-up
    /// collection limit (`top_up_limit`); tests pass `usize::MAX` to
    /// recover the retired unbounded scan as a differential oracle.
    fn build_justification_with(
        &self,
        envelope: &Envelope,
        top_up_limit: usize,
    ) -> Vec<(Envelope, OneTimeSignature)> {
        let phase = envelope.phase;
        let mut bundle: Vec<(Envelope, OneTimeSignature)> = Vec::new();
        let quorum = self.cfg.quorum_min();
        let half = self.cfg.half_quorum_min();
        let add = |items: Vec<(Envelope, OneTimeSignature)>,
                   bundle: &mut Vec<(Envelope, OneTimeSignature)>| {
            for (env, sig) in items {
                if !bundle.iter().any(|(e, _)| e == &env) {
                    bundle.push((env, sig));
                }
            }
        };

        if phase > 1 {
            // Value justification first (its messages double as phase
            // evidence when they sit at φ − 1).
            match phase % 3 {
                2 => add(
                    self.evidence
                        .collect(phase - 1, Some(envelope.value), half),
                    &mut bundle,
                ),
                0 => match envelope.value {
                    Value::Bot => {
                        add(
                            self.evidence.collect(phase - 2, Some(Value::Zero), half),
                            &mut bundle,
                        );
                        add(
                            self.evidence.collect(phase - 2, Some(Value::One), half),
                            &mut bundle,
                        );
                    }
                    v => add(self.evidence.collect(phase - 1, Some(v), quorum), &mut bundle),
                },
                _ => {
                    if envelope.coin_flip {
                        add(
                            self.evidence.collect(phase - 1, Some(Value::Bot), quorum),
                            &mut bundle,
                        );
                    } else {
                        add(
                            self.evidence
                                .collect(phase - 2, Some(envelope.value), quorum),
                            &mut bundle,
                        );
                    }
                }
            }
            // Phase justification: top the φ − 1 sender count up to a
            // quorum, reusing whatever the value evidence already
            // contributed.
            let mut senders_at_prev: std::collections::BTreeSet<usize> = bundle
                .iter()
                .filter(|(e, _)| e.phase == phase - 1)
                .map(|(e, _)| e.sender)
                .collect();
            if senders_at_prev.len() < quorum {
                for (env, sig) in self.evidence.collect(phase - 1, None, top_up_limit) {
                    if senders_at_prev.len() >= quorum {
                        break;
                    }
                    if senders_at_prev.insert(env.sender) {
                        add(vec![(env, sig)], &mut bundle);
                    }
                }
            }
        }

        // Status justification (decided claims carry their quorum; the
        // dedupe absorbs overlap with the evidence above).
        if envelope.status == Status::Decided {
            add(self.decided_evidence.clone(), &mut bundle);
        }
        bundle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyring::KeyRing;

    const PHASES: usize = 60;

    fn make_group(n: usize, proposals: &[bool], seed: u64) -> Vec<Turquois> {
        let cfg = Config::evaluation(n).expect("valid n");
        let rings = KeyRing::trusted_setup(n, PHASES, seed);
        rings
            .into_iter()
            .enumerate()
            .map(|(i, ring)| Turquois::new(cfg, i, proposals[i % proposals.len()], ring, seed + i as u64))
            .collect()
    }

    /// Runs synchronous lossless rounds until all decide (or the round
    /// limit trips). Returns the decisions.
    fn run_synchronous(procs: &mut [Turquois], max_rounds: usize) -> Vec<Option<bool>> {
        for _ in 0..max_rounds {
            let msgs: Vec<Bytes> = procs
                .iter_mut()
                .map(|p| p.on_tick().expect("keys cover phase").bytes)
                .collect();
            for p in procs.iter_mut() {
                for m in &msgs {
                    p.on_message(m);
                }
            }
            if procs.iter().all(|p| p.decision().is_some()) {
                break;
            }
        }
        procs.iter().map(|p| p.decision()).collect()
    }

    #[test]
    fn unanimous_one_decides_one_quickly() {
        for n in [4usize, 7, 10] {
            let mut procs = make_group(n, &[true], 1);
            let decisions = run_synchronous(&mut procs, 10);
            assert!(
                decisions.iter().all(|d| *d == Some(true)),
                "n={n}: {decisions:?}"
            );
            // Unanimous proposals decide by the end of phase 3 (§7.3).
            assert!(procs.iter().all(|p| p.phase() <= 5), "n={n}");
        }
    }

    #[test]
    fn unanimous_zero_decides_zero() {
        let mut procs = make_group(7, &[false], 3);
        let decisions = run_synchronous(&mut procs, 10);
        assert!(decisions.iter().all(|d| *d == Some(false)));
    }

    #[test]
    fn divergent_proposals_agree() {
        for seed in 0..5u64 {
            let mut procs = make_group(4, &[true, false], seed);
            let decisions = run_synchronous(&mut procs, 60);
            let first = decisions[0].expect("all decide in synchronous runs");
            assert!(
                decisions.iter().all(|d| *d == Some(first)),
                "seed {seed}: {decisions:?}"
            );
        }
    }

    #[test]
    fn first_tick_bare_rebroadcast_justified() {
        let mut procs = make_group(4, &[true], 9);
        let first = procs[0].on_tick().expect("keys cover phase");
        assert!(first.message.justification.is_empty());
        let second = procs[0].on_tick().expect("keys cover phase");
        // Same state, but phase 1 needs no justification either.
        assert!(second.message.justification.is_empty());

        // Advance past phase 1 and check that a rebroadcast attaches
        // evidence.
        let msgs: Vec<Bytes> = procs
            .iter_mut()
            .map(|p| p.on_tick().expect("keys cover phase").bytes)
            .collect();
        let (p0, rest) = procs.split_at_mut(1);
        let p0 = &mut p0[0];
        for m in &msgs {
            p0.on_message(m);
        }
        assert_eq!(p0.phase(), 2);
        let first = p0.on_tick().expect("keys cover phase");
        assert!(first.message.justification.is_empty(), "first is bare");
        let second = p0.on_tick().expect("keys cover phase");
        assert!(
            !second.message.justification.is_empty(),
            "rebroadcast carries justification"
        );
        // The bundle lets a process with an empty store accept it.
        let fresh = &mut rest[0];
        let receipt = fresh.on_message(&second.bytes);
        assert_eq!(receipt.outcome, MessageOutcome::Accepted);
        assert_eq!(fresh.phase(), 2, "catch-up through the bundle");
    }

    #[test]
    fn decode_garbage_rejected() {
        let mut procs = make_group(4, &[true], 5);
        let r = procs[0].on_message(b"not a message");
        assert!(matches!(r.outcome, MessageOutcome::DecodeFailed(_)));
        assert_eq!(r.sig_verifications, 0);
    }

    #[test]
    fn forged_signature_rejected() {
        let mut procs = make_group(4, &[true], 5);
        let out = procs[1].on_tick().expect("keys cover phase");
        let mut bytes = out.bytes.to_vec();
        // Flip a bit inside the signature (offset 8..40).
        bytes[10] ^= 1;
        let r = procs[0].on_message(&bytes);
        assert_eq!(r.outcome, MessageOutcome::AuthFailed);
        assert_eq!(r.sig_verifications, 1);
    }

    #[test]
    fn wrong_claimed_sender_rejected() {
        let mut procs = make_group(4, &[true], 5);
        let out = procs[1].on_tick().expect("keys cover phase");
        let mut bytes = out.bytes.to_vec();
        bytes[1] = 2; // claim sender 2 with sender 1's signature
        let r = procs[0].on_message(&bytes);
        assert_eq!(r.outcome, MessageOutcome::AuthFailed);
    }

    #[test]
    fn duplicate_detected() {
        let mut procs = make_group(4, &[true], 5);
        let out = procs[1].on_tick().expect("keys cover phase");
        assert_eq!(
            procs[0].on_message(&out.bytes).outcome,
            MessageOutcome::Accepted
        );
        assert_eq!(
            procs[0].on_message(&out.bytes).outcome,
            MessageOutcome::Duplicate
        );
    }

    #[test]
    fn unjustified_future_phase_rejected_without_evidence() {
        // A message claiming phase 5 with no supporting history fails
        // semantic validation even though its signature is genuine.
        let cfg = Config::evaluation(4).expect("valid");
        let rings = KeyRing::trusted_setup(4, PHASES, 5);
        let mut rings: Vec<_> = rings.into_iter().collect();
        let ring3 = rings.pop().expect("four rings");
        let sig = ring3.sign(5, Value::One).expect("in range");
        let msg = Message::bare(
            Envelope {
                sender: 3,
                phase: 5,
                value: Value::One,
                coin_flip: false,
                status: Status::Undecided,
            },
            sig,
        );
        let mut p0 = Turquois::new(cfg, 0, true, rings.remove(0), 1);
        let r = p0.on_message(&msg.encode());
        assert!(matches!(r.outcome, MessageOutcome::SemanticFailed(_)));
        assert_eq!(p0.phase(), 1, "no catch-up on invalid messages");
    }

    #[test]
    fn receipt_reports_phase_advance_and_decision() {
        let mut procs = make_group(4, &[true], 7);
        let msgs: Vec<Bytes> = procs
            .iter_mut()
            .map(|p| p.on_tick().expect("keys cover phase").bytes)
            .collect();
        let p0 = &mut procs[0];
        let mut advanced = false;
        for m in &msgs {
            let r = p0.on_message(m);
            advanced |= r.phase_advanced;
        }
        assert!(advanced, "quorum at phase 1 advances the phase");
    }

    #[test]
    fn keys_exhaustion_surfaces() {
        let cfg = Config::evaluation(4).expect("valid");
        let rings = KeyRing::trusted_setup(4, 2, 5); // only phases 1–2
        let mut procs: Vec<Turquois> = rings
            .into_iter()
            .enumerate()
            .map(|(i, ring)| Turquois::new(cfg, i, true, ring, i as u64))
            .collect();
        // Synchronous rounds until a tick outruns the key horizon.
        for round in 1..=2u32 {
            let msgs: Vec<Bytes> = procs
                .iter_mut()
                .map(|p| p.on_tick().expect("keys cover phases 1–2").bytes)
                .collect();
            for p in procs.iter_mut() {
                for m in &msgs {
                    p.on_message(m);
                }
            }
            assert!(procs.iter().all(|p| p.phase() == round + 1));
        }
        for p in procs.iter_mut() {
            assert!(matches!(
                p.on_tick(),
                Err(OutboundError::KeysExhausted(SignError::PhaseOutOfRange { .. }))
            ));
        }
    }

    #[test]
    fn debug_smoke() {
        let procs = make_group(4, &[true], 5);
        assert!(format!("{:?}", procs[0]).contains("Turquois"));
    }

    /// Drives one process to phase 2 and checks its re-broadcast bundle
    /// satisfies the receiver-side semantic checks from a cold store.
    #[test]
    fn justification_bundle_is_self_sufficient() {
        let mut procs = make_group(4, &[true], 21);
        let msgs: Vec<Bytes> = procs
            .iter_mut()
            .map(|p| p.on_tick().expect("keys cover phase").bytes)
            .collect();
        let p0 = &mut procs[0];
        for m in &msgs {
            p0.on_message(m);
        }
        assert_eq!(p0.phase(), 2);
        let _first = p0.on_tick().expect("keys cover phase");
        let rebroadcast = p0.on_tick().expect("keys cover phase");
        let bundle = &rebroadcast.message.justification;
        assert!(!bundle.is_empty());
        // Evidence is shared: the phase-1 value evidence doubles as the
        // phase quorum, so the bundle stays at ~one quorum of messages.
        assert!(
            bundle.len() <= p0.config().quorum_min() + 1,
            "bundle of {} exceeds a quorum",
            bundle.len()
        );
        // All bundle messages sit at phase 1 with distinct senders.
        let senders: std::collections::BTreeSet<usize> =
            bundle.iter().map(|(e, _)| e.sender).collect();
        assert_eq!(senders.len(), bundle.len());
        assert!(bundle.iter().all(|(e, _)| e.phase == 1));
    }

    /// Old evidence is garbage-collected as the phase advances.
    #[test]
    fn stores_are_garbage_collected() {
        let mut procs = make_group(4, &[true, false], 33);
        for _ in 0..40 {
            let msgs: Vec<Bytes> = procs
                .iter_mut()
                .map(|p| p.on_tick().expect("keys cover phase").bytes)
                .collect();
            for p in procs.iter_mut() {
                for m in &msgs {
                    p.on_message(m);
                }
            }
            if procs.iter().all(|p| p.decision().is_some()) {
                break;
            }
        }
        for p in &procs {
            if p.phase() > GC_WINDOW + 1 {
                assert!(
                    p.evidence.min_phase().unwrap_or(u32::MAX) >= p.phase() - GC_WINDOW,
                    "evidence store must not grow unboundedly"
                );
            }
        }
    }

    /// A decided process keeps broadcasting messages that still validate
    /// at peers (the decided-evidence snapshot).
    #[test]
    fn decided_rebroadcasts_stay_valid() {
        let mut procs = make_group(4, &[true], 44);
        for _ in 0..10 {
            let msgs: Vec<Bytes> = procs
                .iter_mut()
                .map(|p| p.on_tick().expect("keys cover phase").bytes)
                .collect();
            for p in procs.iter_mut() {
                for m in &msgs {
                    p.on_message(m);
                }
            }
            if procs.iter().all(|p| p.decision().is_some()) {
                break;
            }
        }
        assert!(procs[1].decision().is_some());
        // Two ticks: the second carries the decided justification.
        let _ = procs[1].on_tick().expect("keys cover phase");
        let rebroadcast = procs[1].on_tick().expect("keys cover phase");
        assert_eq!(rebroadcast.message.envelope.status, Status::Decided);
        let receipt = procs[0].on_message(&rebroadcast.bytes);
        assert!(
            !matches!(receipt.outcome, MessageOutcome::SemanticFailed(_)),
            "decided rebroadcast rejected: {:?}",
            receipt.outcome
        );
    }

    /// Negative-cache soundness: a forged signature rejected once is
    /// still rejected when the re-delivery is answered from the memo
    /// cache, and the cached negative never taints the honest original.
    #[test]
    fn forged_signature_rejected_from_cache_on_redelivery() {
        use turquois_crypto::telemetry::HotpathSnapshot;
        let mut procs = make_group(4, &[true], 11);
        let out = procs[1].on_tick().expect("keys cover phase");
        let mut bytes = out.bytes.to_vec();
        bytes[10] ^= 1; // corrupt the signature (offset 8..40)
        let before = HotpathSnapshot::now();
        assert_eq!(procs[0].on_message(&bytes).outcome, MessageOutcome::AuthFailed);
        assert_eq!(procs[0].on_message(&bytes).outcome, MessageOutcome::AuthFailed);
        let d = HotpathSnapshot::now().delta_since(&before);
        assert!(d.cache_hits >= 1, "re-delivery must probe the cache");
        assert_eq!(
            procs[0].on_message(&out.bytes).outcome,
            MessageOutcome::Accepted,
            "cached negative must not taint the honest signature"
        );
    }

    /// Held-evidence soundness: a re-broadcast bundle that re-attaches
    /// an entry the receiver already holds, but with one signature byte
    /// flipped, must not ride the held-evidence short-circuit. The
    /// forgery is verified, rejected, kept out of the evidence store,
    /// and still charged; the receiver ends up exactly where a twin fed
    /// the honest bytes does.
    #[test]
    fn forged_copy_of_held_entry_is_rejected() {
        let run = |corrupt: bool| {
            let mut procs = make_group(4, &[true], 19);
            let msgs: Vec<Bytes> = procs
                .iter_mut()
                .map(|p| p.on_tick().expect("keys cover phase").bytes)
                .collect();
            for p in procs.iter_mut() {
                for m in &msgs {
                    p.on_message(m);
                }
            }
            let _first = procs[0].on_tick().expect("keys cover phase");
            let mut rebroadcast = procs[0].on_tick().expect("keys cover phase").message;
            let (held_env, held_sig) = rebroadcast.justification[1];
            assert!(
                procs[1].evidence.holds_signature(&held_env, &held_sig),
                "the receiver already holds the re-attached entry"
            );
            let mut forged = held_sig;
            forged.0[17] ^= 0x40;
            if corrupt {
                rebroadcast.justification[1].1 = forged;
            }
            let before = turquois_crypto::telemetry::HotpathSnapshot::now();
            let receipt = procs[1].on_message(&rebroadcast.encode());
            let d = turquois_crypto::telemetry::HotpathSnapshot::now().delta_since(&before);
            assert_eq!(
                receipt.sig_verifications,
                1 + rebroadcast.justification.len(),
                "every entry is charged one logical verification"
            );
            assert_eq!(
                d.cache_misses,
                u64::from(corrupt) + 1,
                "only the outer signature and a forgery reach the verifier"
            );
            assert!(!procs[1].evidence.holds_signature(&held_env, &forged));
            assert!(procs[1].evidence.holds_signature(&held_env, &held_sig));
            let p1 = &procs[1];
            let counts: Vec<(usize, usize)> = (1..=3)
                .map(|phase| (p1.valid_senders_at(phase), p1.evidence_senders_at(phase)))
                .collect();
            let records = p1.evidence.record_count();
            let decisions = run_synchronous(&mut procs, 20);
            (receipt, counts, records, decisions)
        };
        assert_eq!(run(true), run(false));
    }

    /// A Byzantine flood of distinct forged signatures fills the cache
    /// past capacity; eviction must only ever cost a recomputation —
    /// never flip a verdict.
    #[test]
    fn capacity_eviction_never_accepts_a_forgery() {
        let mut procs = make_group(4, &[true], 12);
        let msg = procs[1].on_tick().expect("keys cover phase").message;
        let (env, honest_sig) = (msg.envelope, msg.signature);
        let mut forged0 = honest_sig;
        forged0.0[0] ^= 1;
        assert!(!procs[0].verify_cached(&env, &forged0));
        // Insert VERIFY_CACHE_CAP further distinct forgeries so the
        // first negative entry is evicted (FIFO order).
        for i in 0..VERIFY_CACHE_CAP as u32 {
            let mut s = honest_sig;
            s.0[4..8].copy_from_slice(&(i + 1).to_be_bytes());
            s.0[0] ^= 1;
            assert!(!procs[0].verify_cached(&env, &s));
        }
        assert!(
            !procs[0].verify_cached(&env, &forged0),
            "evicted forgery must be re-verified, not accepted"
        );
        assert!(
            procs[0].verify_cached(&env, &honest_sig),
            "honest signature accepted amid the flood"
        );
    }

    /// Installing a new key epoch can flip a cached `false` stale (the
    /// signature was fine, the keys just hadn't arrived); the epoch
    /// stamp must clear the cache so the fresh verdict wins.
    #[test]
    fn epoch_install_invalidates_cached_negatives() {
        let n = 4;
        let cfg = Config::evaluation(n).expect("valid n");
        let mut rings = KeyRing::trusted_setup(n, PHASES, 77);
        let mut signer_ring = rings.remove(1); // process 1 signs
        let p0_ring = rings.remove(0);
        let mut p0 = Turquois::new(cfg, 0, true, p0_ring, 99);

        // Process 1 extends its keys past the distributed epochs and
        // signs a phase only the new epoch covers.
        let mut identity = turquois_crypto::hashsig::Keypair::generate(4, 123);
        let bundle = signer_ring
            .begin_epoch(PHASES, 31, &mut identity)
            .expect("fresh identity key");
        let phase = PHASES as u32 + 1;
        let sig = signer_ring.sign(phase, Value::One).expect("new epoch covers phase");
        let env = Envelope {
            sender: 1,
            phase,
            value: Value::One,
            coin_flip: false,
            status: Status::Undecided,
        };
        assert!(
            !p0.verify_cached(&env, &sig),
            "unknown epoch: rejected (and the negative is cached)"
        );
        p0.keyring
            .install_epoch(&bundle, identity.public_key())
            .expect("bundle verifies");
        assert!(
            p0.verify_cached(&env, &sig),
            "epoch stamp change must clear the stale negative"
        );
    }

    /// The arena-staged wire bytes are exactly the owned encoding of
    /// the outbound message, and the borrowed view decodes them to the
    /// same message the owned decoder does, tick by tick through a run
    /// to decision.
    #[test]
    fn wire_bytes_match_owned_codec() {
        let cfg = Config::evaluation(4).expect("valid");
        let mut procs = make_group(4, &[true, false], 55);
        for _ in 0..40 {
            let outs: Vec<Outbound> = procs
                .iter_mut()
                .map(|p| p.on_tick().expect("keys cover phase"))
                .collect();
            for out in &outs {
                assert_eq!(&out.bytes[..], &out.message.encode()[..]);
                let view = MessageView::parse(&out.bytes, &cfg).expect("valid");
                assert_eq!(Ok(view.to_message()), Message::decode(&out.bytes, &cfg));
                for p in procs.iter_mut() {
                    p.on_message(&out.bytes);
                }
            }
            if procs.iter().all(|p| p.decision().is_some()) {
                break;
            }
        }
        assert!(procs.iter().all(|p| p.decision().is_some()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The memoizing instance is observationally identical to an
        /// uncached [`KeyRing::verify`] oracle: for every delivery —
        /// honest (`mask == 0`), corrupted, or an exact replay (which
        /// the cache answers) — the instance reports `AuthFailed`
        /// exactly when the oracle rejects the outer signature, and no
        /// justification entry the oracle rejects ever enters the
        /// evidence store. Deliveries are justified phase-2
        /// re-broadcasts whose outer signature (`entry == 0`) or one
        /// attached entry's signature is corrupted; they go both to a
        /// receiver that already holds every honest entry (the
        /// held-evidence short-circuit) and to one that starts cold.
        #[test]
        fn cached_instance_matches_uncached_oracle(
            seed in 0u64..1000,
            ops in proptest::collection::vec(
                (1usize..4, 0usize..4, 0usize..32, 0u8..=255u8, 1usize..4),
                1..40,
            ),
        ) {
            let n = 4;
            let cfg = Config::evaluation(n).expect("valid n");
            let rings = KeyRing::trusted_setup(n, PHASES, seed);
            let oracle = rings[0].clone();
            let cold = Turquois::new(cfg, 0, true, oracle.clone(), seed);
            let mut procs: Vec<Turquois> = rings
                .into_iter()
                .enumerate()
                .map(|(i, r)| Turquois::new(cfg, i, true, r, seed + i as u64))
                .collect();
            // One synchronous round takes everyone to phase 2; each
            // peer's second phase-2 tick carries its justification.
            let round: Vec<Bytes> = procs
                .iter_mut()
                .map(|p| p.on_tick().expect("keys cover phase").bytes)
                .collect();
            for p in procs.iter_mut() {
                for m in &round {
                    p.on_message(m);
                }
            }
            let honest: Vec<Message> = (1..n)
                .map(|i| {
                    let _bare = procs[i].on_tick().expect("keys cover phase");
                    procs[i].on_tick().expect("keys cover phase").message
                })
                .collect();
            let mut receivers = [procs.swap_remove(0), cold];
            for (sender, entry, idx, mask, copies) in ops {
                let mut msg = honest[sender - 1].clone();
                proptest::prop_assert!(!msg.justification.is_empty());
                if entry == 0 {
                    msg.signature.0[idx] ^= mask;
                } else {
                    let k = (entry - 1) % msg.justification.len();
                    msg.justification[k].1 .0[idx] ^= mask;
                }
                let bytes = msg.encode();
                let outer_ok = oracle.verify(&msg.envelope, &msg.signature);
                for _ in 0..copies {
                    for receiver in receivers.iter_mut() {
                        let receipt = receiver.on_message(&bytes);
                        proptest::prop_assert_eq!(
                            receipt.outcome == MessageOutcome::AuthFailed,
                            !outer_ok,
                            "cached verdict diverged from the oracle"
                        );
                        let charged = if outer_ok { 1 + msg.justification.len() } else { 1 };
                        proptest::prop_assert_eq!(receipt.sig_verifications, charged);
                        for (env, sig) in &msg.justification {
                            proptest::prop_assert_eq!(
                                receiver.evidence.holds_signature(env, sig),
                                oracle.verify(env, sig)
                                    && (outer_ok || receiver.evidence.contains(env)),
                                "evidence store disagrees with the oracle on an entry"
                            );
                        }
                    }
                }
            }
        }

        /// Bounding the phase top-up at `quorum` collected entries is
        /// bit-identical to the retired unbounded scan: on arbitrary
        /// evidence stores (equivocators, gaps, every phase shape mod 3,
        /// both coin flips) the bounded bundle equals the unbounded one,
        /// so bounding never drops a message a receiver needs to justify
        /// a phase transition.
        #[test]
        fn bounded_bundle_matches_unbounded_scan(
            seed in 0u64..200,
            phase_sel in 3u32..=8,
            entries in proptest::collection::vec(
                (0usize..10, 1u32..=7, 0usize..3, proptest::prelude::any::<bool>()),
                0..80,
            ),
        ) {
            let n = 10;
            let cfg = Config::evaluation(n).expect("valid n");
            let rings = KeyRing::trusted_setup(n, PHASES, seed);
            let mut p = Turquois::new(cfg, 0, true, rings[0].clone(), seed);
            for (sender, phase, vi, coin) in entries {
                let value = [Value::Zero, Value::One, Value::Bot][vi];
                // `sign` rejects values illegal at `phase` (e.g. ⊥ at a
                // CONVERGE phase); skip those combos — a correct store
                // never holds them either.
                let Ok(sig) = rings[sender].sign(phase, value) else {
                    continue;
                };
                let env = Envelope {
                    sender,
                    phase,
                    value,
                    coin_flip: coin,
                    status: Status::Undecided,
                };
                p.evidence.insert(&env, sig);
            }
            let flat = |b: Vec<(Envelope, OneTimeSignature)>| -> Vec<(Envelope, [u8; 32])> {
                b.into_iter().map(|(e, s)| (e, s.0)).collect()
            };
            for value in [Value::Zero, Value::One, Value::Bot] {
                for coin in [false, true] {
                    let env = Envelope {
                        sender: 0,
                        phase: phase_sel,
                        value,
                        coin_flip: coin,
                        status: Status::Undecided,
                    };
                    let bounded = p.build_justification_with(&env, p.cfg.quorum_min());
                    let unbounded = p.build_justification_with(&env, usize::MAX);
                    proptest::prop_assert_eq!(
                        flat(bounded),
                        flat(unbounded),
                        "bounded bundle diverged at phase {} value {:?} coin {}",
                        phase_sel,
                        value,
                        coin
                    );
                }
            }
        }
    }
}
