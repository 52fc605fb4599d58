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
use crate::store::{combo_code, MessageStore, PhaseProbe};
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

/// A justification entry the receiver has not absorbed (see
/// [`Turquois::classify`]), decoded, with whether the evidence store
/// already held its signature before the frame arrived.
#[derive(Clone, Copy, Debug)]
struct Pending {
    env: Envelope,
    sig: OneTimeSignature,
    held: bool,
}

/// Everything a broadcast's wire bytes are a function of, apart from
/// the decided-evidence snapshot (capturing one drops the cached
/// encoding): the envelope, its signature, and — for a justified
/// re-broadcast — the evidence store's [`MessageStore::generation`].
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
struct WireKey {
    envelope: Envelope,
    signature: OneTimeSignature,
    justified_at: Option<u64>,
}

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
    /// Last broadcast and what it was built from: a tick whose
    /// [`WireKey`] matches reuses it without building a bundle, and a
    /// rebuilt message equal to it reuses its wire bytes.
    last_wire: Option<(WireKey, Outbound)>,
    /// Pooled encode scratch for outbound wire bytes (flat-arena
    /// codec, DESIGN.md §13). Host-only: produces the same bytes
    /// [`Message::encode`] would.
    arena: EncodeArena,
    /// Recycled buffers for the message currently being processed: its
    /// unabsorbed justification entries, and its authentic entries
    /// below the GC floor. Cleared per message, so the steady state
    /// performs no allocation.
    pending_scratch: Vec<Pending>,
    sub_floor_scratch: Vec<(Envelope, OneTimeSignature)>,
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
            pending_scratch: Vec::new(),
            sub_floor_scratch: Vec::new(),
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
        let key = verify_key(env, sig);
        let keyring = &self.keyring;
        self.verify_cache.lookup(key, || match pre {
            Some(sig_hash) => keyring.verify_hashed(env, sig_hash),
            None => keyring.verify(env, sig),
        })
    }

    /// Whether the evidence store already holds `sig` for `env`'s
    /// `(sender, phase, value)`; if so the signature is authentic
    /// without a memo probe or a hash (DESIGN.md §8). Sound because the
    /// store only ever receives verified entries, [`KeyRing::verify`]
    /// reads exactly those three fields plus the signature, and no
    /// verdict ever flips from `true` to `false` (see
    /// [`KeyRing::epoch_stamp`]). Counted in telemetry as one
    /// verification answered from cache, in both memo modes.
    fn held_evidence(&self, env: &Envelope, sig: &OneTimeSignature) -> bool {
        let held = self.evidence.holds_signature(env, sig);
        if held {
            turquois_crypto::telemetry::count_verify_hits(1);
        }
        held
    }

    /// Counts the justification entries this node has *absorbed* and
    /// decodes the others into `pending`, in bundle order. An entry is
    /// absorbed when the evidence store holds its signature and both
    /// the evidence store and `V_i` hold its exact record: it is
    /// authentic as it stands (see [`Turquois::held_evidence`]), its
    /// evidence insert would be a no-op, and so would its `V_i` insert,
    /// so the semantic check guarding that insert has nothing to
    /// decide. The probes read the entries straight from the receive
    /// buffer and resolve both stores' phase slots once per run of
    /// equal phases.
    fn classify(&self, view: &MessageView<'_>, pending: &mut Vec<Pending>) -> usize {
        pending.clear();
        let mut absorbed = 0;
        let mut slots: Option<(u32, PhaseProbe<'_>, PhaseProbe<'_>)> = None;
        for i in 0..view.justification_len() {
            let env = view.entry_envelope(i);
            let (evidence, valid) = match slots {
                Some((phase, evidence, valid)) if phase == env.phase => (evidence, valid),
                _ => {
                    let evidence = self.evidence.phase_probe(env.phase);
                    let valid = self.valid.phase_probe(env.phase);
                    slots = Some((env.phase, evidence, valid));
                    (evidence, valid)
                }
            };
            let sig = view.sig_bytes(i);
            let held = evidence.holds_signature(&env, sig);
            if held && evidence.contains(&env) && valid.contains(&env) {
                absorbed += 1;
            } else {
                let sig = OneTimeSignature(sig.try_into().expect("DIGEST_LEN bytes"));
                pending.push(Pending { env, sig, held });
            }
        }
        absorbed
    }

    /// The per-message batched verify queue (DESIGN.md §12): collects
    /// the pending entries whose memo keys will miss, hashes their
    /// signatures through the multi-lane kernel in one batch, and
    /// returns the per-entry precomputed hashes for
    /// [`Turquois::verify_cached_with`]. Held evidence, entries already
    /// cached, and duplicates within the bundle (the first lookup will
    /// insert them) get `None`. So does everything when the whole bundle
    /// (`bundle_len`, absorbed entries included) has fewer than two
    /// entries, or when memoization is disabled: the `TURQUOIS_NO_MEMO`
    /// baseline hashes every entry that is not held evidence one at a
    /// time.
    fn prehash_pending(&mut self, bundle_len: usize, pending: &[Pending]) -> Vec<Option<Digest>> {
        let mut pre = vec![None; pending.len()];
        if pending.is_empty() || bundle_len < 2 || !turquois_crypto::telemetry::memo_enabled() {
            return pre;
        }
        self.refresh_verify_cache();
        let mut seen = std::collections::BTreeSet::new();
        let mut lanes: Vec<usize> = Vec::new();
        for (k, p) in pending.iter().enumerate() {
            let key = verify_key(&p.env, &p.sig);
            if p.held || self.verify_cache.contains(&key) || !seen.insert(key) {
                continue;
            }
            lanes.push(k);
        }
        let inputs: Vec<&[u8]> = lanes.iter().map(|&k| &pending[k].sig.0[..]).collect();
        for (&k, hash) in lanes.iter().zip(sha256_many(&inputs)) {
            pre[k] = Some(hash);
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
        self.last_broadcast = Some(envelope);
        // While the key stands the previous broadcast is this one: reuse
        // it without building a bundle (the clone of the shared wire
        // buffer is a pointer bump).
        let key = WireKey {
            envelope,
            signature,
            justified_at: rebroadcast.then(|| self.evidence.generation()),
        };
        if let Some((cached, out)) = &self.last_wire {
            if *cached == key {
                return Ok(out.clone());
            }
        }
        let justification = if rebroadcast {
            self.build_justification(&envelope)
        } else {
            Vec::new()
        };
        let message = Message {
            envelope,
            signature,
            justification,
        };
        // A rebuilt message equal to the last one (its inputs moved, the
        // bundle did not) keeps the last wire bytes. Anything else is
        // staged into the pooled chunk: the bytes `Message::encode`
        // would produce, in one recycled allocation instead of two
        // fresh ones.
        let bytes = match &self.last_wire {
            Some((_, last)) if last.message == message => last.bytes.clone(),
            _ => self.arena.encode_with(|buf| message.encode_into(buf)),
        };
        let out = Outbound { bytes, message };
        self.last_wire = Some((key, out.clone()));
        Ok(out)
    }

    /// Task T2: process an incoming wire message (including loopbacks of
    /// our own broadcasts).
    pub fn on_message(&mut self, bytes: &[u8]) -> Receipt {
        self.receive(bytes, Self::process)
    }

    /// The front half of [`Turquois::on_message`]: decoding and the
    /// outer signature, handing an authentic message to `process`.
    fn receive(
        &mut self,
        bytes: &[u8],
        process: fn(&mut Self, &MessageView<'_>, &mut Receipt),
    ) -> Receipt {
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
        // to simulated CPU whether or not the evidence store or the
        // memo cache answers it).
        receipt.sig_verifications += 1;
        let (envelope, signature) = (view.envelope(), view.signature());
        if !(self.held_evidence(&envelope, &signature) || self.verify_cached(&envelope, &signature))
        {
            receipt.outcome = MessageOutcome::AuthFailed;
            return receipt;
        }
        process(self, &view, &mut receipt);
        receipt
    }

    /// The back half of [`Turquois::on_message`] for an authentic
    /// outer message: attachment verification, evidence/valid store
    /// insertion, semantic validation of the outer message, and state
    /// advancement.
    fn process(&mut self, view: &MessageView<'_>, receipt: &mut Receipt) {
        let (envelope, signature) = (view.envelope(), view.signature());
        // An absorbed attachment is one logical verification and
        // nothing else (see `classify`).
        let mut pending = std::mem::take(&mut self.pending_scratch);
        let absorbed = self.classify(view, &mut pending);
        receipt.sig_verifications += absorbed;
        turquois_crypto::telemetry::count_verify_hits(absorbed as u64);

        // Authenticity of the others, in bundle order; inauthentic ones
        // are dropped. A held signature is authentic as it stands; the
        // other memo-missing entries are hashed through the multi-lane
        // kernel in one batch first. Authentic attachments within the GC
        // window enter the evidence store; older ones count transiently
        // through the view.
        let pre = self.prehash_pending(view.justification_len(), &pending);
        let gc_floor = self.gc_floor();
        let mut sub_floor = std::mem::take(&mut self.sub_floor_scratch);
        sub_floor.clear();
        let mut kept = 0;
        for k in 0..pending.len() {
            let Pending { env, sig, held } = pending[k];
            receipt.sig_verifications += 1;
            let authentic = if held {
                turquois_crypto::telemetry::count_verify_hits(1);
                true
            } else {
                self.verify_cached_with(&env, &sig, pre[k].as_ref())
            };
            if !authentic {
                continue;
            }
            if env.phase >= gc_floor {
                self.evidence.insert(&env, sig);
                pending[kept] = pending[k];
                kept += 1;
            } else {
                sub_floor.push((env, sig));
            }
        }
        pending.truncate(kept);

        // Every authentic attachment at or above the floor is in the
        // evidence store by now, so the view needs only the older ones.
        // Attachments that independently pass semantic validation also
        // enter V_i — they are protocol messages in their own right. An
        // attachment V_i already holds would only be a no-op insert.
        let evidence = EvidenceView::new(&self.evidence, &sub_floor);
        for p in &pending {
            if !self.valid.contains(&p.env) && semantic_check(&p.env, &self.cfg, &evidence).is_ok()
            {
                self.valid.insert(&p.env, p.sig);
            }
        }

        // Semantic validation of the outer message.
        let semantic = semantic_check(&envelope, &self.cfg, &evidence);
        // Hand the scratch back for the next message (its capacity is
        // the recycled resource; contents are dead).
        self.pending_scratch = pending;
        self.sub_floor_scratch = sub_floor;
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
        // Decided re-broadcasts carry the snapshot: their cached
        // encoding is stale.
        self.last_wire = None;
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
        let quorum = self.cfg.quorum_min();
        let half = self.cfg.half_quorum_min();
        let evidence = &self.evidence;
        let first = |at, value, limit| evidence.first_records(at, Some(value)).take(limit);
        let mut bundle = Bundle::new(self.cfg.n(), phase.saturating_sub(1));

        if phase > 1 {
            // Value justification first (its messages double as phase
            // evidence when they sit at φ − 1).
            match phase % 3 {
                2 => bundle.extend(first(phase - 1, envelope.value, half)),
                0 => match envelope.value {
                    Value::Bot => {
                        bundle.extend(first(phase - 2, Value::Zero, half));
                        bundle.extend(first(phase - 2, Value::One, half));
                    }
                    v => bundle.extend(first(phase - 1, v, quorum)),
                },
                _ => {
                    if envelope.coin_flip {
                        bundle.extend(first(phase - 1, Value::Bot, quorum));
                    } else {
                        bundle.extend(first(phase - 2, envelope.value, quorum));
                    }
                }
            }
            // Phase justification: top the φ − 1 sender count up to a
            // quorum, reusing whatever the value evidence already
            // contributed.
            for (env, sig) in evidence.first_records(phase - 1, None).take(top_up_limit) {
                if bundle.prev_senders >= quorum {
                    break;
                }
                if !bundle.has_prev_sender(env.sender) {
                    bundle.push(env, sig);
                }
            }
        }

        // Status justification (decided claims carry their quorum; the
        // dedupe absorbs overlap with the evidence above).
        if envelope.status == Status::Decided {
            bundle.extend(self.decided_evidence.iter().copied());
        }
        bundle.entries
    }
}

/// A justification bundle under construction. Entries keep insertion
/// order; duplicates (equal envelopes) are dropped in O(1) through
/// per-sender combination-code masks, one lane for each phase the
/// bundle draws from — at most three: φ − 1, φ − 2, and the phase of
/// the decided-evidence snapshot. The distinct-sender count at φ − 1
/// is kept alongside for the phase top-up.
struct Bundle {
    entries: Vec<(Envelope, OneTimeSignature)>,
    /// The phase each mask lane stands for (0, never a real phase, marks
    /// a free lane).
    lanes: [u32; 3],
    masks: Vec<[u16; 3]>,
    prev_phase: u32,
    prev_senders: usize,
}

impl Bundle {
    fn new(n: usize, prev_phase: u32) -> Self {
        Bundle {
            entries: Vec::new(),
            lanes: [0; 3],
            masks: vec![[0; 3]; n],
            prev_phase,
            prev_senders: 0,
        }
    }

    fn lane(&mut self, phase: u32) -> usize {
        if let Some(lane) = self.lanes.iter().position(|&p| p == phase) {
            return lane;
        }
        let lane = self
            .lanes
            .iter()
            .position(|&p| p == 0)
            .expect("a bundle draws from at most three phases");
        self.lanes[lane] = phase;
        lane
    }

    fn has_prev_sender(&self, sender: usize) -> bool {
        self.lanes
            .iter()
            .position(|&p| p == self.prev_phase)
            .is_some_and(|lane| self.masks[sender][lane] != 0)
    }

    fn push(&mut self, env: Envelope, sig: OneTimeSignature) {
        let lane = self.lane(env.phase);
        let mask = &mut self.masks[env.sender][lane];
        let bit = 1u16 << combo_code(env.value, env.coin_flip, env.status);
        if *mask & bit != 0 {
            return;
        }
        if *mask == 0 && env.phase == self.prev_phase {
            self.prev_senders += 1;
        }
        *mask |= bit;
        self.entries.push((env, sig));
    }

    fn extend(&mut self, items: impl IntoIterator<Item = (Envelope, OneTimeSignature)>) {
        for (env, sig) in items {
            self.push(env, sig);
        }
    }
}

/// Memo-cache key for verifying `sig` over `env` (see [`VerifyKey`]).
fn verify_key(env: &Envelope, sig: &OneTimeSignature) -> VerifyKey {
    (env.phase, env.sender, env.value.index() as u8, sig.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyring::KeyRing;
    use proptest::prelude::TestCaseError;
    use std::collections::BTreeMap;
    use turquois_crypto::telemetry::HotpathSnapshot;

    const PHASES: usize = 60;

    /// The retired receive path, kept as the differential reference for
    /// the absorbed-entry fast path: every attachment goes through the
    /// held/memo verification loop, the evidence insert, and (unless
    /// `V_i` holds it) a semantic check against a view extended by the
    /// whole authentic bundle.
    impl Turquois {
        fn on_message_reference(&mut self, bytes: &[u8]) -> Receipt {
            self.receive(bytes, Self::process_reference)
        }

        fn prehash_justification(
            &mut self,
            justification: &MessageView<'_>,
        ) -> Vec<Option<Digest>> {
            let mut pre = vec![None; justification.justification_len()];
            if justification.justification_len() < 2 || !turquois_crypto::telemetry::memo_enabled()
            {
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
                let key = verify_key(&env, &sig);
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

        fn process_reference(&mut self, view: &MessageView<'_>, receipt: &mut Receipt) {
            let (envelope, signature) = (view.envelope(), view.signature());
            let pre = self.prehash_justification(view);
            let mut extras = Vec::new();
            for (i, pre_i) in pre.iter().enumerate() {
                let (env, sig) = view.entry(i);
                receipt.sig_verifications += 1;
                let authentic = self.held_evidence(&env, &sig)
                    || self.verify_cached_with(&env, &sig, pre_i.as_ref());
                if authentic {
                    extras.push((env, sig));
                }
            }
            let gc_floor = self.gc_floor();
            for (env, sig) in &extras {
                if env.phase >= gc_floor {
                    self.evidence.insert(env, *sig);
                }
            }
            for (env, sig) in &extras {
                if env.phase >= gc_floor
                    && !self.valid.contains(env)
                    && semantic_check(env, &self.cfg, &EvidenceView::new(&self.evidence, &extras))
                        .is_ok()
                {
                    self.valid.insert(env, *sig);
                }
            }
            let semantic = semantic_check(
                &envelope,
                &self.cfg,
                &EvidenceView::new(&self.evidence, &extras),
            );
            if let Err(reason) = semantic {
                receipt.outcome = MessageOutcome::SemanticFailed(reason);
                self.advance(receipt);
                return;
            }
            self.evidence.insert(&envelope, signature);
            if !self.valid.insert(&envelope, signature) {
                receipt.outcome = MessageOutcome::Duplicate;
            }
            self.advance(receipt);
        }
    }

    /// The retired bundle builder: dedupe by a linear `any` scan over
    /// the bundle (O(J²)) and a `BTreeSet` of φ − 1 senders, kept as the
    /// reference for [`Turquois::build_justification_with`].
    fn quadratic_bundle(
        p: &Turquois,
        envelope: &Envelope,
        top_up_limit: usize,
    ) -> Vec<(Envelope, OneTimeSignature)> {
        let phase = envelope.phase;
        let mut bundle: Vec<(Envelope, OneTimeSignature)> = Vec::new();
        let quorum = p.cfg.quorum_min();
        let half = p.cfg.half_quorum_min();
        let add = |items: Vec<(Envelope, OneTimeSignature)>,
                   bundle: &mut Vec<(Envelope, OneTimeSignature)>| {
            for (env, sig) in items {
                if !bundle.iter().any(|(e, _)| e == &env) {
                    bundle.push((env, sig));
                }
            }
        };
        let collect = |at, value, limit| p.evidence.collect(at, Some(value), limit);
        if phase > 1 {
            match phase % 3 {
                2 => add(collect(phase - 1, envelope.value, half), &mut bundle),
                0 => match envelope.value {
                    Value::Bot => {
                        add(collect(phase - 2, Value::Zero, half), &mut bundle);
                        add(collect(phase - 2, Value::One, half), &mut bundle);
                    }
                    v => add(collect(phase - 1, v, quorum), &mut bundle),
                },
                _ => {
                    if envelope.coin_flip {
                        add(collect(phase - 1, Value::Bot, quorum), &mut bundle);
                    } else {
                        add(collect(phase - 2, envelope.value, quorum), &mut bundle);
                    }
                }
            }
            let mut senders_at_prev: std::collections::BTreeSet<usize> = bundle
                .iter()
                .filter(|(e, _)| e.phase == phase - 1)
                .map(|(e, _)| e.sender)
                .collect();
            if senders_at_prev.len() < quorum {
                for (env, sig) in p.evidence.collect(phase - 1, None, top_up_limit) {
                    if senders_at_prev.len() >= quorum {
                        break;
                    }
                    if senders_at_prev.insert(env.sender) {
                        add(vec![(env, sig)], &mut bundle);
                    }
                }
            }
        }
        if envelope.status == Status::Decided {
            add(p.decided_evidence.clone(), &mut bundle);
        }
        bundle
    }

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

    /// A fresh φ − 1 sender, a GC prune, and a decided-evidence capture
    /// each make the next re-broadcast rebuild its bundle; with none of
    /// them the tick hands back the previous wire buffer itself.
    #[test]
    fn rebroadcast_reuses_bytes_until_its_inputs_change() {
        let mut procs = make_group(7, &[true], 61);
        let round: Vec<Outbound> = procs
            .iter_mut()
            .map(|p| p.on_tick().expect("keys cover phase"))
            .collect();
        // Five phase-1 messages (a quorum at n = 7), sender 1 missing.
        for p in procs.iter_mut().take(3) {
            for i in [0, 2, 3, 4, 5] {
                p.on_message(&round[i].bytes);
            }
        }
        let lock = procs[2].on_tick().expect("keys cover phase");
        let p = &mut procs[0];
        assert_eq!(p.phase(), 2);
        let _bare = p.on_tick().expect("keys cover phase");
        let first = p.on_tick().expect("keys cover phase");
        assert!(!first.message.justification.is_empty());
        let again = p.on_tick().expect("keys cover phase");
        assert_eq!(
            again.bytes.as_ptr(),
            first.bytes.as_ptr(),
            "nothing changed: same buffer"
        );
        assert_eq!(again.message, first.message);

        // Sender 1 sorts before the bundled senders, so its phase-1
        // message displaces one of them.
        p.on_message(&round[1].bytes);
        let changed = p.on_tick().expect("keys cover phase");
        assert_ne!(changed.message.justification, first.message.justification);
        let bundle = &changed.message.justification;
        assert!(bundle.iter().any(|(e, _)| e.sender == 1));
        assert_eq!(*bundle, p.build_justification(&changed.message.envelope));
        let again = p.on_tick().expect("keys cover phase");
        assert_eq!(again.bytes.as_ptr(), changed.bytes.as_ptr());

        // A fresh insert the bundle does not read (phase 2) moves the
        // generation: the tick rebuilds, finds the same message, and
        // keeps the buffer under the new key.
        let generation = p.evidence.generation();
        assert_eq!(p.on_message(&lock.bytes).outcome, MessageOutcome::Accepted);
        assert!(p.evidence.generation() > generation);
        let rebuilt = p.on_tick().expect("keys cover phase");
        assert_eq!(rebuilt.bytes.as_ptr(), changed.bytes.as_ptr());
        let (key, _) = p.last_wire.as_ref().expect("cached");
        assert_eq!(key.justified_at, Some(p.evidence.generation()));

        // A prune that drops phase 1 takes the bundle's evidence with it.
        p.evidence.prune_below(2);
        let pruned = p.on_tick().expect("keys cover phase");
        assert_ne!(pruned.bytes.as_ptr(), changed.bytes.as_ptr());
        assert!(pruned.message.justification.is_empty());
        assert_eq!(&pruned.bytes[..], &pruned.message.encode()[..]);

        // A decided process: capturing the decided evidence again (the
        // envelope and the evidence generation unchanged) rebuilds too.
        let mut procs = make_group(4, &[true], 62);
        run_synchronous(&mut procs, 10);
        let p = &mut procs[0];
        assert!(p.decision().is_some());
        let _bare = p.on_tick().expect("keys cover phase");
        let decided = p.on_tick().expect("keys cover phase");
        assert_eq!(decided.message.envelope.status, Status::Decided);
        let again = p.on_tick().expect("keys cover phase");
        assert_eq!(again.bytes.as_ptr(), decided.bytes.as_ptr());
        p.capture_decided_evidence(Value::One);
        let recaptured = p.on_tick().expect("keys cover phase");
        assert_ne!(recaptured.bytes.as_ptr(), decided.bytes.as_ptr());
        assert_eq!(recaptured.message, decided.message);
    }

    /// A signed entry drawn from a recorded run, or made up for a phase
    /// the run never reached.
    type Entry = (Envelope, OneTimeSignature);

    /// Everything a lossless synchronous group of `n` broadcast over
    /// `rounds` rounds, in delivery order, and every signed entry those
    /// messages carried (outer and attached), grouped by phase. Each
    /// round every process ticks twice before anything is delivered, so
    /// the second tick is a justified re-broadcast.
    fn record_run(n: usize, seed: u64, rounds: usize) -> (Vec<Bytes>, BTreeMap<u32, Vec<Entry>>) {
        let mut procs = make_group(n, &[true, false], seed);
        let mut history = Vec::new();
        let mut pool: BTreeMap<u32, Vec<Entry>> = BTreeMap::new();
        for _ in 0..rounds {
            let outs: Vec<Outbound> = procs
                .iter_mut()
                .flat_map(|p| [p.on_tick(), p.on_tick()])
                .map(|out| out.expect("keys cover phase"))
                .collect();
            for out in outs {
                let m = &out.message;
                let outer = (m.envelope, m.signature);
                for &(env, sig) in std::iter::once(&outer).chain(&m.justification) {
                    let at = pool.entry(env.phase).or_default();
                    if !at.contains(&(env, sig)) {
                        at.push((env, sig));
                    }
                }
                for p in procs.iter_mut() {
                    p.on_message(&out.bytes);
                }
                history.push(out.bytes);
            }
        }
        (history, pool)
    }

    /// One receiver twice over: `fast` takes the production receive
    /// path, `reference` the retired per-entry loop.
    struct Twins {
        fast: Turquois,
        reference: Turquois,
    }

    impl Twins {
        fn new(cfg: Config, ring: &KeyRing, seed: u64) -> Self {
            Twins {
                fast: Turquois::new(cfg, 0, true, ring.clone(), seed),
                reference: Turquois::new(cfg, 0, true, ring.clone(), seed),
            }
        }

        /// Delivers `bytes` to both twins and checks they agree on the
        /// receipt, the telemetry the delivery caused, the node state,
        /// and both stores' answers about every entry in `probes`.
        fn deliver(&mut self, bytes: &[u8], probes: &[Entry]) -> Result<(), TestCaseError> {
            let t0 = HotpathSnapshot::now();
            let fast = self.fast.on_message(bytes);
            let t1 = HotpathSnapshot::now();
            let reference = self.reference.on_message_reference(bytes);
            let t2 = HotpathSnapshot::now();
            proptest::prop_assert_eq!(fast, reference);
            proptest::prop_assert_eq!(t1.delta_since(&t0), t2.delta_since(&t1), "telemetry deltas");
            let (a, b) = (&self.fast, &self.reference);
            proptest::prop_assert_eq!(a.debug_snapshot(), b.debug_snapshot());
            proptest::prop_assert_eq!((a.decision(), a.status()), (b.decision(), b.status()));
            for (x, y) in [(&a.evidence, &b.evidence), (&a.valid, &b.valid)] {
                proptest::prop_assert_eq!(x.record_count(), y.record_count());
                for (env, sig) in probes {
                    proptest::prop_assert_eq!(x.count_phase(env.phase), y.count_phase(env.phase));
                    proptest::prop_assert_eq!(
                        x.count_value(env.phase, env.value),
                        y.count_value(env.phase, env.value)
                    );
                    proptest::prop_assert_eq!(x.contains(env), y.contains(env));
                    proptest::prop_assert_eq!(
                        x.holds_signature(env, sig),
                        y.holds_signature(env, sig)
                    );
                }
            }
            Ok(())
        }
    }

    /// Picks an entry at `phase` from the recorded pool, or signs a fresh
    /// one when the run never reached `phase`, then applies `kind`:
    /// 0–3 as it is, 4 the coin flag flipped and 5 the status flipped
    /// (same signature, a different record), 6 a forged copy (one
    /// signature byte flipped), 7 a repeat of `prev` if there is one.
    fn pick_entry(
        pool: &BTreeMap<u32, Vec<Entry>>,
        rings: &[KeyRing],
        (phase, pick, kind, byte): (u32, usize, u8, usize),
        prev: Option<Entry>,
    ) -> Entry {
        let (mut env, mut sig) = match pool.get(&phase) {
            Some(at) => at[pick % at.len()],
            None => {
                let sender = pick % rings.len();
                let value = [Value::Zero, Value::One][pick / rings.len() % 2];
                let sig = rings[sender].sign(phase, value).expect("keys cover phase");
                let env = Envelope {
                    sender,
                    phase,
                    value,
                    coin_flip: false,
                    status: Status::Undecided,
                };
                (env, sig)
            }
        };
        match kind {
            4 => env.coin_flip = !env.coin_flip,
            5 => {
                env.status = match env.status {
                    Status::Decided => Status::Undecided,
                    Status::Undecided => Status::Decided,
                }
            }
            6 => sig.0[byte % 32] ^= 1 << (byte % 8),
            7 => return prev.unwrap_or((env, sig)),
            _ => {}
        }
        (env, sig)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The absorbed-entry fast path is observationally identical to
        /// the retired per-entry loop. Receivers warmed on a prefix of a
        /// recorded run, and cold ones, get random bundles mixing held
        /// entries, held signatures under another coin flag or status,
        /// forged copies of held entries, entries below the GC floor,
        /// repeats within one bundle, and entries at phases the receiver
        /// has no slot for — then stale re-deliveries of the recorded
        /// run, in both memo modes. Every delivery must give
        /// both twins the same receipt, the same telemetry deltas, and
        /// the same store answers about every entry involved.
        #[test]
        fn absorbed_fast_path_matches_per_entry_reference(
            seed in 0u64..1000,
            rounds in 1usize..16,
            warm_percent in 0usize..=100,
            bundles in proptest::collection::vec(
                (
                    0u32..64,
                    (0usize..64, 0u8..7, 0usize..32),
                    proptest::collection::vec((0u32..3, 0usize..64, 0u8..8, 0usize..32), 0..=21),
                ),
                1..8,
            ),
            replays in proptest::collection::vec(0usize..1024, 0..8),
        ) {
            let n = 7;
            let cfg = Config::evaluation(n).expect("valid n");
            let rings = KeyRing::trusted_setup(n, PHASES, seed);
            let (history, pool) = record_run(n, seed, rounds);
            let warm = history.len() * warm_percent / 100;
            // Bundles centre on the phases the run reached, plus two it
            // did not.
            let top = pool.keys().next_back().copied().unwrap_or(1);
            let initial = turquois_crypto::telemetry::memo_enabled();
            for memo in [true, false] {
                turquois_crypto::telemetry::set_memo_enabled(memo);
                let twins = || Twins::new(cfg, &rings[0], seed);
                let mut receivers = [twins(), twins()];
                for bytes in &history[..warm] {
                    receivers[0].deliver(bytes, &[])?;
                }
                for (base, (pick, kind, byte), entries) in &bundles {
                    let base = 1 + base % (top + 2);
                    let outer = (base, *pick, *kind, *byte);
                    let (envelope, signature) = pick_entry(&pool, &rings, outer, None);
                    let mut justification: Vec<Entry> = Vec::new();
                    for &(offset, pick, kind, byte) in entries {
                        let phase = base.saturating_sub(offset).max(1);
                        let prev = justification.last().copied();
                        let entry = (phase, pick, kind, byte);
                        justification.push(pick_entry(&pool, &rings, entry, prev));
                    }
                    let message = Message { envelope, signature, justification };
                    let mut probes = message.justification.clone();
                    probes.push((envelope, signature));
                    let bytes = message.encode();
                    for twins in receivers.iter_mut() {
                        twins.deliver(&bytes, &probes)?;
                    }
                }
                // Stale re-deliveries: to a receiver that has moved on,
                // an early re-broadcast's bundle sits below the GC floor.
                for &r in &replays {
                    let bytes = &history[r % history.len()];
                    let message = Message::decode(bytes, &cfg).expect("recorded message");
                    let mut probes = message.justification.clone();
                    probes.push((message.envelope, message.signature));
                    for twins in receivers.iter_mut() {
                        twins.deliver(bytes, &probes)?;
                    }
                }
            }
            turquois_crypto::telemetry::set_memo_enabled(initial);
        }

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
        /// bit-identical to the retired unbounded scan, and the
        /// mask-deduplicated builder is bit-identical to the retired
        /// quadratic one: on arbitrary evidence stores (equivocators,
        /// gaps, every phase shape mod 3, both coin flips, both statuses
        /// with a decided-evidence snapshot that overlaps the value
        /// evidence) all four bundles agree, so bounding never drops a
        /// message a receiver needs to justify a phase transition.
        #[test]
        fn bounded_bundle_matches_unbounded_scan(
            seed in 0u64..200,
            phase_sel in 3u32..=8,
            decided_sel in (proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
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
            // A decided-evidence snapshot as `capture_decided_evidence`
            // takes it, at DECIDE phase 3 or 6.
            let (late, one) = decided_sel;
            let psi = if late { 6 } else { 3 };
            let decided_value = if one { Value::One } else { Value::Zero };
            p.decided_evidence = p.evidence.collect(psi, Some(decided_value), p.cfg.quorum_min());
            let flat = |b: Vec<(Envelope, OneTimeSignature)>| -> Vec<(Envelope, [u8; 32])> {
                b.into_iter().map(|(e, s)| (e, s.0)).collect()
            };
            for value in [Value::Zero, Value::One, Value::Bot] {
                for coin in [false, true] {
                    for status in [Status::Undecided, Status::Decided] {
                        let env = Envelope {
                            sender: 0,
                            phase: phase_sel,
                            value,
                            coin_flip: coin,
                            status,
                        };
                        let quorum = p.cfg.quorum_min();
                        let bounded = flat(p.build_justification_with(&env, quorum));
                        for (label, other) in [
                            ("unbounded", p.build_justification_with(&env, usize::MAX)),
                            ("quadratic", quadratic_bundle(&p, &env, quorum)),
                            ("quadratic unbounded", quadratic_bundle(&p, &env, usize::MAX)),
                        ] {
                            proptest::prop_assert_eq!(
                                &bounded,
                                &flat(other),
                                "{} bundle diverged at phase {} value {:?} coin {} status {:?}",
                                label,
                                phase_sel,
                                value,
                                coin,
                                status
                            );
                        }
                    }
                }
            }
        }
    }
}
