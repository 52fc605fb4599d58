//! Adapters binding the three protocol engines to the `wireless-net`
//! simulator, reproducing the paper's deployment choices (§7.1):
//!
//! * **Turquois** runs over UDP broadcast. A local clock tick fires when
//!   10 ms passed since the last broadcast **or** the phase value
//!   changed.
//! * **Bracha** runs over TCP (the reliable transport) with per-link
//!   IPSec-AH-style authentication — HMAC-SHA256 with pairwise keys
//!   here.
//! * **ABBA** runs over TCP with its own threshold-signature
//!   authentication; messages are padded to the size they would have
//!   with RSA-1024 group elements, and every cryptographic operation is
//!   charged to the node's virtual CPU through the
//!   [`CostModel`].

use bytes::{BufMut, Bytes, BytesMut};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;
use turquois_baselines::abba::{Abba, AbbaOutput};
use turquois_baselines::bracha::{Bracha, BrachaOutput};
use turquois_core::instance::Turquois;
use turquois_crypto::cost::CostModel;
use turquois_crypto::hmac::HmacKey;
use turquois_crypto::memo::MemoCache;
use turquois_crypto::sha256::{Digest, DIGEST_LEN};
use wireless_net::config::overhead;
use wireless_net::frame::ReceivedFrame;
use wireless_net::reliable::ReliableEndpoint;
use wireless_net::sim::{Application, NodeCtx};
use wireless_net::supervise::AppProgress;

/// Observations shared between adapters and the experiment driver
/// (single-threaded simulator ⇒ `Rc<RefCell>`).
#[derive(Clone, Debug, Default)]
pub struct RunProbe {
    /// Protocol phase (Turquois) or round (baselines) at decision time.
    pub phase_at_decision: Vec<Option<u32>>,
    /// Messages accepted per node.
    pub accepted: Vec<u64>,
    /// Messages rejected (authenticity or semantic validation) per node.
    pub rejected: Vec<u64>,
    /// Nodes whose one-time keys ran out (Turquois re-key boundary).
    pub keys_exhausted: Vec<bool>,
    /// Last observed protocol phase/round per node (updated continuously).
    pub final_phase: Vec<u32>,
}

impl RunProbe {
    /// Creates a probe for `n` nodes.
    pub fn new(n: usize) -> SharedProbe {
        Rc::new(RefCell::new(RunProbe {
            phase_at_decision: vec![None; n],
            accepted: vec![0; n],
            rejected: vec![0; n],
            keys_exhausted: vec![false; n],
            final_phase: vec![0; n],
        }))
    }
}

/// Shared handle to a [`RunProbe`].
pub type SharedProbe = Rc<RefCell<RunProbe>>;

/// An outgoing-frame mutator installed on Byzantine protocol wrappers
/// (the §7.2 value-flipping strategies).
pub type FrameMutation = Box<dyn FnMut(&[u8]) -> Bytes>;

/// The paper's clock-tick interval (§7.1).
pub const TICK_INTERVAL: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------- turquois

/// Construction parameters of a [`Turquois`] instance, retained so a
/// crash/rejoin can rebuild the engine from scratch (the engines are
/// deliberately not `Clone`).
type TurquoisRebuild = (turquois_core::config::Config, bool, turquois_core::KeyRing, u64);

/// Turquois over UDP broadcast.
pub struct TurquoisApp {
    instance: Turquois,
    cost: CostModel,
    tick: Duration,
    generation: u64,
    exhausted: bool,
    probe: SharedProbe,
    rebuild: Option<TurquoisRebuild>,
}

impl TurquoisApp {
    /// Wraps a protocol instance.
    pub fn new(instance: Turquois, cost: CostModel, probe: SharedProbe) -> Self {
        TurquoisApp {
            instance,
            cost,
            tick: TICK_INTERVAL,
            generation: 0,
            exhausted: false,
            probe,
            rebuild: None,
        }
    }

    /// Retains the engine's construction parameters so
    /// [`Application::reset`] can model a process restart (crash/rejoin
    /// scenarios). `proposal`, `ring`, and `seed` must match the ones
    /// the wrapped instance was built with. A restarted node re-signs
    /// early phases with the same one-time keys — safe, because the
    /// protocol counts per distinct sender and tolerates equivocation.
    pub fn resettable(
        mut self,
        cfg: turquois_core::config::Config,
        proposal: bool,
        ring: turquois_core::KeyRing,
        seed: u64,
    ) -> Self {
        self.rebuild = Some((cfg, proposal, ring, seed));
        self
    }

    /// Read access for post-run inspection.
    pub fn instance(&self) -> &Turquois {
        &self.instance
    }

    /// Overrides the clock-tick interval (paper default: 10 ms). Used by
    /// the tick-interval ablation.
    pub fn tick_interval(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    fn broadcast_now(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.exhausted {
            return;
        }
        match self.instance.on_tick() {
            Ok(out) => {
                ctx.charge_cpu(self.cost.otss_sign() + self.cost.hash(out.bytes.len()));
                ctx.broadcast(out.bytes, overhead::UDP);
            }
            Err(_) => {
                self.exhausted = true;
                self.probe.borrow_mut().keys_exhausted[self.instance.id()] = true;
                return;
            }
        }
        // Re-arm: only the newest generation's timer broadcasts, so a
        // phase-change broadcast implicitly resets the 10 ms clock.
        self.generation += 1;
        ctx.set_timer(self.tick, self.generation);
    }
}

impl Application for TurquoisApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.broadcast_now(ctx);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        if timer == self.generation {
            self.broadcast_now(ctx);
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        let receipt = self.instance.on_message(&frame.payload);
        ctx.charge_cpu(
            self.cost.hash(frame.payload.len())
                + self.cost.otss_verify(DIGEST_LEN) * receipt.sig_verifications as u32,
        );
        {
            let mut probe = self.probe.borrow_mut();
            let (id, phase) = (self.instance.id(), self.instance.phase());
            match receipt.outcome {
                turquois_core::MessageOutcome::Accepted
                | turquois_core::MessageOutcome::Duplicate => probe.accepted[id] += 1,
                _ => probe.rejected[id] += 1,
            }
            probe.final_phase[id] = phase;
            if receipt.newly_decided.is_some() {
                probe.phase_at_decision[id] = Some(phase);
            }
        }
        if let Some(v) = receipt.newly_decided {
            ctx.decide(v);
        }
        if receipt.phase_advanced {
            // Clock-tick condition (2): the phase value changed.
            self.broadcast_now(ctx);
        }
    }

    fn progress(&self) -> Option<AppProgress> {
        Some(AppProgress {
            phase: self.instance.phase(),
            decided: self.instance.decision().is_some(),
            store_bytes: self.instance.store_bytes(),
        })
    }

    fn reset(&mut self) {
        let Some((cfg, proposal, ring, seed)) = self.rebuild.clone() else {
            return; // no rebuild parameters: rejoin behaves like a partition
        };
        let id = self.instance.id();
        self.instance = Turquois::new(cfg, id, proposal, ring, seed);
        self.exhausted = false;
        self.probe.borrow_mut().keys_exhausted[id] = false;
        // `generation` is deliberately NOT reset: it must stay monotonic
        // so any pre-crash timer id can never match a post-rejoin one.
    }
}

// ------------------------------------------------------------------ bracha

/// IPSec AH truncates its HMAC ICV to 96 bits; the per-link framing is
/// `icv(12) ‖ inner`.
const ICV_LEN: usize = 12;

/// Per-link HMAC framing (IPSec AH stand-in) from a precomputed tag:
/// `icv(12) ‖ inner` in a buffer of exactly that length.
fn mac_wrap(tag: &Digest, inner: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(ICV_LEN + inner.len());
    buf.put_slice(&tag.as_bytes()[..ICV_LEN]);
    buf.put_slice(inner);
    buf.freeze()
}

/// Reference unwrap used by tests: recomputes the HMAC from the key.
#[cfg(test)]
fn mac_unwrap<'a>(key: &HmacKey, wrapped: &'a [u8]) -> Option<&'a [u8]> {
    if wrapped.len() < ICV_LEN {
        return None;
    }
    let (tag, inner) = wrapped.split_at(ICV_LEN);
    if key.verify_truncated(inner, tag) {
        Some(inner)
    } else {
        None
    }
}

/// Constant-time comparison of a full tag's 96-bit truncation against a
/// received ICV.
fn icv_matches(tag: &Digest, icv: &[u8]) -> bool {
    if icv.len() != ICV_LEN {
        return false;
    }
    let mut diff = 0u8;
    for (a, b) in tag.as_bytes()[..ICV_LEN].iter().zip(icv) {
        diff |= a ^ b;
    }
    diff == 0
}

/// Memo key for one link HMAC: the unordered node pair — which, under
/// the run's pre-distribution seed, fully determines the pairwise key —
/// plus the inner message bytes. Together these are every input the
/// HMAC reads, so a cached tag is always *the* correct tag for that
/// frame: comparing a received ICV against it is exactly as sound as
/// recomputing (a forged ICV mismatches the true tag either way).
/// The message bytes are held as a zero-copy [`Bytes`] handle: keying
/// the pool used to copy every frame body (`inner.to_vec()`) on every
/// wrap *and* every check; an `Arc`-backed slice keys the same content
/// (same `Ord` as `Vec<u8>`) without the copy.
type LinkTagKey = (u16, u16, Bytes);

/// One simulation's pool of link HMAC tags, shared by every node the
/// simulator hosts: the sender's wrap and each receiver's check of the
/// same frame are the same computation under the same pairwise key, so
/// within the single-threaded simulation the receive side is a cache
/// hit on the tag the sender already computed. Simulated CPU is still
/// charged per logical HMAC on both sides; only host hashing is shared.
pub type SharedLinkTags = Rc<RefCell<MemoCache<LinkTagKey, Digest>>>;

/// Bound on pooled link tags per simulation; eviction only recomputes.
const LINK_TAG_CAP: usize = 8192;

/// Creates a fresh per-simulation link-tag pool (see [`SharedLinkTags`]).
pub fn new_link_tags() -> SharedLinkTags {
    Rc::new(RefCell::new(MemoCache::new(LINK_TAG_CAP)))
}

/// One node's pairwise HMAC keys (the paper establishes IPSec security
/// associations between every pair before the run), derived lazily: a
/// key is materialised the first time its link is used (first HMAC
/// wrap or check against that peer), so a node only ever pays for the
/// links it actually touches instead of the full O(n²) mesh at setup.
/// Derivation is a pure function of `(seed, pair)` (see
/// [`turquois_crypto::hmac::pairwise_key`]), so *when* a key is derived
/// cannot change it; it is host work outside the simulated cost model,
/// so it cannot move simulated time.
pub struct PairwiseKeys {
    me: usize,
    seed: u64,
    keys: RefCell<Vec<Option<HmacKey>>>,
}

impl std::fmt::Debug for PairwiseKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairwiseKeys")
            .field("me", &self.me)
            .field("derived", &self.derived_count())
            .finish_non_exhaustive()
    }
}

impl PairwiseKeys {
    /// Creates the (still empty) table for `me` in a group of `n`.
    pub fn new(me: usize, n: usize, seed: u64) -> Self {
        PairwiseKeys {
            me,
            seed,
            keys: RefCell::new(vec![None; n]),
        }
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.keys.borrow().len()
    }

    /// Keys materialised so far: the links actually used.
    pub fn derived_count(&self) -> usize {
        self.keys.borrow().iter().flatten().count()
    }

    /// Runs `f` with the key for the link to `peer`, deriving it first
    /// if this is the link's first use.
    pub fn with_key<R>(&self, peer: usize, f: impl FnOnce(&HmacKey) -> R) -> R {
        let mut keys = self.keys.borrow_mut();
        let slot = &mut keys[peer];
        if slot.is_none() {
            *slot = Some(turquois_crypto::hmac::pairwise_key(self.seed, self.me, peer));
        }
        f(slot.as_ref().expect("slot just filled"))
    }

    /// The HMAC tag for `message` on the link to `peer`.
    pub fn mac(&self, peer: usize, message: &[u8]) -> Digest {
        self.with_key(peer, |k| k.mac(message))
    }
}

/// Bracha's protocol over the reliable (TCP-like) transport with
/// per-link HMAC authentication.
pub struct BrachaApp {
    engine: Bracha,
    transport: ReliableEndpoint,
    macs: PairwiseKeys,
    cost: CostModel,
    probe: SharedProbe,
    /// Optional mutation of outgoing messages (Byzantine strategies).
    mutate: Option<FrameMutation>,
    /// Byzantine wrappers suppress decisions (only correct processes
    /// count toward k).
    decide_enabled: bool,
    /// The simulation-wide link-tag pool; simulated cost is still
    /// charged per logical HMAC, only host hashing is shared.
    link_tags: SharedLinkTags,
}

impl BrachaApp {
    /// Wraps an engine; `seed` must match across the group (key
    /// pre-distribution) and `link_tags` must be the one pool shared by
    /// every node of the simulation (see [`new_link_tags`]).
    pub fn new(
        engine: Bracha,
        n: usize,
        seed: u64,
        cost: CostModel,
        probe: SharedProbe,
        link_tags: SharedLinkTags,
    ) -> Self {
        let me = engine.id();
        BrachaApp {
            engine,
            transport: ReliableEndpoint::new(me, n),
            macs: PairwiseKeys::new(me, n, seed),
            cost,
            probe,
            mutate: None,
            decide_enabled: true,
            link_tags,
        }
    }

    /// The HMAC tag for `inner` on the link between this node and
    /// `peer`, via the simulation's shared tag pool: whichever endpoint
    /// computes it first pays the hashing, the other side hits. The key
    /// shares `inner`'s allocation — no per-lookup copy.
    fn link_tag(&self, peer: usize, inner: &Bytes) -> Digest {
        let me = self.engine.id();
        let (lo, hi) = (me.min(peer) as u16, me.max(peer) as u16);
        self.link_tags
            .borrow_mut()
            .lookup((lo, hi, inner.clone()), || self.macs.mac(peer, inner))
    }

    /// Installs an outgoing-message mutator (used by the Byzantine
    /// value-flipping strategy of §7.2) and suppresses decisions — a
    /// Byzantine node never counts toward k.
    pub fn with_mutation(mut self, mutate: FrameMutation) -> Self {
        self.mutate = Some(mutate);
        self.decide_enabled = false;
        self
    }

    /// Read access for post-run inspection.
    pub fn engine(&self) -> &Bracha {
        &self.engine
    }

    /// Read access to the reliable transport (post-run diagnostics:
    /// sent/delivered/retransmit counters).
    pub fn transport(&self) -> &ReliableEndpoint {
        &self.transport
    }

    /// Pairwise keys materialised so far: the links actually touched.
    pub fn derived_keys(&self) -> usize {
        self.macs.derived_count()
    }

    fn dispatch(&mut self, ctx: &mut NodeCtx<'_>, out: BrachaOutput) {
        if let Some(v) = out.newly_decided {
            if self.decide_enabled {
                self.probe.borrow_mut().phase_at_decision[self.engine.id()] =
                    Some(self.engine.round());
                ctx.decide(v);
            }
        }
        for bytes in out.send {
            let bytes = match &mut self.mutate {
                Some(m) => m(&bytes),
                None => bytes,
            };
            // One HMAC per destination link, as IPSec AH would.
            for dst in 0..self.macs.n() {
                ctx.charge_cpu(self.cost.hmac(bytes.len()));
                let tag = self.link_tag(dst, &bytes);
                self.transport.send(ctx, dst, mac_wrap(&tag, &bytes));
            }
        }
    }
}

impl Application for BrachaApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let out = self.engine.on_start();
        self.dispatch(ctx, out);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        let delivered = self.transport.on_frame(ctx, &frame);
        for (peer, wrapped) in delivered {
            ctx.charge_cpu(self.cost.hmac(wrapped.len().saturating_sub(ICV_LEN)));
            let ok = wrapped.len() >= ICV_LEN && {
                let expected = self.link_tag(peer, &wrapped.slice(ICV_LEN..));
                icv_matches(&expected, &wrapped[..ICV_LEN])
            };
            if !ok {
                self.probe.borrow_mut().rejected[self.engine.id()] += 1;
                continue;
            }
            self.probe.borrow_mut().accepted[self.engine.id()] += 1;
            let out = self.engine.on_message(peer, &wrapped[ICV_LEN..]);
            self.dispatch(ctx, out);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        let _ = self.transport.on_timer(ctx, timer);
    }

    fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: usize, payload: Bytes) {
        self.transport.on_unicast_failed(ctx, dst, payload);
    }

    fn progress(&self) -> Option<AppProgress> {
        Some(AppProgress {
            phase: self.engine.round(),
            decided: self.engine.decision().is_some(),
            store_bytes: self.engine.store_bytes(),
        })
    }
}

// -------------------------------------------------------------------- abba

/// Length-prefixed padding so ABBA payloads occupy their RSA-equivalent
/// size on the air: `len(4) ‖ msg ‖ zeros`.
pub fn pad_to(inner: &[u8], total: usize) -> Bytes {
    let body = total.max(inner.len() + 4);
    let mut buf = BytesMut::with_capacity(body);
    buf.put_u32(inner.len() as u32);
    buf.put_slice(inner);
    buf.resize(body, 0);
    buf.freeze()
}

/// Strips [`pad_to`] framing.
pub fn unpad(padded: &[u8]) -> Option<&[u8]> {
    if padded.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes(padded[..4].try_into().ok()?) as usize;
    padded.get(4..4 + len)
}

/// ABBA over the reliable transport, with RSA-calibrated CPU charging
/// and RSA-equivalent message sizes.
pub struct AbbaApp {
    engine: Abba,
    transport: ReliableEndpoint,
    n: usize,
    cost: CostModel,
    probe: SharedProbe,
}

impl AbbaApp {
    /// Wraps an engine.
    pub fn new(engine: Abba, n: usize, cost: CostModel, probe: SharedProbe) -> Self {
        let me = engine.id();
        AbbaApp {
            engine,
            transport: ReliableEndpoint::new(me, n),
            n,
            cost,
            probe,
        }
    }

    /// Read access for post-run inspection.
    pub fn engine(&self) -> &Abba {
        &self.engine
    }

    fn charge(&self, ctx: &mut NodeCtx<'_>, ops: turquois_baselines::abba::CryptoOps) {
        ctx.charge_cpu(
            self.cost.threshold_share() * ops.share_signs
                + self.cost.threshold_share_verify() * ops.share_verifies
                + self.cost.rsa_verify() * ops.sig_verifies
                + self.cost.threshold_combine(ops.shares_combined as usize),
        );
    }

    fn dispatch(&mut self, ctx: &mut NodeCtx<'_>, out: AbbaOutput) {
        self.charge(ctx, out.ops);
        if let Some(v) = out.newly_decided {
            self.probe.borrow_mut().phase_at_decision[self.engine.id()] =
                Some(self.engine.round());
            ctx.decide(v);
        }
        for bytes in out.send {
            let rsa_size = turquois_baselines::abba::AbbaMessage::decode(&bytes)
                .map(|m| m.rsa_equivalent_size())
                .unwrap_or(bytes.len());
            let padded = pad_to(&bytes, rsa_size + 4);
            for dst in 0..self.n {
                self.transport.send(ctx, dst, padded.clone());
            }
        }
    }
}

impl Application for AbbaApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let out = self.engine.on_start();
        self.dispatch(ctx, out);
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        let delivered = self.transport.on_frame(ctx, &frame);
        for (peer, padded) in delivered {
            let Some(inner) = unpad(&padded) else {
                self.probe.borrow_mut().rejected[self.engine.id()] += 1;
                continue;
            };
            // `inner` borrows straight out of the delivered buffer; the
            // engine parses it without an owned copy.
            self.probe.borrow_mut().accepted[self.engine.id()] += 1;
            let out = self.engine.on_message(peer, inner);
            self.dispatch(ctx, out);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        let _ = self.transport.on_timer(ctx, timer);
    }

    fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: usize, payload: Bytes) {
        self.transport.on_unicast_failed(ctx, dst, payload);
    }

    fn progress(&self) -> Option<AppProgress> {
        Some(AppProgress {
            phase: self.engine.round(),
            decided: self.engine.decision().is_some(),
            store_bytes: self.engine.store_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_wrap_round_trip() {
        let key = HmacKey::from_bytes(b"pairwise");
        let wrapped = mac_wrap(&key.mac(b"payload"), b"payload");
        assert_eq!(mac_unwrap(&key, &wrapped), Some(&b"payload"[..]));
        let other = HmacKey::from_bytes(b"other");
        assert_eq!(mac_unwrap(&other, &wrapped), None);
        assert_eq!(mac_unwrap(&key, b"short"), None);
        let mut tampered = wrapped.to_vec();
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        assert_eq!(mac_unwrap(&key, &tampered), None);
    }

    /// A received ICV verifies against the pooled tag exactly when the
    /// reference recomputation would accept the frame.
    #[test]
    fn icv_matches_agrees_with_reference_unwrap() {
        let key = HmacKey::from_bytes(b"pairwise");
        let tag = key.mac(b"payload");
        let wrapped = mac_wrap(&tag, b"payload");
        assert!(icv_matches(&tag, &wrapped[..ICV_LEN]));
        assert!(!icv_matches(&tag, &wrapped[1..ICV_LEN + 1]));
        assert!(!icv_matches(&tag, &wrapped[..ICV_LEN - 1]));
        assert!(!icv_matches(&key.mac(b"other"), &wrapped[..ICV_LEN]));
    }

    /// The reference derivation: all `n` keys of `me`'s row up front.
    fn pairwise_keys(me: usize, n: usize, seed: u64) -> Vec<HmacKey> {
        (0..n)
            .map(|peer| turquois_crypto::hmac::pairwise_key(seed, me, peer))
            .collect()
    }

    #[test]
    fn pairwise_keys_symmetric() {
        let a = pairwise_keys(0, 4, 7);
        let b = pairwise_keys(3, 4, 7);
        // Key (0→3) equals key (3→0): same MAC over the same message.
        assert_eq!(a[3].mac(b"m"), b[0].mac(b"m"));
        // Distinct pairs get distinct keys.
        assert_ne!(a[1].mac(b"m"), a[2].mac(b"m"));
    }

    #[test]
    fn lazy_pairwise_keys_match_eager_key_by_key() {
        let lazy = PairwiseKeys::new(2, 5, 7);
        let eager = pairwise_keys(2, 5, 7);
        assert_eq!(lazy.derived_count(), 0, "lazy starts empty");
        // First use derives; the tag matches the eager key's bit for bit.
        assert_eq!(lazy.mac(4, b"m"), eager[4].mac(b"m"));
        assert_eq!(lazy.derived_count(), 1, "one link touched, one key");
        for (peer, key) in eager.iter().enumerate() {
            assert_eq!(lazy.mac(peer, b"payload"), key.mac(b"payload"));
        }
        assert_eq!(lazy.derived_count(), 5);
    }

    #[test]
    fn pad_round_trip() {
        let padded = pad_to(b"hello", 64);
        assert_eq!(padded.len(), 64);
        assert_eq!(unpad(&padded), Some(&b"hello"[..]));
        // Minimum size respected even when total is too small.
        let tight = pad_to(b"hello", 3);
        assert_eq!(unpad(&tight), Some(&b"hello"[..]));
        assert_eq!(unpad(b"xy"), None);
        assert_eq!(unpad(&[0, 0, 0, 9, 1]), None, "declared length overruns");
    }

    #[test]
    fn probe_new_sizes() {
        let probe = RunProbe::new(5);
        assert_eq!(probe.borrow().phase_at_decision.len(), 5);
        assert_eq!(probe.borrow().accepted.len(), 5);
    }
}
