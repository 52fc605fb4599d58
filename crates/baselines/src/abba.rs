//! ABBA — Asynchronous Binary Byzantine Agreement (Cachin, Kursawe,
//! Shoup: *Random oracles in Constantinople*, J. Cryptology 2005) — the
//! second baseline of the paper's evaluation.
//!
//! ABBA trades messages for cryptography: O(n²) messages and a constant
//! expected number of rounds, but every message carries threshold
//! signature shares and justifications whose verification is RSA-class
//! work. Each round:
//!
//! 1. **Pre-vote** for a value `b`, justified by: nothing (round 1), a
//!    threshold signature on `pre-vote(r−1, b)` ("hard"), or a threshold
//!    signature on `main-vote(r−1, abstain)` plus a coin proof ("coin").
//!    The message carries the party's signature share on
//!    `pre-vote(r, b)`.
//! 2. After `n − f` valid pre-votes: **main-vote** — for `b` when the
//!    pre-votes were unanimous (justified by combining their shares into
//!    a threshold signature), or `abstain` when mixed (justified by one
//!    valid pre-vote for each value). Carries a share on
//!    `main-vote(r, v)` and the party's coin share for round `r`.
//! 3. After `n − f` valid main-votes: unanimous `b` → **decide** `b`
//!    (and help for one more round); some `b` → hard pre-vote `b` for
//!    `r + 1`; all abstain → combine the shared coin and coin-pre-vote
//!    its value.
//!
//! Threshold cryptography comes from [`turquois_crypto::threshold`] (see
//! `DESIGN.md` §4 for the substitution argument): a dual-threshold setup
//! with signature threshold `n − f` and coin threshold `f + 1`. The CPU
//! cost of the real RSA-class operations is charged by the simulator
//! through the [`CryptoOps`] counters every call returns.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use turquois_crypto::memo::MemoCache;
use turquois_crypto::sha256::{Digest, DIGEST_LEN};
use turquois_crypto::threshold::{
    CoinProof, CoinShare, PartyKey, SharePublic, SigShare, ThresholdSignature,
};

/// Memo-cache key for a threshold verification: `(kind, statement
/// round, value, party, tag)`. The `kind` discriminant (pre-vote share,
/// combined pre-vote signature, abstain signature, coin proof,
/// main-vote share, coin share) keeps equal tags for different
/// statements from ever colliding; `party` is 0 for combined objects.
/// The cache is per-engine — [`SharePublic`] is shared by every party
/// in a run, so a cache there would leak state across nodes.
type AbbaVerifyKey = (u8, u32, u8, u16, Digest);

/// Bound on memoized verification outcomes per engine (Byzantine
/// parties can mint unlimited distinct invalid shares; eviction only
/// costs a recomputation).
const ABBA_MEMO_CAP: usize = 4096;

/// Counters of cryptographic work performed during one call, for the
/// simulator's CPU cost accounting.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct CryptoOps {
    /// Threshold signature/coin shares generated.
    pub share_signs: u32,
    /// Threshold shares verified.
    pub share_verifies: u32,
    /// Combined threshold signatures / coin proofs verified.
    pub sig_verifies: u32,
    /// Total shares fed into combination operations.
    pub shares_combined: u32,
}

impl CryptoOps {
    /// Component-wise sum.
    pub fn add(&mut self, other: CryptoOps) {
        self.share_signs += other.share_signs;
        self.share_verifies += other.share_verifies;
        self.sig_verifies += other.sig_verifies;
        self.shares_combined += other.shares_combined;
    }
}

/// A main-vote value.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum MainVoteValue {
    /// Vote for 0.
    Zero,
    /// Vote for 1.
    One,
    /// No unanimous pre-vote witnessed.
    Abstain,
}

impl MainVoteValue {
    fn from_bit(bit: bool) -> Self {
        if bit {
            MainVoteValue::One
        } else {
            MainVoteValue::Zero
        }
    }

    fn as_bit(self) -> Option<bool> {
        match self {
            MainVoteValue::Zero => Some(false),
            MainVoteValue::One => Some(true),
            MainVoteValue::Abstain => None,
        }
    }

    fn encode(self) -> u8 {
        match self {
            MainVoteValue::Zero => 0,
            MainVoteValue::One => 1,
            MainVoteValue::Abstain => 2,
        }
    }

    fn decode(b: u8) -> Option<Self> {
        match b {
            0 => Some(MainVoteValue::Zero),
            1 => Some(MainVoteValue::One),
            2 => Some(MainVoteValue::Abstain),
            _ => None,
        }
    }
}

/// Justification of a pre-vote.
#[derive(Clone, Debug, PartialEq)]
pub enum PreVoteJust {
    /// Round 1: the initial proposal needs no justification.
    Round1,
    /// A threshold signature on `pre-vote(r−1, b)`.
    Hard(ThresholdSignature),
    /// A threshold signature on `main-vote(r−1, abstain)` plus the coin
    /// proof whose value the pre-vote must match.
    Coin {
        /// Signature proving round `r−1` ended all-abstain.
        abstain_sig: ThresholdSignature,
        /// Transferable proof of the round-`r−1` coin.
        proof: CoinProof,
    },
}

/// A pre-vote as embedded inside an abstain justification.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbeddedPreVote {
    /// The pre-voted value.
    pub value: bool,
    /// The voter's share on `pre-vote(r, value)` (binds the party id).
    pub share: SigShare,
    /// The pre-vote's own justification.
    pub just: PreVoteJust,
}

/// Justification of a main-vote.
#[derive(Clone, Debug, PartialEq)]
pub enum MainVoteJust {
    /// `main-vote(r, b)`: a threshold signature on `pre-vote(r, b)`.
    ForValue(ThresholdSignature),
    /// `abstain`: one valid pre-vote for each value.
    Abstain {
        /// A pre-vote for 0.
        zero: EmbeddedPreVote,
        /// A pre-vote for 1.
        one: EmbeddedPreVote,
    },
}

/// An ABBA wire message.
#[derive(Clone, Debug, PartialEq)]
pub enum AbbaMessage {
    /// Step 1 of a round.
    PreVote {
        /// Round number (1-based).
        round: u32,
        /// The value pre-voted.
        value: bool,
        /// Share on `pre-vote(round, value)`.
        share: SigShare,
        /// Why this pre-vote is legal.
        just: PreVoteJust,
    },
    /// Step 2 of a round.
    MainVote {
        /// Round number.
        round: u32,
        /// The value main-voted.
        value: MainVoteValue,
        /// Share on `main-vote(round, value)`.
        share: SigShare,
        /// The party's coin share for this round (eager release).
        coin_share: CoinShare,
        /// Why this main-vote is legal.
        just: MainVoteJust,
    },
}

fn pv_statement(round: u32, value: bool) -> Vec<u8> {
    format!("abba/pv/{round}/{}", value as u8).into_bytes()
}

fn mv_statement(round: u32, value: MainVoteValue) -> Vec<u8> {
    format!("abba/mv/{round}/{}", value.encode()).into_bytes()
}

fn coin_tag(round: u32) -> Vec<u8> {
    format!("abba/coin/{round}").into_bytes()
}

// ---- wire codec -----------------------------------------------------

const KIND_PREVOTE: u8 = 1;
const KIND_MAINVOTE: u8 = 2;

/// Encoded size of a [`SigShare`]: party id plus tag.
const SIG_SHARE_LEN: usize = 2 + DIGEST_LEN;

fn put_digest<B: BufMut>(buf: &mut B, d: &Digest) {
    buf.put_slice(d.as_bytes());
}

fn get_digest(buf: &mut &[u8]) -> Option<Digest> {
    if buf.len() < DIGEST_LEN {
        return None;
    }
    let mut out = [0u8; DIGEST_LEN];
    out.copy_from_slice(&buf[..DIGEST_LEN]);
    buf.advance(DIGEST_LEN);
    Some(Digest(out))
}

fn put_sig_share<B: BufMut>(buf: &mut B, s: &SigShare) {
    buf.put_u16(s.party as u16);
    put_digest(buf, &s.tag);
}

fn get_sig_share(buf: &mut &[u8]) -> Option<SigShare> {
    if buf.len() < 2 {
        return None;
    }
    let party = buf.get_u16() as usize;
    let tag = get_digest(buf)?;
    Some(SigShare { party, tag })
}

/// Encoded size of a [`PreVoteJust`] (discriminant byte included).
fn prevote_just_len(just: &PreVoteJust) -> usize {
    match just {
        PreVoteJust::Round1 => 1,
        PreVoteJust::Hard(_) => 1 + DIGEST_LEN,
        PreVoteJust::Coin { .. } => 1 + DIGEST_LEN + 1 + DIGEST_LEN,
    }
}

fn put_prevote_just<B: BufMut>(buf: &mut B, just: &PreVoteJust) {
    match just {
        PreVoteJust::Round1 => buf.put_u8(0),
        PreVoteJust::Hard(sig) => {
            buf.put_u8(1);
            put_digest(buf, &sig.tag);
        }
        PreVoteJust::Coin { abstain_sig, proof } => {
            buf.put_u8(2);
            put_digest(buf, &abstain_sig.tag);
            buf.put_u8(proof.value as u8);
            put_digest(buf, &proof.tag);
        }
    }
}

fn get_prevote_just(buf: &mut &[u8]) -> Option<PreVoteJust> {
    if buf.is_empty() {
        return None;
    }
    let kind = buf.get_u8();
    match kind {
        0 => Some(PreVoteJust::Round1),
        1 => Some(PreVoteJust::Hard(ThresholdSignature {
            tag: get_digest(buf)?,
        })),
        2 => {
            let abstain_sig = ThresholdSignature {
                tag: get_digest(buf)?,
            };
            if buf.is_empty() {
                return None;
            }
            let value_byte = buf.get_u8();
            if value_byte > 1 {
                return None;
            }
            let proof = CoinProof {
                value: value_byte == 1,
                tag: get_digest(buf)?,
            };
            Some(PreVoteJust::Coin { abstain_sig, proof })
        }
        _ => None,
    }
}

/// Encoded size of an [`EmbeddedPreVote`].
fn embedded_len(pv: &EmbeddedPreVote) -> usize {
    1 + SIG_SHARE_LEN + prevote_just_len(&pv.just)
}

fn put_embedded<B: BufMut>(buf: &mut B, pv: &EmbeddedPreVote) {
    buf.put_u8(pv.value as u8);
    put_sig_share(buf, &pv.share);
    put_prevote_just(buf, &pv.just);
}

fn get_embedded(buf: &mut &[u8]) -> Option<EmbeddedPreVote> {
    if buf.is_empty() {
        return None;
    }
    let value_byte = buf.get_u8();
    if value_byte > 1 {
        return None;
    }
    let share = get_sig_share(buf)?;
    let just = get_prevote_just(buf)?;
    Some(EmbeddedPreVote {
        value: value_byte == 1,
        share,
        just,
    })
}

impl AbbaMessage {
    /// Encodes for transmission into a buffer of exactly
    /// [`encoded_len`](AbbaMessage::encoded_len) bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        match self {
            AbbaMessage::PreVote {
                round,
                value,
                share,
                just,
            } => {
                buf.put_u8(KIND_PREVOTE);
                buf.put_u32(*round);
                buf.put_u8(*value as u8);
                put_sig_share(&mut buf, share);
                put_prevote_just(&mut buf, just);
            }
            AbbaMessage::MainVote {
                round,
                value,
                share,
                coin_share,
                just,
            } => {
                buf.put_u8(KIND_MAINVOTE);
                buf.put_u32(*round);
                buf.put_u8(value.encode());
                put_sig_share(&mut buf, share);
                buf.put_u16(coin_share.party as u16);
                put_digest(&mut buf, &coin_share.tag);
                match just {
                    MainVoteJust::ForValue(sig) => {
                        buf.put_u8(0);
                        put_digest(&mut buf, &sig.tag);
                    }
                    MainVoteJust::Abstain { zero, one } => {
                        buf.put_u8(1);
                        put_embedded(&mut buf, zero);
                        put_embedded(&mut buf, one);
                    }
                }
            }
        }
        buf.freeze()
    }

    /// The exact wire length [`AbbaMessage::encode`] produces, computed
    /// arithmetically — no buffer is built. The adapter's RSA airtime
    /// model uses this instead of a throwaway encode.
    pub fn encoded_len(&self) -> usize {
        match self {
            AbbaMessage::PreVote { just, .. } => {
                1 + 4 + 1 + SIG_SHARE_LEN + prevote_just_len(just)
            }
            AbbaMessage::MainVote { just, .. } => {
                1 + 4
                    + 1
                    + SIG_SHARE_LEN
                    + 2
                    + DIGEST_LEN
                    + 1
                    + match just {
                        MainVoteJust::ForValue(_) => DIGEST_LEN,
                        MainVoteJust::Abstain { zero, one } => {
                            embedded_len(zero) + embedded_len(one)
                        }
                    }
            }
        }
    }

    /// Decodes from wire bytes; `None` for malformed input.
    pub fn decode(bytes: &[u8]) -> Option<AbbaMessage> {
        let mut buf = bytes;
        if buf.len() < 6 {
            return None;
        }
        let kind = buf.get_u8();
        let round = buf.get_u32();
        if round == 0 {
            return None;
        }
        match kind {
            KIND_PREVOTE => {
                let value_byte = buf.get_u8();
                if value_byte > 1 {
                    return None;
                }
                let share = get_sig_share(&mut buf)?;
                let just = get_prevote_just(&mut buf)?;
                if !buf.is_empty() {
                    return None;
                }
                Some(AbbaMessage::PreVote {
                    round,
                    value: value_byte == 1,
                    share,
                    just,
                })
            }
            KIND_MAINVOTE => {
                let value = MainVoteValue::decode(buf.get_u8())?;
                let share = get_sig_share(&mut buf)?;
                if buf.len() < 2 {
                    return None;
                }
                let party = buf.get_u16() as usize;
                let coin_share = CoinShare {
                    party,
                    tag: get_digest(&mut buf)?,
                };
                if buf.is_empty() {
                    return None;
                }
                let just = match buf.get_u8() {
                    0 => MainVoteJust::ForValue(ThresholdSignature {
                        tag: get_digest(&mut buf)?,
                    }),
                    1 => MainVoteJust::Abstain {
                        zero: get_embedded(&mut buf)?,
                        one: get_embedded(&mut buf)?,
                    },
                    _ => return None,
                };
                if !buf.is_empty() {
                    return None;
                }
                Some(AbbaMessage::MainVote {
                    round,
                    value,
                    share,
                    coin_share,
                    just,
                })
            }
            _ => None,
        }
    }
}

impl AbbaMessage {
    /// The size this message would have in a real RSA-1024 deployment:
    /// every threshold object (share, signature, coin share/proof) is a
    /// 128-byte group element instead of a 32-byte hash tag. The
    /// simulator adapter charges airtime for this size, keeping the
    /// bandwidth cost of ABBA's cryptography honest.
    pub fn rsa_equivalent_size(&self) -> usize {
        const INFLATE: usize = 128 - DIGEST_LEN;
        let objects = match self {
            AbbaMessage::PreVote { just, .. } => 1 + just_objects(just),
            AbbaMessage::MainVote { just, .. } => {
                // share + coin share.
                2 + match just {
                    MainVoteJust::ForValue(_) => 1,
                    MainVoteJust::Abstain { zero, one } => {
                        2 + just_objects(&zero.just) + just_objects(&one.just)
                    }
                }
            }
        };
        self.encoded_len() + objects * INFLATE
    }
}

fn just_objects(just: &PreVoteJust) -> usize {
    match just {
        PreVoteJust::Round1 => 0,
        PreVoteJust::Hard(_) => 1,
        PreVoteJust::Coin { .. } => 2,
    }
}

// ---- engine ----------------------------------------------------------

/// Output of feeding one event to the engine.
#[derive(Debug, Default)]
pub struct AbbaOutput {
    /// Wire messages to send to every process.
    pub send: Vec<Bytes>,
    /// Set when this call made the process decide.
    pub newly_decided: Option<bool>,
    /// Cryptographic work performed (charge via the cost model).
    pub ops: CryptoOps,
}

/// One round's per-party vote table: dense, party-indexed, grown on
/// demand (party ids are dense `0..n`). Share collection iterates in
/// ascending party order; threshold `combine` is order-insensitive
/// anyway (it verifies a *set* of shares and emits a MAC over the
/// statement alone).
#[derive(Debug)]
struct VoteTable<V>(Vec<Option<V>>);

impl<V> Default for VoteTable<V> {
    fn default() -> Self {
        VoteTable(Vec::new())
    }
}

impl<V> VoteTable<V> {
    /// First-wins insert; returns `true` if `from` was new.
    fn record(&mut self, from: usize, vote: V) -> bool {
        let table = &mut self.0;
        if table.len() <= from {
            table.resize_with(from + 1, || None);
        }
        if table[from].is_none() {
            table[from] = Some(vote);
            true
        } else {
            false
        }
    }

    /// Recorded votes, in ascending party order.
    fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.0.iter().flatten()
    }

    /// Number of recorded votes (scan; the rounds keep an incremental
    /// total and use this as the debug oracle).
    fn scan_len(&self) -> usize {
        self.values().count()
    }
}

#[derive(Debug, Default)]
struct PreVoteRound {
    votes: VoteTable<(bool, SigShare)>,
    /// Distinct parties recorded (replaces the retired `votes.len()`).
    total: usize,
    /// Incremental distinct-sender tallies over `votes` (`[0]` = votes
    /// for `false`, `[1]` = for `true`), so the unanimity check in
    /// `try_progress` is O(1) instead of a rescan.
    value_counts: [usize; 2],
    fired: bool,
    example: [Option<EmbeddedPreVote>; 2],
}

impl PreVoteRound {
    /// Records `from`'s pre-vote if it is the first accepted from that
    /// party this round (first value wins).
    fn record(&mut self, from: usize, value: bool, share: SigShare) {
        if self.votes.record(from, (value, share)) {
            self.total += 1;
            self.value_counts[value as usize] += 1;
        }
    }

    /// Distinct parties recorded this round. O(1).
    fn len(&self) -> usize {
        debug_assert_eq!(self.total, self.votes.scan_len());
        self.total
    }

    /// Parties whose recorded pre-vote equals `value`. O(1).
    fn count(&self, value: bool) -> usize {
        debug_assert_eq!(self.value_counts[value as usize], self.scan_count(value));
        self.value_counts[value as usize]
    }

    /// The retired scan `count` replaced (debug oracle + proptest).
    fn scan_count(&self, value: bool) -> usize {
        self.votes.values().filter(|(v, _)| *v == value).count()
    }
}

/// Tally index for a [`MainVoteValue`] (`Zero`, `One`, `Abstain`).
#[inline]
fn mv_idx(value: MainVoteValue) -> usize {
    match value {
        MainVoteValue::Zero => 0,
        MainVoteValue::One => 1,
        MainVoteValue::Abstain => 2,
    }
}

#[derive(Debug, Default)]
struct MainVoteRound {
    votes: VoteTable<(MainVoteValue, SigShare)>,
    /// Distinct parties recorded (replaces the retired `votes.len()`).
    total: usize,
    /// Incremental distinct-sender tallies over `votes`, indexed by
    /// [`mv_idx`]; backs the O(1) binary/unanimity checks in
    /// `try_progress`.
    value_counts: [usize; 3],
    fired: bool,
}

impl MainVoteRound {
    /// Records `from`'s main-vote if it is the first accepted from that
    /// party this round (first value wins).
    fn record(&mut self, from: usize, value: MainVoteValue, share: SigShare) {
        if self.votes.record(from, (value, share)) {
            self.total += 1;
            self.value_counts[mv_idx(value)] += 1;
        }
    }

    /// Distinct parties recorded this round. O(1).
    fn len(&self) -> usize {
        debug_assert_eq!(self.total, self.votes.scan_len());
        self.total
    }

    /// Parties whose recorded main-vote equals `value`. O(1).
    fn count(&self, value: MainVoteValue) -> usize {
        debug_assert_eq!(self.value_counts[mv_idx(value)], self.scan_count(value));
        self.value_counts[mv_idx(value)]
    }

    /// The retired scan `count` replaced (debug oracle + proptest).
    fn scan_count(&self, value: MainVoteValue) -> usize {
        self.votes.values().filter(|(v, _)| *v == value).count()
    }
}

/// What a fired pre-vote quorum resolved to (extracted under the round
/// borrow; everything the follow-up needs, no map clone).
enum PreFire {
    Unanimous { bit: bool, shares: Vec<SigShare> },
    Mixed { zero: EmbeddedPreVote, one: EmbeddedPreVote },
}

/// Dual-threshold key material for one ABBA party (from the trusted
/// dealer).
#[derive(Clone, Debug)]
pub struct AbbaKeys {
    /// Signature scheme public state (threshold `n − f`).
    pub sig_public: SharePublic,
    /// This party's signature key.
    pub sig_key: PartyKey,
    /// Coin scheme public state (threshold `f + 1`).
    pub coin_public: SharePublic,
    /// This party's coin key.
    pub coin_key: PartyKey,
}

impl AbbaKeys {
    /// Trusted-dealer setup: one key bundle per party.
    pub fn trusted_setup(n: usize, f: usize, seed: u64) -> Vec<AbbaKeys> {
        let (sig_public, sig_keys) =
            turquois_crypto::threshold::Dealer::deal(n, n - f, seed ^ 0x51c);
        let (coin_public, coin_keys) =
            turquois_crypto::threshold::Dealer::deal(n, f + 1, seed ^ 0xc01);
        sig_keys
            .into_iter()
            .zip(coin_keys)
            .map(|(sig_key, coin_key)| AbbaKeys {
                sig_public: sig_public.clone(),
                sig_key,
                coin_public: coin_public.clone(),
                coin_key,
            })
            .collect()
    }
}

/// Builds a correctly-signed round-1 pre-vote for `value` on behalf of
/// the holder of `keys`. Round-1 pre-votes need no justification, so a
/// Byzantine party can legitimately sign *both* values and deliver a
/// different one to each receiver — the canonical equivocation the
/// `turquois-check` schedule explorer injects. (For rounds > 1 the
/// justification requirement makes this unforgeable.)
pub fn round1_prevote(keys: &AbbaKeys, value: bool) -> AbbaMessage {
    AbbaMessage::PreVote {
        round: 1,
        value,
        share: keys.sig_key.sign_share(&pv_statement(1, value)),
        just: PreVoteJust::Round1,
    }
}

/// One party's ABBA engine.
pub struct Abba {
    n: usize,
    f: usize,
    me: usize,
    keys: AbbaKeys,
    proposal: bool,
    round: u32,
    pre: HashMap<u32, PreVoteRound>,
    main: HashMap<u32, MainVoteRound>,
    coin_shares: HashMap<u32, HashMap<usize, CoinShare>>,
    hard_sigs: HashMap<(u32, bool), ThresholdSignature>,
    decision: Option<bool>,
    stop_round: Option<u32>,
    verify_memo: MemoCache<AbbaVerifyKey>,
    _rng: StdRng,
}

impl std::fmt::Debug for Abba {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Abba")
            .field("me", &self.me)
            .field("round", &self.round)
            .field("decision", &self.decision)
            .finish_non_exhaustive()
    }
}

impl Abba {
    /// Creates the engine for party `me` proposing `proposal`.
    ///
    /// # Panics
    ///
    /// Panics unless `3f < n`, `me < n`, and the key bundle's thresholds
    /// match `(n − f, f + 1)`.
    pub fn new(n: usize, f: usize, me: usize, proposal: bool, keys: AbbaKeys, seed: u64) -> Self {
        assert!(3 * f < n, "ABBA requires n > 3f");
        assert!(me < n, "party id out of range");
        assert_eq!(keys.sig_public.threshold(), n - f, "wrong sig threshold");
        assert_eq!(keys.coin_public.threshold(), f + 1, "wrong coin threshold");
        assert_eq!(keys.sig_key.party(), me, "keys belong to another party");
        Abba {
            n,
            f,
            me,
            keys,
            proposal,
            round: 1,
            pre: HashMap::new(),
            main: HashMap::new(),
            coin_shares: HashMap::new(),
            hard_sigs: HashMap::new(),
            decision: None,
            stop_round: None,
            verify_memo: MemoCache::new(ABBA_MEMO_CAP),
            _rng: StdRng::seed_from_u64(seed ^ 0xabba),
        }
    }

    /// Memoized verification: the [`CryptoOps`] counters are bumped by
    /// the *callers* before invoking this, so simulated CPU cost is
    /// charged per logical verification whether or not the cache hits —
    /// only real hashing work is skipped.
    fn memo_verify(
        &mut self,
        key: AbbaVerifyKey,
        compute: impl FnOnce(&AbbaKeys) -> bool,
    ) -> bool {
        let keys = &self.keys;
        self.verify_memo.lookup(key, || compute(keys))
    }

    /// This party's id.
    pub fn id(&self) -> usize {
        self.me
    }

    /// Current round.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The decision, once reached.
    pub fn decision(&self) -> Option<bool> {
        self.decision
    }

    /// Deterministic estimate of the engine's consensus-store footprint
    /// in bytes: 64 per live pre/main round plus 40 per recorded vote,
    /// coin share, and deposited hard signature (a share is a party id
    /// plus a 32-byte tag). Reads the O(1) per-round totals (the round
    /// maps hold a GC-bounded handful of entries), depends on logical
    /// content only, and is identical in both vote-table layouts.
    /// Excludes the verification memo cache (a host-side accelerator).
    pub fn store_bytes(&self) -> usize {
        let pre: usize = self.pre.values().map(|pr| pr.total).sum();
        let main: usize = self.main.values().map(|mr| mr.total).sum();
        let coins: usize = self.coin_shares.values().map(HashMap::len).sum();
        (self.pre.len() + self.main.len()) * 64
            + 40 * (pre + main + coins + self.hard_sigs.len())
    }

    /// Starts the protocol: round-1 pre-vote for the proposal.
    pub fn on_start(&mut self) -> AbbaOutput {
        let mut out = AbbaOutput::default();
        let share = self.keys.sig_key.sign_share(&pv_statement(1, self.proposal));
        out.ops.share_signs += 1;
        let msg = AbbaMessage::PreVote {
            round: 1,
            value: self.proposal,
            share,
            just: PreVoteJust::Round1,
        };
        out.send.push(msg.encode());
        out
    }

    /// Processes a wire message from link-layer sender `from`.
    pub fn on_message(&mut self, from: usize, bytes: &[u8]) -> AbbaOutput {
        let mut out = AbbaOutput::default();
        let Some(msg) = AbbaMessage::decode(bytes) else {
            return out;
        };
        match msg {
            AbbaMessage::PreVote {
                round,
                value,
                share,
                just,
            } => {
                if share.party != from {
                    return out;
                }
                if !self.verify_prevote(round, value, &share, &just, &mut out.ops) {
                    return out;
                }
                let pr = self.pre.entry(round).or_default();
                pr.record(from, value, share);
                if pr.example[value as usize].is_none() {
                    pr.example[value as usize] = Some(EmbeddedPreVote { value, share, just });
                }
            }
            AbbaMessage::MainVote {
                round,
                value,
                share,
                coin_share,
                just,
            } => {
                if share.party != from || coin_share.party != from {
                    return out;
                }
                // Verify the main-vote share.
                out.ops.share_verifies += 1;
                let mv_key = (4u8, round, value.encode(), share.party as u16, share.tag);
                if !self.memo_verify(mv_key, |k| {
                    k.sig_public.verify_share(&mv_statement(round, value), &share)
                }) {
                    return out;
                }
                // Verify the coin share (still record the main-vote if
                // only the coin share is bad — they are independent).
                out.ops.share_verifies += 1;
                let cs_key = (5u8, round, 0, coin_share.party as u16, coin_share.tag);
                let coin_ok = self.memo_verify(cs_key, |k| {
                    k.coin_public.verify_coin_share(&coin_tag(round), &coin_share)
                });
                // Verify the justification.
                let just_ok = match &just {
                    MainVoteJust::ForValue(sig) => {
                        out.ops.sig_verifies += 1;
                        match value.as_bit() {
                            Some(bit) => {
                                let key = (1u8, round, bit as u8, 0, sig.tag);
                                let ok = self.memo_verify(key, |k| {
                                    k.sig_public.verify(&pv_statement(round, bit), sig)
                                });
                                if ok {
                                    self.hard_sigs.entry((round, bit)).or_insert(*sig);
                                }
                                ok
                            }
                            None => false,
                        }
                    }
                    MainVoteJust::Abstain { zero, one } => {
                        value == MainVoteValue::Abstain
                            && !zero.value
                            && one.value
                            && self.verify_prevote(round, false, &zero.share, &zero.just, &mut out.ops)
                            && self.verify_prevote(round, true, &one.share, &one.just, &mut out.ops)
                    }
                };
                if !just_ok {
                    return out;
                }
                if coin_ok {
                    self.coin_shares
                        .entry(round)
                        .or_default()
                        .entry(from)
                        .or_insert(coin_share);
                }
                let mr = self.main.entry(round).or_default();
                mr.record(from, value, share);
            }
        }
        self.try_progress(&mut out);
        out
    }

    fn verify_prevote(
        &mut self,
        round: u32,
        value: bool,
        share: &SigShare,
        just: &PreVoteJust,
        ops: &mut CryptoOps,
    ) -> bool {
        ops.share_verifies += 1;
        let pv_key = (0u8, round, value as u8, share.party as u16, share.tag);
        if !self.memo_verify(pv_key, |k| {
            k.sig_public.verify_share(&pv_statement(round, value), share)
        }) {
            return false;
        }
        match just {
            PreVoteJust::Round1 => round == 1,
            PreVoteJust::Hard(sig) => {
                if round < 2 {
                    return false;
                }
                ops.sig_verifies += 1;
                let key = (1u8, round - 1, value as u8, 0, sig.tag);
                let ok = self.memo_verify(key, |k| {
                    k.sig_public.verify(&pv_statement(round - 1, value), sig)
                });
                if ok {
                    self.hard_sigs.entry((round - 1, value)).or_insert(*sig);
                }
                ok
            }
            PreVoteJust::Coin { abstain_sig, proof } => {
                if round < 2 {
                    return false;
                }
                ops.sig_verifies += 2;
                let abstain_key = (
                    2u8,
                    round - 1,
                    MainVoteValue::Abstain.encode(),
                    0,
                    abstain_sig.tag,
                );
                let proof_key = (3u8, round - 1, proof.value as u8, 0, proof.tag);
                self.memo_verify(abstain_key, |k| {
                    k.sig_public.verify(
                        &mv_statement(round - 1, MainVoteValue::Abstain),
                        abstain_sig,
                    )
                }) && self.memo_verify(proof_key, |k| {
                    k.coin_public.verify_coin_proof(&coin_tag(round - 1), proof)
                }) && proof.value == value
            }
        }
    }

    /// Fires any quorum transitions for the current round, to fixpoint.
    fn try_progress(&mut self, out: &mut AbbaOutput) {
        loop {
            if let Some(stop) = self.stop_round {
                if self.round > stop {
                    return;
                }
            }
            let need = self.n - self.f;
            let round = self.round;

            // Pre-vote quorum → main-vote.
            let pre_fire = {
                let pr = self.pre.entry(round).or_default();
                if !pr.fired && pr.len() >= need {
                    pr.fired = true;
                    // O(1) unanimity from the incremental tallies; only
                    // the data the follow-up needs leaves the borrow (no
                    // vote-map clone).
                    if pr.count(false) == 0 || pr.count(true) == 0 {
                        let bit = pr.count(false) == 0;
                        let shares: Vec<SigShare> = pr
                            .votes
                            .values()
                            .filter(|(v, _)| *v == bit)
                            .map(|(_, s)| *s)
                            .collect();
                        Some(PreFire::Unanimous { bit, shares })
                    } else {
                        Some(PreFire::Mixed {
                            zero: pr.example[0].clone().expect("mixed → a 0 pre-vote exists"),
                            one: pr.example[1].clone().expect("mixed → a 1 pre-vote exists"),
                        })
                    }
                } else {
                    None
                }
            };
            if let Some(fire) = pre_fire {
                let (value, just) = match fire {
                    PreFire::Unanimous { bit, shares } => {
                        out.ops.shares_combined += shares.len() as u32;
                        let sig = self
                            .keys
                            .sig_public
                            .combine(&pv_statement(round, bit), &shares)
                            .expect("quorum of verified shares combines");
                        self.hard_sigs.entry((round, bit)).or_insert(sig);
                        (MainVoteValue::from_bit(bit), MainVoteJust::ForValue(sig))
                    }
                    PreFire::Mixed { zero, one } => {
                        (MainVoteValue::Abstain, MainVoteJust::Abstain { zero, one })
                    }
                };
                let share = self.keys.sig_key.sign_share(&mv_statement(round, value));
                let coin_share = self.keys.coin_key.coin_share(&coin_tag(round));
                out.ops.share_signs += 2;
                let msg = AbbaMessage::MainVote {
                    round,
                    value,
                    share,
                    coin_share,
                    just,
                };
                out.send.push(msg.encode());
                continue;
            }

            // Main-vote quorum → decide / next round's pre-vote.
            let main_fire = {
                let mr = self.main.entry(round).or_default();
                if !mr.fired && mr.len() >= need {
                    mr.fired = true;
                    // Copy the O(1) tallies out of the borrow; the
                    // abstain shares are only materialised when no
                    // binary vote exists (the only case that uses them).
                    let counts = [
                        mr.count(MainVoteValue::Zero),
                        mr.count(MainVoteValue::One),
                        mr.count(MainVoteValue::Abstain),
                    ];
                    let abstain_shares: Vec<SigShare> = if counts[0] == 0 && counts[1] == 0 {
                        mr.votes
                            .values()
                            .filter(|(v, _)| *v == MainVoteValue::Abstain)
                            .map(|(_, s)| *s)
                            .collect()
                    } else {
                        Vec::new()
                    };
                    Some((counts, abstain_shares))
                } else {
                    None
                }
            };
            if let Some((counts, abstain_shares)) = main_fire {
                // Zero checked before One, as in the retired scan.
                let binary = if counts[mv_idx(MainVoteValue::Zero)] > 0 {
                    Some(false)
                } else if counts[mv_idx(MainVoteValue::One)] > 0 {
                    Some(true)
                } else {
                    None
                };
                let next_round = round + 1;
                let (next_value, next_just) = match binary {
                    Some(bit) => {
                        let unanimous = counts[mv_idx(MainVoteValue::Abstain)] == 0
                            && counts[mv_idx(MainVoteValue::from_bit(!bit))] == 0;
                        if unanimous {
                            // Unanimous main-votes: decide.
                            if self.decision.is_none() {
                                self.decision = Some(bit);
                                self.stop_round = Some(next_round);
                                out.newly_decided = Some(bit);
                            }
                        }
                        let sig = *self
                            .hard_sigs
                            .get(&(round, bit))
                            .expect("a verified b-main-vote deposited its pre-vote signature");
                        (bit, PreVoteJust::Hard(sig))
                    }
                    None => {
                        // All abstain: combine the abstain signature and
                        // the shared coin.
                        out.ops.shares_combined += abstain_shares.len() as u32;
                        let abstain_sig = self
                            .keys
                            .sig_public
                            .combine(
                                &mv_statement(round, MainVoteValue::Abstain),
                                &abstain_shares,
                            )
                            .expect("quorum of verified abstain shares");
                        let shares: Vec<CoinShare> = self
                            .coin_shares
                            .get(&round)
                            .map(|m| m.values().copied().collect())
                            .unwrap_or_default();
                        out.ops.shares_combined += shares.len() as u32;
                        let proof = self
                            .keys
                            .coin_public
                            .combine_coin_proof(&coin_tag(round), &shares)
                            .expect("n−f ≥ f+1 verified coin shares accompany main-votes");
                        (proof.value, PreVoteJust::Coin { abstain_sig, proof })
                    }
                };
                self.round = next_round;
                if let Some(stop) = self.stop_round {
                    if next_round > stop {
                        return; // decided and already helped one round
                    }
                }
                let share = self
                    .keys
                    .sig_key
                    .sign_share(&pv_statement(next_round, next_value));
                out.ops.share_signs += 1;
                let msg = AbbaMessage::PreVote {
                    round: next_round,
                    value: next_value,
                    share,
                    just: next_just,
                };
                out.send.push(msg.encode());
                // GC old rounds.
                if next_round > 2 {
                    let floor = next_round - 2;
                    self.pre.retain(|&r, _| r >= floor);
                    self.main.retain(|&r, _| r >= floor);
                    self.coin_shares.retain(|&r, _| r >= floor);
                    self.hard_sigs.retain(|&(r, _), _| r >= floor);
                    self.verify_memo.retain(|k| k.1 >= floor);
                }
                continue;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(n: usize, f: usize, proposals: &[bool], seed: u64) -> Vec<Abba> {
        let keys = AbbaKeys::trusted_setup(n, f, seed);
        keys.into_iter()
            .enumerate()
            .map(|(me, k)| Abba::new(n, f, me, proposals[me % proposals.len()], k, seed))
            .collect()
    }

    /// Lossless full-information exchange (every message reaches all,
    /// including the sender).
    fn run_lossless(engines: &mut [Abba], max_iters: usize) -> Vec<Option<bool>> {
        let mut queue: Vec<(usize, Bytes)> = Vec::new();
        for e in engines.iter_mut() {
            let out = e.on_start();
            let me = e.id();
            queue.extend(out.send.into_iter().map(|b| (me, b)));
        }
        let mut iters = 0;
        while let Some((from, bytes)) = queue.pop() {
            iters += 1;
            assert!(iters < max_iters, "message budget exceeded");
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

    #[test]
    fn codec_round_trip_all_variants() {
        let share = SigShare {
            party: 3,
            tag: turquois_crypto::sha256::sha256(b"s"),
        };
        let coin_share = CoinShare {
            party: 3,
            tag: turquois_crypto::sha256::sha256(b"c"),
        };
        let sig = ThresholdSignature {
            tag: turquois_crypto::sha256::sha256(b"t"),
        };
        let proof = CoinProof {
            value: true,
            tag: turquois_crypto::sha256::sha256(b"p"),
        };
        let messages = vec![
            AbbaMessage::PreVote {
                round: 1,
                value: true,
                share,
                just: PreVoteJust::Round1,
            },
            AbbaMessage::PreVote {
                round: 2,
                value: false,
                share,
                just: PreVoteJust::Hard(sig),
            },
            AbbaMessage::PreVote {
                round: 3,
                value: true,
                share,
                just: PreVoteJust::Coin {
                    abstain_sig: sig,
                    proof,
                },
            },
            AbbaMessage::MainVote {
                round: 2,
                value: MainVoteValue::One,
                share,
                coin_share,
                just: MainVoteJust::ForValue(sig),
            },
            AbbaMessage::MainVote {
                round: 2,
                value: MainVoteValue::Abstain,
                share,
                coin_share,
                just: MainVoteJust::Abstain {
                    zero: EmbeddedPreVote {
                        value: false,
                        share,
                        just: PreVoteJust::Round1,
                    },
                    one: EmbeddedPreVote {
                        value: true,
                        share,
                        just: PreVoteJust::Hard(sig),
                    },
                },
            },
        ];
        for m in messages {
            let bytes = m.encode();
            assert_eq!(AbbaMessage::decode(&bytes), Some(m.clone()));
            // The arithmetic length matches what encode produced, so
            // `rsa_equivalent_size` needs no throwaway encode.
            assert_eq!(m.encoded_len(), bytes.len());
            // Truncations fail.
            for cut in 0..bytes.len() {
                assert_eq!(AbbaMessage::decode(&bytes[..cut]), None, "cut {cut}");
            }
        }
        assert_eq!(AbbaMessage::decode(b""), None);
    }

    /// Every message the engines emit through a full run decodes, and
    /// re-encoding the decoded message gives back the same bytes.
    #[test]
    fn wire_bytes_match_owned_codec() {
        let n = 4;
        let mut engines = group(n, 1, &[true, false], 31);
        let mut queue: Vec<(usize, Bytes)> = Vec::new();
        for e in engines.iter_mut() {
            let out = e.on_start();
            let me = e.id();
            queue.extend(out.send.into_iter().map(|b| (me, b)));
        }
        let mut iters = 0;
        while let Some((from, bytes)) = queue.pop() {
            iters += 1;
            assert!(iters < 500_000, "livelock");
            let owned = AbbaMessage::decode(&bytes).expect("engines emit valid messages");
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

    #[test]
    fn unanimous_decides_in_one_round() {
        for bit in [false, true] {
            let mut engines = group(4, 1, &[bit], 7);
            let decisions = run_lossless(&mut engines, 100_000);
            assert!(decisions.iter().all(|d| *d == Some(bit)), "{decisions:?}");
            assert!(engines.iter().all(|e| e.round() <= 2));
        }
    }

    #[test]
    fn divergent_decides_and_agrees() {
        for seed in 0..4u64 {
            let mut engines = group(4, 1, &[true, false], seed);
            let decisions = run_lossless(&mut engines, 500_000);
            let first = decisions[0].expect("decides");
            assert!(decisions.iter().all(|d| *d == Some(first)), "{decisions:?}");
        }
    }

    #[test]
    fn larger_group_divergent() {
        let mut engines = group(7, 2, &[true, false], 11);
        let decisions = run_lossless(&mut engines, 1_000_000);
        let first = decisions[0].expect("decides");
        assert!(decisions.iter().all(|d| *d == Some(first)));
    }

    #[test]
    fn crashed_minority_does_not_block() {
        let mut engines = group(4, 1, &[true], 13);
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
            assert!(iters < 100_000, "livelock");
            for (to, engine) in engines.iter_mut().enumerate().take(n - 1) {
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
    fn invalid_share_rejected_but_costs_verification() {
        let mut engines = group(4, 1, &[true], 17);
        let bogus = AbbaMessage::PreVote {
            round: 1,
            value: false,
            share: SigShare {
                party: 3,
                tag: turquois_crypto::sha256::sha256(b"garbage"),
            },
            just: PreVoteJust::Round1,
        };
        let out = engines[0].on_message(3, &bogus.encode());
        assert!(out.send.is_empty());
        assert_eq!(out.ops.share_verifies, 1, "the forgery still cost a verify");
    }

    #[test]
    fn share_replay_under_wrong_sender_rejected() {
        let mut engines = group(4, 1, &[true], 19);
        let out = engines[1].on_start();
        // Replay party 1's genuine pre-vote claiming link sender 2.
        let replayed = out.send[0].clone();
        let r = engines[0].on_message(2, &replayed);
        assert!(r.send.is_empty(), "share.party must match the channel");
    }

    #[test]
    fn forged_hard_justification_rejected() {
        let mut engines = group(4, 1, &[true], 23);
        let keys = AbbaKeys::trusted_setup(4, 1, 23);
        let share = keys[3].sig_key.sign_share(&pv_statement(2, false));
        let msg = AbbaMessage::PreVote {
            round: 2,
            value: false,
            share,
            just: PreVoteJust::Hard(ThresholdSignature {
                tag: turquois_crypto::sha256::sha256(b"fake"),
            }),
        };
        let out = engines[0].on_message(3, &msg.encode());
        assert!(out.send.is_empty());
        assert!(out.ops.sig_verifies >= 1);
    }

    #[test]
    fn ops_accumulate() {
        let mut a = CryptoOps::default();
        a.add(CryptoOps {
            share_signs: 1,
            share_verifies: 2,
            sig_verifies: 3,
            shares_combined: 4,
        });
        a.add(CryptoOps {
            share_signs: 1,
            share_verifies: 1,
            sig_verifies: 1,
            shares_combined: 1,
        });
        assert_eq!(
            a,
            CryptoOps {
                share_signs: 2,
                share_verifies: 3,
                sig_verifies: 4,
                shares_combined: 5,
            }
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Pre-vote and main-vote incremental tallies vs. the retired
        /// scan oracle under arbitrary interleavings of records
        /// (duplicate parties keep their first value) and the engine's
        /// whole-round GC — and against the reference hash-map layout,
        /// which must agree on every count and on the set of collected
        /// shares.
        #[test]
        fn vote_round_tallies_match_scan_oracle(
            ops in proptest::collection::vec(
                // (round, party, value sel 0..3, gc trigger)
                (1u32..6, 0usize..7, 0u8..3, 0u8..16),
                1..80,
            ),
        ) {
            let share = |party: usize| SigShare {
                party,
                tag: turquois_crypto::sha256::Digest([party as u8; turquois_crypto::sha256::DIGEST_LEN]),
            };
            // The reference layout: one party→vote hash map per round,
            // first vote wins.
            type RefRounds<V> = HashMap<u32, HashMap<usize, (V, SigShare)>>;
            fn ref_record<V>(rounds: &mut RefRounds<V>, round: u32, party: usize, vote: (V, SigShare)) {
                rounds.entry(round).or_default().entry(party).or_insert(vote);
            }
            fn sorted<V: Clone>(votes: impl Iterator<Item = (V, SigShare)>) -> Vec<(V, SigShare)> {
                let mut v: Vec<_> = votes.collect();
                v.sort_by_key(|(_, s)| s.party);
                v
            }
            let mut pre: HashMap<u32, PreVoteRound> = HashMap::new();
            let mut main: HashMap<u32, MainVoteRound> = HashMap::new();
            let mut ref_pre: RefRounds<bool> = HashMap::new();
            let mut ref_main: RefRounds<MainVoteValue> = HashMap::new();
            for (round, party, v, gc) in ops {
                if gc == 0 {
                    // The engine's GC drops whole rounds below a floor.
                    pre.retain(|&r, _| r >= round);
                    main.retain(|&r, _| r >= round);
                    ref_pre.retain(|&r, _| r >= round);
                    ref_main.retain(|&r, _| r >= round);
                } else {
                    let pv = v % 2 == 1;
                    pre.entry(round).or_default().record(party, pv, share(party));
                    ref_record(&mut ref_pre, round, party, (pv, share(party)));
                    let mv = [MainVoteValue::Zero, MainVoteValue::One, MainVoteValue::Abstain]
                        [v as usize];
                    main.entry(round).or_default().record(party, mv, share(party));
                    ref_record(&mut ref_main, round, party, (mv, share(party)));
                }
                for (&round, pr) in &pre {
                    let reference = &ref_pre[&round];
                    proptest::prop_assert_eq!(pr.len(), reference.len());
                    proptest::prop_assert_eq!(
                        sorted(pr.votes.values().cloned()),
                        sorted(reference.values().cloned())
                    );
                    for value in [false, true] {
                        proptest::prop_assert_eq!(pr.count(value), pr.scan_count(value));
                        proptest::prop_assert_eq!(
                            pr.count(value),
                            reference.values().filter(|(v, _)| *v == value).count()
                        );
                    }
                }
                for (&round, mr) in &main {
                    let reference = &ref_main[&round];
                    proptest::prop_assert_eq!(mr.len(), reference.len());
                    proptest::prop_assert_eq!(
                        sorted(mr.votes.values().cloned()),
                        sorted(reference.values().cloned())
                    );
                    for value in [MainVoteValue::Zero, MainVoteValue::One, MainVoteValue::Abstain] {
                        proptest::prop_assert_eq!(mr.count(value), mr.scan_count(value));
                        proptest::prop_assert_eq!(
                            mr.count(value),
                            reference.values().filter(|(v, _)| *v == value).count()
                        );
                    }
                }
            }
        }
    }
}
