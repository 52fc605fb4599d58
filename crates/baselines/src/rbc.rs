//! Bracha's reliable broadcast (the substrate of his consensus
//! protocol).
//!
//! Reliable broadcast prevents equivocation: if a Byzantine sender tries
//! to send different values to different processes, either nobody
//! delivers or everybody delivers the *same* value. The classic echo
//! protocol:
//!
//! 1. The sender broadcasts `INITIAL(m)`.
//! 2. On `INITIAL(m)`: broadcast `ECHO(m)`.
//! 3. On more than `(n+f)/2` `ECHO(m)`: broadcast `READY(m)` (once).
//! 4. On `f + 1` `READY(m)`: broadcast `READY(m)` (once) — amplification.
//! 5. On `2f + 1` `READY(m)`: deliver `m`.
//!
//! Each broadcast *instance* is identified by a [`Tag`] — the origin
//! process plus an application-chosen `(round, step)` label — so one
//! origin can run many broadcasts. A correct origin broadcasts at most
//! one payload per tag; the protocol guarantees all correct processes
//! deliver at most one payload per tag, the same one everywhere.
//!
//! This is the source of Bracha's O(n³) message complexity: every
//! logical broadcast costs `n` ECHOs and `n` READYs from every process.

use bytes::{BufMut, Bytes, BytesMut};
use std::collections::{BTreeSet, HashMap};

/// Identifies one reliable-broadcast instance.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash, Ord, PartialOrd)]
pub struct Tag {
    /// The process whose message is being broadcast.
    pub origin: usize,
    /// Application label (consensus round).
    pub round: u32,
    /// Application label (consensus step).
    pub step: u8,
}

/// A reliable-broadcast protocol message.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum RbcMessage {
    /// The origin's initial transmission.
    Initial {
        /// Instance tag (its `origin` must equal the link-layer sender).
        tag: Tag,
        /// The payload being broadcast.
        payload: Bytes,
    },
    /// A witness echo.
    Echo {
        /// Instance tag.
        tag: Tag,
        /// The echoed payload.
        payload: Bytes,
    },
    /// A delivery-readiness attestation.
    Ready {
        /// Instance tag.
        tag: Tag,
        /// The payload attested.
        payload: Bytes,
    },
}

const KIND_INITIAL: u8 = 1;
const KIND_ECHO: u8 = 2;
const KIND_READY: u8 = 3;

/// Fixed wire-header length: kind, origin, round, step, payload len.
const RBC_HEADER_LEN: usize = 1 + 2 + 4 + 1 + 2;

impl RbcMessage {
    /// Encodes for transmission into a buffer of exactly the
    /// message's wire length.
    pub fn encode(&self) -> Bytes {
        let (kind, tag, payload) = match self {
            RbcMessage::Initial { tag, payload } => (KIND_INITIAL, tag, payload),
            RbcMessage::Echo { tag, payload } => (KIND_ECHO, tag, payload),
            RbcMessage::Ready { tag, payload } => (KIND_READY, tag, payload),
        };
        let mut buf = BytesMut::with_capacity(RBC_HEADER_LEN + payload.len());
        buf.put_u8(kind);
        buf.put_u16(tag.origin as u16);
        buf.put_u32(tag.round);
        buf.put_u8(tag.step);
        buf.put_u16(payload.len() as u16);
        buf.put_slice(payload);
        buf.freeze()
    }

    /// The payload borne by this message (any variant).
    pub fn payload(&self) -> &Bytes {
        match self {
            RbcMessage::Initial { payload, .. }
            | RbcMessage::Echo { payload, .. }
            | RbcMessage::Ready { payload, .. } => payload,
        }
    }

    /// Decodes from wire bytes; `None` for malformed input.
    pub fn decode(bytes: &[u8]) -> Option<RbcMessage> {
        if bytes.len() < 10 {
            return None;
        }
        let kind = bytes[0];
        let origin = u16::from_be_bytes(bytes[1..3].try_into().ok()?) as usize;
        let round = u32::from_be_bytes(bytes[3..7].try_into().ok()?);
        let step = bytes[7];
        let len = u16::from_be_bytes(bytes[8..10].try_into().ok()?) as usize;
        if bytes.len() != 10 + len {
            return None;
        }
        let payload = Bytes::copy_from_slice(&bytes[10..]);
        let tag = Tag {
            origin,
            round,
            step,
        };
        match kind {
            KIND_INITIAL => Some(RbcMessage::Initial { tag, payload }),
            KIND_ECHO => Some(RbcMessage::Echo { tag, payload }),
            KIND_READY => Some(RbcMessage::Ready { tag, payload }),
            _ => None,
        }
    }

    /// The instance tag of this message.
    pub fn tag(&self) -> Tag {
        match self {
            RbcMessage::Initial { tag, .. }
            | RbcMessage::Echo { tag, .. }
            | RbcMessage::Ready { tag, .. } => *tag,
        }
    }
}

/// A borrowed, zero-copy view of one encoded [`RbcMessage`]: the
/// payload stays an offset range into the receive buffer instead of
/// being copied into a fresh [`Bytes`] at decode time
/// ([`RbcView::parse`] accepts and rejects exactly the inputs
/// [`RbcMessage::decode`] does). [`ReliableBroadcast::on_view`]
/// consumes the view directly, materializing an owned copy of the
/// payload only when it first enters a sender table or an outgoing
/// echo (DESIGN.md §13).
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct RbcView<'a> {
    kind: u8,
    tag: Tag,
    payload: &'a [u8],
}

impl<'a> RbcView<'a> {
    /// Parses wire bytes without copying the payload. Returns `None`
    /// exactly when [`RbcMessage::decode`] would: short input, a
    /// length field disagreeing with the buffer, or an unknown kind.
    pub fn parse(bytes: &'a [u8]) -> Option<RbcView<'a>> {
        if bytes.len() < RBC_HEADER_LEN {
            return None;
        }
        let kind = bytes[0];
        let origin = u16::from_be_bytes(bytes[1..3].try_into().ok()?) as usize;
        let round = u32::from_be_bytes(bytes[3..7].try_into().ok()?);
        let step = bytes[7];
        let len = u16::from_be_bytes(bytes[8..10].try_into().ok()?) as usize;
        if bytes.len() != RBC_HEADER_LEN + len {
            return None;
        }
        if !matches!(kind, KIND_INITIAL | KIND_ECHO | KIND_READY) {
            return None;
        }
        Some(RbcView {
            kind,
            tag: Tag {
                origin,
                round,
                step,
            },
            payload: &bytes[RBC_HEADER_LEN..],
        })
    }

    /// The instance tag of this message.
    pub fn tag(&self) -> Tag {
        self.tag
    }

    /// The payload, borrowed from the receive buffer.
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Materializes the owned [`RbcMessage`] this view describes
    /// (copies the payload).
    pub fn to_message(&self) -> RbcMessage {
        let tag = self.tag;
        let payload = Bytes::copy_from_slice(self.payload);
        match self.kind {
            KIND_INITIAL => RbcMessage::Initial { tag, payload },
            KIND_ECHO => RbcMessage::Echo { tag, payload },
            _ => RbcMessage::Ready { tag, payload },
        }
    }
}

#[derive(Debug, Default)]
struct Instance {
    /// Who echoed which payload (payload-keyed sender sets).
    echoes: HashMap<Bytes, BTreeSet<usize>>,
    readies: HashMap<Bytes, BTreeSet<usize>>,
    echoed: bool,
    readied: bool,
    delivered: Option<Bytes>,
}

/// Actions produced by one protocol step.
#[derive(Debug, Default, Eq, PartialEq)]
pub struct RbcOutput {
    /// Messages this process must now send to everyone.
    pub send: Vec<RbcMessage>,
    /// Payloads delivered, as `(tag, payload)`.
    pub deliver: Vec<(Tag, Bytes)>,
}

/// One process's reliable-broadcast engine (all instances).
#[derive(Debug)]
pub struct ReliableBroadcast {
    n: usize,
    f: usize,
    me: usize,
    instances: HashMap<Tag, Instance>,
}

impl ReliableBroadcast {
    /// Creates the engine for process `me` of `n` with at most `f`
    /// Byzantine.
    ///
    /// # Panics
    ///
    /// Panics unless `3f < n` and `me < n`.
    pub fn new(n: usize, f: usize, me: usize) -> Self {
        assert!(3 * f < n, "reliable broadcast requires n > 3f");
        assert!(me < n, "process id out of range");
        ReliableBroadcast {
            n,
            f,
            me,
            instances: HashMap::new(),
        }
    }

    /// Starts broadcasting `payload` under `(round, step)` as this
    /// process's own instance. Returns the messages to send.
    pub fn broadcast(&mut self, round: u32, step: u8, payload: Bytes) -> RbcOutput {
        let tag = Tag {
            origin: self.me,
            round,
            step,
        };
        let mut out = RbcOutput::default();
        out.send.push(RbcMessage::Initial {
            tag,
            payload: payload.clone(),
        });
        out
    }

    /// Processes a message received from link-layer sender `from`
    /// (authenticated by the channel, per the paper's IPSec AH setup).
    pub fn on_message(&mut self, from: usize, msg: &RbcMessage) -> RbcOutput {
        let mut out = RbcOutput::default();
        if from >= self.n {
            return out;
        }
        let tag = msg.tag();
        if tag.origin >= self.n {
            return out;
        }
        match msg {
            RbcMessage::Initial { payload, .. } => {
                // Only the origin may initiate its own instance.
                if from != tag.origin {
                    return out;
                }
                let inst = self.instances.entry(tag).or_default();
                if !inst.echoed {
                    inst.echoed = true;
                    out.send.push(RbcMessage::Echo {
                        tag,
                        payload: payload.clone(),
                    });
                }
            }
            RbcMessage::Echo { payload, .. } => {
                let inst = self.instances.entry(tag).or_default();
                inst.echoes
                    .entry(payload.clone())
                    .or_default()
                    .insert(from);
                self.evaluate(tag, &mut out);
            }
            RbcMessage::Ready { payload, .. } => {
                let inst = self.instances.entry(tag).or_default();
                inst.readies
                    .entry(payload.clone())
                    .or_default()
                    .insert(from);
                self.evaluate(tag, &mut out);
            }
        }
        out
    }

    /// Processes a borrowed [`RbcView`] — the same transition function
    /// as [`ReliableBroadcast::on_message`], but the payload is copied
    /// into an owned [`Bytes`] only when it first enters a sender
    /// table or an outgoing echo. Duplicate payloads probe the tables
    /// by raw slice and allocate nothing; each elided owned-decode
    /// copy is credited to the [`bytes::telemetry`] counters.
    pub fn on_view(&mut self, from: usize, view: &RbcView<'_>) -> RbcOutput {
        let mut out = RbcOutput::default();
        if from >= self.n {
            return out;
        }
        let tag = view.tag;
        if tag.origin >= self.n {
            return out;
        }
        match view.kind {
            KIND_INITIAL => {
                // Only the origin may initiate its own instance.
                if from != tag.origin {
                    return out;
                }
                let inst = self.instances.entry(tag).or_default();
                if !inst.echoed {
                    inst.echoed = true;
                    out.send.push(RbcMessage::Echo {
                        tag,
                        payload: Bytes::copy_from_slice(view.payload),
                    });
                }
            }
            KIND_ECHO => {
                let inst = self.instances.entry(tag).or_default();
                if let Some(senders) = inst.echoes.get_mut(view.payload) {
                    senders.insert(from);
                } else {
                    inst.echoes
                        .insert(Bytes::copy_from_slice(view.payload), BTreeSet::from([from]));
                }
                self.evaluate(tag, &mut out);
            }
            _ => {
                let inst = self.instances.entry(tag).or_default();
                if let Some(senders) = inst.readies.get_mut(view.payload) {
                    senders.insert(from);
                } else {
                    inst.readies
                        .insert(Bytes::copy_from_slice(view.payload), BTreeSet::from([from]));
                }
                self.evaluate(tag, &mut out);
            }
        }
        out
    }

    fn evaluate(&mut self, tag: Tag, out: &mut RbcOutput) {
        let n = self.n;
        let f = self.f;
        let inst = self.instances.get_mut(&tag).expect("caller created it");
        // READY on an echo quorum (> (n+f)/2) or on f+1 READYs.
        if !inst.readied {
            let echo_payload = inst
                .echoes
                .iter()
                .find(|(_, senders)| 2 * senders.len() > n + f)
                .map(|(p, _)| p.clone());
            let ready_payload = inst
                .readies
                .iter()
                .find(|(_, senders)| senders.len() >= f + 1)
                .map(|(p, _)| p.clone());
            if let Some(payload) = echo_payload.or(ready_payload) {
                inst.readied = true;
                out.send.push(RbcMessage::Ready {
                    tag,
                    payload: payload.clone(),
                });
                // Count our own READY too (we will also hear it via
                // loopback, but counting now keeps small groups live even
                // if loopback frames race).
                inst.readies.entry(payload).or_default().insert(self.me);
            }
        }
        // Deliver on 2f+1 READYs.
        if inst.delivered.is_none() {
            let deliverable = inst
                .readies
                .iter()
                .find(|(_, senders)| senders.len() >= 2 * f + 1)
                .map(|(p, _)| p.clone());
            if let Some(payload) = deliverable {
                inst.delivered = Some(payload.clone());
                out.deliver.push((tag, payload));
            }
        }
    }

    /// What this process delivered for `tag`, if anything.
    pub fn delivered(&self, tag: Tag) -> Option<&Bytes> {
        self.instances.get(&tag).and_then(|i| i.delivered.as_ref())
    }

    /// Drops state for instances with `round < min_round` (GC).
    pub fn prune_rounds_below(&mut self, min_round: u32) {
        self.instances.retain(|tag, _| tag.round >= min_round);
    }

    /// Number of live instances (for memory diagnostics).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a lossless full-information exchange among `n` engines until
    /// quiescence, starting from `initial` messages sent by each process.
    /// Returns per-process deliveries.
    fn run_network(
        engines: &mut [ReliableBroadcast],
        initial: Vec<(usize, RbcMessage)>,
    ) -> Vec<Vec<(Tag, Bytes)>> {
        let n = engines.len();
        let mut deliveries: Vec<Vec<(Tag, Bytes)>> = vec![Vec::new(); n];
        let mut queue: Vec<(usize, RbcMessage)> = initial;
        while let Some((from, msg)) = queue.pop() {
            for to in 0..n {
                let out = engines[to].on_message(from, &msg);
                for m in out.send {
                    queue.push((to, m));
                }
                deliveries[to].extend(out.deliver);
            }
        }
        deliveries
    }

    fn engines(n: usize, f: usize) -> Vec<ReliableBroadcast> {
        (0..n).map(|me| ReliableBroadcast::new(n, f, me)).collect()
    }

    #[test]
    fn codec_round_trip() {
        let tag = Tag {
            origin: 3,
            round: 9,
            step: 2,
        };
        for msg in [
            RbcMessage::Initial {
                tag,
                payload: Bytes::from_static(b"x"),
            },
            RbcMessage::Echo {
                tag,
                payload: Bytes::from_static(b""),
            },
            RbcMessage::Ready {
                tag,
                payload: Bytes::from_static(b"abc"),
            },
        ] {
            let decoded = RbcMessage::decode(&msg.encode()).expect("valid");
            assert_eq!(decoded, msg);
        }
        assert_eq!(RbcMessage::decode(b"short"), None);
        let mut bad = RbcMessage::Initial {
            tag,
            payload: Bytes::new(),
        }
        .encode()
        .to_vec();
        bad[0] = 9;
        assert_eq!(RbcMessage::decode(&bad), None);
        bad.push(0);
        assert_eq!(RbcMessage::decode(&bad), None);
    }

    #[test]
    fn everyone_delivers_honest_broadcast() {
        let mut engines = engines(4, 1);
        let out = engines[0].broadcast(1, 1, Bytes::from_static(b"hello"));
        let initial: Vec<(usize, RbcMessage)> =
            out.send.into_iter().map(|m| (0usize, m)).collect();
        let deliveries = run_network(&mut engines, initial);
        for (i, d) in deliveries.iter().enumerate() {
            assert_eq!(d.len(), 1, "process {i} delivers exactly once");
            assert_eq!(&d[0].1[..], b"hello");
            assert_eq!(d[0].0.origin, 0);
        }
    }

    #[test]
    fn equivocating_origin_cannot_split_delivery() {
        // Byzantine origin 3 sends INITIAL "a" to half and "b" to the
        // other half. With n=4, f=1 no two correct processes may deliver
        // differently.
        let mut engines = engines(4, 1);
        let tag = Tag {
            origin: 3,
            round: 1,
            step: 1,
        };
        let m_a = RbcMessage::Initial {
            tag,
            payload: Bytes::from_static(b"a"),
        };
        let m_b = RbcMessage::Initial {
            tag,
            payload: Bytes::from_static(b"b"),
        };
        // Deliver the conflicting initials directly (bypassing
        // run_network's everyone-hears-everything model).
        let mut queue: Vec<(usize, RbcMessage)> = Vec::new();
        for (to, msg) in [(0usize, &m_a), (1usize, &m_a), (2usize, &m_b)] {
            let out = engines[to].on_message(3, msg);
            for m in out.send {
                queue.push((to, m));
            }
        }
        // Now run the exchange among correct processes 0..3 only.
        let n = 4;
        let mut deliveries: Vec<Vec<(Tag, Bytes)>> = vec![Vec::new(); n];
        while let Some((from, msg)) = queue.pop() {
            for to in 0..3 {
                let out = engines[to].on_message(from, &msg);
                for m in out.send {
                    queue.push((to, m));
                }
                deliveries[to].extend(out.deliver);
            }
        }
        let delivered: Vec<&Bytes> = deliveries[..3]
            .iter()
            .flat_map(|d| d.iter().map(|(_, p)| p))
            .collect();
        let distinct: BTreeSet<&[u8]> = delivered.iter().map(|b| &b[..]).collect();
        assert!(
            distinct.len() <= 1,
            "correct processes delivered different payloads: {distinct:?}"
        );
    }

    #[test]
    fn initial_from_non_origin_ignored() {
        let mut engines = engines(4, 1);
        let tag = Tag {
            origin: 2,
            round: 1,
            step: 1,
        };
        let forged = RbcMessage::Initial {
            tag,
            payload: Bytes::from_static(b"evil"),
        };
        let out = engines[0].on_message(1, &forged); // sender 1 ≠ origin 2
        assert!(out.send.is_empty());
        assert!(out.deliver.is_empty());
    }

    #[test]
    fn no_delivery_below_ready_threshold() {
        let mut e = ReliableBroadcast::new(4, 1, 0);
        let tag = Tag {
            origin: 1,
            round: 1,
            step: 1,
        };
        let ready = RbcMessage::Ready {
            tag,
            payload: Bytes::from_static(b"v"),
        };
        // 2f+1 = 3 READYs required; one is not enough.
        assert!(e.on_message(1, &ready).deliver.is_empty());
        // The second external READY reaches f+1 = 2 → we amplify with our
        // own READY, which self-counts to 3 = 2f+1 → delivery.
        let out = e.on_message(2, &ready);
        assert_eq!(out.send.len(), 1, "amplification READY");
        assert_eq!(out.deliver.len(), 1);
    }

    #[test]
    fn ready_amplification_from_f_plus_one() {
        let mut e = ReliableBroadcast::new(7, 2, 0);
        let tag = Tag {
            origin: 1,
            round: 1,
            step: 1,
        };
        let ready = RbcMessage::Ready {
            tag,
            payload: Bytes::from_static(b"v"),
        };
        assert!(e.on_message(1, &ready).send.is_empty(), "1 ready: quiet");
        assert!(e.on_message(2, &ready).send.is_empty(), "2 readies: quiet");
        let out = e.on_message(3, &ready);
        assert_eq!(out.send.len(), 1, "f+1 = 3 readies: amplify");
        assert!(matches!(out.send[0], RbcMessage::Ready { .. }));
    }

    #[test]
    fn duplicate_echoes_counted_once() {
        let mut e = ReliableBroadcast::new(4, 1, 0);
        let tag = Tag {
            origin: 1,
            round: 1,
            step: 1,
        };
        let echo = RbcMessage::Echo {
            tag,
            payload: Bytes::from_static(b"v"),
        };
        // Quorum is > (4+1)/2 → 3 senders. The same sender thrice is one.
        for _ in 0..5 {
            assert!(e.on_message(1, &echo).send.is_empty());
        }
        assert!(e.on_message(2, &echo).send.is_empty());
        let out = e.on_message(3, &echo);
        assert_eq!(out.send.len(), 1, "third distinct echo sender → READY");
    }

    #[test]
    fn delivery_happens_once() {
        let mut engines = engines(4, 1);
        let out = engines[1].broadcast(2, 3, Bytes::from_static(b"p"));
        let initial: Vec<(usize, RbcMessage)> =
            out.send.into_iter().map(|m| (1usize, m)).collect();
        let deliveries = run_network(&mut engines, initial);
        for d in &deliveries {
            assert_eq!(d.len(), 1);
        }
        // Feed a straggler READY afterwards: no double delivery.
        let tag = Tag {
            origin: 1,
            round: 2,
            step: 3,
        };
        let late = RbcMessage::Ready {
            tag,
            payload: Bytes::from_static(b"p"),
        };
        assert!(engines[0].on_message(2, &late).deliver.is_empty());
        assert_eq!(engines[0].delivered(tag).map(|b| &b[..]), Some(&b"p"[..]));
    }

    #[test]
    fn prune_drops_old_rounds() {
        let mut e = ReliableBroadcast::new(4, 1, 0);
        for round in 1..=5 {
            let tag = Tag {
                origin: 1,
                round,
                step: 1,
            };
            let _ = e.on_message(
                1,
                &RbcMessage::Initial {
                    tag,
                    payload: Bytes::from_static(b"v"),
                },
            );
        }
        assert_eq!(e.instance_count(), 5);
        e.prune_rounds_below(4);
        assert_eq!(e.instance_count(), 2);
    }

    #[test]
    fn out_of_range_ids_ignored() {
        let mut e = ReliableBroadcast::new(4, 1, 0);
        let tag = Tag {
            origin: 9,
            round: 1,
            step: 1,
        };
        let msg = RbcMessage::Initial {
            tag,
            payload: Bytes::new(),
        };
        assert_eq!(e.on_message(9, &msg), RbcOutput::default());
        assert_eq!(e.on_message(1, &msg), RbcOutput::default());
    }

    /// Mirrored engines driven by the owned decoder and the borrowed
    /// view stay in lockstep through an entire honest broadcast.
    #[test]
    fn view_engine_matches_message_engine() {
        let n = 4;
        let mut owned: Vec<ReliableBroadcast> =
            (0..n).map(|me| ReliableBroadcast::new(n, 1, me)).collect();
        let mut viewed: Vec<ReliableBroadcast> =
            (0..n).map(|me| ReliableBroadcast::new(n, 1, me)).collect();
        let start = owned[2].broadcast(7, 2, Bytes::copy_from_slice(b"lockstep"));
        let _ = viewed[2].broadcast(7, 2, Bytes::copy_from_slice(b"lockstep"));
        let mut queue: Vec<(usize, Bytes)> = start
            .send
            .iter()
            .map(|m| (2usize, m.encode()))
            .collect();
        while let Some((from, bytes)) = queue.pop() {
            for to in 0..n {
                let msg = RbcMessage::decode(&bytes).expect("valid");
                let a = owned[to].on_message(from, &msg);
                let view = RbcView::parse(&bytes).expect("valid");
                let b = viewed[to].on_view(from, &view);
                assert_eq!(a, b, "outputs diverged at process {to}");
                queue.extend(a.send.into_iter().map(|m| (to, m.encode())));
            }
        }
        for (a, b) in owned.iter().zip(&viewed) {
            let tag = Tag {
                origin: 2,
                round: 7,
                step: 2,
            };
            assert_eq!(a.delivered(tag), b.delivered(tag));
        }
    }

    /// Duplicate payloads probe the sender tables without copying: only
    /// the first sight of a payload copies it into an owned key.
    #[test]
    fn view_duplicates_save_copies() {
        let mut e = ReliableBroadcast::new(7, 2, 0);
        let tag = Tag {
            origin: 1,
            round: 1,
            step: 1,
        };
        let wire = RbcMessage::Echo {
            tag,
            payload: Bytes::copy_from_slice(b"dup-payload"),
        }
        .encode();
        let view = RbcView::parse(&wire).expect("valid");
        let copied0 = bytes::telemetry::bytes_copied();
        let _ = e.on_view(1, &view); // first sight: one owned key copy
        assert_eq!(bytes::telemetry::bytes_copied(), copied0 + 11);
        let _ = e.on_view(2, &view); // duplicate: zero copies
        assert_eq!(bytes::telemetry::bytes_copied(), copied0 + 11);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// [`RbcView::parse`] accepts and rejects exactly the byte
        /// strings [`RbcMessage::decode`] does, and agrees on content.
        #[test]
        fn view_parse_agrees_with_decode(bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..64)) {
            let owned = RbcMessage::decode(&bytes);
            let view = RbcView::parse(&bytes);
            match (owned, view) {
                (None, None) => {}
                (Some(m), Some(v)) => proptest::prop_assert_eq!(m, v.to_message()),
                (m, v) => proptest::prop_assert!(false, "divergence: {:?} vs {:?}", m, v),
            }
        }

        /// Error parity on every truncation prefix and on trailing
        /// garbage, for every message kind.
        #[test]
        fn view_error_parity_on_mangled_wire(
            kind in 1u8..4,
            origin in 0u16..9,
            round in 1u32..100,
            step in 0u8..4,
            payload in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..24),
        ) {
            let tag = Tag { origin: origin as usize, round, step };
            let payload = Bytes::copy_from_slice(&payload);
            let msg = match kind {
                1 => RbcMessage::Initial { tag, payload },
                2 => RbcMessage::Echo { tag, payload },
                _ => RbcMessage::Ready { tag, payload },
            };
            let wire = msg.encode();
            for cut in 0..=wire.len() {
                let prefix = &wire[..cut];
                let owned = RbcMessage::decode(prefix);
                let view = RbcView::parse(prefix).map(|v| v.to_message());
                proptest::prop_assert_eq!(&owned, &view, "cut={}", cut);
                if cut == wire.len() {
                    proptest::prop_assert_eq!(owned, Some(msg.clone()));
                }
            }
            let mut trailing = wire.to_vec();
            trailing.push(0);
            proptest::prop_assert_eq!(RbcMessage::decode(&trailing), None);
            proptest::prop_assert!(RbcView::parse(&trailing).is_none());
        }
    }
}
