//! Protocol messages and their wire encoding.
//!
//! A Turquois message is `⟨i, φ_i, v_i, status_i⟩` (Algorithm 1, line 6),
//! authenticated by the one-time signature `SK_i[φ_i][v_i]` (§6.1). Two
//! unauthenticated annotations ride along:
//!
//! * the **coin flag** — whether a CONVERGE-phase value came from a coin
//!   flip (Algorithm 1 distinguishes the two on lines 12–15); and
//! * the **status** — `decided`/`undecided`.
//!
//! Neither is covered by the signature; the paper explicitly notes this
//! for `status` (§6.1) and both are instead constrained by the semantic
//! validation of §6.2, which demands quorum evidence for every claim.
//!
//! A message optionally carries a **justification**: copies of earlier
//! signed messages supporting its phase/value/status claims (the
//! *explicit* validation path of §6.2, used from the second broadcast of
//! an unchanged state).

use crate::config::Config;
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;
use turquois_crypto::otss::{OneTimeSignature, Value};
use turquois_crypto::sha256::DIGEST_LEN;

/// Decision status carried in a message.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum Status {
    /// The sender has not decided.
    Undecided,
    /// The sender has decided its current value.
    Decided,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Undecided => f.write_str("undecided"),
            Status::Decided => f.write_str("decided"),
        }
    }
}

/// The signed, wire-visible part of a protocol message.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub struct Envelope {
    /// Claimed sender (verified by the one-time signature).
    pub sender: usize,
    /// The sender's phase `φ`.
    pub phase: u32,
    /// The sender's proposal value `v ∈ {0, 1, ⊥}`.
    pub value: Value,
    /// Whether `value` was produced by a coin flip (meaningful only when
    /// `phase mod 3 = 1`; unauthenticated, constrained semantically).
    pub coin_flip: bool,
    /// The sender's decision status (unauthenticated, constrained
    /// semantically).
    pub status: Status,
}

/// A full protocol message: envelope, signature, optional justification.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Message {
    /// The message contents.
    pub envelope: Envelope,
    /// One-time signature over `(phase, value)` by the claimed sender.
    pub signature: OneTimeSignature,
    /// Attached justification messages (envelope + signature each; never
    /// nested).
    pub justification: Vec<(Envelope, OneTimeSignature)>,
}

impl Message {
    /// A message with no justification attached.
    pub fn bare(envelope: Envelope, signature: OneTimeSignature) -> Self {
        Message {
            envelope,
            signature,
            justification: Vec::new(),
        }
    }

    /// Serialized size in bytes (drives simulated airtime).
    pub fn wire_size(&self) -> usize {
        ENVELOPE_LEN + DIGEST_LEN + 2 + self.justification.len() * (ENVELOPE_LEN + DIGEST_LEN)
    }

    /// Encodes the message for transmission into a buffer of exactly
    /// [`wire_size`](Message::wire_size) bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_size());
        encode_envelope(&mut buf, &self.envelope);
        buf.put_slice(&self.signature.0);
        buf.put_u16(self.justification.len() as u16);
        for (env, sig) in &self.justification {
            encode_envelope(&mut buf, env);
            buf.put_slice(&sig.0);
        }
        buf.freeze()
    }

    /// Decodes a message from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or malformed fields; `cfg`
    /// is used to bound the sender id and justification size.
    pub fn decode(bytes: &[u8], cfg: &Config) -> Result<Message, DecodeError> {
        let mut r = Reader { bytes, at: 0 };
        let envelope = decode_envelope(&mut r, cfg)?;
        let signature = OneTimeSignature(r.take_digest()?);
        let count = r.take_u16()? as usize;
        // A justification never needs more than one full quorum per
        // claim; three claims bound it at 3n.
        if count > 3 * cfg.n() {
            return Err(DecodeError::JustificationTooLarge { count });
        }
        // The count field is untrusted: cap the speculative allocation
        // at what the remaining bytes could actually hold, so a huge
        // count on a tiny payload can't force a large reservation
        // before the per-entry bounds checks reject it.
        let fits = bytes.len().saturating_sub(r.at) / (ENVELOPE_LEN + DIGEST_LEN);
        let mut justification = Vec::with_capacity(count.min(fits));
        for _ in 0..count {
            let env = decode_envelope(&mut r, cfg)?;
            let sig = OneTimeSignature(r.take_digest()?);
            justification.push((env, sig));
        }
        if r.at != bytes.len() {
            return Err(DecodeError::TrailingBytes {
                extra: bytes.len() - r.at,
            });
        }
        Ok(Message {
            envelope,
            signature,
            justification,
        })
    }
}

const ENVELOPE_LEN: usize = 2 + 4 + 1 + 1;
/// Fixed prefix: envelope + signature + justification count.
const HEADER_LEN: usize = ENVELOPE_LEN + DIGEST_LEN + 2;
/// One justification entry: envelope + signature.
const ENTRY_LEN: usize = ENVELOPE_LEN + DIGEST_LEN;

const FLAG_COIN: u8 = 0b01;
const FLAG_DECIDED: u8 = 0b10;

fn encode_envelope<B: BufMut>(buf: &mut B, env: &Envelope) {
    buf.put_u16(env.sender as u16);
    buf.put_u32(env.phase);
    buf.put_u8(env.value.index() as u8);
    let mut flags = 0u8;
    if env.coin_flip {
        flags |= FLAG_COIN;
    }
    if env.status == Status::Decided {
        flags |= FLAG_DECIDED;
    }
    buf.put_u8(flags);
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.at + n > self.bytes.len() {
            return Err(DecodeError::Truncated {
                needed: self.at + n,
                len: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn take_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn take_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn take_digest(&mut self) -> Result<[u8; DIGEST_LEN], DecodeError> {
        Ok(self
            .take(DIGEST_LEN)?
            .try_into()
            .expect("DIGEST_LEN bytes"))
    }
}

fn decode_envelope(r: &mut Reader<'_>, cfg: &Config) -> Result<Envelope, DecodeError> {
    let sender = r.take_u16()? as usize;
    if sender >= cfg.n() {
        return Err(DecodeError::BadSender { sender });
    }
    let phase = r.take_u32()?;
    if phase == 0 {
        return Err(DecodeError::ZeroPhase);
    }
    let value = match r.take_u8()? {
        0 => Value::Zero,
        1 => Value::One,
        2 => Value::Bot,
        other => return Err(DecodeError::BadValue { byte: other }),
    };
    let flags = r.take_u8()?;
    if flags & !(FLAG_COIN | FLAG_DECIDED) != 0 {
        return Err(DecodeError::BadFlags { byte: flags });
    }
    Ok(Envelope {
        sender,
        phase,
        value,
        coin_flip: flags & FLAG_COIN != 0,
        status: if flags & FLAG_DECIDED != 0 {
            Status::Decided
        } else {
            Status::Undecided
        },
    })
}

/// A borrowed, validated view of a wire message.
///
/// Parses the same format as [`Message::decode`] with bit-identical
/// error behavior, but leaves the justification entries in place as
/// offset ranges into the received buffer instead of materializing a
/// `Vec` — the steady-state receive path allocates nothing. Entries
/// are fully validated during [`MessageView::parse`]; the accessors
/// re-read them from the buffer on demand ([`Envelope`] and
/// [`OneTimeSignature`] are plain `Copy` data, so an access is a
/// 40-byte stack copy, not a heap allocation).
///
/// Use [`MessageView::to_message`] at the few points where a message
/// must outlive its delivery.
#[derive(Clone, Copy, Debug)]
pub struct MessageView<'a> {
    envelope: Envelope,
    signature: OneTimeSignature,
    bytes: &'a [u8],
    count: usize,
}

impl<'a> MessageView<'a> {
    /// Parses and validates a wire message without materializing its
    /// justification.
    ///
    /// # Errors
    ///
    /// Returns exactly the [`DecodeError`] that [`Message::decode`]
    /// would return on the same input (the differential tests assert
    /// this at every truncation length).
    pub fn parse(bytes: &'a [u8], cfg: &Config) -> Result<MessageView<'a>, DecodeError> {
        let mut r = Reader { bytes, at: 0 };
        let envelope = decode_envelope(&mut r, cfg)?;
        let signature = OneTimeSignature(r.take_digest()?);
        let count = r.take_u16()? as usize;
        if count > 3 * cfg.n() {
            return Err(DecodeError::JustificationTooLarge { count });
        }
        for _ in 0..count {
            decode_envelope(&mut r, cfg)?;
            r.take_digest()?;
        }
        if r.at != bytes.len() {
            return Err(DecodeError::TrailingBytes {
                extra: bytes.len() - r.at,
            });
        }
        Ok(MessageView {
            envelope,
            signature,
            bytes,
            count,
        })
    }

    /// The signed envelope.
    pub fn envelope(&self) -> Envelope {
        self.envelope
    }

    /// The one-time signature over the envelope.
    pub fn signature(&self) -> OneTimeSignature {
        self.signature
    }

    /// Number of attached justification entries.
    pub fn justification_len(&self) -> usize {
        self.count
    }

    /// Reads justification entry `i` out of the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn entry(&self, i: usize) -> (Envelope, OneTimeSignature) {
        let sig = self.sig_bytes(i).try_into().expect("DIGEST_LEN bytes");
        (self.entry_envelope(i), OneTimeSignature(sig))
    }

    /// The envelope of justification entry `i`, read at fixed offsets
    /// with no re-validation: [`MessageView::parse`] has already
    /// checked every entry.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn entry_envelope(&self, i: usize) -> Envelope {
        assert!(i < self.count, "justification entry out of range");
        let b = &self.bytes[HEADER_LEN + i * ENTRY_LEN..][..ENVELOPE_LEN];
        Envelope {
            sender: usize::from(u16::from_be_bytes([b[0], b[1]])),
            phase: u32::from_be_bytes([b[2], b[3], b[4], b[5]]),
            value: match b[6] {
                0 => Value::Zero,
                1 => Value::One,
                _ => Value::Bot,
            },
            coin_flip: b[7] & FLAG_COIN != 0,
            status: if b[7] & FLAG_DECIDED != 0 {
                Status::Decided
            } else {
                Status::Undecided
            },
        }
    }

    /// The raw signature bytes of justification entry `i`, borrowed
    /// from the buffer (prehash batching feeds these to the multi-lane
    /// SHA kernel without copying).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sig_bytes(&self, i: usize) -> &'a [u8] {
        assert!(i < self.count, "justification entry out of range");
        &self.bytes[HEADER_LEN + i * ENTRY_LEN + ENVELOPE_LEN..][..DIGEST_LEN]
    }

    /// Materializes an owned [`Message`] (used only where a message
    /// outlives its delivery, e.g. tests and fixtures).
    pub fn to_message(&self) -> Message {
        Message {
            envelope: self.envelope,
            signature: self.signature,
            justification: (0..self.count).map(|i| self.entry(i)).collect(),
        }
    }
}

/// Errors decoding a wire message.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum DecodeError {
    /// Fewer bytes than the format requires.
    Truncated {
        /// Bytes needed so far.
        needed: usize,
        /// Bytes available.
        len: usize,
    },
    /// Sender id out of `0..n`.
    BadSender {
        /// The offending id.
        sender: usize,
    },
    /// Phases are 1-based; 0 is invalid.
    ZeroPhase,
    /// Value byte not in `{0, 1, 2}`.
    BadValue {
        /// The offending byte.
        byte: u8,
    },
    /// Unknown flag bits set.
    BadFlags {
        /// The offending byte.
        byte: u8,
    },
    /// Justification count exceeds the protocol bound.
    JustificationTooLarge {
        /// The claimed count.
        count: usize,
    },
    /// Bytes remain after a complete message.
    TrailingBytes {
        /// Number of surplus bytes.
        extra: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, len } => {
                write!(f, "truncated message: needed {needed} bytes, have {len}")
            }
            DecodeError::BadSender { sender } => write!(f, "sender {sender} out of range"),
            DecodeError::ZeroPhase => write!(f, "phase 0 is invalid (phases are 1-based)"),
            DecodeError::BadValue { byte } => write!(f, "invalid value byte {byte}"),
            DecodeError::BadFlags { byte } => write!(f, "invalid flag byte {byte:#x}"),
            DecodeError::JustificationTooLarge { count } => {
                write!(f, "justification of {count} messages exceeds bound")
            }
            DecodeError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::new(7, 2, 5).expect("valid")
    }

    fn env(sender: usize, phase: u32, value: Value) -> Envelope {
        Envelope {
            sender,
            phase,
            value,
            coin_flip: false,
            status: Status::Undecided,
        }
    }

    fn sig(b: u8) -> OneTimeSignature {
        OneTimeSignature([b; DIGEST_LEN])
    }

    #[test]
    fn round_trip_bare() {
        let m = Message::bare(env(3, 5, Value::One), sig(7));
        let bytes = m.encode();
        assert_eq!(bytes.len(), m.wire_size());
        let d = Message::decode(&bytes, &cfg()).expect("valid");
        assert_eq!(d, m);
    }

    #[test]
    fn round_trip_all_fields() {
        for value in [Value::Zero, Value::One, Value::Bot] {
            for coin_flip in [false, true] {
                for status in [Status::Undecided, Status::Decided] {
                    let m = Message {
                        envelope: Envelope {
                            sender: 6,
                            phase: 123,
                            value,
                            coin_flip,
                            status,
                        },
                        signature: sig(9),
                        justification: vec![
                            (env(0, 122, Value::Zero), sig(1)),
                            (env(1, 122, Value::One), sig(2)),
                        ],
                    };
                    let d = Message::decode(&m.encode(), &cfg()).expect("valid");
                    assert_eq!(d, m);
                }
            }
        }
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let m = Message {
            envelope: env(1, 2, Value::Zero),
            signature: sig(3),
            justification: vec![(env(2, 1, Value::One), sig(4))],
        };
        let bytes = m.encode();
        for cut in 0..bytes.len() {
            assert!(
                Message::decode(&bytes[..cut], &cfg()).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_sender() {
        let m = Message::bare(env(6, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        bytes[1] = 200; // sender = 200 > n
        assert!(matches!(
            Message::decode(&bytes, &cfg()),
            Err(DecodeError::BadSender { sender: 200 })
        ));
    }

    #[test]
    fn decode_rejects_zero_phase() {
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        bytes[2..6].copy_from_slice(&0u32.to_be_bytes());
        assert_eq!(Message::decode(&bytes, &cfg()), Err(DecodeError::ZeroPhase));
    }

    #[test]
    fn decode_rejects_bad_value_and_flags() {
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        bytes[6] = 9;
        assert_eq!(
            Message::decode(&bytes, &cfg()),
            Err(DecodeError::BadValue { byte: 9 })
        );
        let mut bytes = m.encode().to_vec();
        bytes[7] = 0xf0;
        assert_eq!(
            Message::decode(&bytes, &cfg()),
            Err(DecodeError::BadFlags { byte: 0xf0 })
        );
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        bytes.push(0);
        assert_eq!(
            Message::decode(&bytes, &cfg()),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn decode_rejects_oversized_justification() {
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        let count_at = ENVELOPE_LEN + DIGEST_LEN;
        bytes[count_at..count_at + 2].copy_from_slice(&1000u16.to_be_bytes());
        assert!(matches!(
            Message::decode(&bytes, &cfg()),
            Err(DecodeError::JustificationTooLarge { count: 1000 })
        ));
    }

    #[test]
    fn wire_size_small_without_justification() {
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        // 8-byte envelope + 32-byte signature + 2-byte count.
        assert_eq!(m.wire_size(), 42);
    }

    #[test]
    fn status_display() {
        assert_eq!(Status::Decided.to_string(), "decided");
        assert_eq!(Status::Undecided.to_string(), "undecided");
    }

    /// Both codecs agree on every accessor for a valid message.
    #[test]
    fn view_matches_decode_on_valid_messages() {
        let m = Message {
            envelope: Envelope {
                sender: 6,
                phase: 123,
                value: Value::One,
                coin_flip: true,
                status: Status::Decided,
            },
            signature: sig(9),
            justification: vec![
                (env(0, 122, Value::Zero), sig(1)),
                (env(1, 122, Value::One), sig(2)),
                (env(5, 121, Value::Bot), sig(3)),
            ],
        };
        let bytes = m.encode();
        let view = MessageView::parse(&bytes, &cfg()).expect("valid");
        assert_eq!(view.envelope(), m.envelope);
        assert_eq!(view.signature(), m.signature);
        assert_eq!(view.justification_len(), m.justification.len());
        for (i, entry) in m.justification.iter().enumerate() {
            assert_eq!(view.entry(i), *entry);
            assert_eq!(view.sig_bytes(i), &entry.1 .0[..]);
        }
        assert_eq!(view.to_message(), m);
    }

    /// Error parity with the owned decoder at every truncation length
    /// and on every mutated-field rejection.
    #[test]
    fn view_error_parity_with_decode() {
        let m = Message {
            envelope: env(1, 2, Value::Zero),
            signature: sig(3),
            justification: vec![(env(2, 1, Value::One), sig(4))],
        };
        let bytes = m.encode();
        let c = cfg();
        for cut in 0..=bytes.len() {
            let owned = Message::decode(&bytes[..cut], &c).err();
            let view = MessageView::parse(&bytes[..cut], &c).err();
            assert_eq!(owned, view, "engines disagree at cut {cut}");
        }
        // Trailing bytes.
        let mut trailing = bytes.to_vec();
        trailing.push(0);
        assert_eq!(
            Message::decode(&trailing, &c).err(),
            MessageView::parse(&trailing, &c).err()
        );
        // Oversized count, bad sender, zero phase, bad value, bad flags.
        for (at, val) in [(40usize, 255u8), (1, 200), (5, 0), (6, 9), (7, 0xf0)] {
            let mut mutated = bytes.to_vec();
            mutated[at] = val;
            assert_eq!(
                Message::decode(&mutated, &c).err(),
                MessageView::parse(&mutated, &c).err(),
                "engines disagree with byte {at} set to {val}"
            );
        }
    }

    /// Satellite fix: a huge claimed count on a tiny payload must fail
    /// with `Truncated` (not attempt a large speculative reservation)
    /// — identically in both engines.
    #[test]
    fn huge_count_with_tiny_payload_is_truncated_in_both_engines() {
        // Large n so the 3n justification bound does not trip first.
        let big = Config::evaluation(30000).expect("valid");
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        let count_at = ENVELOPE_LEN + DIGEST_LEN;
        bytes[count_at..count_at + 2].copy_from_slice(&u16::MAX.to_be_bytes());
        let owned = Message::decode(&bytes, &big);
        let view = MessageView::parse(&bytes, &big).map(|v| v.to_message());
        assert!(
            matches!(owned, Err(DecodeError::Truncated { .. })),
            "got {owned:?}"
        );
        assert_eq!(owned.err(), view.err());
    }

    /// Steady-state view parsing copies no payload bytes, bare or
    /// justified — asserted via the `bytes_copied` telemetry counter.
    #[test]
    fn view_parse_allocation_telemetry() {
        let c = cfg();
        let bare = Message::bare(env(3, 5, Value::One), sig(7)).encode();
        let justified = Message {
            envelope: env(3, 5, Value::One),
            signature: sig(7),
            justification: vec![(env(0, 4, Value::One), sig(1))],
        }
        .encode();
        let copied0 = bytes::telemetry::bytes_copied();
        for _ in 0..16 {
            let v = MessageView::parse(&bare, &c).expect("valid");
            assert_eq!(v.justification_len(), 0);
        }
        assert_eq!(
            bytes::telemetry::bytes_copied(),
            copied0,
            "bare view parse must not copy"
        );
        let v = MessageView::parse(&justified, &c).expect("valid");
        assert_eq!(v.justification_len(), 1);
        assert_eq!(
            bytes::telemetry::bytes_copied(),
            copied0,
            "justified view parse must not copy"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// View vs. owned codec on arbitrary (mostly invalid) byte
        /// strings: identical accept/reject verdicts, identical
        /// errors, identical materialized messages.
        #[test]
        fn view_and_decode_agree_on_arbitrary_bytes(
            raw in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..160),
        ) {
            let c = cfg();
            let owned = Message::decode(&raw, &c);
            let view = MessageView::parse(&raw, &c).map(|v| v.to_message());
            proptest::prop_assert_eq!(owned, view);
        }

        /// Round-trip parity on arbitrary *valid* messages, truncated
        /// at every prefix length.
        #[test]
        fn view_and_decode_agree_on_valid_messages_and_all_prefixes(
            sender in 0usize..7,
            phase in 1u32..1000,
            vsel in 0u8..3,
            coin in proptest::arbitrary::any::<bool>(),
            decided in proptest::arbitrary::any::<bool>(),
            just in proptest::collection::vec(
                (
                    0usize..7,
                    1u32..1000,
                    0u8..3,
                    proptest::arbitrary::any::<bool>(),
                    proptest::arbitrary::any::<bool>(),
                ),
                0..6,
            ),
        ) {
            let c = cfg();
            let value = [Value::Zero, Value::One, Value::Bot][vsel as usize];
            let m = Message {
                envelope: Envelope {
                    sender,
                    phase,
                    value,
                    coin_flip: coin,
                    status: if decided { Status::Decided } else { Status::Undecided },
                },
                signature: sig(9),
                justification: just
                    .into_iter()
                    .map(|(s, p, v, coin, decided)| {
                        let mut e = env(s, p, [Value::Zero, Value::One, Value::Bot][v as usize]);
                        e.coin_flip = coin;
                        if decided {
                            e.status = Status::Decided;
                        }
                        (e, sig(v))
                    })
                    .collect(),
            };
            let bytes = m.encode();
            let view = MessageView::parse(&bytes, &c).expect("valid message");
            proptest::prop_assert_eq!(view.to_message(), m);
            for cut in 0..bytes.len() {
                proptest::prop_assert_eq!(
                    Message::decode(&bytes[..cut], &c).err(),
                    MessageView::parse(&bytes[..cut], &c).err()
                );
            }
        }
    }
}
