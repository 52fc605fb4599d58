//! One-time hash-based message signatures (paper §6.1).
//!
//! Turquois authenticates the pair `(φ, v)` of every protocol message with
//! a scheme the paper claims is novel for agreement protocols: for each
//! phase `φ` and each possible proposal value `v ∈ {0, 1, ⊥}`, process
//! `p_i` pre-generates a random bit string `SK_i[φ][v]` (the secret key)
//! and publishes `VK_i[φ][v] = H(SK_i[φ][v])` (the verification key).
//! Broadcasting a message `⟨i, φ, v, status⟩` attaches `SK_i[φ][v]`;
//! receivers verify with a single hash. Because each secret authenticates
//! exactly one `(φ, v)` pair, revealing it cannot be abused to forge any
//! other message — and because the protocol never signs two different
//! values in the same phase, one-time use is inherent.
//!
//! Per the paper's footnote 3, `SK[φ][⊥]` is only generated when
//! `φ mod 3 = 0` (DECIDE phases), since `⊥` is a legal proposal value only
//! there.
//!
//! The verification-key arrays themselves must be distributed
//! authentically; the paper signs them with RSA over an out-of-band
//! channel. Here they are signed with the hash-based [`crate::hashsig`]
//! scheme (see `DESIGN.md` §4 for the substitution argument).

use crate::hashsig;
use crate::sha256::multilane::sha256_many;
use crate::sha256::{Digest, DIGEST_LEN};
use std::fmt;

/// Domain tag of a one-time secret-key derivation.
const SECRET_TAG: &[u8] = b"turquois-otss-v1";

/// Byte length of a derivation preimage:
/// `tag ‖ seed ‖ process ‖ phase ‖ value`.
const SECRET_PREIMAGE_LEN: usize = SECRET_TAG.len() + 8 + 8 + 4 + 1;

/// A proposal value as seen by the signature scheme: `0`, `1`, or `⊥`.
///
/// `⊥` ("bottom") expresses lack of preference and is a legal proposal
/// value only in DECIDE phases (`φ mod 3 = 0`).
#[derive(Clone, Copy, Debug, Eq, Hash, Ord, PartialEq, PartialOrd)]
pub enum Value {
    /// Binary zero.
    Zero,
    /// Binary one.
    One,
    /// No preference (`⊥`).
    Bot,
}

impl Value {
    /// All three values, in index order.
    pub const ALL: [Value; 3] = [Value::Zero, Value::One, Value::Bot];

    /// Index of this value in a 3-slot key row.
    pub fn index(self) -> usize {
        match self {
            Value::Zero => 0,
            Value::One => 1,
            Value::Bot => 2,
        }
    }

    /// Converts a binary `bool` proposal to a [`Value`].
    pub fn from_bit(bit: bool) -> Value {
        if bit {
            Value::One
        } else {
            Value::Zero
        }
    }

    /// Returns the binary value, or `None` for `⊥`.
    pub fn as_bit(self) -> Option<bool> {
        match self {
            Value::Zero => Some(false),
            Value::One => Some(true),
            Value::Bot => None,
        }
    }

    /// The opposite binary value; `⊥` maps to itself.
    ///
    /// Used by the Byzantine value-flipping adversary of paper §7.2.
    pub fn flipped(self) -> Value {
        match self {
            Value::Zero => Value::One,
            Value::One => Value::Zero,
            Value::Bot => Value::Bot,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Zero => f.write_str("0"),
            Value::One => f.write_str("1"),
            Value::Bot => f.write_str("⊥"),
        }
    }
}

/// Returns `true` when `⊥` is a legal proposal value at `phase`
/// (DECIDE phases, `φ mod 3 = 0`).
pub fn bot_legal_at(phase: u32) -> bool {
    phase.is_multiple_of(3)
}

/// A revealed one-time secret, attached to a message as its signature.
#[derive(Clone, Copy, Eq, PartialEq, Hash)]
pub struct OneTimeSignature(pub [u8; DIGEST_LEN]);

impl fmt::Debug for OneTimeSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OneTimeSignature({:02x}{:02x}…)", self.0[0], self.0[1])
    }
}

impl OneTimeSignature {
    /// The signature as raw bytes (wire form).
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }
}

/// Errors from one-time signing.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum SignError {
    /// The phase lies outside the range this key array covers.
    PhaseOutOfRange {
        /// Requested phase.
        phase: u32,
        /// First covered phase (inclusive).
        first: u32,
        /// Last covered phase (inclusive).
        last: u32,
    },
    /// `⊥` was requested in a phase where it is not a legal proposal.
    BotNotLegal {
        /// Requested phase.
        phase: u32,
    },
}

impl fmt::Display for SignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignError::PhaseOutOfRange { phase, first, last } => {
                write!(f, "phase {phase} outside key range [{first}, {last}]")
            }
            SignError::BotNotLegal { phase } => {
                write!(f, "⊥ is not a legal proposal value at phase {phase}")
            }
        }
    }
}

impl std::error::Error for SignError {}

/// The verification-key array `VK_i` of one process for one key-exchange
/// epoch: `VK_i[φ][v] = H(SK_i[φ][v])`.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct VerificationKeyArray {
    process: usize,
    first_phase: u32,
    /// `rows[r][v]` is the key for phase `first_phase + r`, value index
    /// `v`; the `⊥` slot of non-DECIDE phases holds `Digest::ZERO`.
    rows: Vec<[Digest; 3]>,
}

impl VerificationKeyArray {
    /// The process this array belongs to.
    pub fn process(&self) -> usize {
        self.process
    }

    /// First phase (inclusive) covered by this array.
    pub fn first_phase(&self) -> u32 {
        self.first_phase
    }

    /// Last phase (inclusive) covered by this array.
    pub fn last_phase(&self) -> u32 {
        self.first_phase + self.rows.len() as u32 - 1
    }

    /// Number of phases covered.
    pub fn num_phases(&self) -> usize {
        self.rows.len()
    }

    /// Verifies that `sig` authenticates `(phase, value)` for this
    /// process, i.e. `H(sig) == VK[phase][value]`.
    ///
    /// Returns `false` for out-of-range phases and for `⊥` in phases where
    /// it is not legal.
    pub fn verify(&self, phase: u32, value: Value, sig: &OneTimeSignature) -> bool {
        let Some(expected) = self.key(phase, value) else {
            return false;
        };
        crate::sha256::sha256(&sig.0) == expected
    }

    /// Like [`VerificationKeyArray::verify`] with `H(sig)` already
    /// computed, so a multi-epoch scan hashes each signature exactly
    /// once instead of once per epoch.
    pub fn verify_hashed(&self, phase: u32, value: Value, sig_hash: &Digest) -> bool {
        self.key(phase, value)
            .is_some_and(|expected| *sig_hash == expected)
    }

    /// Looks up `VK[phase][value]`, if that slot exists.
    pub fn key(&self, phase: u32, value: Value) -> Option<Digest> {
        if phase < self.first_phase {
            return None;
        }
        let row = (phase - self.first_phase) as usize;
        if row >= self.rows.len() {
            return None;
        }
        if value == Value::Bot && !bot_legal_at(phase) {
            return None;
        }
        Some(self.rows[row][value.index()])
    }

    /// Canonical byte encoding of the array, used as the message that the
    /// key-exchange signature covers.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.rows.len() * 3 * DIGEST_LEN);
        out.extend_from_slice(&(self.process as u64).to_be_bytes());
        out.extend_from_slice(&self.first_phase.to_be_bytes());
        out.extend_from_slice(&(self.rows.len() as u32).to_be_bytes());
        for row in &self.rows {
            for key in row {
                out.extend_from_slice(key.as_bytes());
            }
        }
        out
    }
}

/// A process's secret keys plus the matching verification keys for one
/// key-exchange epoch.
///
/// # Example
///
/// ```
/// use turquois_crypto::otss::{KeyPairArray, Value};
/// let keys = KeyPairArray::generate(0, 12, 7);
/// let sig = keys.sign(6, Value::Bot)?; // phase 6 is a DECIDE phase
/// assert!(keys.verification_keys().verify(6, Value::Bot, &sig));
/// # Ok::<(), turquois_crypto::otss::SignError>(())
/// ```
#[derive(Clone)]
pub struct KeyPairArray {
    secrets: Vec<[[u8; DIGEST_LEN]; 3]>,
    verification: VerificationKeyArray,
}

impl fmt::Debug for KeyPairArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyPairArray")
            .field("process", &self.verification.process)
            .field("first_phase", &self.verification.first_phase)
            .field("num_phases", &self.verification.rows.len())
            .finish_non_exhaustive()
    }
}

impl KeyPairArray {
    /// Generates keys for `num_phases` phases starting at phase 1
    /// (epoch 1).
    ///
    /// Secret keys are derived deterministically from `seed` via a keyed
    /// hash chain, so tests and the simulator are reproducible; in a real
    /// deployment the seed would come from the OS entropy pool.
    pub fn generate(process: usize, num_phases: usize, seed: u64) -> Self {
        Self::generate_epoch(process, 1, num_phases, seed)
    }

    /// Generates keys for the epoch starting at `first_phase` and covering
    /// `num_phases` phases.
    ///
    /// # Panics
    ///
    /// Panics if `first_phase == 0` (phases are 1-based) or
    /// `num_phases == 0`.
    pub fn generate_epoch(process: usize, first_phase: u32, num_phases: usize, seed: u64) -> Self {
        assert!(first_phase >= 1, "phases are 1-based");
        assert!(num_phases >= 1, "a key array must cover at least one phase");
        // Every legal slot is an independent single-block derivation
        // followed by an independent verification hash, so two lane
        // batches cover the whole epoch (paper footnote 3 still skips
        // the ⊥ slot of non-DECIDE phases).
        let mut slots: Vec<(usize, Value)> = Vec::with_capacity(num_phases * 3);
        let mut preimages: Vec<[u8; SECRET_PREIMAGE_LEN]> = Vec::with_capacity(num_phases * 3);
        for r in 0..num_phases {
            let phase = first_phase + r as u32;
            for value in Value::ALL {
                if value == Value::Bot && !bot_legal_at(phase) {
                    continue;
                }
                slots.push((r, value));
                preimages.push(secret_preimage(seed, process, phase, value));
            }
        }
        let refs: Vec<&[u8]> = preimages.iter().map(|p| &p[..]).collect();
        let sks = sha256_many(&refs);
        let sk_refs: Vec<&[u8]> = sks.iter().map(Digest::as_bytes).collect();
        let vks = sha256_many(&sk_refs);
        let mut secrets = vec![[[0u8; DIGEST_LEN]; 3]; num_phases];
        let mut rows = vec![[Digest::ZERO; 3]; num_phases];
        for ((&(r, value), sk), vk) in slots.iter().zip(&sks).zip(&vks) {
            secrets[r][value.index()] = sk.0;
            rows[r][value.index()] = *vk;
        }
        KeyPairArray {
            secrets,
            verification: VerificationKeyArray {
                process,
                first_phase,
                rows,
            },
        }
    }

    /// The public half of the key material.
    pub fn verification_keys(&self) -> &VerificationKeyArray {
        &self.verification
    }

    /// Signs `(phase, value)` by revealing the corresponding secret key.
    ///
    /// # Errors
    ///
    /// Returns [`SignError::PhaseOutOfRange`] if `phase` is not covered by
    /// this epoch, or [`SignError::BotNotLegal`] when signing `⊥` in a
    /// non-DECIDE phase.
    pub fn sign(&self, phase: u32, value: Value) -> Result<OneTimeSignature, SignError> {
        let first = self.verification.first_phase;
        let last = self.verification.last_phase();
        if phase < first || phase > last {
            return Err(SignError::PhaseOutOfRange { phase, first, last });
        }
        if value == Value::Bot && !bot_legal_at(phase) {
            return Err(SignError::BotNotLegal { phase });
        }
        let row = (phase - first) as usize;
        Ok(OneTimeSignature(self.secrets[row][value.index()]))
    }
}

/// Builds the derivation preimage of one one-time secret. The scalar
/// oracle ([`crate::sha256::sha256_domain`] over the same tag and
/// parts) and the lane batch hash exactly these bytes.
fn secret_preimage(seed: u64, process: usize, phase: u32, value: Value) -> [u8; SECRET_PREIMAGE_LEN] {
    let mut p = [0u8; SECRET_PREIMAGE_LEN];
    let t = SECRET_TAG.len();
    p[..t].copy_from_slice(SECRET_TAG);
    p[t..t + 8].copy_from_slice(&seed.to_be_bytes());
    p[t + 8..t + 16].copy_from_slice(&(process as u64).to_be_bytes());
    p[t + 16..t + 20].copy_from_slice(&phase.to_be_bytes());
    p[t + 20] = value.index() as u8;
    p
}

/// A verification-key array together with the key-exchange signature that
/// authenticates it (paper §6.1, "Key Exchange").
///
/// The paper signs `VK_i` with RSA; the reproduction uses the hash-based
/// [`crate::hashsig`] scheme (see `DESIGN.md` §4).
#[derive(Clone, Debug)]
pub struct SignedVerificationKeys {
    /// The verification keys being distributed.
    pub keys: VerificationKeyArray,
    /// Signature over [`VerificationKeyArray::canonical_bytes`].
    pub signature: hashsig::Signature,
}

impl SignedVerificationKeys {
    /// Signs `keys` with the long-term identity key of the owning process.
    ///
    /// # Errors
    ///
    /// Propagates [`hashsig::SignError`] if the identity key has exhausted
    /// its one-time leaves.
    pub fn sign(
        keys: VerificationKeyArray,
        identity: &mut hashsig::Keypair,
    ) -> Result<Self, hashsig::SignError> {
        let signature = identity.sign(&keys.canonical_bytes())?;
        Ok(SignedVerificationKeys { keys, signature })
    }

    /// Verifies the bundle against the claimed owner's long-term public
    /// key.
    pub fn verify(&self, owner_public: &hashsig::PublicKey) -> bool {
        owner_public.verify(&self.keys.canonical_bytes(), &self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip_all_slots() {
        let keys = KeyPairArray::generate(3, 9, 99);
        for phase in 1..=9u32 {
            for value in Value::ALL {
                if value == Value::Bot && !bot_legal_at(phase) {
                    assert_eq!(
                        keys.sign(phase, value),
                        Err(SignError::BotNotLegal { phase })
                    );
                    continue;
                }
                let sig = keys.sign(phase, value).expect("slot exists");
                assert!(keys.verification_keys().verify(phase, value, &sig));
            }
        }
    }

    #[test]
    fn signature_does_not_transfer_between_slots() {
        let keys = KeyPairArray::generate(0, 6, 1);
        let sig = keys.sign(2, Value::One).expect("in range");
        let vk = keys.verification_keys();
        assert!(vk.verify(2, Value::One, &sig));
        assert!(!vk.verify(2, Value::Zero, &sig));
        assert!(!vk.verify(1, Value::One, &sig));
        assert!(!vk.verify(5, Value::One, &sig));
    }

    #[test]
    fn signature_does_not_transfer_between_processes() {
        let a = KeyPairArray::generate(0, 6, 1);
        let b = KeyPairArray::generate(1, 6, 1);
        let sig = a.sign(4, Value::Zero).expect("in range");
        assert!(!b.verification_keys().verify(4, Value::Zero, &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let keys = KeyPairArray::generate(0, 3, 5);
        let mut sig = keys.sign(1, Value::Zero).expect("in range");
        sig.0[0] ^= 1;
        assert!(!keys.verification_keys().verify(1, Value::Zero, &sig));
    }

    #[test]
    fn phase_out_of_range_errors() {
        let keys = KeyPairArray::generate_epoch(0, 4, 3, 5); // phases 4..=6
        assert!(keys.sign(4, Value::Zero).is_ok());
        assert!(keys.sign(6, Value::Zero).is_ok());
        assert_eq!(
            keys.sign(3, Value::Zero),
            Err(SignError::PhaseOutOfRange {
                phase: 3,
                first: 4,
                last: 6
            })
        );
        assert_eq!(
            keys.sign(7, Value::Zero),
            Err(SignError::PhaseOutOfRange {
                phase: 7,
                first: 4,
                last: 6
            })
        );
    }

    #[test]
    fn bot_only_in_decide_phases() {
        let keys = KeyPairArray::generate(0, 9, 5);
        let vk = keys.verification_keys();
        for phase in 1..=9u32 {
            assert_eq!(vk.key(phase, Value::Bot).is_some(), phase % 3 == 0);
        }
    }

    #[test]
    fn different_seeds_different_keys() {
        let a = KeyPairArray::generate(0, 3, 1);
        let b = KeyPairArray::generate(0, 3, 2);
        assert_ne!(
            a.verification_keys().key(1, Value::Zero),
            b.verification_keys().key(1, Value::Zero)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = KeyPairArray::generate(2, 5, 77);
        let b = KeyPairArray::generate(2, 5, 77);
        assert_eq!(a.verification_keys(), b.verification_keys());
    }

    #[test]
    fn scalar_and_batched_keygen_agree() {
        use crate::sha256::multilane::with_scalar;
        let scalar = with_scalar(|| KeyPairArray::generate_epoch(3, 4, 9, 123));
        let lanes = KeyPairArray::generate_epoch(3, 4, 9, 123);
        assert_eq!(scalar.verification_keys(), lanes.verification_keys());
        assert_eq!(scalar.secrets, lanes.secrets);
    }

    #[test]
    fn verify_hashed_matches_verify() {
        let keys = KeyPairArray::generate(0, 6, 8);
        let vk = keys.verification_keys();
        let sig = keys.sign(2, Value::One).expect("in range");
        let hash = crate::sha256::sha256(&sig.0);
        assert!(vk.verify_hashed(2, Value::One, &hash));
        assert!(!vk.verify_hashed(2, Value::Zero, &hash));
        assert!(!vk.verify_hashed(1, Value::Bot, &hash));
        assert!(!vk.verify_hashed(99, Value::One, &hash));
    }

    #[test]
    fn signed_bundle_round_trip() {
        let keys = KeyPairArray::generate(1, 6, 3);
        let mut identity = hashsig::Keypair::generate(4, 11);
        let bundle = SignedVerificationKeys::sign(keys.verification_keys().clone(), &mut identity)
            .expect("leaves available");
        assert!(bundle.verify(identity.public_key()));

        let other = hashsig::Keypair::generate(4, 12);
        assert!(!bundle.verify(other.public_key()));
    }

    #[test]
    fn signed_bundle_detects_key_substitution() {
        let keys = KeyPairArray::generate(1, 6, 3);
        let mut identity = hashsig::Keypair::generate(4, 11);
        let mut bundle =
            SignedVerificationKeys::sign(keys.verification_keys().clone(), &mut identity)
                .expect("leaves available");
        // Attacker swaps in their own verification keys.
        let evil = KeyPairArray::generate(1, 6, 666);
        bundle.keys = evil.verification_keys().clone();
        assert!(!bundle.verify(identity.public_key()));
    }

    #[test]
    fn value_helpers() {
        assert_eq!(Value::from_bit(true), Value::One);
        assert_eq!(Value::from_bit(false), Value::Zero);
        assert_eq!(Value::One.as_bit(), Some(true));
        assert_eq!(Value::Bot.as_bit(), None);
        assert_eq!(Value::Zero.flipped(), Value::One);
        assert_eq!(Value::Bot.flipped(), Value::Bot);
        assert_eq!(format!("{}", Value::Bot), "⊥");
    }

    #[test]
    fn canonical_bytes_distinguish_arrays() {
        let a = KeyPairArray::generate(0, 3, 1);
        let b = KeyPairArray::generate(1, 3, 1);
        assert_ne!(
            a.verification_keys().canonical_bytes(),
            b.verification_keys().canonical_bytes()
        );
    }
}
