//! Key material management: own one-time secret keys, everyone's
//! verification keys, and the key-exchange ceremony of §6.1.
//!
//! Each process holds, per key-exchange epoch, its own
//! [`KeyPairArray`] (secret + verification keys for `m` phases) and the
//! [`VerificationKeyArray`] of every other process. The first epoch's
//! arrays are distributed *offline together with the public keys* (the
//! paper's optimization); later epochs are distributed as
//! [`SignedVerificationKeys`] bundles signed with each process's
//! long-term hash-based identity key.

use std::fmt;
use std::sync::Arc;
use turquois_crypto::hashsig;
use turquois_crypto::otss::{
    KeyPairArray, OneTimeSignature, SignError, SignedVerificationKeys, Value, VerificationKeyArray,
};

use crate::message::Envelope;

/// Errors from keyring operations.
#[derive(Debug)]
pub enum KeyRingError {
    /// The verification-key set does not cover every process.
    WrongProcessCount {
        /// Expected process count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// A verification-key array is registered under the wrong process.
    ProcessMismatch {
        /// Index in the provided vector.
        index: usize,
        /// The array's embedded process id.
        embedded: usize,
    },
    /// An epoch extension does not start where the previous one ended.
    EpochGap {
        /// First phase expected for the new epoch.
        expected_first: u32,
        /// First phase provided.
        got_first: u32,
    },
    /// The signature on a distributed verification-key bundle failed.
    BadBundleSignature {
        /// The claimed owner.
        process: usize,
    },
    /// The epoch's own key array does not match this process id.
    NotOurKeys {
        /// This keyring's process.
        ours: usize,
        /// The array's embedded process id.
        theirs: usize,
    },
}

impl fmt::Display for KeyRingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyRingError::WrongProcessCount { expected, got } => {
                write!(f, "expected keys for {expected} processes, got {got}")
            }
            KeyRingError::ProcessMismatch { index, embedded } => {
                write!(f, "key array at index {index} belongs to process {embedded}")
            }
            KeyRingError::EpochGap {
                expected_first,
                got_first,
            } => write!(
                f,
                "epoch must start at phase {expected_first}, starts at {got_first}"
            ),
            KeyRingError::BadBundleSignature { process } => {
                write!(f, "invalid signature on key bundle from process {process}")
            }
            KeyRingError::NotOurKeys { ours, theirs } => {
                write!(f, "key array for process {theirs} given to process {ours}")
            }
        }
    }
}

impl std::error::Error for KeyRingError {}

/// One process's view of all key material.
#[derive(Clone)]
pub struct KeyRing {
    id: usize,
    n: usize,
    /// Own secret/verification arrays, one per epoch, contiguous phases.
    own_epochs: Vec<KeyPairArray>,
    /// `vks[p]` = process `p`'s verification arrays, one per epoch.
    ///
    /// Arrays are immutable once distributed, so they are `Arc`-shared:
    /// the `n` rings of a [`KeyRing::trusted_setup`] (and every clone a
    /// crash-rebuild takes) point at one copy of each array. Without
    /// sharing the setup is `O(n² · phases)` host memory — gigabytes at
    /// `n = 256` — for bytes that are identical in every ring.
    vks: Vec<Vec<Arc<VerificationKeyArray>>>,
}

impl fmt::Debug for KeyRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyRing")
            .field("id", &self.id)
            .field("n", &self.n)
            .field("epochs", &self.own_epochs.len())
            .field("max_phase", &self.max_phase())
            .finish()
    }
}

impl KeyRing {
    /// Assembles a keyring from the first epoch's material (distributed
    /// offline with the public keys, per the paper).
    ///
    /// The verification arrays come `Arc`-wrapped so the caller can hand
    /// the *same* allocations to every ring (see [`KeyRing::trusted_setup`]);
    /// wrap with `Arc::new` when material is not shared.
    ///
    /// # Errors
    ///
    /// Returns [`KeyRingError`] when the material is inconsistent.
    pub fn new(
        id: usize,
        own: KeyPairArray,
        all: Vec<Arc<VerificationKeyArray>>,
    ) -> Result<Self, KeyRingError> {
        let n = all.len();
        if own.verification_keys().process() != id {
            return Err(KeyRingError::NotOurKeys {
                ours: id,
                theirs: own.verification_keys().process(),
            });
        }
        for (index, vk) in all.iter().enumerate() {
            if vk.process() != index {
                return Err(KeyRingError::ProcessMismatch {
                    index,
                    embedded: vk.process(),
                });
            }
        }
        if n <= id {
            return Err(KeyRingError::WrongProcessCount {
                expected: id + 1,
                got: n,
            });
        }
        Ok(KeyRing {
            id,
            n,
            own_epochs: vec![own],
            vks: all.into_iter().map(|vk| vec![vk]).collect(),
        })
    }

    /// Trusted-setup ceremony for experiments and tests: generates one
    /// keyring per process, all covering phases `1..=num_phases`, derived
    /// from `seed`.
    ///
    /// All `n` rings share one `Arc` per verification array, so setup
    /// memory is `O(n · phases)` instead of the `O(n² · phases)` a
    /// per-ring copy would cost (~3.8 GB at `n = 256`, 600 phases).
    pub fn trusted_setup(n: usize, num_phases: usize, seed: u64) -> Vec<KeyRing> {
        let pairs: Vec<KeyPairArray> = (0..n)
            .map(|p| KeyPairArray::generate(p, num_phases, seed.wrapping_add(p as u64)))
            .collect();
        let all_vks: Vec<Arc<VerificationKeyArray>> = pairs
            .iter()
            .map(|kp| Arc::new(kp.verification_keys().clone()))
            .collect();
        pairs
            .into_iter()
            .enumerate()
            .map(|(id, own)| {
                KeyRing::new(id, own, all_vks.clone()).expect("setup material is consistent")
            })
            .collect()
    }

    /// This process's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Highest phase this process can sign for (its own epochs).
    pub fn max_phase(&self) -> u32 {
        self.own_epochs
            .last()
            .map(|e| e.verification_keys().last_phase())
            .unwrap_or(0)
    }

    /// Signs `(phase, value)` with the covering epoch's one-time key.
    ///
    /// # Errors
    ///
    /// Propagates [`SignError`] when `phase` is beyond the distributed
    /// epochs (re-key required) or the value is illegal for the phase.
    pub fn sign(&self, phase: u32, value: Value) -> Result<OneTimeSignature, SignError> {
        for epoch in &self.own_epochs {
            let vk = epoch.verification_keys();
            if phase >= vk.first_phase() && phase <= vk.last_phase() {
                return epoch.sign(phase, value);
            }
        }
        Err(SignError::PhaseOutOfRange {
            phase,
            first: 1,
            last: self.max_phase(),
        })
    }

    /// Verifies that `signature` authenticates `envelope`'s
    /// `(phase, value)` as originating from `envelope.sender`.
    ///
    /// Hashes the signature exactly once, then scans the sender's
    /// epochs newest-first against the precomputed hash: live traffic
    /// is almost always signed under the sender's current (latest)
    /// epoch, so the common case short-circuits on the first probe.
    /// Each epoch covers a disjoint phase range, so scan order cannot
    /// change the outcome.
    pub fn verify(&self, envelope: &Envelope, signature: &OneTimeSignature) -> bool {
        let sig_hash = turquois_crypto::sha256::sha256(&signature.0);
        self.vks.get(envelope.sender).is_some_and(|epochs| {
            epochs
                .iter()
                .rev()
                .any(|vk| vk.verify_hashed(envelope.phase, envelope.value, &sig_hash))
        })
    }

    /// A monotone fingerprint of the installed verification-key
    /// material: the total number of installed epochs across all
    /// processes. Both [`KeyRing::begin_epoch`] and
    /// [`KeyRing::install_epoch`] strictly increase it, so a memo cache
    /// over [`KeyRing::verify`] outcomes is stale exactly when this
    /// stamp changed (installing keys can flip a previous `false` to
    /// `true`; nothing ever flips `true` to `false`).
    pub fn epoch_stamp(&self) -> u64 {
        self.vks.iter().map(|epochs| epochs.len() as u64).sum()
    }

    /// Prepares this process's next key-exchange epoch: generates keys
    /// for `num_phases` further phases and signs the verification array
    /// with the long-term `identity` key. Own keys are installed
    /// immediately; the returned bundle is for dissemination.
    ///
    /// # Errors
    ///
    /// Propagates [`hashsig::SignError`] when the identity key is
    /// exhausted.
    pub fn begin_epoch(
        &mut self,
        num_phases: usize,
        seed: u64,
        identity: &mut hashsig::Keypair,
    ) -> Result<SignedVerificationKeys, hashsig::SignError> {
        let first = self.max_phase() + 1;
        let pair = KeyPairArray::generate_epoch(self.id, first, num_phases, seed);
        let bundle = SignedVerificationKeys::sign(pair.verification_keys().clone(), identity)?;
        self.own_epochs.push(pair);
        self.vks[self.id].push(Arc::new(bundle.keys.clone()));
        Ok(bundle)
    }

    /// Installs another process's next-epoch bundle after verifying its
    /// signature against that process's long-term public key.
    ///
    /// # Errors
    ///
    /// Returns [`KeyRingError::BadBundleSignature`] on forgery,
    /// [`KeyRingError::EpochGap`] when the epoch is not contiguous with
    /// the previous one, and [`KeyRingError::ProcessMismatch`] for
    /// out-of-range owners.
    pub fn install_epoch(
        &mut self,
        bundle: &SignedVerificationKeys,
        owner_public: &hashsig::PublicKey,
    ) -> Result<(), KeyRingError> {
        let process = bundle.keys.process();
        if process >= self.n {
            return Err(KeyRingError::ProcessMismatch {
                index: process,
                embedded: process,
            });
        }
        if !bundle.verify(owner_public) {
            return Err(KeyRingError::BadBundleSignature { process });
        }
        let epochs = &mut self.vks[process];
        let expected_first = epochs
            .last()
            .map(|e| e.last_phase() + 1)
            .unwrap_or(1);
        if bundle.keys.first_phase() != expected_first {
            return Err(KeyRingError::EpochGap {
                expected_first,
                got_first: bundle.keys.first_phase(),
            });
        }
        epochs.push(Arc::new(bundle.keys.clone()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Status;

    fn env(sender: usize, phase: u32, value: Value) -> Envelope {
        Envelope {
            sender,
            phase,
            value,
            coin_flip: false,
            status: Status::Undecided,
        }
    }

    #[test]
    fn trusted_setup_cross_verifies() {
        let rings = KeyRing::trusted_setup(4, 9, 7);
        assert_eq!(rings.len(), 4);
        let sig = rings[2].sign(5, Value::One).expect("in range");
        for ring in &rings {
            assert!(ring.verify(&env(2, 5, Value::One), &sig));
            assert!(!ring.verify(&env(1, 5, Value::One), &sig));
            assert!(!ring.verify(&env(2, 5, Value::Zero), &sig));
            assert!(!ring.verify(&env(2, 4, Value::One), &sig));
        }
    }

    #[test]
    fn sign_beyond_epochs_errors() {
        let rings = KeyRing::trusted_setup(4, 6, 7);
        assert!(rings[0].sign(6, Value::Zero).is_ok());
        assert!(matches!(
            rings[0].sign(7, Value::Zero),
            Err(SignError::PhaseOutOfRange { phase: 7, .. })
        ));
    }

    #[test]
    fn epoch_extension_round_trip() {
        let mut rings = KeyRing::trusted_setup(2, 3, 1);
        let mut identity0 = hashsig::Keypair::generate(2, 100);
        // Process 0 prepares epoch 2 (phases 4..=6).
        let ring0 = &mut rings[0];
        let bundle = ring0
            .begin_epoch(3, 55, &mut identity0)
            .expect("identity has leaves");
        assert_eq!(ring0.max_phase(), 6);
        let sig = ring0.sign(5, Value::One).expect("epoch 2 covers 5");

        // Process 1 cannot verify yet…
        assert!(!rings[1].verify(&env(0, 5, Value::One), &sig));
        // …until it installs the bundle.
        rings[1]
            .install_epoch(&bundle, identity0.public_key())
            .expect("genuine bundle");
        assert!(rings[1].verify(&env(0, 5, Value::One), &sig));
    }

    #[test]
    fn install_epoch_rejects_forged_bundle() {
        let mut rings = KeyRing::trusted_setup(2, 3, 1);
        let mut evil_identity = hashsig::Keypair::generate(2, 666);
        let honest_identity = hashsig::Keypair::generate(2, 100);
        // Attacker signs a bundle for process 0 with its own key.
        let pair = KeyPairArray::generate_epoch(0, 4, 3, 99);
        let bundle =
            SignedVerificationKeys::sign(pair.verification_keys().clone(), &mut evil_identity)
                .expect("leaves available");
        assert!(matches!(
            rings[1].install_epoch(&bundle, honest_identity.public_key()),
            Err(KeyRingError::BadBundleSignature { process: 0 })
        ));
    }

    #[test]
    fn install_epoch_rejects_gaps() {
        let mut rings = KeyRing::trusted_setup(2, 3, 1);
        let mut identity = hashsig::Keypair::generate(2, 100);
        // Epoch starting at phase 7 when 4 is expected.
        let pair = KeyPairArray::generate_epoch(0, 7, 3, 99);
        let bundle =
            SignedVerificationKeys::sign(pair.verification_keys().clone(), &mut identity)
                .expect("leaves available");
        assert!(matches!(
            rings[1].install_epoch(&bundle, identity.public_key()),
            Err(KeyRingError::EpochGap {
                expected_first: 4,
                got_first: 7
            })
        ));
    }

    #[test]
    fn new_validates_material() {
        let rings = KeyRing::trusted_setup(3, 3, 1);
        let own = KeyPairArray::generate(1, 3, 2);
        // Claiming id 0 with process-1 keys fails.
        let vks: Vec<Arc<VerificationKeyArray>> = (0..3)
            .map(|p| Arc::clone(&rings[p].vks[p][0]))
            .collect();
        assert!(matches!(
            KeyRing::new(0, own, vks),
            Err(KeyRingError::NotOurKeys { ours: 0, theirs: 1 })
        ));
    }

    #[test]
    fn verify_unknown_sender_is_false() {
        let rings = KeyRing::trusted_setup(2, 3, 1);
        let sig = rings[0].sign(1, Value::One).expect("in range");
        let bogus = Envelope {
            sender: 9,
            phase: 1,
            value: Value::One,
            coin_flip: false,
            status: Status::Undecided,
        };
        assert!(!rings[1].verify(&bogus, &sig));
    }

    #[test]
    fn debug_smoke() {
        let rings = KeyRing::trusted_setup(2, 3, 1);
        assert!(format!("{:?}", rings[0]).contains("KeyRing"));
    }
}
