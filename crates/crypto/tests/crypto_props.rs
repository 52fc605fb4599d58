//! Property tests for the cryptographic substrate.

use proptest::prelude::*;
use turquois_crypto::hashsig;
use turquois_crypto::hmac::HmacKey;
use turquois_crypto::otss::{KeyPairArray, OneTimeSignature, Value};
use turquois_crypto::sha256::multilane::sha256_many;
use turquois_crypto::sha256::{sha256, Digest, Sha256};
use turquois_crypto::threshold::Dealer;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental hashing equals one-shot hashing for any split.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..512),
        splits in prop::collection::vec(any::<u16>(), 0..4),
    ) {
        let oneshot = sha256(&data);
        let mut h = Sha256::new();
        let mut at = 0usize;
        let mut cuts: Vec<usize> = splits
            .iter()
            .map(|&s| s as usize % (data.len() + 1))
            .collect();
        cuts.sort_unstable();
        for cut in cuts {
            if cut > at {
                h.update(&data[at..cut]);
                at = cut;
            }
        }
        h.update(&data[at..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    /// The multi-lane batch digest equals the scalar one-shot digest on
    /// every input of any ragged batch: arbitrary batch sizes (covering
    /// the 8-wide drain, the 4-lane and 8-lane remainder paths with
    /// dummy lanes, and the singleton scalar path) over arbitrary
    /// lengths (covering 1- and 2-block padded tails and multi-block
    /// messages that group by block count).
    #[test]
    fn sha256_many_matches_scalar_oneshot(
        inputs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 0..20),
    ) {
        let refs: Vec<&[u8]> = inputs.iter().map(|v| &v[..]).collect();
        let batched = sha256_many(&refs);
        prop_assert_eq!(batched.len(), inputs.len());
        for (input, digest) in inputs.iter().zip(&batched) {
            prop_assert_eq!(*digest, sha256(input));
        }
    }

    /// Hex round-trips.
    #[test]
    fn digest_hex_round_trip(bytes in any::<[u8; 32]>()) {
        let d = Digest(bytes);
        prop_assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    /// HMAC verification rejects every single-byte tamper of message or
    /// tag.
    #[test]
    fn hmac_rejects_tampering(
        key in prop::collection::vec(any::<u8>(), 1..64),
        msg in prop::collection::vec(any::<u8>(), 1..128),
        flip_at in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let k = HmacKey::from_bytes(&key);
        let tag = k.mac(&msg);
        prop_assert!(k.verify(&msg, &tag));
        let mut tampered = msg.clone();
        let i = flip_at as usize % tampered.len();
        tampered[i] ^= 1 << flip_bit;
        prop_assert!(!k.verify(&tampered, &tag));
    }

    /// A one-time signature authenticates exactly its (phase, value)
    /// slot: any other slot rejects it, and any bit-flip of the secret
    /// rejects.
    #[test]
    fn otss_signature_slot_binding(
        seed in any::<u64>(),
        phase in 1u32..30,
        value_idx in 0usize..2,
        other_phase in 1u32..30,
        flip in any::<u8>(),
    ) {
        let keys = KeyPairArray::generate(0, 30, seed);
        let value = [Value::Zero, Value::One][value_idx];
        let sig = keys.sign(phase, value).expect("in range");
        let vk = keys.verification_keys();
        prop_assert!(vk.verify(phase, value, &sig));
        prop_assert!(!vk.verify(phase, value.flipped(), &sig));
        if other_phase != phase {
            prop_assert!(!vk.verify(other_phase, value, &sig));
        }
        let mut bad = sig;
        bad.0[(flip as usize) % 32] ^= 1 | (flip & 0xfe);
        if bad != sig {
            prop_assert!(!vk.verify(phase, value, &bad));
        }
    }

    /// Guessing a one-time signature from random bytes fails.
    #[test]
    fn otss_random_forgery_fails(seed in any::<u64>(), guess in any::<[u8; 32]>()) {
        let keys = KeyPairArray::generate(1, 6, seed);
        let vk = keys.verification_keys();
        prop_assert!(!vk.verify(1, Value::Zero, &OneTimeSignature(guess)));
    }

    /// Merkle–Lamport signatures reject any message tamper.
    #[test]
    fn hashsig_message_binding(
        seed in any::<u64>(),
        msg in prop::collection::vec(any::<u8>(), 1..64),
        flip_at in any::<u16>(),
    ) {
        let mut kp = hashsig::Keypair::generate(1, seed);
        let sig = kp.sign(&msg).expect("fresh leaves");
        prop_assert!(kp.public_key().verify(&msg, &sig));
        let mut tampered = msg.clone();
        let i = flip_at as usize % tampered.len();
        tampered[i] ^= 0x40;
        prop_assert!(!kp.public_key().verify(&tampered, &sig));
    }

    /// Threshold combination succeeds iff ≥ threshold distinct valid
    /// shares participate, and the combined signature verifies.
    #[test]
    fn threshold_combination_threshold_exact(
        seed in any::<u64>(),
        provided in 0usize..8,
    ) {
        let (public, keys) = Dealer::deal(7, 5, seed);
        let msg = b"statement";
        let shares: Vec<_> = keys.iter().take(provided.min(7)).map(|k| k.sign_share(msg)).collect();
        match public.combine(msg, &shares) {
            Ok(sig) => {
                prop_assert!(shares.len() >= 5);
                prop_assert!(public.verify(msg, &sig));
            }
            Err(_) => prop_assert!(shares.len() < 5),
        }
    }

    /// The shared coin is consistent across any share subset of
    /// sufficient size.
    #[test]
    fn coin_subset_independence(seed in any::<u64>(), tag in prop::collection::vec(any::<u8>(), 1..16)) {
        let (public, keys) = Dealer::deal(7, 3, seed);
        let all: Vec<_> = keys.iter().map(|k| k.coin_share(&tag)).collect();
        let a = public.combine_coin(&tag, &all[..3]).expect("threshold met");
        let b = public.combine_coin(&tag, &all[4..]).expect("threshold met");
        prop_assert_eq!(a, b);
    }
}
