//! HMAC-SHA256 (RFC 2104).
//!
//! The paper's Bracha implementation authenticates its point-to-point
//! channels with the IPSec Authentication Header. In the reproduction the
//! same role — a per-link symmetric authenticator attached to every unicast
//! message — is played by HMAC-SHA256 with pairwise keys distributed before
//! the protocol starts, exactly as the paper distributes its security
//! associations.

use crate::sha256::{Digest, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// XORs the RFC 2104 inner/outer pad constants into the key block.
fn pads(block: &[u8; BLOCK_LEN]) -> ([u8; BLOCK_LEN], [u8; BLOCK_LEN]) {
    let mut ipad = [0x36u8; BLOCK_LEN];
    let mut opad = [0x5cu8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] ^= block[i];
        opad[i] ^= block[i];
    }
    (ipad, opad)
}

/// A symmetric key for HMAC-SHA256.
///
/// # Example
///
/// ```
/// use turquois_crypto::hmac::HmacKey;
/// let key = HmacKey::from_bytes(b"pairwise secret");
/// let tag = key.mac(b"message");
/// assert!(key.verify(b"message", &tag));
/// assert!(!key.verify(b"tampered", &tag));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    /// Key padded/hashed to the block length, per RFC 2104.
    block: [u8; BLOCK_LEN],
    /// Compression state after absorbing the ipad block — the first
    /// SHA-256 block of every inner hash this key will ever compute.
    inner_mid: [u32; 8],
    /// Compression state after absorbing the opad block.
    outer_mid: [u32; 8],
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("HmacKey(..)")
    }
}

impl HmacKey {
    /// Derives an HMAC key from arbitrary key material.
    ///
    /// Keys longer than the SHA-256 block size are first hashed, as RFC
    /// 2104 requires.
    pub fn from_bytes(material: &[u8]) -> Self {
        let mut block = [0u8; BLOCK_LEN];
        if material.len() > BLOCK_LEN {
            let d = crate::sha256::sha256(material);
            block[..DIGEST_LEN].copy_from_slice(d.as_bytes());
        } else {
            block[..material.len()].copy_from_slice(material);
        }
        let (ipad, opad) = pads(&block);
        // Cache the pad-block compression states once per key: every
        // inner hash starts with the ipad block and every outer hash
        // with the opad block, so `mac_parts` can resume from these
        // midstates instead of re-compressing both pads on every tag.
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey {
            block,
            inner_mid: inner.midstate(),
            outer_mid: outer.midstate(),
        }
    }

    /// Computes the HMAC tag over `message`.
    pub fn mac(&self, message: &[u8]) -> Digest {
        self.mac_parts(&[message])
    }

    /// Computes the HMAC tag over the concatenation of `parts` without
    /// allocating.
    ///
    /// Resumes from the per-key cached pad midstates when verification
    /// memoization is enabled (saving the two pad compressions per tag),
    /// and recomputes both pads from scratch when it is disabled — the
    /// two paths are bit-identical.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        if crate::telemetry::memo_enabled() {
            self.mac_parts_resumed(parts)
        } else {
            self.mac_parts_scratch(parts)
        }
    }

    /// Fast path: both pad blocks come from the midstates cached at key
    /// construction, so only the message itself is compressed.
    fn mac_parts_resumed(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = Sha256::from_midstate(self.inner_mid, BLOCK_LEN as u64);
        for p in parts {
            inner.update(p);
        }
        let inner_digest = inner.finalize();
        let mut outer = Sha256::from_midstate(self.outer_mid, BLOCK_LEN as u64);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// Reference path: the textbook RFC 2104 computation, re-absorbing
    /// the ipad and opad blocks on every call.
    fn mac_parts_scratch(&self, parts: &[&[u8]]) -> Digest {
        let (ipad, opad) = pads(&self.block);
        let mut inner = Sha256::new();
        inner.update(&ipad);
        for p in parts {
            inner.update(p);
        }
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&opad);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// Verifies `tag` against `message` in constant time.
    pub fn verify(&self, message: &[u8], tag: &Digest) -> bool {
        // Digest::eq is constant-time.
        self.mac(message) == *tag
    }

    /// Verifies a truncated tag (e.g. the 96-bit ICV of IPSec AH's
    /// HMAC-SHA-96) in constant time.
    pub fn verify_truncated(&self, message: &[u8], tag: &[u8]) -> bool {
        let full = self.mac(message);
        if tag.is_empty() || tag.len() > full.0.len() {
            return false;
        }
        let mut diff = 0u8;
        for (a, b) in full.0.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// Derives the pairwise HMAC key for the unordered node pair `{a, b}`
/// from the run's pre-distribution `seed` (the paper establishes IPSec
/// security associations between every pair before the run starts).
///
/// The derivation is a pure function of `(seed, min(a, b), max(a, b))`
/// — symmetric, so both endpoints of a link derive the same key, and
/// independent of *when* it runs, so an adapter may derive keys eagerly
/// at setup or lazily on first use of a link with bit-identical results
/// (DESIGN.md §10).
pub fn pairwise_key(seed: u64, a: usize, b: usize) -> HmacKey {
    let (lo, hi) = (a.min(b), a.max(b));
    let material = crate::sha256::sha256_concat(&[
        b"turquois-pairwise",
        &seed.to_be_bytes(),
        &(lo as u64).to_be_bytes(),
        &(hi as u64).to_be_bytes(),
    ]);
    HmacKey::from_bytes(material.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Digest;

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = HmacKey::from_bytes(&[0x0b; 20]);
        let tag = key.mac(b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let key = HmacKey::from_bytes(b"Jefe");
        let tag = key.mac(b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let key = HmacKey::from_bytes(&[0xaa; 20]);
        let tag = key.mac(&[0xdd; 50]);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = HmacKey::from_bytes(&[0xaa; 131]);
        let tag = key.mac(b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let key = HmacKey::from_bytes(b"k");
        let tag = key.mac(b"payload");
        assert!(key.verify(b"payload", &tag));
        assert!(!key.verify(b"payloae", &tag));
        assert!(!key.verify(b"payload", &Digest::ZERO));
    }

    #[test]
    fn different_keys_different_tags() {
        let k1 = HmacKey::from_bytes(b"alpha");
        let k2 = HmacKey::from_bytes(b"beta");
        assert_ne!(k1.mac(b"m"), k2.mac(b"m"));
    }

    #[test]
    fn mac_parts_matches_contiguous() {
        let key = HmacKey::from_bytes(b"k");
        assert_eq!(key.mac_parts(&[b"ab", b"cd"]), key.mac(b"abcd"));
    }

    #[test]
    fn truncated_verify() {
        let key = HmacKey::from_bytes(b"k");
        let tag = key.mac(b"msg");
        assert!(key.verify_truncated(b"msg", &tag.0[..12]));
        assert!(!key.verify_truncated(b"other", &tag.0[..12]));
        let mut bad = tag.0[..12].to_vec();
        bad[0] ^= 1;
        assert!(!key.verify_truncated(b"msg", &bad));
        assert!(!key.verify_truncated(b"msg", &[]));
        assert!(!key.verify_truncated(b"msg", &[0u8; 33]));
    }

    /// The midstate-resumed fast path and the scratch reference path
    /// must be bit-identical for every key/message shape, including
    /// messages that straddle block boundaries and long-key hashing.
    #[test]
    fn resumed_matches_scratch() {
        let keys = [
            HmacKey::from_bytes(b""),
            HmacKey::from_bytes(b"Jefe"),
            HmacKey::from_bytes(&[0xaa; 64]),
            HmacKey::from_bytes(&[0xaa; 131]),
        ];
        let messages: Vec<Vec<u8>> = [0usize, 1, 55, 56, 63, 64, 65, 200]
            .iter()
            .map(|&len| (0..len).map(|i| i as u8).collect())
            .collect();
        for key in &keys {
            for m in &messages {
                assert_eq!(
                    key.mac_parts_resumed(&[m]),
                    key.mac_parts_scratch(&[m]),
                    "paths diverged for message length {}",
                    m.len()
                );
                // Split delivery must not matter on either path.
                let mid = m.len() / 2;
                assert_eq!(
                    key.mac_parts_resumed(&[&m[..mid], &m[mid..]]),
                    key.mac_parts_scratch(&[m])
                );
            }
        }
    }

    #[test]
    fn debug_hides_key() {
        let key = HmacKey::from_bytes(b"topsecret");
        assert_eq!(format!("{key:?}"), "HmacKey(..)");
    }

    #[test]
    fn pairwise_key_symmetric_and_distinct() {
        // Symmetric in the pair, sensitive to pair and seed.
        assert_eq!(pairwise_key(7, 0, 3).mac(b"m"), pairwise_key(7, 3, 0).mac(b"m"));
        assert_ne!(pairwise_key(7, 0, 1).mac(b"m"), pairwise_key(7, 0, 2).mac(b"m"));
        assert_ne!(pairwise_key(7, 0, 1).mac(b"m"), pairwise_key(8, 0, 1).mac(b"m"));
    }
}
