//! Portable multi-lane SHA-256 compression (DESIGN.md §12).
//!
//! The scalar kernel in [`super`] processes one 64-byte block at a
//! time. Some single computations, however, produce their own batch of
//! *independent* short messages: the 256 revealed Lamport secrets of a
//! hash-chain signature, the secrets and per-level Merkle nodes of a
//! key generation, the per-slot one-time-key derivations of an epoch.
//! This module runs up to eight such digests in lockstep through a
//! struct-of-arrays compressor — every round variable is a
//! `[u32; LANES]` and every operation an elementwise loop over the
//! lanes, the shape rustc's autovectorizer turns into SIMD on any
//! target without `unsafe` or intrinsics.
//!
//! Determinism contract: the lane kernel computes bit-identical digests
//! to the scalar kernel (same FIPS 180-4 rounds, same padding); the
//! unit tests compare the two engines directly, forcing the scalar one
//! through a test-only per-thread override. Batching is host-only
//! restructuring: simulated CPU is charged per logical operation by
//! [`crate::cost::CostModel`] regardless of which engine ran.

use super::{Digest, DIGEST_LEN, H0, K};

#[cfg(test)]
thread_local! {
    static FORCE_SCALAR: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every [`sha256_many`] call on this thread routed to
/// the scalar kernel — the reference the lane engine is tested against.
#[cfg(test)]
pub(crate) fn with_scalar<R>(f: impl FnOnce() -> R) -> R {
    let previous = FORCE_SCALAR.with(|c| c.replace(true));
    let out = f();
    FORCE_SCALAR.with(|c| c.set(previous));
    out
}

/// Padded blocks a message compresses into.
#[inline]
fn padded_blocks(len: usize) -> usize {
    (len + 9).div_ceil(64)
}

/// Digests each input independently, lane-batched, preserving input
/// order. Bit-identical to mapping [`super::sha256`] over `inputs`.
///
/// Inputs are grouped by padded block count so grouped lanes stay in
/// lockstep; each group drains through 8-wide lanes, with the ragged
/// remainder taking 4-wide (2–4 inputs, padding with dummy lanes),
/// 8-wide (5–7 inputs), or the scalar kernel (1 input).
pub fn sha256_many(inputs: &[&[u8]]) -> Vec<Digest> {
    #[cfg(test)]
    if FORCE_SCALAR.with(std::cell::Cell::get) {
        return inputs.iter().map(|msg| super::sha256(msg)).collect();
    }
    let mut out = vec![Digest::ZERO; inputs.len()];
    let mut order: Vec<u32> = (0..inputs.len() as u32).collect();
    order.sort_by_key(|&i| padded_blocks(inputs[i as usize].len()));
    let mut start = 0;
    while start < order.len() {
        let nblocks = padded_blocks(inputs[order[start] as usize].len());
        let mut end = start + 1;
        while end < order.len() && padded_blocks(inputs[order[end] as usize].len()) == nblocks {
            end += 1;
        }
        run_group(inputs, &order[start..end], nblocks, &mut out);
        start = end;
    }
    out
}

/// Drains one equal-block-count group through the widest fitting lanes.
fn run_group(inputs: &[&[u8]], idxs: &[u32], nblocks: usize, out: &mut [Digest]) {
    let mut rest = idxs;
    while rest.len() >= 8 {
        run_lanes::<8>(inputs, &rest[..8], nblocks, out);
        rest = &rest[8..];
    }
    match rest.len() {
        0 => {}
        1 => out[rest[0] as usize] = super::sha256(inputs[rest[0] as usize]),
        2..=4 => run_lanes::<4>(inputs, rest, nblocks, out),
        _ => run_lanes::<8>(inputs, rest, nblocks, out),
    }
}

/// Returns block `blk` of a padded message: streamed by reference
/// from the message while full blocks last, then from the padded tail.
#[inline]
fn block_at<'b>(msg: &'b [u8], tail: &'b [u8; 128], blk: usize) -> &'b [u8; 64] {
    let pure = msg.len() / 64;
    if blk < pure {
        msg[blk * 64..(blk + 1) * 64]
            .try_into()
            .expect("64-byte block")
    } else {
        let off = (blk - pure) * 64;
        tail[off..off + 64].try_into().expect("64-byte block")
    }
}

/// Builds a message's padding tail (its final one or two blocks):
/// leftover message bytes, 0x80, zeros, 64-bit big-endian bit length —
/// byte-identical to [`super::Sha256::finalize`]'s padding.
fn padded_tail(msg: &[u8]) -> [u8; 128] {
    let mut tail = [0u8; 128];
    let rem = msg.len() % 64;
    tail[..rem].copy_from_slice(&msg[msg.len() - rem..]);
    tail[rem] = 0x80;
    let tail_blocks = if rem < 56 { 1 } else { 2 };
    let total_bits = (msg.len() as u64).wrapping_mul(8);
    tail[tail_blocks * 64 - 8..tail_blocks * 64].copy_from_slice(&total_bits.to_be_bytes());
    tail
}

/// Runs up to `L` same-length messages through the `L`-lane kernel.
/// Unused lanes replay lane 0's blocks (their results are discarded);
/// only real lanes count as SHA blocks in telemetry.
fn run_lanes<const L: usize>(inputs: &[&[u8]], idxs: &[u32], nblocks: usize, out: &mut [Digest]) {
    debug_assert!(!idxs.is_empty() && idxs.len() <= L);
    let real = idxs.len();
    let lane_msg = |lane: usize| inputs[idxs[lane.min(real - 1)] as usize];
    let tails: [[u8; 128]; L] = std::array::from_fn(|lane| padded_tail(lane_msg(lane)));
    let mut states: [[u32; L]; 8] = H0.map(|h| [h; L]);
    for blk in 0..nblocks {
        let blocks: [&[u8; 64]; L] =
            std::array::from_fn(|lane| block_at(lane_msg(lane), &tails[lane], blk));
        crate::telemetry::count_lane_compress(real as u64, L as u64);
        compress_wide::<L>(&mut states, &blocks);
    }
    for (lane, &idx) in idxs.iter().enumerate() {
        let mut bytes = [0u8; DIGEST_LEN];
        for (word, chunk) in states.iter().zip(bytes.chunks_exact_mut(4)) {
            chunk.copy_from_slice(&word[lane].to_be_bytes());
        }
        out[idx as usize] = Digest(bytes);
    }
}

/// Dispatches one `L`-lane compression to the widest engine the host
/// supports: on x86-64 with AVX2 (runtime-detected once, cached by
/// `std::arch`), the AVX2-recompiled copy of the portable kernel —
/// LLVM's cost model declines to vectorize the elementwise loops at
/// the baseline x86-64 feature set, but lowers the *same source* to
/// 256-bit SIMD when AVX2 is statically enabled (measured ~4–6× per
/// block on the `sha_lanes` bench). Everywhere else, the portable
/// build. Both are the same safe Rust function, so digests are
/// bit-identical by construction.
#[inline]
fn compress_wide<const L: usize>(state: &mut [[u32; L]; 8], blocks: &[&[u8; 64]; L]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the only requirement of the `#[target_feature]` copy
        // is that the host actually supports AVX2, which the detection
        // above just proved; the function body itself is safe code.
        #[allow(unsafe_code)]
        unsafe {
            return compress_wide_avx2::<L>(state, blocks);
        }
    }
    compress_wide_portable::<L>(state, blocks)
}

/// The portable lane kernel recompiled with AVX2 code generation (see
/// [`compress_wide`]; x86-64 only, called after runtime detection).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn compress_wide_avx2<const L: usize>(state: &mut [[u32; L]; 8], blocks: &[&[u8; 64]; L]) {
    compress_wide_portable::<L>(state, blocks)
}

/// One FIPS 180-4 compression round over `L` lanes at once.
///
/// Struct-of-arrays: every round variable is a `[u32; L]` and every
/// operation an elementwise loop, so rustc lowers the body to SIMD on
/// targets with 128-bit (`L = 4`) or 256-bit (`L = 8`) vector units.
/// Always called through [`compress_wide`], which picks the widest
/// recompilation of this same function the host supports.
#[inline(always)]
fn compress_wide_portable<const L: usize>(state: &mut [[u32; L]; 8], blocks: &[&[u8; 64]; L]) {
    let mut w = [[0u32; L]; 64];
    for (t, word) in w.iter_mut().take(16).enumerate() {
        for (lane, slot) in word.iter_mut().enumerate() {
            *slot = u32::from_be_bytes(blocks[lane][4 * t..4 * t + 4].try_into().expect("4 bytes"));
        }
    }
    for t in 16..64 {
        let mut wt = [0u32; L];
        for (lane, slot) in wt.iter_mut().enumerate() {
            let w15 = w[t - 15][lane];
            let w2 = w[t - 2][lane];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            *slot = w[t - 16][lane]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7][lane])
                .wrapping_add(s1);
        }
        w[t] = wt;
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (kt, wt) in K.iter().zip(w.iter()) {
        let mut t1 = [0u32; L];
        let mut t2 = [0u32; L];
        for lane in 0..L {
            let s1 = e[lane].rotate_right(6) ^ e[lane].rotate_right(11) ^ e[lane].rotate_right(25);
            let ch = (e[lane] & f[lane]) ^ (!e[lane] & g[lane]);
            t1[lane] = h[lane]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(*kt)
                .wrapping_add(wt[lane]);
            let s0 = a[lane].rotate_right(2) ^ a[lane].rotate_right(13) ^ a[lane].rotate_right(22);
            let maj = (a[lane] & b[lane]) ^ (a[lane] & c[lane]) ^ (b[lane] & c[lane]);
            t2[lane] = s0.wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        e = d;
        for lane in 0..L {
            e[lane] = e[lane].wrapping_add(t1[lane]);
        }
        d = c;
        c = b;
        b = a;
        a = t1;
        for lane in 0..L {
            a[lane] = a[lane].wrapping_add(t2[lane]);
        }
    }
    let sums = [a, b, c, d, e, f, g, h];
    for (word, sum) in state.iter_mut().zip(sums) {
        for lane in 0..L {
            word[lane] = word[lane].wrapping_add(sum[lane]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::sha256;
    use super::*;
    use crate::telemetry::HotpathSnapshot;

    /// Deterministic filler so tests don't need an RNG.
    fn patterned(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn matches_scalar_across_lengths_and_batch_sizes() {
        // Lengths straddle every padding boundary; batch sizes cover
        // scalar (1), exact 4- and 8-lane fits, and ragged remainders.
        let lengths = [0usize, 1, 31, 32, 55, 56, 63, 64, 65, 119, 120, 128, 200, 1000];
        for batch in 1..=19usize {
            let msgs: Vec<Vec<u8>> = (0..batch)
                .map(|i| patterned(lengths[i % lengths.len()], i as u8))
                .collect();
            let refs: Vec<&[u8]> = msgs.iter().map(|m| &m[..]).collect();
            let got = sha256_many(&refs);
            for (msg, digest) in msgs.iter().zip(&got) {
                assert_eq!(*digest, sha256(msg), "batch {batch} len {}", msg.len());
            }
        }
    }

    #[test]
    fn scalar_knob_forces_scalar_engine() {
        let msgs: Vec<Vec<u8>> = (0..8).map(|i| patterned(32, i)).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| &m[..]).collect();
        let before = HotpathSnapshot::now();
        let scalar_out = with_scalar(|| sha256_many(&refs));
        let scalar_delta = HotpathSnapshot::now().delta_since(&before);
        assert_eq!(scalar_delta.lane_slots, 0, "scalar mode must not use lanes");
        assert_eq!(scalar_delta.sha_blocks, 8);
        let before = HotpathSnapshot::now();
        let lane_out = sha256_many(&refs);
        let lane_delta = HotpathSnapshot::now().delta_since(&before);
        assert_eq!(scalar_out, lane_out);
        assert_eq!(lane_delta.sha_blocks, 8, "real blocks only");
        assert_eq!(lane_delta.lane_blocks, 8);
        assert_eq!(lane_delta.lane_slots, 8, "8 single-block inputs fill one 8-wide step");
    }

    #[test]
    fn ragged_batch_counts_dummy_slots_not_blocks() {
        // 6 single-block inputs: one 8-wide step with 2 dummy lanes.
        let msgs: Vec<Vec<u8>> = (0..6).map(|i| patterned(20, i)).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| &m[..]).collect();
        let before = HotpathSnapshot::now();
        let got = sha256_many(&refs);
        let delta = HotpathSnapshot::now().delta_since(&before);
        assert_eq!(delta.sha_blocks, 6);
        assert_eq!(delta.lane_blocks, 6);
        assert_eq!(delta.lane_slots, 8);
        for (msg, digest) in msgs.iter().zip(&got) {
            assert_eq!(*digest, sha256(msg));
        }
    }

    #[test]
    fn mixed_block_counts_group_correctly() {
        // 3 one-block + 9 two-block inputs interleaved: grouping must
        // keep outputs in input order.
        let msgs: Vec<Vec<u8>> = (0..12)
            .map(|i| patterned(if i % 4 == 0 { 16 } else { 90 }, i as u8))
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| &m[..]).collect();
        let got = sha256_many(&refs);
        for (msg, digest) in msgs.iter().zip(&got) {
            assert_eq!(*digest, sha256(msg));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(sha256_many(&[]).is_empty());
    }
}
