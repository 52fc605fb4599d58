//! Host-speed reference for the gated host times.
//!
//! The reference host's speed drifts over minutes: the same rounds of
//! one workload ran up to 1.77× slower two minutes later, with nothing
//! else running in the VM. A fixed piece of work, frozen here and
//! independent of the crates under test, runs around every round. It
//! slowed down with the rounds, and each round's host times scaled by
//! [`REFERENCE_MS`] over the reference time measured around that round
//! stayed within 6 % over the same two minutes. The reference mixes the
//! kinds of work the simulator does: ordered-map churn, allocation churn
//! with hashing into a map, and 32-bit ALU mixing.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time of [`reference`] the scaled host times are expressed in,
/// close to its median on the reference host (2-core VM, Intel Xeon at
/// 2.1 GHz). A scaled time equals the raw one when the reference takes
/// exactly this long.
pub const REFERENCE_MS: f64 = 6.0;

/// Runs the reference work once and returns its host time.
pub fn reference() -> Duration {
    let t = Instant::now();

    let mut map = BTreeMap::new();
    let mut x = 0x1234_5678u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, i);
        if i % 3 == 0 {
            map.remove(&((x >> 3) % 50_000));
        }
    }
    black_box(map.len());

    let mut bufs: Vec<Vec<u8>> = Vec::new();
    for i in 0..20_000usize {
        let mut b = vec![0u8; 64 + (i * 37) % 1500];
        b[0] = i as u8;
        bufs.push(b);
        if bufs.len() > 256 {
            bufs.swap_remove((i * 7) % 256);
        }
    }
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for i in 0..20_000u64 {
        *counts.entry(i.wrapping_mul(0x9e37) % 4096).or_default() += i;
    }
    black_box((bufs.len(), counts.len()));

    let mut state = [0u32; 8];
    let block = black_box([7u32; 16]);
    for r in 0..20_000u32 {
        for j in 0..16 {
            let a = state[j % 8].rotate_right(6)
                ^ state[(j + 3) % 8].rotate_right(11)
                ^ block[j].wrapping_add(r);
            state[j % 8] = state[(j + 5) % 8].wrapping_add(a).rotate_left(7);
        }
    }
    black_box(state);

    t.elapsed()
}

/// The factor that scales a host time measured while the reference
/// took `measured` to the reference host's speed.
pub fn scale(measured: Duration) -> f64 {
    let ms = measured.as_secs_f64() * 1e3;
    if ms > 0.0 {
        REFERENCE_MS / ms
    } else {
        1.0
    }
}
