//! Hot-path telemetry: cheap thread-local counters for the *real*
//! (wall-clock) cryptographic work this process performs, plus the
//! global switch for the verified-signature memo caches.
//!
//! The counters measure host CPU effort only — they are invisible to
//! the simulation. Simulated CPU is charged through
//! [`crate::cost::CostModel`] per *logical* operation, and the memo
//! caches never change that: a cache hit charges exactly the same
//! simulated cost as the verification it short-circuits. These
//! counters exist so the wall-clock saving is *measurable*: the
//! layer benchmark (`layerbench/`) reports them as `crypto.*`, and the
//! tables print them on their opt-in `TURQUOIS_HOTPATH_STATS` line.
//!
//! All counters are `thread_local!`: the harness runner executes each
//! `(cell, rep)` job start-to-finish on one worker thread, so a
//! snapshot pair around a job captures exactly that job's work
//! regardless of `TURQUOIS_THREADS`.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

thread_local! {
    static SHA_BLOCKS: Cell<u64> = const { Cell::new(0) };
    static VERIFY_CALLS: Cell<u64> = const { Cell::new(0) };
    static CACHE_HITS: Cell<u64> = const { Cell::new(0) };
    static CACHE_MISSES: Cell<u64> = const { Cell::new(0) };
    static LANE_BLOCKS: Cell<u64> = const { Cell::new(0) };
    static LANE_SLOTS: Cell<u64> = const { Cell::new(0) };
}

/// Records one SHA-256 compression-function invocation (64-byte block).
/// Called by [`crate::sha256`] on every block; everything else — HMAC,
/// one-time signatures, threshold shares — bottoms out here.
#[inline]
pub(crate) fn count_sha_block() {
    SHA_BLOCKS.with(|c| c.set(c.get() + 1));
}

/// Records one multi-lane compression step: `real` logical blocks were
/// issued into a kernel with `width` lane slots (`real < width` on a
/// ragged final batch — the unused lanes chew a dummy block).
/// The `real` blocks also count as ordinary SHA blocks, so `sha_blocks`
/// stays comparable between the scalar and multi-lane engines.
#[inline]
pub(crate) fn count_lane_compress(real: u64, width: u64) {
    SHA_BLOCKS.with(|c| c.set(c.get() + real));
    LANE_BLOCKS.with(|c| c.set(c.get() + real));
    LANE_SLOTS.with(|c| c.set(c.get() + width));
}

/// Records one logical signature/MAC verification request (hit or miss).
#[inline]
pub fn count_verify_call() {
    VERIFY_CALLS.with(|c| c.set(c.get() + 1));
}

/// Records a memo-cache hit (verification answered without hashing).
#[inline]
pub fn count_cache_hit() {
    CACHE_HITS.with(|c| c.set(c.get() + 1));
}

/// Records `n` logical verifications answered without hashing: `n`
/// verify calls plus `n` cache hits, one update per counter for a whole
/// batch (a frame's already-held attachments).
#[inline]
pub fn count_verify_hits(n: u64) {
    VERIFY_CALLS.with(|c| c.set(c.get() + n));
    CACHE_HITS.with(|c| c.set(c.get() + n));
}

/// Records a memo-cache miss (verification actually recomputed).
#[inline]
pub fn count_cache_miss() {
    CACHE_MISSES.with(|c| c.set(c.get() + 1));
}

/// A point-in-time reading of this thread's hot-path counters.
///
/// Counters only ever grow; subtract two snapshots (see
/// [`HotpathSnapshot::delta_since`]) to attribute work to an interval.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct HotpathSnapshot {
    /// SHA-256 compression blocks executed (the real-work unit).
    pub sha_blocks: u64,
    /// Logical verification requests (cache hits + misses + uncached).
    pub verify_calls: u64,
    /// Memo-cache hits.
    pub cache_hits: u64,
    /// Memo-cache misses.
    pub cache_misses: u64,
    /// Logical blocks that went through the multi-lane kernel (a subset
    /// of `sha_blocks`; the rest ran on the scalar engine).
    pub lane_blocks: u64,
    /// Lane slots issued by the multi-lane kernel, counting dummy lanes
    /// in ragged final batches. `lane_blocks / lane_slots` is the lane
    /// occupancy; see [`HotpathSnapshot::lanes_utilization`].
    pub lane_slots: u64,
}

impl HotpathSnapshot {
    /// Reads the current thread's counters.
    pub fn now() -> Self {
        HotpathSnapshot {
            sha_blocks: SHA_BLOCKS.with(Cell::get),
            verify_calls: VERIFY_CALLS.with(Cell::get),
            cache_hits: CACHE_HITS.with(Cell::get),
            cache_misses: CACHE_MISSES.with(Cell::get),
            lane_blocks: LANE_BLOCKS.with(Cell::get),
            lane_slots: LANE_SLOTS.with(Cell::get),
        }
    }

    /// Counter increments since `earlier` (which must be an older
    /// snapshot from the same thread; saturates defensively).
    pub fn delta_since(&self, earlier: &HotpathSnapshot) -> HotpathSnapshot {
        HotpathSnapshot {
            sha_blocks: self.sha_blocks.saturating_sub(earlier.sha_blocks),
            verify_calls: self.verify_calls.saturating_sub(earlier.verify_calls),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            lane_blocks: self.lane_blocks.saturating_sub(earlier.lane_blocks),
            lane_slots: self.lane_slots.saturating_sub(earlier.lane_slots),
        }
    }

    /// Accumulates `other` into `self` (used when summing per-rep deltas).
    pub fn add(&mut self, other: &HotpathSnapshot) {
        self.sha_blocks += other.sha_blocks;
        self.verify_calls += other.verify_calls;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.lane_blocks += other.lane_blocks;
        self.lane_slots += other.lane_slots;
    }

    /// Cache hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Lane occupancy of the multi-lane kernel in `[0, 1]`: logical
    /// blocks issued per lane slot (0 when the kernel never ran, 1 when
    /// every compression step filled all its lanes).
    pub fn lanes_utilization(&self) -> f64 {
        if self.lane_slots == 0 {
            0.0
        } else {
            self.lane_blocks as f64 / self.lane_slots as f64
        }
    }
}

/// Environment variable that force-disables the memo caches (any
/// non-empty value). The CI differential smoke runs a shrunk `table1`
/// with and without it and asserts byte-identical output.
pub const NO_MEMO_ENV: &str = "TURQUOIS_NO_MEMO";

static MEMO_ENABLED: AtomicBool = AtomicBool::new(true);
static MEMO_INIT: Once = Once::new();

/// Whether the memo caches may skip recomputation. Defaults to `true`;
/// the first call reads [`NO_MEMO_ENV`] once. [`set_memo_enabled`]
/// overrides it at any time.
///
/// Disabled mode changes *only* whether the underlying hash work is
/// re-executed: lookups, insertions, and hit/miss counters behave
/// identically in both modes, so telemetry and — by construction —
/// every simulated result are mode-independent.
pub fn memo_enabled() -> bool {
    MEMO_INIT.call_once(|| {
        if std::env::var_os(NO_MEMO_ENV).is_some_and(|v| !v.is_empty()) {
            MEMO_ENABLED.store(false, Ordering::Relaxed);
        }
    });
    MEMO_ENABLED.load(Ordering::Relaxed)
}

/// Force-enables or -disables the memo caches, overriding the
/// environment. Takes effect process-wide for subsequent lookups.
pub fn set_memo_enabled(enabled: bool) {
    MEMO_INIT.call_once(|| {});
    MEMO_ENABLED.store(enabled, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha_blocks_count_compressions() {
        let before = HotpathSnapshot::now();
        // 32-byte input: 1 padded block. 64-byte input: data block + pad.
        crate::sha256::sha256(&[0u8; 32]);
        crate::sha256::sha256(&[0u8; 64]);
        let delta = HotpathSnapshot::now().delta_since(&before);
        assert_eq!(delta.sha_blocks, 3);
    }

    #[test]
    fn snapshot_delta_and_add() {
        let a = HotpathSnapshot {
            sha_blocks: 10,
            verify_calls: 5,
            cache_hits: 3,
            cache_misses: 2,
            lane_blocks: 8,
            lane_slots: 12,
        };
        let b = HotpathSnapshot {
            sha_blocks: 4,
            verify_calls: 2,
            cache_hits: 1,
            cache_misses: 1,
            lane_blocks: 2,
            lane_slots: 4,
        };
        let d = a.delta_since(&b);
        assert_eq!(d.sha_blocks, 6);
        assert_eq!(d.verify_calls, 3);
        assert_eq!(d.lane_blocks, 6);
        assert_eq!(d.lane_slots, 8);
        assert!((a.lanes_utilization() - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(HotpathSnapshot::default().lanes_utilization(), 0.0);
        let mut sum = b;
        sum.add(&d);
        assert_eq!(sum, a);
        assert!((a.hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(HotpathSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn memo_toggle_round_trips() {
        let initial = memo_enabled();
        set_memo_enabled(false);
        assert!(!memo_enabled());
        set_memo_enabled(true);
        assert!(memo_enabled());
        set_memo_enabled(initial);
    }
}
