//! A bounded, deterministic memo cache for verification results.
//!
//! [`MemoCache`] remembers the outcome of expensive computations —
//! boolean verdicts of one-time-signature verifies and HMAC
//! threshold-share checks, or full HMAC tags shared between a
//! simulated sender and receiver — keyed by the full input identity,
//! so re-deliveries of the same signed bytes cost a map probe instead
//! of a SHA-256 chain. It caches *negative* results too: a forged
//! signature rejected once is rejected from the cache thereafter —
//! sound because the key includes every byte the recomputation would
//! read, so equal keys are the same computation.
//!
//! Determinism: backed by a `BTreeMap` plus FIFO insertion-order
//! eviction, so behaviour depends only on the lookup sequence — never
//! on hash seeds or addresses. Bounded: Byzantine senders can mint
//! unlimited distinct invalid signatures; capacity eviction keeps a
//! flood from growing memory, and an evicted entry merely costs a
//! recomputation, never a wrong answer.
//!
//! Results must never depend on the cache: [`MemoCache::lookup`]
//! consults [`crate::telemetry::memo_enabled`] and, when memoization
//! is disabled, recomputes every time (asserting agreement with any
//! cached value in debug builds) while keeping bookkeeping and
//! telemetry identical in both modes.

use crate::telemetry;
use std::collections::{BTreeMap, VecDeque};

/// Bounded memoization of `key -> value` computations (verification
/// verdicts by default). See the module docs for the determinism and
/// soundness argument.
#[derive(Clone, Debug)]
pub struct MemoCache<K: Ord + Clone, V = bool> {
    entries: BTreeMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Ord + Clone, V: Clone + PartialEq + std::fmt::Debug> MemoCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        MemoCache {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Memoized evaluation of `compute` for `key`, counting one logical
    /// verification plus a hit or miss in [`crate::telemetry`].
    ///
    /// With memoization disabled (see
    /// [`crate::telemetry::set_memo_enabled`]) the closure runs
    /// unconditionally — lookups, insertions, and counters are
    /// identical in both modes, so the only observable difference is
    /// wall-clock work.
    pub fn lookup(&mut self, key: K, compute: impl FnOnce() -> V) -> V {
        telemetry::count_verify_call();
        if let Some(cached) = self.entries.get(&key) {
            telemetry::count_cache_hit();
            if telemetry::memo_enabled() {
                return cached.clone();
            }
            let cached = cached.clone();
            let recomputed = compute();
            debug_assert_eq!(recomputed, cached, "memo cache disagrees with recomputation");
            return recomputed;
        }
        telemetry::count_cache_miss();
        let result = compute();
        if self.entries.len() == self.capacity {
            // FIFO eviction: drop the oldest insertion still present.
            while let Some(old) = self.order.pop_front() {
                if self.entries.remove(&old).is_some() {
                    break;
                }
            }
        }
        self.entries.insert(key.clone(), result.clone());
        self.order.push_back(key);
        result
    }

    /// Drops every entry whose key fails `keep` (garbage collection —
    /// callers tie this to their protocol's GC floor).
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.entries.retain(|k, _| keep(k));
        let entries = &self.entries;
        self.order.retain(|k| entries.contains_key(k));
    }

    /// Drops everything (e.g. on a key-epoch change that invalidates
    /// all previous verification outcomes).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::HotpathSnapshot;

    #[test]
    fn caches_positive_and_negative_results() {
        let mut cache = MemoCache::new(8);
        let mut computed = 0;
        for _ in 0..3 {
            assert!(cache.lookup(1u32, || {
                computed += 1;
                true
            }));
            assert!(!cache.lookup(2u32, || {
                computed += 1;
                false
            }));
        }
        assert_eq!(computed, 2, "each key computed exactly once");
    }

    #[test]
    fn telemetry_counts_hits_and_misses() {
        let before = HotpathSnapshot::now();
        let mut cache = MemoCache::new(8);
        cache.lookup(1u32, || true);
        cache.lookup(1u32, || true);
        cache.lookup(2u32, || false);
        let d = HotpathSnapshot::now().delta_since(&before);
        assert_eq!(d.verify_calls, 3);
        assert_eq!(d.cache_hits, 1);
        assert_eq!(d.cache_misses, 2);
    }

    #[test]
    fn capacity_evicts_fifo_and_recomputes_evictee() {
        let mut cache = MemoCache::new(2);
        let mut computed = Vec::new();
        let probe = |cache: &mut MemoCache<u32>, k: u32, v: bool, log: &mut Vec<u32>| {
            cache.lookup(k, || {
                log.push(k);
                v
            })
        };
        assert!(probe(&mut cache, 1, true, &mut computed));
        assert!(!probe(&mut cache, 2, false, &mut computed));
        assert!(probe(&mut cache, 3, true, &mut computed)); // evicts key 1
        assert_eq!(cache.len(), 2);
        // Key 1 was evicted: recomputed (still sound); key 2's negative
        // entry survived the eviction churn and stays negative.
        assert!(probe(&mut cache, 1, true, &mut computed));
        assert!(!probe(&mut cache, 2, false, &mut computed));
        assert_eq!(computed, vec![1, 2, 3, 1, 2]);
    }

    #[test]
    fn retain_prunes_entries_and_order() {
        let mut cache = MemoCache::new(8);
        for k in 0..6u32 {
            cache.lookup(k, || true);
        }
        cache.retain(|&k| k >= 4);
        assert_eq!(cache.len(), 2);
        // Pruned keys recompute; kept keys do not.
        let mut computed = 0;
        cache.lookup(0, || {
            computed += 1;
            true
        });
        cache.lookup(5, || {
            computed += 1;
            true
        });
        assert_eq!(computed, 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn disabled_mode_recomputes_but_keeps_bookkeeping() {
        let initial = crate::telemetry::memo_enabled();
        crate::telemetry::set_memo_enabled(false);
        let mut cache = MemoCache::new(8);
        let mut computed = 0;
        for _ in 0..3 {
            assert!(cache.lookup(7u32, || {
                computed += 1;
                true
            }));
        }
        assert_eq!(computed, 3, "disabled mode recomputes every lookup");
        assert_eq!(cache.len(), 1, "bookkeeping identical to enabled mode");
        crate::telemetry::set_memo_enabled(initial);
    }
}
