//! The original single-broadcast-domain arbiter, kept verbatim as the
//! reference the topology-aware `Medium` must reproduce exactly on
//! the default single-domain topology (DESIGN.md §11).
//!
//! Everything here models exactly one collision domain: a single
//! channel-free time, at most one in-flight transmission group, and
//! every receiver hearing every non-collided frame.

use crate::config::PhyConfig;
use crate::frame::{Addressing, Frame, NodeId};
use crate::medium::{CompletedTx, Epoch, PendingTx, Reception};
use crate::time::SimTime;
use rand::RngCore;
use std::collections::VecDeque;
use std::time::Duration;

#[derive(Debug)]
struct InFlight {
    txs: Vec<(NodeId, PendingTx)>,
    end: SimTime,
}

/// The single-domain shared-medium arbiter (see the model description
/// in [`crate::medium`]).
#[derive(Debug)]
pub(crate) struct LegacyMedium {
    phy: PhyConfig,
    free_at: SimTime,
    in_flight: Option<InFlight>,
    queues: Vec<VecDeque<PendingTx>>,
    /// Remaining backoff slots of each node's head frame; `None` when the
    /// node has nothing to contend with.
    backoffs: Vec<Option<u32>>,
    epoch: Epoch,
    /// Duration of the transmission that just finished (for stats).
    last_busy: Duration,
}

impl LegacyMedium {
    pub(crate) fn new(n: usize, phy: PhyConfig) -> Self {
        LegacyMedium {
            phy,
            free_at: SimTime::ZERO,
            in_flight: None,
            queues: vec![VecDeque::new(); n],
            backoffs: vec![None; n],
            epoch: 0,
            last_busy: Duration::ZERO,
        }
    }

    pub(crate) fn phy(&self) -> &PhyConfig {
        &self.phy
    }

    pub(crate) fn epoch(&self) -> Epoch {
        self.epoch
    }

    pub(crate) fn transmitting(&self) -> bool {
        self.in_flight.is_some()
    }

    pub(crate) fn enqueue(&mut self, frame: Frame, rng: &mut dyn RngCore) -> bool {
        if let Addressing::Unicast(dst) = frame.addressing {
            assert_ne!(dst, frame.src, "self-unicast must not reach the medium");
        }
        let node = frame.src;
        if self.queues[node].len() >= self.phy.tx_queue_cap {
            self.epoch += 1;
            return false;
        }
        self.queues[node].push_back(PendingTx { frame, attempt: 0 });
        if self.backoffs[node].is_none() && self.queues[node].len() == 1 {
            self.backoffs[node] = Some(self.draw_backoff(0, rng));
        }
        self.epoch += 1;
        true
    }

    pub(crate) fn next_resolution(&self, now: SimTime) -> Option<(SimTime, Epoch)> {
        if self.in_flight.is_some() {
            return None;
        }
        let min = self.backoffs.iter().flatten().min()?;
        let base = now.max(self.free_at);
        let at = base + self.phy.difs + self.phy.slot * *min;
        Some((at, self.epoch))
    }

    pub(crate) fn resolve(&mut self, now: SimTime, epoch: Epoch) -> Option<SimTime> {
        if epoch != self.epoch || self.in_flight.is_some() {
            return None;
        }
        let min = *self.backoffs.iter().flatten().min()?;
        let mut txs = Vec::new();
        for node in 0..self.backoffs.len() {
            match self.backoffs[node] {
                Some(b) if b == min => {
                    let pending = self.queues[node]
                        .pop_front()
                        .expect("contending node has a head frame");
                    self.backoffs[node] = None;
                    txs.push((node, pending));
                }
                Some(b) => {
                    // Freeze rule: the elapsed slots are consumed.
                    self.backoffs[node] = Some(b - min);
                }
                None => {}
            }
        }
        debug_assert!(!txs.is_empty());
        let airtime = txs
            .iter()
            .map(|(_, p)| self.airtime_of(&p.frame))
            .max()
            .expect("at least one transmission");
        let end = now + airtime;
        self.last_busy = airtime;
        self.in_flight = Some(InFlight { txs, end });
        self.epoch += 1;
        Some(end)
    }

    pub(crate) fn finish_tx_into(&mut self, now: SimTime, done: &mut Vec<CompletedTx>) {
        let fl = self.in_flight.take().expect("finish_tx with no tx in flight");
        debug_assert_eq!(now, fl.end, "TxEnd event at the wrong time");
        self.free_at = fl.end;
        let collision = fl.txs.len() > 1;
        done.clear();
        done.reserve(fl.txs.len());
        for (node, pending) in fl.txs {
            done.push(CompletedTx {
                node,
                frame: pending.frame,
                attempt: pending.attempt,
                collision,
                reception: if collision {
                    Reception::Nobody
                } else {
                    Reception::Everyone
                },
            });
        }
        self.epoch += 1;
    }

    pub(crate) fn last_busy(&self) -> Duration {
        self.last_busy
    }

    pub(crate) fn retry_unicast(
        &mut self,
        node: NodeId,
        frame: Frame,
        attempt: u32,
        rng: &mut dyn RngCore,
    ) -> bool {
        self.epoch += 1;
        let next_attempt = attempt + 1;
        if next_attempt > self.phy.retry_limit {
            self.after_head_done(node, rng);
            return false;
        }
        self.queues[node].push_front(PendingTx {
            frame,
            attempt: next_attempt,
        });
        self.backoffs[node] = Some(self.draw_backoff(next_attempt, rng));
        true
    }

    pub(crate) fn after_head_done(&mut self, node: NodeId, rng: &mut dyn RngCore) {
        self.epoch += 1;
        if let Some(head) = self.queues[node].front() {
            let attempt = head.attempt;
            self.backoffs[node] = Some(self.draw_backoff(attempt, rng));
        } else {
            self.backoffs[node] = None;
        }
    }

    pub(crate) fn queue_len(&self, node: NodeId) -> usize {
        self.queues[node].len()
    }

    pub(crate) fn clear_queue(&mut self, node: NodeId) -> usize {
        self.epoch += 1;
        self.backoffs[node] = None;
        let dropped = self.queues[node].len();
        self.queues[node].clear();
        dropped
    }

    fn airtime_of(&self, frame: &Frame) -> Duration {
        match frame.addressing {
            Addressing::Broadcast => self.phy.broadcast_airtime(frame.mac_payload_len()),
            Addressing::Unicast(_) => {
                // Data + SIFS + ACK (or the equivalent ACK-timeout wait).
                self.phy.unicast_exchange_airtime(frame.mac_payload_len())
            }
        }
    }

    fn draw_backoff(&self, attempt: u32, rng: &mut dyn RngCore) -> u32 {
        let cw = self.phy.contention_window(attempt);
        // cw + 1 is a power of two for 802.11 windows, so the modulo is
        // exactly uniform (and trivially scriptable from tests).
        rng.next_u32() % (cw + 1)
    }
}
