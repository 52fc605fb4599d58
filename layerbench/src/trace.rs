//! Timing wrappers for the traced run.
//!
//! The traced run hands the simulator the same applications and fault
//! model as `Scenario::build_sim`, each wrapped here. A wrapper reads
//! the tick counter ([`ticks`]) around every call into the wrapped
//! layer and adds the elapsed ticks to a shared clock; it changes
//! nothing the simulator sees. Time the simulator spends outside these
//! calls is its own (`sim.self_s`).

use bytes::Bytes;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wireless_net::fault::{DeliveryCtx, FaultModel};
use wireless_net::frame::{NodeId, ReceivedFrame};
use wireless_net::sim::{Application, NodeCtx};
use wireless_net::supervise::AppProgress;

/// A monotonic host tick count. The traced run makes tens of millions
/// of callbacks on the TCP workload, and the time-stamp counter costs a
/// third of what `Instant::now` does in a VM, which keeps tracing from
/// distorting the layers it measures. Ticks are converted to seconds
/// with a rate calibrated against `Instant` over the traced run loops.
#[cfg(target_arch = "x86_64")]
pub fn ticks() -> u64 {
    // SAFETY: RDTSC reads the time-stamp counter into registers; it
    // accesses no memory and has no preconditions.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// A monotonic host tick count (nanoseconds since first use).
#[cfg(not(target_arch = "x86_64"))]
pub fn ticks() -> u64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

fn since(start: u64) -> u64 {
    ticks().saturating_sub(start)
}

/// Host ticks and call counts of one engine's callbacks, summed over
/// every node running that engine.
#[derive(Debug, Default)]
pub struct EngineClock {
    pub frame_ticks: Cell<u64>,
    pub frame_calls: Cell<u64>,
    pub timer_ticks: Cell<u64>,
    pub timer_calls: Cell<u64>,
    pub start_ticks: Cell<u64>,
    /// `on_unicast_failed` callbacks: app time, but no metric of their own.
    pub other_ticks: Cell<u64>,
}

impl EngineClock {
    /// Host ticks in every callback of this engine.
    pub fn total_ticks(&self) -> u64 {
        self.frame_ticks.get()
            + self.timer_ticks.get()
            + self.start_ticks.get()
            + self.other_ticks.get()
    }
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

/// A uniform sample of the payloads delivered to correct Turquois
/// nodes, kept for the codec replay: reservoir sampling (Algorithm R)
/// over every delivery, with a fixed-seed generator of its own so the
/// sample is the same on every traced run of the same arguments.
/// Payloads are copied, so the sample pins none of the simulator's
/// buffers and its memory is bounded by `slots` payloads.
#[derive(Debug)]
pub struct Capture {
    pub frames: Vec<Vec<u8>>,
    slots: usize,
    seen: u64,
    rng: u64,
}

impl Capture {
    pub fn new(slots: usize) -> Rc<RefCell<Capture>> {
        Rc::new(RefCell::new(Capture {
            frames: Vec::with_capacity(slots),
            slots,
            seen: 0,
            rng: 0x5eed_c0de_c0de_5eed,
        }))
    }

    fn offer(&mut self, payload: &[u8]) {
        self.seen += 1;
        if self.frames.len() < self.slots {
            self.frames.push(payload.to_vec());
            return;
        }
        // SplitMix64 step.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let j = ((z ^ (z >> 31)) % self.seen) as usize;
        if let Some(slot) = self.frames.get_mut(j) {
            slot.clear();
            slot.extend_from_slice(payload);
        }
    }
}

/// An [`Application`] with its callbacks timed into an [`EngineClock`].
pub struct TimedApp {
    inner: Box<dyn Application>,
    clock: Rc<EngineClock>,
    capture: Option<Rc<RefCell<Capture>>>,
}

impl TimedApp {
    pub fn boxed(
        inner: Box<dyn Application>,
        clock: Rc<EngineClock>,
        capture: Option<Rc<RefCell<Capture>>>,
    ) -> Box<dyn Application> {
        Box::new(TimedApp {
            inner,
            clock,
            capture,
        })
    }
}

impl Application for TimedApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let t = ticks();
        self.inner.on_start(ctx);
        add(&self.clock.start_ticks, since(t));
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        if let Some(capture) = &self.capture {
            capture.borrow_mut().offer(&frame.payload);
        }
        let t = ticks();
        self.inner.on_frame(ctx, frame);
        add(&self.clock.frame_ticks, since(t));
        add(&self.clock.frame_calls, 1);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        let t = ticks();
        self.inner.on_timer(ctx, timer);
        add(&self.clock.timer_ticks, since(t));
        add(&self.clock.timer_calls, 1);
    }

    fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: NodeId, payload: Bytes) {
        let t = ticks();
        self.inner.on_unicast_failed(ctx, dst, payload);
        add(&self.clock.other_ticks, since(t));
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn progress(&self) -> Option<AppProgress> {
        self.inner.progress()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Host ticks, calls and drops of the fault model. Atomics only because
/// [`FaultModel`] must be `Send`; the simulator calls it from one thread.
#[derive(Debug, Default)]
pub struct FaultClock {
    pub ticks: AtomicU64,
    pub calls: AtomicU64,
    pub drops: AtomicU64,
}

fn bump(counter: &AtomicU64, v: u64) {
    counter.store(counter.load(Ordering::Relaxed) + v, Ordering::Relaxed);
}

/// A [`FaultModel`] with its `drops` calls timed into a [`FaultClock`].
pub struct TimedFault {
    inner: Box<dyn FaultModel>,
    clock: Arc<FaultClock>,
}

impl TimedFault {
    pub fn boxed(inner: Box<dyn FaultModel>, clock: Arc<FaultClock>) -> Box<dyn FaultModel> {
        Box::new(TimedFault { inner, clock })
    }
}

impl FaultModel for TimedFault {
    fn drops(&mut self, ctx: &DeliveryCtx) -> bool {
        let t = ticks();
        let dropped = self.inner.drops(ctx);
        bump(&self.clock.ticks, since(t));
        bump(&self.clock.calls, 1);
        bump(&self.clock.drops, dropped as u64);
        dropped
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// `bytes::telemetry` counters, read like [`HotpathSnapshot`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BytesSnapshot {
    pub copied: u64,
    pub allocs_saved: u64,
    pub arena_bytes: u64,
}

impl BytesSnapshot {
    pub fn now() -> BytesSnapshot {
        BytesSnapshot {
            copied: bytes::telemetry::bytes_copied(),
            allocs_saved: bytes::telemetry::allocs_saved(),
            arena_bytes: bytes::telemetry::arena_bytes(),
        }
    }

    pub fn delta_since(&self, earlier: &BytesSnapshot) -> BytesSnapshot {
        BytesSnapshot {
            copied: self.copied - earlier.copied,
            allocs_saved: self.allocs_saved - earlier.allocs_saved,
            arena_bytes: self.arena_bytes - earlier.arena_bytes,
        }
    }

    pub fn add(&mut self, other: &BytesSnapshot) {
        self.copied += other.copied;
        self.allocs_saved += other.allocs_saved;
        self.arena_bytes += other.arena_bytes;
    }
}
