//! The lease protocol between a tenant's driver thread and the scheduler.
//!
//! Each tenant job runs the unmodified `falcon-core` driver on its own OS
//! thread, gated by a [`ServeGate`] installed in its
//! [`Timeline`](falcon_core::timeline::Timeline). At every stage boundary
//! the gate reports a [`Stage`] — the driver's [`StageEvent`] and the
//! stage's [`StageCost`] — to the scheduler over a per-tenant channel;
//! for machine-kind stages it then *blocks* until the scheduler
//! answers with a [`StageControl`] verdict — `Continue` is a node lease
//! for whatever comes next, `Cancel` orders the driver to unwind at its
//! next cancellation point. Crowd-kind stages never block: their latency
//! is virtual, so parking the driver thread on them would serialize
//! tenants for no reason.
//!
//! **Shutdown safety**: if the scheduler side of either channel is gone —
//! the event send fails, or the grant receive disconnects while the
//! tenant is parked — the gate returns
//! [`StageControl::Cancel`]`(`[`CancelReason::Shutdown`]`)` so the driver
//! unwinds with a typed error instead of hanging forever or silently
//! running to completion ungated.
//!
//! Real CPU concurrency is bounded separately by a counting semaphore
//! ([`Permits`]): the gate holds its tenant's permit — a guard, returned
//! when the gate drops, on return or unwind — while the driver computes,
//! and hands it back across each grant wait. `ServeConfig::threads` thus
//! caps how many drivers burn CPU at once, and nothing else: the
//! scheduler's lockstep rounds make every virtual-time outcome
//! independent of the permit count, which the determinism tests pin down.

use falcon_core::stage::{CancelReason, StageControl, StageCost, StageEvent, StageGate, StageKind};
use parking_lot::Mutex;
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;

/// Counting semaphore over a bounded channel: the buffer holds the
/// permits currently *checked out*, so `send` blocks once `k` holders
/// exist and receiving returns one slot to the pool. (The vendored
/// `parking_lot` stub has no condvar; a bounded channel gives the same
/// blocking discipline with no busy wait.)
pub struct Permits {
    tx: SyncSender<()>,
    rx: Mutex<Receiver<()>>,
}

impl Permits {
    /// A pool of `k` permits (at least one).
    pub fn new(k: usize) -> Arc<Self> {
        let (tx, rx) = sync_channel(k.max(1));
        Arc::new(Self {
            tx,
            rx: Mutex::new(rx),
        })
    }

    /// Block until a permit is free; it is held until the guard drops.
    fn acquire(self: &Arc<Self>) -> Permit {
        // The receiver lives in `self`, so send can only fail if the
        // permit pool itself is gone — nothing to hold in that case.
        let _ = self.tx.send(());
        Permit(self.clone())
    }
}

/// A held permit, returned to its pool on drop — also during a panic.
struct Permit(Arc<Permits>);

impl Drop for Permit {
    fn drop(&mut self) {
        let _ = self.0.rx.lock().try_recv();
    }
}

/// One stage boundary as the scheduler receives it.
#[derive(Debug, Clone)]
pub struct Stage {
    /// What the driver reported.
    pub event: StageEvent,
    /// The stage's cost: the scheduler prices its task shape on the
    /// nodes it grants. Empty for a crowd round.
    pub cost: StageCost,
}

/// Stage-boundary gate for one tenant (see module docs).
pub struct ServeGate {
    /// Stage reports to the scheduler. `Sender` is wrapped so the gate is
    /// `Sync` on every supported toolchain. Declared first so it drops,
    /// and the scheduler sees end-of-stream, before the permit returns.
    events: Mutex<Sender<Stage>>,
    /// Per-stage verdicts from the scheduler: a node lease or a
    /// cancellation order.
    grants: Mutex<Receiver<StageControl>>,
    /// Real-concurrency throttle shared by all tenants.
    permits: Arc<Permits>,
    /// The tenant's CPU permit; `None` only across a grant wait.
    permit: Mutex<Option<Permit>>,
}

impl ServeGate {
    /// Wire a gate to its scheduler-side channels, blocking until one of
    /// `permits` is free; the gate holds it until it drops.
    pub fn new(
        events: Sender<Stage>,
        grants: Receiver<StageControl>,
        permits: Arc<Permits>,
    ) -> Self {
        Self {
            events: Mutex::new(events),
            grants: Mutex::new(grants),
            permit: Mutex::new(Some(permits.acquire())),
            permits,
        }
    }
}

impl StageGate for ServeGate {
    /// A stage reported without its cost is priced as empty.
    fn on_stage(&self, event: StageEvent) -> StageControl {
        self.on_priced_stage(event, &StageCost::default())
    }

    fn on_priced_stage(&self, event: StageEvent, cost: &StageCost) -> StageControl {
        let kind = event.kind;
        let stage = Stage {
            event,
            cost: cost.clone(),
        };
        if self.events.lock().send(stage).is_err() {
            // Scheduler gone (shut down or failed): order a typed unwind
            // rather than running to completion ungated.
            return StageControl::Cancel(CancelReason::Shutdown);
        }
        if kind == StageKind::CrowdWait {
            return StageControl::Continue;
        }
        // Machine-kind boundary: hand the CPU back while waiting for the
        // scheduler to place this stage and issue its verdict.
        drop(self.permit.lock().take());
        let verdict = self.grants.lock().recv();
        *self.permit.lock() = Some(self.permits.acquire());
        match verdict {
            Ok(control) => control,
            // Scheduler dropped while we were parked: unpark with a
            // typed shutdown instead of hanging the tenant thread.
            Err(_) => StageControl::Cancel(CancelReason::Shutdown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn ev(kind: StageKind) -> StageEvent {
        StageEvent {
            label: "x".into(),
            kind,
            dur: Duration::from_secs(1),
            tasks: 1,
            records: 0,
        }
    }

    #[test]
    fn crowd_events_do_not_block() {
        let (etx, erx) = channel();
        let (_gtx, grx) = channel();
        let gate = ServeGate::new(etx, grx, Permits::new(1));
        // Would deadlock if crowd events waited for a grant.
        assert_eq!(
            gate.on_stage(ev(StageKind::CrowdWait)),
            StageControl::Continue
        );
        assert_eq!(erx.recv().unwrap().event.kind, StageKind::CrowdWait);
    }

    #[test]
    fn machine_events_block_until_granted() {
        let (etx, erx) = channel();
        let (gtx, grx) = channel();
        let gate = Arc::new(ServeGate::new(etx, grx, Permits::new(1)));
        let g2 = gate.clone();
        let h = std::thread::spawn(move || g2.on_stage(ev(StageKind::Machine)));
        // The event arrives while the worker is parked on the grant.
        assert_eq!(erx.recv().unwrap().event.kind, StageKind::Machine);
        gtx.send(StageControl::Continue).unwrap();
        assert_eq!(h.join().unwrap(), StageControl::Continue);
    }

    #[test]
    fn cancel_verdicts_pass_through() {
        let (etx, _erx) = channel();
        let (gtx, grx) = channel();
        let gate = ServeGate::new(etx, grx, Permits::new(1));
        gtx.send(StageControl::Cancel(CancelReason::Deadline))
            .unwrap();
        assert_eq!(
            gate.on_stage(ev(StageKind::Machine)),
            StageControl::Cancel(CancelReason::Deadline)
        );
    }

    #[test]
    fn dropped_event_channel_is_typed_shutdown() {
        let (etx, erx) = channel();
        drop(erx);
        let (_gtx, grx) = channel::<StageControl>();
        let gate = ServeGate::new(etx, grx, Permits::new(1));
        assert_eq!(
            gate.on_stage(ev(StageKind::Machine)),
            StageControl::Cancel(CancelReason::Shutdown)
        );
    }

    #[test]
    fn dropped_grant_channel_unparks_with_shutdown() {
        let (etx, erx) = channel();
        let (gtx, grx) = channel::<StageControl>();
        let gate = Arc::new(ServeGate::new(etx, grx, Permits::new(1)));
        let g2 = gate.clone();
        let h = std::thread::spawn(move || g2.on_stage(ev(StageKind::Machine)));
        assert_eq!(erx.recv().unwrap().event.kind, StageKind::Machine);
        drop(gtx); // scheduler dies while the tenant is parked
        assert_eq!(
            h.join().unwrap(),
            StageControl::Cancel(CancelReason::Shutdown)
        );
    }

    #[test]
    fn permits_bound_holders() {
        let p = Permits::new(2);
        let a = p.acquire();
        let b = p.acquire();
        // A third acquire would block; dropping a held permit frees a
        // slot first.
        drop(a);
        let c = p.acquire();
        drop((b, c));
        let _d = p.acquire();
    }
}
