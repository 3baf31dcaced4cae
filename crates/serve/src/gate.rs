//! Admission control: a bounded in-flight gate with graceful draining.
//!
//! A serving front end must not buffer unboundedly when offered load exceeds
//! capacity — queueing only moves the problem and turns overload into
//! latency collapse. [`AdmissionGate`] implements the standard alternative:
//! a hard cap on concurrently admitted requests. Requests beyond the cap are
//! *rejected immediately* (the caller answers `overloaded` with a
//! retry-after hint) instead of enqueued, and a draining server rejects all
//! new work while admitted requests run to completion on their pinned
//! snapshots.
//!
//! The gate is transport-agnostic — `bgpq-net` puts it in front of TCP
//! sessions, tests drive it directly — and deliberately tiny: an atomic
//! in-flight counter with compare-and-swap admission, plus a mutex/condvar
//! pair so [`AdmissionGate::await_idle`] can block until the last permit
//! drops.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The outcome of one admission attempt.
#[derive(Debug)]
pub enum Admission {
    /// The request may run; drop the permit when it finishes (response
    /// written, not merely computed).
    Admitted(AdmissionPermit),
    /// The in-flight cap is reached; reject with `overloaded` and a
    /// retry-after hint rather than queueing.
    Overloaded {
        /// Requests currently in flight (== the configured limit).
        in_flight: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The gate is draining; reject with `draining`.
    Draining,
}

/// Lifetime counters of an [`AdmissionGate`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected because the in-flight cap was reached.
    pub rejected_overloaded: u64,
    /// Requests rejected because the gate was draining.
    pub rejected_draining: u64,
    /// Highest concurrently-admitted count observed.
    pub peak_in_flight: usize,
}

/// A bounded in-flight admission gate (see the module docs).
#[derive(Debug)]
pub struct AdmissionGate {
    limit: usize,
    in_flight: AtomicUsize,
    draining: AtomicBool,
    admitted: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_draining: AtomicU64,
    peak: AtomicUsize,
    /// Wakes [`AdmissionGate::await_idle`] when the in-flight count drops.
    idle: Mutex<()>,
    idle_cv: Condvar,
}

impl AdmissionGate {
    /// Creates a gate admitting at most `limit` concurrent requests. A limit
    /// of zero is legal and rejects every request — useful to take a server
    /// out of rotation (and to test overload handling deterministically).
    pub fn new(limit: usize) -> Arc<Self> {
        Arc::new(AdmissionGate {
            limit,
            in_flight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            rejected_overloaded: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            peak: AtomicUsize::new(0),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
        })
    }

    /// Attempts to admit one request.
    pub fn try_admit(self: &Arc<Self>) -> Admission {
        if self.draining.load(Ordering::Acquire) {
            self.rejected_draining.fetch_add(1, Ordering::Relaxed);
            return Admission::Draining;
        }
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= self.limit {
                self.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
                return Admission::Overloaded {
                    in_flight: current,
                    limit: self.limit,
                };
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.peak.fetch_max(current + 1, Ordering::Relaxed);
        Admission::Admitted(AdmissionPermit {
            gate: Arc::clone(self),
        })
    }

    /// Switches the gate into draining: every subsequent [`try_admit`]
    /// returns [`Admission::Draining`]; permits already handed out stay
    /// valid. Idempotent.
    ///
    /// [`try_admit`]: AdmissionGate::try_admit
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// True once [`begin_drain`](AdmissionGate::begin_drain) was called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Requests currently admitted.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// The configured cap.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Blocks until every admitted request has dropped its permit, or until
    /// `timeout` elapses; returns whether the gate is idle. Typically called
    /// after [`begin_drain`](AdmissionGate::begin_drain), when no new
    /// permits can appear.
    pub fn await_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        while self.in_flight.load(Ordering::Acquire) > 0 {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (g, _) = self
                .idle_cv
                .wait_timeout(guard, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
        true
    }

    /// Lifetime counters.
    pub fn stats(&self) -> GateStats {
        GateStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            peak_in_flight: self.peak.load(Ordering::Relaxed),
        }
    }

    fn release(&self) {
        // The idle lock guards `()`, so a poisoned one tears nothing; and this
        // runs in a permit's `Drop`, where a panic while unwinding aborts.
        let _guard = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.idle_cv.notify_all();
    }
}

/// RAII token for one admitted request; dropping it frees the slot.
#[derive(Debug)]
pub struct AdmissionPermit {
    gate: Arc<AdmissionGate>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn admits_up_to_the_limit_then_rejects() {
        let gate = AdmissionGate::new(2);
        let Admission::Admitted(a) = gate.try_admit() else {
            panic!("first admit must pass");
        };
        let Admission::Admitted(b) = gate.try_admit() else {
            panic!("second admit must pass");
        };
        match gate.try_admit() {
            Admission::Overloaded { in_flight, limit } => {
                assert_eq!((in_flight, limit), (2, 2));
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        drop(a);
        assert!(matches!(gate.try_admit(), Admission::Admitted(_)));
        drop(b);
        let stats = gate.stats();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.rejected_overloaded, 1);
        assert_eq!(stats.peak_in_flight, 2);
    }

    #[test]
    fn zero_limit_rejects_everything() {
        let gate = AdmissionGate::new(0);
        assert!(matches!(
            gate.try_admit(),
            Admission::Overloaded { limit: 0, .. }
        ));
        assert_eq!(gate.stats().admitted, 0);
    }

    #[test]
    fn draining_rejects_new_work_but_keeps_permits() {
        let gate = AdmissionGate::new(4);
        let Admission::Admitted(permit) = gate.try_admit() else {
            panic!("admit before drain");
        };
        gate.begin_drain();
        assert!(gate.is_draining());
        assert!(matches!(gate.try_admit(), Admission::Draining));
        assert_eq!(gate.in_flight(), 1);
        // Not idle while the permit lives; idle as soon as it drops.
        assert!(!gate.await_idle(Duration::from_millis(10)));
        drop(permit);
        assert!(gate.await_idle(Duration::from_millis(100)));
        assert_eq!(gate.stats().rejected_draining, 1);
    }

    #[test]
    fn a_poisoned_idle_lock_is_recovered() {
        let gate = AdmissionGate::new(1);
        thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = gate.idle.lock();
                panic!("a panic while the idle lock is held");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(gate.idle.is_poisoned());
        let Admission::Admitted(permit) = gate.try_admit() else {
            panic!("admit on a poisoned gate");
        };
        drop(permit);
        assert!(gate.await_idle(Duration::from_millis(100)));
        assert!(matches!(gate.try_admit(), Admission::Admitted(_)));
    }

    #[test]
    fn await_idle_wakes_on_cross_thread_release() {
        let gate = AdmissionGate::new(1);
        let Admission::Admitted(permit) = gate.try_admit() else {
            panic!("admit");
        };
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.await_idle(Duration::from_secs(5)))
        };
        thread::sleep(Duration::from_millis(20));
        drop(permit);
        assert!(waiter.join().unwrap(), "waiter saw the release");
    }
}
