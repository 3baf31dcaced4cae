//! Pooling of [`ScratchArena`]s.
//!
//! [`ArenaPool`] owns one slot per expected concurrent execution, each
//! behind its own `Mutex`, so callers on different threads do not funnel
//! through one lock. [`ArenaPool::with_any`] scans for a free slot and falls
//! back to an overflow stack: oversubscription degrades to extra arenas,
//! never to blocking behind a busy slot, and two concurrent executions can
//! never alias an arena (the `Mutex` per slot makes aliasing
//! unrepresentable; the engine's concurrency test locks this down).

use crate::view::ScratchArena;
use std::sync::{Mutex, PoisonError, TryLockError};

/// A pool of [`ScratchArena`]s with one slot per expected concurrent caller.
#[derive(Debug, Default)]
pub struct ArenaPool {
    /// One slot per expected concurrent caller.
    slots: Vec<Mutex<ScratchArena>>,
    /// Extra arenas for oversubscribed `with_any` callers.
    overflow: Mutex<Vec<ScratchArena>>,
}

impl ArenaPool {
    /// A pool with `workers` slots (at least one).
    pub fn new(workers: usize) -> Self {
        ArenaPool {
            slots: (0..workers.max(1))
                .map(|_| Mutex::new(ScratchArena::new()))
                .collect(),
            overflow: Mutex::new(Vec::new()),
        }
    }

    /// Number of slots.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Runs `f` with any free arena: the first unlocked slot, else an arena
    /// popped from (and returned to) the overflow stack. Never blocks on a
    /// busy slot, so concurrent callers always get distinct arenas.
    ///
    /// A slot whose previous user panicked stays in service: poison is
    /// recovered, which is sound because every fragment build clears the
    /// arena buffers it reads, so a torn arena holds nothing a caller sees.
    pub fn with_any<R>(&self, f: impl FnOnce(&mut ScratchArena) -> R) -> R {
        for slot in &self.slots {
            match slot.try_lock() {
                Ok(mut arena) => return f(&mut arena),
                Err(TryLockError::Poisoned(poisoned)) => return f(&mut poisoned.into_inner()),
                Err(TryLockError::WouldBlock) => {}
            }
        }
        let overflow = || self.overflow.lock().unwrap_or_else(PoisonError::into_inner);
        let mut arena = overflow().pop().unwrap_or_default();
        let result = f(&mut arena);
        overflow().push(arena);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn a_panic_inside_with_any_leaves_its_slot_in_service() {
        let pool = ArenaPool::new(1);
        let addr = |arena: &mut ScratchArena| arena as *mut ScratchArena as usize;
        let slot = pool.with_any(addr);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with_any(|_| panic!("matcher panic"))
        }));
        assert!(panicked.is_err());
        assert!(pool.slots[0].is_poisoned());
        // The next caller gets the same slot, not an overflow arena.
        assert_eq!(pool.with_any(addr), slot);
        assert_eq!(pool.with_any(addr), slot);
        assert!(pool.overflow.lock().unwrap().is_empty());
    }

    #[test]
    fn with_any_never_hands_out_a_busy_arena() {
        let pool = ArenaPool::new(1);
        let barrier = Barrier::new(2);
        let overlap = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    pool.with_any(|arena| {
                        let addr = arena as *mut ScratchArena as usize;
                        // Both threads hold an arena across this barrier, so
                        // the addresses they publish describe overlapping
                        // checkouts — they must differ.
                        barrier.wait();
                        let prev = overlap.swap(addr, Ordering::SeqCst);
                        if prev != 0 {
                            assert_ne!(prev, addr, "concurrent checkouts aliased one arena");
                        }
                        barrier.wait();
                    });
                });
            }
        });
    }
}
