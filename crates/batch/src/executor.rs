//! The deterministic worker-pool primitives of the two front-ends over
//! the job core ([`crate::JobCore`]): the batch runner and the
//! `eco-serve` daemon. Each front-end keeps its own shape of work
//! distribution — the job core itself does not schedule:
//!
//! * [`run_indexed`] — the batch runner's claim-counter pool: `count`
//!   indexed tasks, one shared [`AtomicUsize`] that workers draw the next
//!   unclaimed index from, one result slot per index merged back in index
//!   order. Results are position-stable whatever the interleaving.
//! * [`BoundedQueue`] — the daemon's admission-control queue: a blocking
//!   MPMC queue with a hard capacity (pushes beyond it are refused, never
//!   blocked, so the caller can shed load with a typed "busy" response)
//!   and explicit close semantics for graceful drain (a closed queue
//!   refuses new work while pops keep draining what was admitted).
//!
//! # Panic containment
//!
//! Both primitives survive panicking tasks. Jobs already run inside
//! `JobCore::run`'s panic boundary; `run_indexed` additionally wraps
//! every task in [`catch_unwind`] and substitutes the caller's
//! `on_panic` record, so a panic outside the job itself becomes one
//! error result instead of a dead worker. All locks recover from
//! poisoning via
//! [`PoisonError::into_inner`]: the protected data is a plain
//! `Option<T>` slot or `VecDeque` whose invariants hold at every await
//! point, so a panic while a lock was held must degrade to "use the data
//! as-is", not abort every sibling worker holding the same stripe.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning. Safe whenever the protected
/// data is valid at every point a panic can unwind through (true for the
/// plain-data containers this module guards, the journal's log writer,
/// and the daemon's response sequencer).
pub fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resolves a worker-count knob: `0` means one worker per available
/// core.
pub fn resolve_workers(workers: usize) -> usize {
    match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Runs `count` indexed tasks over `workers` threads with work stealing
/// at task granularity, returning results in index order.
///
/// Each worker repeatedly claims the next unclaimed index from a shared
/// atomic counter and stores `run(index)` into that index's slot, so a
/// worker finishing early immediately picks up remaining work. A task
/// that panics contributes `on_panic(index)` instead of killing its
/// worker (or, transitively, the pool). `workers <= 1` runs inline on
/// the caller's thread with identical semantics.
///
/// `on_panic` must not itself panic; if it does, the panic propagates to
/// the caller after the pool drains.
pub fn run_indexed<T, F, P>(workers: usize, count: usize, run: F, on_panic: P) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    P: Fn(usize) -> T + Sync,
{
    let run_caught = |index: usize| {
        catch_unwind(AssertUnwindSafe(|| run(index))).unwrap_or_else(|_| on_panic(index))
    };
    if workers <= 1 || count <= 1 {
        return (0..count).map(run_caught).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.min(count) {
            s.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let result = run_caught(index);
                // A sibling's panic while writing must not cascade: the
                // slot holds a plain `Option`, safe to use after poison.
                *lock_recovering(&slots[index]) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // Every slot is filled before the scope exits; the
                // fallback only fires if `on_panic` itself panicked.
                .unwrap_or_else(|| on_panic(index))
        })
        .collect()
}

/// Why a [`BoundedQueue::try_push`] was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — shed load (typed "busy" response).
    Full,
    /// The queue was closed for admission (drain in progress).
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking MPMC queue with close-for-drain semantics — the
/// admission-control core of the `eco-serve` daemon.
///
/// Producers use [`BoundedQueue::try_push`], which never blocks: beyond
/// `capacity` (or after [`BoundedQueue::close`]) the item comes straight
/// back with a typed reason. Consumers use [`BoundedQueue::pop`], which
/// blocks until an item arrives or the queue is closed *and* empty —
/// admitted work always drains before workers see the shutdown.
pub struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    readable: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` queued items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits `item`, or returns it with the refusal reason. Never
    /// blocks.
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut state = lock_recovering(&self.inner);
        if state.closed {
            return Err((item, PushError::Closed));
        }
        if state.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        state.items.push_back(item);
        drop(state);
        self.readable.notify_one();
        Ok(())
    }

    /// Blocks for the next admitted item; `None` once the queue is
    /// closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = lock_recovering(&self.inner);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .readable
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes admission: later pushes are refused with
    /// [`PushError::Closed`], pops drain the remainder then return
    /// `None`, and all blocked consumers wake.
    pub fn close(&self) {
        lock_recovering(&self.inner).closed = true;
        self.readable.notify_all();
    }

    /// Items currently queued (admitted, not yet popped).
    pub fn len(&self) -> usize {
        lock_recovering(&self.inner).items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn run_indexed_preserves_index_order_for_any_worker_count() {
        for workers in [1, 2, 4, 9] {
            let out = run_indexed(workers, 20, |i| i * 3, |_| usize::MAX);
            assert_eq!(out, (0..20).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    /// The regression the batch runner needs: one panicking task becomes
    /// one `on_panic` record while every sibling task still completes —
    /// on the same worker pool, with no poisoned-lock cascade.
    #[test]
    fn panicking_task_yields_error_record_and_siblings_complete() {
        for workers in [1, 4] {
            let out = run_indexed(
                workers,
                12,
                |i| {
                    if i == 5 {
                        panic!("job 5 exploded");
                    }
                    i as i64
                },
                |i| -(i as i64),
            );
            let expect: Vec<i64> = (0..12).map(|i| if i == 5 { -5 } else { i }).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn many_panics_do_not_exhaust_the_pool() {
        let ran = AtomicU64::new(0);
        let out = run_indexed(
            3,
            50,
            |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i % 2 == 0 {
                    panic!("even index");
                }
                1u64
            },
            |_| 0u64,
        );
        assert_eq!(ran.load(Ordering::Relaxed), 50, "every task was attempted");
        assert_eq!(out.iter().sum::<u64>(), 25);
    }

    /// Directly poisons a slot-style mutex (panic while holding the
    /// guard) and asserts recovery sees the data instead of panicking —
    /// the exact failure mode of the old `.lock().unwrap()` sites.
    #[test]
    fn poisoned_slot_lock_recovers_to_inner_data() {
        let slot: Arc<Mutex<Option<u32>>> = Arc::new(Mutex::new(Some(7)));
        let poisoner = Arc::clone(&slot);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("die while holding the slot lock");
        })
        .join();
        assert!(slot.lock().is_err(), "the lock must actually be poisoned");
        assert_eq!(*lock_recovering(&slot), Some(7));
        *lock_recovering(&slot) = Some(9);
        assert_eq!(
            Arc::try_unwrap(slot)
                .unwrap()
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
            Some(9)
        );
    }

    #[test]
    fn bounded_queue_sheds_load_beyond_capacity() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let (item, reason) = q.try_push(3).unwrap_err();
        assert_eq!((item, reason), (3, PushError::Full));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "capacity frees as items pop");
    }

    #[test]
    fn closed_queue_refuses_new_work_but_drains_admitted_work() {
        let q = BoundedQueue::new(4);
        q.try_push("in-flight").unwrap();
        q.close();
        let (_, reason) = q.try_push("late").unwrap_err();
        assert_eq!(reason, PushError::Closed);
        assert_eq!(q.pop(), Some("in-flight"), "admitted work still drains");
        assert_eq!(q.pop(), None, "then consumers see the shutdown");
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u8>::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn queue_survives_concurrent_producers_and_consumers() {
        let q = BoundedQueue::new(8);
        let popped = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while q.pop().is_some() {
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            s.spawn(|| {
                let mut pushed = 0u64;
                while pushed < 100 {
                    if q.try_push(pushed).is_ok() {
                        pushed += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                q.close();
            });
        });
        assert_eq!(popped.load(Ordering::Relaxed), 100);
    }
}
