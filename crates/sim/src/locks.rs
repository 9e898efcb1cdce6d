//! The centralized concurrency control of §2.2: a strict two-phase-locking
//! lock manager shared by all clients, with FIFO queueing (no starvation)
//! and shared read locks.
//!
//! The table is *striped*: objects hash onto per-shard lock tables with the
//! same [`arbitree_quorum::shard_index`] map the coordinator uses for
//! protocol routing. Striping is purely an indexing layout: grant/queue
//! semantics are those of one global table, and deadlock freedom still
//! comes from the coordinator acquiring object locks in globally ascending
//! order (a total order across every stripe).
//!
//! A simulation runs on one thread, so each stripe is a [`RefCell`]: the
//! `&self` methods borrow it for the duration of one call, and the manager
//! is `!Sync` — sharing it across threads is a compile error.

use crate::message::{ObjectId, OpId};
use arbitree_core::DetMap;
use arbitree_quorum::shard_index;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;

/// Lock mode requested by an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared: concurrent readers allowed.
    Read,
    /// Exclusive.
    Write,
}

#[derive(Debug, Default)]
struct LockState {
    holders: Vec<(OpId, LockMode)>,
    queue: VecDeque<(OpId, LockMode)>,
}

impl LockState {
    fn compatible(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Write => self.holders.is_empty(),
            LockMode::Read => self.holders.iter().all(|(_, m)| *m == LockMode::Read),
        }
    }
}

/// One stripe's lock table.
#[derive(Debug, Default)]
struct LockTable {
    objects: DetMap<ObjectId, LockState>,
}

/// The lock manager: one [`LockTable`] per stripe.
pub struct LockManager {
    stripes: Vec<RefCell<LockTable>>,
}

/// Prints the text of the former mutex-per-stripe layout,
/// `LockManager { stripes: [TracedMutex { inner: Mutex { data: LockTable
/// { .. }, poisoned: false, .. } }, ..] }`: model-checker state
/// fingerprints hash this string, and their pinned counts depend on it.
impl fmt::Debug for LockManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Stripes<'a>(&'a [RefCell<LockTable>]);
        struct Stripe<'a>(&'a RefCell<LockTable>);
        struct Inner<'a>(&'a LockTable);
        impl fmt::Debug for Stripes<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter().map(Stripe)).finish()
            }
        }
        impl fmt::Debug for Stripe<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct("TracedMutex")
                    .field("inner", &Inner(&self.0.borrow()))
                    .finish()
            }
        }
        impl fmt::Debug for Inner<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct("Mutex")
                    .field("data", self.0)
                    .field("poisoned", &false)
                    .finish_non_exhaustive()
            }
        }
        f.debug_struct("LockManager")
            .field("stripes", &Stripes(&self.stripes))
            .finish()
    }
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new()
    }
}

impl LockManager {
    /// Creates an unstriped (single-table) lock manager.
    pub fn new() -> Self {
        LockManager::striped(1)
    }

    /// Creates a lock manager with `stripes` independent tables, objects
    /// hashed across them by [`shard_index`].
    ///
    /// # Panics
    ///
    /// Panics if `stripes == 0`.
    pub fn striped(stripes: usize) -> Self {
        assert!(stripes > 0, "need at least one stripe");
        LockManager {
            stripes: (0..stripes)
                .map(|_| RefCell::new(LockTable::default()))
                .collect(),
        }
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe `obj` hashes to.
    pub fn stripe_of(&self, obj: ObjectId) -> usize {
        shard_index(u64::from(obj.0), self.stripes.len())
    }

    /// Requests a lock. Returns `true` if granted immediately; otherwise the
    /// request is queued FIFO and will be granted by a later
    /// [`release`](Self::release).
    ///
    /// A read request is only granted immediately when nothing is queued
    /// ahead of it, so writers are never starved by a stream of readers.
    pub fn acquire(&self, op: OpId, obj: ObjectId, mode: LockMode) -> bool {
        let mut table = self.stripes[self.stripe_of(obj)].borrow_mut();
        let state = table.objects.entry(obj).or_default();
        debug_assert!(
            !state.holders.iter().any(|(o, _)| *o == op),
            "operation already holds this lock"
        );
        if state.queue.is_empty() && state.compatible(mode) {
            state.holders.push((op, mode));
            true
        } else {
            state.queue.push_back((op, mode));
            false
        }
    }

    /// Releases `op`'s lock (or queued request) on `obj`, returning the
    /// operations whose queued requests are granted as a result, in FIFO
    /// order.
    pub fn release(&self, op: OpId, obj: ObjectId) -> Vec<OpId> {
        let mut table = self.stripes[self.stripe_of(obj)].borrow_mut();
        let Some(state) = table.objects.get_mut(&obj) else {
            return Vec::new();
        };
        state.holders.retain(|(o, _)| *o != op);
        state.queue.retain(|(o, _)| *o != op);

        let mut granted = Vec::new();
        while let Some(&(next_op, next_mode)) = state.queue.front() {
            if state.compatible(next_mode) {
                state.queue.pop_front();
                state.holders.push((next_op, next_mode));
                granted.push(next_op);
                if next_mode == LockMode::Write {
                    break;
                }
            } else {
                break;
            }
        }
        if state.holders.is_empty() && state.queue.is_empty() {
            table.objects.remove(&obj);
        }
        granted
    }

    /// Whether `op` currently holds a lock on `obj`.
    pub fn holds(&self, op: OpId, obj: ObjectId) -> bool {
        self.stripes[self.stripe_of(obj)]
            .borrow()
            .objects
            .get(&obj)
            .is_some_and(|s| s.holders.iter().any(|(o, _)| *o == op))
    }

    /// Number of operations waiting on `obj`.
    pub fn queue_len(&self, obj: ObjectId) -> usize {
        self.stripes[self.stripe_of(obj)]
            .borrow()
            .objects
            .get(&obj)
            .map_or(0, |s| s.queue.len())
    }

    /// Total number of objects with live lock state, across all stripes
    /// (tests, invariants).
    pub fn locked_objects(&self) -> usize {
        self.stripes.iter().map(|t| t.borrow().objects.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBJ: ObjectId = ObjectId(0);

    #[test]
    fn readers_share_writers_exclude() {
        let lm = LockManager::new();
        assert!(lm.acquire(OpId(1), OBJ, LockMode::Read));
        assert!(lm.acquire(OpId(2), OBJ, LockMode::Read));
        assert!(!lm.acquire(OpId(3), OBJ, LockMode::Write));
        assert_eq!(lm.queue_len(OBJ), 1);
        assert!(lm.release(OpId(1), OBJ).is_empty());
        // Writer granted once the last reader leaves.
        assert_eq!(lm.release(OpId(2), OBJ), vec![OpId(3)]);
        assert!(lm.holds(OpId(3), OBJ));
    }

    #[test]
    fn fifo_prevents_reader_starvation() {
        let lm = LockManager::new();
        assert!(lm.acquire(OpId(1), OBJ, LockMode::Read));
        assert!(!lm.acquire(OpId(2), OBJ, LockMode::Write));
        // A new reader must queue behind the waiting writer.
        assert!(!lm.acquire(OpId(3), OBJ, LockMode::Read));
        let granted = lm.release(OpId(1), OBJ);
        assert_eq!(granted, vec![OpId(2)]);
        let granted = lm.release(OpId(2), OBJ);
        assert_eq!(granted, vec![OpId(3)]);
    }

    #[test]
    fn consecutive_readers_granted_together() {
        let lm = LockManager::new();
        assert!(lm.acquire(OpId(1), OBJ, LockMode::Write));
        assert!(!lm.acquire(OpId(2), OBJ, LockMode::Read));
        assert!(!lm.acquire(OpId(3), OBJ, LockMode::Read));
        assert!(!lm.acquire(OpId(4), OBJ, LockMode::Write));
        let granted = lm.release(OpId(1), OBJ);
        assert_eq!(granted, vec![OpId(2), OpId(3)]);
        // The writer waits for both readers.
        assert!(lm.release(OpId(2), OBJ).is_empty());
        assert_eq!(lm.release(OpId(3), OBJ), vec![OpId(4)]);
    }

    #[test]
    fn release_of_queued_request_cancels_it() {
        let lm = LockManager::new();
        assert!(lm.acquire(OpId(1), OBJ, LockMode::Write));
        assert!(!lm.acquire(OpId(2), OBJ, LockMode::Write));
        // Op 2 gives up while queued.
        lm.release(OpId(2), OBJ);
        assert_eq!(lm.queue_len(OBJ), 0);
        assert!(lm.release(OpId(1), OBJ).is_empty());
    }

    #[test]
    fn objects_are_independent() {
        let lm = LockManager::new();
        assert!(lm.acquire(OpId(1), ObjectId(0), LockMode::Write));
        assert!(lm.acquire(OpId(2), ObjectId(1), LockMode::Write));
    }

    #[test]
    fn table_shrinks_when_idle() {
        let lm = LockManager::new();
        lm.acquire(OpId(1), OBJ, LockMode::Write);
        lm.release(OpId(1), OBJ);
        assert_eq!(lm.locked_objects(), 0);
    }

    #[test]
    fn striping_routes_objects_consistently() {
        let lm = LockManager::striped(4);
        assert_eq!(lm.stripe_count(), 4);
        for o in 0..64u32 {
            let obj = ObjectId(o);
            assert_eq!(lm.stripe_of(obj), shard_index(u64::from(o), 4));
            assert!(lm.acquire(OpId(u64::from(o)), obj, LockMode::Write));
            assert!(lm.holds(OpId(u64::from(o)), obj));
        }
        assert_eq!(lm.locked_objects(), 64);
        for o in 0..64u32 {
            assert!(lm.release(OpId(u64::from(o)), ObjectId(o)).is_empty());
        }
        assert_eq!(lm.locked_objects(), 0);
    }

    #[test]
    fn debug_text_is_pinned_across_stripes() {
        // Objects 2 and 0 hash to stripes 0 and 1 of a 2-stripe manager.
        let lm = LockManager::striped(2);
        assert_eq!(
            (lm.stripe_of(ObjectId(2)), lm.stripe_of(ObjectId(0))),
            (0, 1)
        );
        assert!(lm.acquire(OpId(1), ObjectId(2), LockMode::Write));
        assert!(!lm.acquire(OpId(2), ObjectId(2), LockMode::Read));
        assert!(lm.acquire(OpId(3), ObjectId(0), LockMode::Read));
        assert_eq!(
            format!("{lm:?}"),
            "LockManager { stripes: [\
             TracedMutex { inner: Mutex { data: LockTable { objects: {ObjectId(2): \
             LockState { holders: [(OpId(1), Write)], queue: [(OpId(2), Read)] }} }, \
             poisoned: false, .. } }, \
             TracedMutex { inner: Mutex { data: LockTable { objects: {ObjectId(0): \
             LockState { holders: [(OpId(3), Read)], queue: [] }} }, \
             poisoned: false, .. } }] }"
        );
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn zero_stripes_rejected() {
        let _ = LockManager::striped(0);
    }
}
