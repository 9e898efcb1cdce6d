//! Property tests for the striped lock manager.
//!
//! Striping is supposed to be a pure indexing layout: every observable of
//! [`LockManager`] — grant decisions, FIFO wake-ups, `holds`, queue depths
//! — must be identical whatever the stripe count. And the coordinator's
//! deadlock-freedom argument (locks acquired in globally ascending object
//! order, a total order across stripes) must hold for *random* multi-key
//! transactions, not just the shapes the simulator happens to produce.

use arbitree_sim::{LockManager, LockMode, ObjectId, OpId};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

/// One scripted lock-manager call.
#[derive(Debug, Clone)]
enum Call {
    Acquire { op: u64, obj: u32, write: bool },
    Release { op: u64, obj: u32 },
}

fn call_strategy() -> impl Strategy<Value = Call> {
    (any::<bool>(), 0u64..12, 0u32..24, any::<bool>()).prop_map(|(acquire, op, obj, write)| {
        if acquire {
            Call::Acquire { op, obj, write }
        } else {
            Call::Release { op, obj }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any call script observes the same behaviour from a 1-stripe and a
    /// many-stripe manager: same immediate grants, same wake-up lists,
    /// same holder/queue state after every step.
    #[test]
    fn striping_is_observably_equivalent_to_one_table(
        script in proptest::collection::vec(call_strategy(), 1..80),
        stripes in 2usize..9,
    ) {
        let flat = LockManager::new();
        let striped = LockManager::striped(stripes);
        // (op, obj) pairs with a live acquire (held or queued), so the
        // script never re-acquires a held lock (a caller contract).
        let mut live: BTreeSet<(u64, u32)> = BTreeSet::new();
        for call in script {
            match call {
                Call::Acquire { op, obj, write } => {
                    if live.contains(&(op, obj)) {
                        continue;
                    }
                    live.insert((op, obj));
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    let a = flat.acquire(OpId(op), ObjectId(obj), mode);
                    let b = striped.acquire(OpId(op), ObjectId(obj), mode);
                    prop_assert_eq!(a, b, "grant decision diverged on {:?}", (op, obj));
                }
                Call::Release { op, obj } => {
                    live.remove(&(op, obj));
                    let a = flat.release(OpId(op), ObjectId(obj));
                    let b = striped.release(OpId(op), ObjectId(obj));
                    prop_assert_eq!(a, b, "wake-up list diverged on {:?}", (op, obj));
                }
            }
            for op in 0u64..12 {
                for obj in 0u32..24 {
                    prop_assert_eq!(
                        flat.holds(OpId(op), ObjectId(obj)),
                        striped.holds(OpId(op), ObjectId(obj))
                    );
                }
            }
            for obj in 0u32..24 {
                prop_assert_eq!(flat.queue_len(ObjectId(obj)), striped.queue_len(ObjectId(obj)));
            }
            prop_assert_eq!(flat.locked_objects(), striped.locked_objects());
        }
    }

    /// Random multi-key transactions that acquire their locks in ascending
    /// object order (the coordinator's strict-2PL plan order) always all
    /// complete — no schedule deadlocks, whatever the stripe count.
    #[test]
    fn ordered_acquisition_never_deadlocks(
        plans in proptest::collection::vec(
            proptest::collection::vec((0u32..16, any::<bool>()), 1..6),
            2..10,
        ),
        stripes in 1usize..9,
    ) {
        // Dedup objects inside a plan (a transaction locks each object
        // once); keep the stronger mode when both were generated.
        struct Txn {
            plan: Vec<(ObjectId, LockMode)>,
            next: usize,
            done: bool,
        }
        let mut txns: Vec<Txn> = plans
            .iter()
            .map(|raw| {
                // Sort ascending (the coordinator's total acquisition
                // order) and collapse duplicate objects, keeping the
                // stronger mode.
                let mut sorted = raw.clone();
                sorted.sort_unstable();
                let mut plan: Vec<(ObjectId, LockMode)> = Vec::new();
                for (obj, write) in sorted {
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    match plan.last_mut() {
                        Some((last, m)) if *last == ObjectId(obj) => {
                            if mode == LockMode::Write {
                                *m = LockMode::Write;
                            }
                        }
                        _ => plan.push((ObjectId(obj), mode)),
                    }
                }
                Txn { plan, next: 0, done: false }
            })
            .collect();

        let lm = LockManager::striped(stripes);
        let mut work: VecDeque<usize> = (0..txns.len()).collect();
        let mut steps = 0usize;
        while let Some(i) = work.pop_front() {
            steps += 1;
            prop_assert!(steps <= 10_000, "lock scheduler failed to quiesce");
            if txns[i].done {
                continue;
            }
            loop {
                if txns[i].next == txns[i].plan.len() {
                    // Strict 2PL: all locks held -> commit, release
                    // everything, wake whoever was queued behind us.
                    txns[i].done = true;
                    let plan = txns[i].plan.clone();
                    for (obj, _) in plan {
                        for granted in lm.release(OpId(i as u64), obj) {
                            // arbitree-lint: allow(D004) — op ids are txn indices, all < txns.len()
                            work.push_back(granted.0 as usize);
                        }
                    }
                    break;
                }
                let (obj, mode) = txns[i].plan[txns[i].next];
                // A wake-up means the manager already granted this lock.
                if lm.holds(OpId(i as u64), obj) || lm.acquire(OpId(i as u64), obj, mode) {
                    txns[i].next += 1;
                } else {
                    break; // queued; a future release re-enqueues us
                }
            }
        }
        prop_assert!(
            txns.iter().all(|t| t.done),
            "stuck transactions: {:?}",
            txns.iter().enumerate().filter(|(_, t)| !t.done).map(|(i, _)| i).collect::<Vec<_>>()
        );
        prop_assert_eq!(lm.locked_objects(), 0, "locks leaked after quiescence");
    }
}
