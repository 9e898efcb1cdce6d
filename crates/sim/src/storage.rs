//! Per-site durable storage: committed versions plus 2PC-staged writes.
//!
//! Storage survives *transient* crashes (a site that recovers still holds
//! its data, including prepared-but-uncommitted writes, as required for
//! 2PC to complete after recovery). An amnesia crash calls
//! [`Storage::wipe`] — everything is lost and the site must resync.
//!
//! Anti-entropy compares sites through an [`HTree`] — a cumulated-hash
//! range tree over the committed keyspace — so it can locate a diff in
//! O(diff · log n) range-hash comparisons instead of scanning (or
//! shipping) the full store. Most sites never take part in a sync, so the
//! tree is lazy: every committed write keeps only the root aggregate
//! current, in O(1). The full tree is built from the committed map the
//! first time [`Storage::htree`] is called — when the site first serves
//! or runs a sync — and from then on every committed write maintains it
//! in O(log n). A wipe returns the storage to the lazy state.

use crate::message::{ObjectId, OpId};
use arbitree_core::{DetMap, Timestamp};
use arbitree_sync::{item_hash, HTree, NodeAgg};
use bytes::Bytes;
use std::cell::OnceCell;
use std::fmt;

/// A committed object version.
#[derive(Debug, Clone, PartialEq)]
pub struct Version {
    /// The value.
    pub value: Bytes,
    /// Its timestamp.
    pub ts: Timestamp,
}

impl Default for Version {
    fn default() -> Self {
        Version {
            value: Bytes::new(),
            ts: Timestamp::ZERO,
        }
    }
}

impl Version {
    /// The range-tree item hash of this version stored under `obj`.
    fn item_hash(&self, obj: ObjectId) -> u64 {
        item_hash(
            obj.0,
            self.ts.version(),
            self.ts.sid().as_u32(),
            &self.value,
        )
    }
}

/// A staged (prepared, not yet committed) write.
#[derive(Debug, Clone, PartialEq)]
pub struct Staged {
    /// The preparing operation.
    pub op: OpId,
    /// The value to apply on commit.
    pub value: Bytes,
    /// Its timestamp.
    pub ts: Timestamp,
}

/// Durable replica storage.
#[derive(Clone, Default)]
pub struct Storage {
    committed: DetMap<ObjectId, Version>,
    staged: DetMap<ObjectId, Staged>,
    /// Root aggregate of the range tree over `committed`, maintained by
    /// every committed-map mutation (staged writes are invisible to it:
    /// only durable, committed state takes part in anti-entropy).
    root: NodeAgg,
    /// The full range tree, built from `committed` by the first
    /// [`Storage::htree`] call and maintained incrementally after that.
    htree: OnceCell<HTree>,
}

// Hand-written: the text is a model-checker fingerprint input, so it must
// not depend on whether the tree is built. It shows the root aggregate in
// `HTree`'s own `Debug` form, which prints the root only.
impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Root<'a>(&'a NodeAgg);
        impl fmt::Debug for Root<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct("HTree")
                    .field("root", self.0)
                    .finish_non_exhaustive()
            }
        }
        f.debug_struct("Storage")
            .field("committed", &self.committed)
            .field("staged", &self.staged)
            .field("htree", &Root(&self.root))
            .finish()
    }
}

impl Storage {
    /// Empty storage: every object reads as the zero version.
    pub fn new() -> Self {
        Storage::default()
    }

    /// The committed version of `obj` (zero version if never written).
    pub fn read(&self, obj: ObjectId) -> Version {
        self.committed.get(&obj).cloned().unwrap_or_default()
    }

    /// The timestamp of the committed version of `obj` (zero if never
    /// written) — [`Storage::read`]'s `ts` without copying the version.
    pub(crate) fn committed_ts(&self, obj: ObjectId) -> Timestamp {
        self.committed.get(&obj).map_or(Timestamp::ZERO, |v| v.ts)
    }

    /// The cumulated-hash range tree over the committed keyspace, built
    /// from the committed map on the first call.
    pub fn htree(&self) -> &HTree {
        self.htree.get_or_init(|| {
            let mut tree = HTree::new();
            for (obj, version) in self.committed.iter() {
                tree.insert(obj.0, version.item_hash(*obj));
            }
            tree
        })
    }

    /// Installs `value` at `ts` into the committed map and mirrors the
    /// mutation into the root aggregate and, once built, the range tree.
    /// Every committed-map write funnels through here so neither can
    /// drift from the store.
    fn install(&mut self, obj: ObjectId, value: Bytes, ts: Timestamp) {
        let version = Version { value, ts };
        let hash = version.item_hash(obj);
        match self.committed.insert(obj, version) {
            Some(old) => self.root.hash ^= old.item_hash(obj),
            None => self.root.count += 1,
        }
        self.root.hash ^= hash;
        if let Some(tree) = self.htree.get_mut() {
            tree.insert(obj.0, hash);
        }
    }

    /// Stages a write (2PC phase 1). Re-staging by the same operation is
    /// idempotent (message retries). A stage left behind by a *different*
    /// operation is replaced only when the new timestamp is strictly
    /// greater — safe because the global lock manager admits one writer per
    /// object at a time, so an older stale stage can only belong to an
    /// operation that gave up before its commit point (its `Abort` was lost)
    /// and will therefore never commit. An equal-or-lower timestamp gets a
    /// vote-abort.
    pub fn prepare(&mut self, obj: ObjectId, op: OpId, value: Bytes, ts: Timestamp) -> bool {
        match self.staged.get(&obj) {
            Some(existing) if existing.op != op && ts <= existing.ts => false,
            _ => {
                self.staged.insert(obj, Staged { op, value, ts });
                true
            }
        }
    }

    /// Applies the decided write of `op` (2PC phase 2). Idempotent: replays
    /// succeed without changing state. Normally the staged entry is
    /// consumed; when no matching stage exists — it was lost to an amnesia
    /// crash, or already consumed by an earlier delivery — the carried
    /// `(value, ts)` is installed directly. Either way the write lands only
    /// when its timestamp exceeds the committed one, so stale replays and
    /// pre-resync'd newer values are never regressed.
    pub fn commit(&mut self, obj: ObjectId, op: OpId, value: Bytes, ts: Timestamp) {
        if self.staged.get(&obj).is_some_and(|s| s.op == op) {
            if let Some(staged) = self.staged.remove(&obj) {
                if staged.ts > self.committed_ts(obj) {
                    self.install(obj, staged.value, staged.ts);
                }
                return;
            }
        }
        if ts > self.committed_ts(obj) {
            self.install(obj, value, ts);
        }
    }

    /// Discards the staged write of `op`, if present.
    pub fn abort(&mut self, obj: ObjectId, op: OpId) {
        if let Some(staged) = self.staged.get(&obj) {
            if staged.op == op {
                self.staged.remove(&obj);
            }
        }
    }

    /// Read-repair / anti-entropy install: directly applies `value` at `ts`
    /// when it is newer than the committed version. Used only for values
    /// that are already durable on a full write quorum elsewhere. Returns
    /// whether the value was applied (`false`: the local copy was already
    /// at least as new).
    pub fn repair(&mut self, obj: ObjectId, value: Bytes, ts: Timestamp) -> bool {
        if ts > self.committed_ts(obj) {
            self.install(obj, value, ts);
            true
        } else {
            false
        }
    }

    /// An amnesia crash: all durable state — committed versions, staged
    /// writes, and the range tree over them — is lost.
    pub fn wipe(&mut self) {
        *self = Storage::default();
    }

    /// The staged write for `obj`, if any (used by tests and invariants).
    pub fn staged(&self, obj: ObjectId) -> Option<&Staged> {
        self.staged.get(&obj)
    }

    /// Committed entries in sorted object order — an insertion-order-free
    /// view for canonical fingerprinting (the `DetMap` itself iterates in
    /// insertion order, which depends on the schedule that built it).
    pub fn committed_sorted(&self) -> Vec<(ObjectId, &Version)> {
        let mut entries: Vec<_> = self.committed.iter().map(|(k, v)| (*k, v)).collect();
        entries.sort_by_key(|(obj, _)| obj.0);
        entries
    }

    /// Staged entries in sorted object order (see
    /// [`Storage::committed_sorted`]).
    pub fn staged_sorted(&self) -> Vec<(ObjectId, &Staged)> {
        let mut entries: Vec<_> = self.staged.iter().map(|(k, v)| (*k, v)).collect();
        entries.sort_by_key(|(obj, _)| obj.0);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_quorum::SiteId;
    use arbitree_sync::Range;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v, SiteId::new(0))
    }

    #[test]
    fn read_of_unwritten_object_is_zero_version() {
        let s = Storage::new();
        let v = s.read(ObjectId(0));
        assert_eq!(v.ts, Timestamp::ZERO);
        assert_eq!(s.committed_ts(ObjectId(0)), Timestamp::ZERO);
        assert!(v.value.is_empty());
        assert!(s.htree().is_empty());
    }

    #[test]
    fn prepare_commit_cycle() {
        let mut s = Storage::new();
        let obj = ObjectId(1);
        assert!(s.prepare(obj, OpId(1), Bytes::from_static(b"a"), ts(1)));
        assert!(s.staged(obj).is_some());
        // Value not visible before commit — and invisible to the range tree.
        assert_eq!(s.read(obj).ts, Timestamp::ZERO);
        assert!(s.htree().is_empty());
        s.commit(obj, OpId(1), Bytes::from_static(b"a"), ts(1));
        assert_eq!(s.read(obj).ts, ts(1));
        assert_eq!(s.committed_ts(obj), ts(1));
        assert_eq!(s.read(obj).value, Bytes::from_static(b"a"));
        assert!(s.staged(obj).is_none());
        assert_eq!(s.htree().len(), 1);
    }

    #[test]
    fn conflicting_prepare_rules() {
        let mut s = Storage::new();
        let obj = ObjectId(0);
        assert!(s.prepare(obj, OpId(1), Bytes::new(), ts(2)));
        // Different op, lower or equal timestamp: vote-abort.
        assert!(!s.prepare(obj, OpId(2), Bytes::new(), ts(2)));
        assert!(!s.prepare(obj, OpId(2), Bytes::new(), ts(1)));
        // Different op, strictly higher timestamp: replaces a stale stage.
        assert!(s.prepare(obj, OpId(2), Bytes::new(), ts(3)));
        assert_eq!(s.staged(obj).unwrap().op, OpId(2));
        // Same op re-preparing is fine (message retry).
        assert!(s.prepare(obj, OpId(2), Bytes::new(), ts(3)));
    }

    #[test]
    fn commit_is_idempotent() {
        let mut s = Storage::new();
        let obj = ObjectId(0);
        s.prepare(obj, OpId(1), Bytes::from_static(b"x"), ts(3));
        s.commit(obj, OpId(1), Bytes::from_static(b"x"), ts(3));
        s.commit(obj, OpId(1), Bytes::from_static(b"x"), ts(3)); // replay
        assert_eq!(s.read(obj).ts, ts(3));
        assert!(s.staged(obj).is_none());
    }

    #[test]
    fn commit_without_stage_installs_carried_value() {
        // The stage is gone (amnesia crash or prior consumption): the
        // commit's own value installs, ts-guarded.
        let mut s = Storage::new();
        let obj = ObjectId(0);
        s.commit(obj, OpId(1), Bytes::from_static(b"x"), ts(3));
        assert_eq!(s.read(obj).value, Bytes::from_static(b"x"));
        // A stale carried value does not regress a newer committed one.
        s.commit(obj, OpId(2), Bytes::from_static(b"old"), ts(2));
        assert_eq!(s.read(obj).ts, ts(3));
    }

    #[test]
    fn stale_commit_does_not_regress() {
        let mut s = Storage::new();
        let obj = ObjectId(0);
        s.prepare(obj, OpId(1), Bytes::from_static(b"new"), ts(5));
        s.commit(obj, OpId(1), Bytes::from_static(b"new"), ts(5));
        // A delayed lower-timestamp write must not clobber the newer value.
        s.prepare(obj, OpId(2), Bytes::from_static(b"old"), ts(2));
        s.commit(obj, OpId(2), Bytes::from_static(b"old"), ts(2));
        assert_eq!(s.read(obj).ts, ts(5));
        assert_eq!(s.read(obj).value, Bytes::from_static(b"new"));
    }

    #[test]
    fn abort_discards_stage() {
        let mut s = Storage::new();
        let obj = ObjectId(0);
        s.prepare(obj, OpId(1), Bytes::new(), ts(1));
        s.abort(obj, OpId(2)); // wrong op: keeps stage
        assert!(s.staged(obj).is_some());
        s.abort(obj, OpId(1));
        assert!(s.staged(obj).is_none());
    }

    #[test]
    fn objects_are_independent() {
        let mut s = Storage::new();
        s.prepare(ObjectId(0), OpId(1), Bytes::from_static(b"a"), ts(1));
        s.prepare(ObjectId(1), OpId(2), Bytes::from_static(b"b"), ts(1));
        s.commit(ObjectId(0), OpId(1), Bytes::from_static(b"a"), ts(1));
        assert_eq!(s.read(ObjectId(0)).value, Bytes::from_static(b"a"));
        assert_eq!(s.read(ObjectId(1)).ts, Timestamp::ZERO);
    }

    #[test]
    fn htree_tracks_every_committed_mutation() {
        let mut a = Storage::new();
        let mut b = Storage::new();
        // a: commit path; b: repair path — same final state, same digests.
        a.prepare(ObjectId(3), OpId(1), Bytes::from_static(b"v"), ts(2));
        a.commit(ObjectId(3), OpId(1), Bytes::from_static(b"v"), ts(2));
        assert!(b.repair(ObjectId(3), Bytes::from_static(b"v"), ts(2)));
        assert_eq!(a.htree(), b.htree());
        // Overwrite changes the digest; a refused stale repair does not.
        let before = a.htree().digest(Range::ROOT);
        assert!(a.repair(ObjectId(3), Bytes::from_static(b"w"), ts(5)));
        assert_ne!(a.htree().digest(Range::ROOT), before);
        let after = a.htree().digest(Range::ROOT);
        assert!(!a.repair(ObjectId(3), Bytes::from_static(b"z"), ts(4)));
        assert_eq!(a.htree().digest(Range::ROOT), after);
        assert_eq!(a.htree().len(), 1);
    }

    #[test]
    fn wipe_loses_everything() {
        let mut s = Storage::new();
        s.prepare(ObjectId(0), OpId(1), Bytes::from_static(b"a"), ts(1));
        s.commit(ObjectId(0), OpId(1), Bytes::from_static(b"a"), ts(1));
        s.prepare(ObjectId(1), OpId(2), Bytes::from_static(b"b"), ts(1));
        s.wipe();
        assert_eq!(s.read(ObjectId(0)).ts, Timestamp::ZERO);
        assert!(s.staged(ObjectId(1)).is_none());
        assert!(s.htree().is_empty());
    }

    #[test]
    fn debug_text_is_pinned() {
        // The text feeds the model checker's state fingerprint: it must not
        // change with the tree's build state, nor from what the always-built
        // tree printed.
        let mut s = Storage::new();
        s.prepare(ObjectId(7), OpId(1), Bytes::from_static(b"a"), ts(1));
        s.commit(ObjectId(7), OpId(1), Bytes::from_static(b"a"), ts(1));
        s.commit(ObjectId(7), OpId(2), Bytes::from_static(b"bb"), ts(4));
        s.repair(ObjectId(2), Bytes::from_static(b"r"), ts(3));
        s.prepare(ObjectId(9), OpId(3), Bytes::from_static(b"s"), ts(5));
        let pinned = concat!(
            "Storage { committed: {",
            "ObjectId(7): Version { value: b\"bb\", ts: Timestamp { version: 4, sid: SiteId(0) } }, ",
            "ObjectId(2): Version { value: b\"r\", ts: Timestamp { version: 3, sid: SiteId(0) } }",
            "}, staged: {",
            "ObjectId(9): Staged { op: OpId(3), value: b\"s\", ts: Timestamp { version: 5, sid: SiteId(0) } }",
            "}, htree: HTree { root: NodeAgg { hash: 4012970117994299320, count: 2 }, .. } }",
        );
        assert_eq!(format!("{s:?}"), pinned);
        s.htree();
        assert_eq!(format!("{s:?}"), pinned);
    }

    #[test]
    fn tree_is_built_on_first_query_only() {
        let mut s = Storage::new();
        s.commit(ObjectId(1), OpId(1), Bytes::from_static(b"a"), ts(1));
        assert!(
            s.htree.get().is_none(),
            "commits alone must not build the tree"
        );
        assert_eq!(s.htree().len(), 1);
        s.commit(ObjectId(2), OpId(2), Bytes::from_static(b"b"), ts(1));
        assert_eq!(
            s.htree.get().map(HTree::len),
            Some(2),
            "built tree tracks commits"
        );
        s.wipe();
        assert!(s.htree.get().is_none(), "a wipe returns to the lazy state");
        assert_eq!(s.root, NodeAgg::EMPTY);
    }

    /// One random storage step for the lazy-vs-eager proptest.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Prepare(u32, u64, u64, u8),
        Commit(u32, u64, u64, u8),
        Abort(u32, u64),
        Repair(u32, u64, u8),
        Wipe,
        Query,
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::strategy::Strategy;
        (0u8..20, 0u32..8, 0u64..4, 1u64..8, 0u8..3).prop_map(|(kind, obj, op, v, byte)| match kind
        {
            0..=4 => Step::Prepare(obj, op, v, byte),
            5..=10 => Step::Commit(obj, op, v, byte),
            11..=12 => Step::Abort(obj, op),
            13..=15 => Step::Repair(obj, v, byte),
            16 => Step::Wipe,
            _ => Step::Query,
        })
    }

    /// The version timestamp `v`, from one of three writers.
    fn tsv(v: u64, byte: u8) -> Timestamp {
        Timestamp::new(v, SiteId::new(u32::from(byte)))
    }

    /// The tree an always-built store would hold: rebuilt from scratch.
    fn rebuilt(s: &Storage) -> HTree {
        let mut tree = HTree::new();
        for (obj, v) in s.committed_sorted() {
            tree.insert(
                obj.0,
                item_hash(obj.0, v.ts.version(), v.ts.sid().as_u32(), &v.value),
            );
        }
        tree
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn lazy_tree_matches_eager_rebuild(
            steps in proptest::collection::vec(step(), 0..60),
        ) {
            let mut s = Storage::new();
            for st in steps {
                let value = |byte: u8| Bytes::from(vec![byte; usize::from(byte) + 1]);
                match st {
                    Step::Prepare(obj, op, v, byte) => {
                        s.prepare(ObjectId(obj), OpId(op), value(byte), tsv(v, byte));
                    }
                    Step::Commit(obj, op, v, byte) => {
                        s.commit(ObjectId(obj), OpId(op), value(byte), tsv(v, byte));
                    }
                    Step::Abort(obj, op) => s.abort(ObjectId(obj), OpId(op)),
                    Step::Repair(obj, v, byte) => {
                        s.repair(ObjectId(obj), value(byte), tsv(v, byte));
                    }
                    Step::Wipe => s.wipe(),
                    Step::Query => {
                        s.htree();
                    }
                }
                let eager = rebuilt(&s);
                proptest::prop_assert_eq!(s.root, eager.digest(Range::ROOT), "after {:?}", st);
                if let Some(tree) = s.htree.get() {
                    proptest::prop_assert!(*tree == eager, "built tree drifted after {:?}", st);
                }
            }
        }
    }
}
