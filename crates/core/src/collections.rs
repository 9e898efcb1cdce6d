//! Deterministic collections: drop-in replacements for the `HashMap` /
//! `HashSet` patterns the simulator uses, with **insertion-ordered,
//! replay-stable iteration**.
//!
//! `std::collections::HashMap` randomizes its hash seed per process, so any
//! code path whose *behaviour* depends on map iteration order (message send
//! order, retry ordering, metric tie-breaking) silently breaks the
//! simulator's headline guarantee: a run is a pure function of its seed and
//! replays byte-for-byte. [`DetMap`] and [`DetSet`] make that guarantee
//! structural instead of conventional:
//!
//! * iteration yields entries in **insertion order** — the order the
//!   deterministic simulation produced them, stable across processes,
//!   platforms and `RUSTFLAGS`;
//! * lookup goes through a linear-probing slot table of positions into the
//!   entry vector (`O(1)` expected), hashed with a fixed, seedless
//!   FxHash-style hasher (the keys are ids the program itself generates,
//!   so a seedless hash opens no collision attack); each key is stored
//!   once, in the entry vector, and maps of at most 8 entry slots skip the
//!   table and scan. The table only answers lookups — it never decides an
//!   order — and is rebuilt from the entries whenever it grows or
//!   tombstones are compacted;
//! * equality is **content-based**, so two runs that assembled the same
//!   state in different orders still compare equal.
//!
//! The `arbitree-lint` rule **D001** flags raw `HashMap`/`HashSet` in
//! replay-critical crates and points here.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Maps with at most this many entry slots (live or tombstoned) keep no
/// slot table: a scan of a few entries beats hashing.
const SCAN_MAX: usize = 8;

/// An unused slot-table cell.
const EMPTY: u32 = u32::MAX;

/// The FxHash word mix (rustc's hasher): fixed, seedless, a rotate, xor
/// and multiply per word.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An insertion-ordered map with hashed lookup and deterministic
/// iteration. See the [module docs](self) for why this exists.
///
/// Keys must be `Hash + Eq`; each is stored once. Removal is amortized
/// `O(1)`: it leaves a tombstone in the entry vector, and the vector is
/// compacted (survivors keep their relative order) once tombstones make up
/// half of it.
///
/// # Examples
///
/// ```
/// use arbitree_core::DetMap;
///
/// let mut m = DetMap::new();
/// m.insert("b", 2);
/// m.insert("a", 1);
/// // Iteration is insertion-ordered, not key-ordered:
/// let keys: Vec<_> = m.keys().copied().collect();
/// assert_eq!(keys, ["b", "a"]);
/// // Equality is content-based:
/// let mut n = DetMap::new();
/// n.insert("a", 1);
/// n.insert("b", 2);
/// assert_eq!(m, n);
/// ```
#[derive(Clone)]
pub struct DetMap<K, V> {
    /// Entries in insertion order; `None` marks a removed entry.
    entries: Vec<Option<(K, V)>>,
    /// Number of live entries.
    len: usize,
    /// Linear-probing table of positions in `entries` ([`EMPTY`] = unused),
    /// a power of two at most half full; empty while `entries` has at most
    /// [`SCAN_MAX`] slots. A cell left pointing at a tombstone stays
    /// occupied, so probe chains run through it.
    table: Vec<u32>,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap {
            entries: Vec::new(),
            len: 0,
            table: Vec::new(),
        }
    }
}

impl<K, V> DetMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DetMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.len = 0;
        self.table = Vec::new();
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.into_iter()
    }

    /// Iterates over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates over values mutably, in insertion order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().flatten().map(|(_, v)| v)
    }

    /// The live value at position `i` (every lookup hit is one).
    fn slot(&self, i: usize) -> &V {
        match &self.entries[i] {
            Some((_, v)) => v,
            None => unreachable!("lookup hit a removed entry"),
        }
    }

    /// Mutable form of [`DetMap::slot`].
    fn slot_mut(&mut self, i: usize) -> &mut V {
        match &mut self.entries[i] {
            Some((_, v)) => v,
            None => unreachable!("lookup hit a removed entry"),
        }
    }
}

impl<K: Hash + Eq, V> DetMap<K, V> {
    /// The table cell where the probe for `key` starts: the top bits of
    /// its hash (the well-mixed ones).
    fn home(&self, key: &K) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        let bits = self.table.len().trailing_zeros();
        (h.finish() >> (64 - bits)) as usize
    }

    /// The position of `key` in `entries`, if it is live.
    fn find(&self, key: &K) -> Option<usize> {
        if self.table.is_empty() {
            return self
                .entries
                .iter()
                .position(|e| matches!(e, Some((k, _)) if k == key));
        }
        let mask = self.table.len() - 1;
        let mut cell = self.home(key);
        loop {
            let pos = self.table[cell];
            if pos == EMPTY {
                return None;
            }
            if let Some((k, _)) = &self.entries[pos as usize] {
                if k == key {
                    return Some(pos as usize);
                }
            }
            cell = (cell + 1) & mask;
        }
    }

    /// Records position `pos` of `entries` in the first free cell of its
    /// probe chain.
    fn place(&mut self, pos: usize) {
        let Some((key, _)) = &self.entries[pos] else {
            return;
        };
        let mask = self.table.len() - 1;
        let mut cell = self.home(key);
        while self.table[cell] != EMPTY {
            cell = (cell + 1) & mask;
        }
        assert!(pos < EMPTY as usize, "DetMap entry slots exceed u32");
        self.table[cell] = pos as u32;
    }

    /// Rebuilds the slot table from `entries`: none for a short vector,
    /// otherwise a fresh table at most half full holding every live
    /// position.
    fn rebuild(&mut self) {
        if self.entries.len() <= SCAN_MAX {
            self.table = Vec::new();
            return;
        }
        self.table = vec![EMPTY; (2 * self.entries.len()).next_power_of_two()];
        for pos in 0..self.entries.len() {
            self.place(pos);
        }
    }

    /// Appends a new entry and indexes it, returning its position.
    fn push(&mut self, key: K, value: V) -> usize {
        let pos = self.entries.len();
        self.entries.push(Some((key, value)));
        self.len += 1;
        if 2 * self.entries.len() > self.table.len() {
            self.rebuild();
        } else {
            self.place(pos);
        }
        pos
    }

    /// Drops the tombstones, shifting survivors down in order, and
    /// rebuilds the slot table over their new positions. `O(n)`.
    fn compact(&mut self) {
        self.entries.retain(Option::is_some);
        self.rebuild();
    }

    /// Inserts `value` under `key`, returning the previous value if the key
    /// was present (the entry keeps its original insertion position, like
    /// `HashMap::insert`).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Some(i) => Some(std::mem::replace(self.slot_mut(i), value)),
            None => {
                self.push(key, value);
                None
            }
        }
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).map(|i| self.slot(i))
    }

    /// Mutable access to the value stored under `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.find(key) {
            Some(i) => Some(self.slot_mut(i)),
            None => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Removes `key`, returning its value. Iteration order stays the
    /// insertion order of the survivors.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let pos = self.find(key)?;
        let (_, value) = self.entries[pos].take()?;
        self.len -= 1;
        if 2 * self.len <= self.entries.len() {
            self.compact();
        }
        Some(value)
    }

    /// In-place access to the entry under `key`, inserting on demand — the
    /// subset of `HashMap`'s entry API the workspace uses.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        Entry { map: self, key }
    }
}

/// A view into a single [`DetMap`] entry, which may be vacant.
pub struct Entry<'a, K, V> {
    map: &'a mut DetMap<K, V>,
    key: K,
}

impl<'a, K: Hash + Eq, V> Entry<'a, K, V> {
    /// Inserts `default` if the entry is vacant; returns the value.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// Inserts `default()` if the entry is vacant; returns the value.
    pub fn or_insert_with(self, default: impl FnOnce() -> V) -> &'a mut V {
        let pos = match self.map.find(&self.key) {
            Some(i) => i,
            None => self.map.push(self.key, default()),
        };
        self.map.slot_mut(pos)
    }

    /// Inserts `V::default()` if the entry is vacant; returns the value.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: fmt::Debug, V> fmt::Debug for Entry<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Entry").field("key", &self.key).finish()
    }
}

/// Content-based equality: same key set, same value per key — independent
/// of insertion order, matching `HashMap` semantics.
impl<K: Hash + Eq, V: PartialEq> PartialEq for DetMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Hash + Eq, V: Eq> Eq for DetMap<K, V> {}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = DetMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Hash + Eq, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Option<(K, V)>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter().flatten()
    }
}

impl<'a, K, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<
        std::iter::Flatten<std::slice::Iter<'a, Option<(K, V)>>>,
        fn(&'a (K, V)) -> (&'a K, &'a V),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().flatten().map(|(k, v)| (k, v))
    }
}

/// An insertion-ordered set with deterministic iteration — the companion of
/// [`DetMap`] for `HashSet` call sites.
///
/// # Examples
///
/// ```
/// use arbitree_core::DetSet;
///
/// let mut s = DetSet::new();
/// assert!(s.insert(3));
/// assert!(s.insert(1));
/// assert!(!s.insert(3)); // already present
/// let order: Vec<_> = s.iter().copied().collect();
/// assert_eq!(order, [3, 1]); // insertion order, every run
/// ```
#[derive(Clone)]
pub struct DetSet<T> {
    map: DetMap<T, ()>,
}

impl<T> Default for DetSet<T> {
    fn default() -> Self {
        DetSet {
            map: DetMap::default(),
        }
    }
}

impl<T> DetSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        DetSet::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterates over members in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.keys()
    }
}

impl<T: Hash + Eq> DetSet<T> {
    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    /// Removes `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        self.map.remove(value).is_some()
    }

    /// Membership test.
    pub fn contains(&self, value: &T) -> bool {
        self.map.contains_key(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for DetSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Hash + Eq> PartialEq for DetSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<T: Hash + Eq> Eq for DetSet<T> {}

impl<T: Hash + Eq> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = DetSet::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

impl<T: Hash + Eq> Extend<T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<T> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter = std::iter::Map<<DetMap<T, ()> as IntoIterator>::IntoIter, fn((T, ())) -> T>;

    fn into_iter(self) -> Self::IntoIter {
        self.map.into_iter().map(|(t, ())| t)
    }
}

impl<'a, T> IntoIterator for &'a DetSet<T> {
    type Item = &'a T;
    type IntoIter =
        std::iter::Map<<&'a DetMap<T, ()> as IntoIterator>::IntoIter, fn((&'a T, &'a ())) -> &'a T>;

    fn into_iter(self) -> Self::IntoIter {
        (&self.map).into_iter().map(|(t, ())| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = DetMap::new();
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(2, "b"), None);
        assert_eq!(m.insert(1, "c"), Some("a"));
        assert_eq!(m.get(&1), Some(&"c"));
        assert_eq!(m.len(), 2);
        assert!(m.contains_key(&2));
        assert_eq!(m.remove(&1), Some("c"));
        assert_eq!(m.remove(&1), None);
        assert!(!m.contains_key(&1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut m = DetMap::new();
        for k in [5u32, 1, 9, 3] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, [5, 1, 9, 3]);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(vals, [50, 10, 90, 30]);
    }

    #[test]
    fn remove_preserves_residual_order() {
        let mut m = DetMap::new();
        for k in [5u32, 1, 9, 3] {
            m.insert(k, ());
        }
        m.remove(&1);
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, [5, 9, 3]);
        // Index stays consistent after the shift.
        m.insert(7, ());
        assert!(m.contains_key(&3) && m.contains_key(&7));
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, [5, 9, 3, 7]);
    }

    #[test]
    fn reinsert_keeps_original_position() {
        let mut m = DetMap::new();
        m.insert("x", 1);
        m.insert("y", 2);
        m.insert("x", 3);
        let pairs: Vec<(&&str, &i32)> = m.iter().collect();
        assert_eq!(pairs, [(&"x", &3), (&"y", &2)]);
    }

    #[test]
    fn entry_api() {
        let mut m: DetMap<u32, u64> = DetMap::new();
        *m.entry(4).or_insert(0) += 1;
        *m.entry(4).or_insert(0) += 1;
        *m.entry(9).or_default() += 5;
        assert_eq!(m.get(&4), Some(&2));
        assert_eq!(m.get(&9), Some(&5));
        let v = m.entry(11).or_insert_with(|| 42);
        assert_eq!(*v, 42);
    }

    #[test]
    fn equality_is_order_insensitive() {
        let a: DetMap<u32, &str> = [(1, "a"), (2, "b")].into_iter().collect();
        let b: DetMap<u32, &str> = [(2, "b"), (1, "a")].into_iter().collect();
        assert_eq!(a, b);
        let c: DetMap<u32, &str> = [(1, "a"), (2, "z")].into_iter().collect();
        assert_ne!(a, c);
        let d: DetMap<u32, &str> = [(1, "a")].into_iter().collect();
        assert_ne!(a, d);
    }

    #[test]
    fn debug_output_is_stable() {
        let mut m = DetMap::new();
        m.insert(2, "b");
        m.insert(1, "a");
        assert_eq!(format!("{m:?}"), r#"{2: "b", 1: "a"}"#);
        let mut s = DetSet::new();
        s.insert(2);
        s.insert(1);
        assert_eq!(format!("{s:?}"), "{2, 1}");
    }

    #[test]
    fn clear_and_empty() {
        let mut m: DetMap<u8, u8> = [(1, 1)].into_iter().collect();
        assert!(!m.is_empty());
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
    }

    #[test]
    fn into_iter_owned_and_borrowed() {
        let m: DetMap<u32, u32> = [(3, 30), (1, 10)].into_iter().collect();
        let borrowed: Vec<(u32, u32)> = (&m).into_iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(borrowed, [(3, 30), (1, 10)]);
        let owned: Vec<(u32, u32)> = m.into_iter().collect();
        assert_eq!(owned, [(3, 30), (1, 10)]);
    }

    #[test]
    fn values_mut_updates_in_place() {
        let mut m: DetMap<u32, u32> = [(1, 1), (2, 2)].into_iter().collect();
        for v in m.values_mut() {
            *v *= 10;
        }
        assert_eq!(m.get(&2), Some(&20));
    }

    #[test]
    fn set_semantics() {
        let mut s = DetSet::new();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
        assert!(s.remove(&7));
        assert!(!s.remove(&7));
        assert!(s.is_empty());
    }

    #[test]
    fn set_iteration_and_collect() {
        let s: DetSet<u32> = [9, 2, 5, 2].into_iter().collect();
        let order: Vec<u32> = s.iter().copied().collect();
        assert_eq!(order, [9, 2, 5]);
        assert_eq!(s.len(), 3);
        let owned: Vec<u32> = s.into_iter().collect();
        assert_eq!(owned, [9, 2, 5]);
    }

    #[test]
    fn set_equality_is_order_insensitive() {
        let a: DetSet<u32> = [1, 2, 3].into_iter().collect();
        let b: DetSet<u32> = [3, 1, 2].into_iter().collect();
        assert_eq!(a, b);
        let c: DetSet<u32> = [1, 2].into_iter().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn large_map_index_consistency() {
        // Interleaved inserts/removes keep lookup and order agreeing.
        let mut m = DetMap::new();
        for i in 0..100u32 {
            m.insert(i, i);
        }
        for i in (0..100).step_by(3) {
            m.remove(&i);
        }
        for (k, v) in m.iter() {
            assert_eq!(k, v);
            assert_ne!(k % 3, 0);
        }
        assert_eq!(m.len(), 66);
        for i in 0..100u32 {
            assert_eq!(m.contains_key(&i), i % 3 != 0);
            if i % 3 != 0 {
                assert_eq!(m.get(&i), Some(&i));
            }
        }
    }

    /// A key whose hash is constant, so every key shares one probe chain
    /// and lookups must walk past other keys and tombstoned entries.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Collide(u8);

    impl Hash for Collide {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u8(0);
        }
    }

    /// A `Vec<(K, V)>` reference model of `DetMap`: insertion-ordered,
    /// in-place overwrite, order-preserving removal.
    struct Model<K>(Vec<(K, u32)>);

    impl<K: Copy + PartialEq> Model<K> {
        fn pos(&self, k: K) -> Option<usize> {
            self.0.iter().position(|&(key, _)| key == k)
        }

        fn insert(&mut self, k: K, v: u32) -> Option<u32> {
            match self.pos(k) {
                Some(i) => Some(std::mem::replace(&mut self.0[i].1, v)),
                None => {
                    self.0.push((k, v));
                    None
                }
            }
        }

        fn remove(&mut self, k: K) -> Option<u32> {
            self.pos(k).map(|i| self.0.remove(i).1)
        }

        fn add(&mut self, k: K, d: u32) -> u32 {
            let i = self.pos(k).unwrap_or_else(|| {
                self.0.push((k, 0));
                self.0.len() - 1
            });
            self.0[i].1 += d;
            self.0[i].1
        }
    }

    /// Slot-table invariants: no table while a scan suffices, otherwise a
    /// power-of-two table at most half full with one cell per live entry.
    fn check_table<K, V>(m: &DetMap<K, V>) -> proptest::TestCaseResult {
        if m.entries.len() <= SCAN_MAX {
            proptest::prop_assert!(m.table.is_empty());
        } else {
            proptest::prop_assert!(m.table.len().is_power_of_two());
            proptest::prop_assert!(2 * m.entries.len() <= m.table.len());
            let cells = m.table.iter().filter(|&&c| c != EMPTY).count();
            proptest::prop_assert!(cells >= m.len() && cells <= m.entries.len());
        }
        Ok(())
    }

    /// Drives `DetMap` and the model through `ops` (kind, key, value) and
    /// checks they agree after every step; `key` maps the drawn key byte.
    fn run_against_model<K: Copy + Hash + Eq + fmt::Debug>(
        ops: Vec<(u8, u8, u32)>,
        key: fn(u8) -> K,
    ) -> proptest::TestCaseResult {
        let mut m: DetMap<K, u32> = DetMap::new();
        let mut model = Model(Vec::new());
        for (kind, k, v) in ops {
            let k = key(k);
            match kind {
                0..=2 => proptest::prop_assert_eq!(m.insert(k, v), model.insert(k, v)),
                3..=5 => proptest::prop_assert_eq!(m.remove(&k), model.remove(k)),
                6 => {
                    let got = *m.entry(k).or_default() + v;
                    *m.entry(k).or_insert(0) += v;
                    proptest::prop_assert_eq!(got, model.add(k, v));
                }
                _ => proptest::prop_assert_eq!(m.get(&k), model.pos(k).map(|i| &model.0[i].1)),
            }
            // Order, length, lookups and index consistency.
            let order: Vec<(K, u32)> = m.iter().map(|(&k, &v)| (k, v)).collect();
            proptest::prop_assert_eq!(&order, &model.0);
            proptest::prop_assert_eq!(m.len(), model.0.len());
            proptest::prop_assert_eq!(m.is_empty(), model.0.is_empty());
            // Compaction keeps tombstones from outnumbering live entries.
            proptest::prop_assert!(m.entries.len() <= 2 * m.len());
            check_table(&m)?;
            for &(k, v) in &model.0 {
                proptest::prop_assert_eq!(m.get(&k), Some(&v));
            }
            // Debug text is the model's, as a map literal.
            let mut text = String::from("{");
            for (i, (k, v)) in model.0.iter().enumerate() {
                if i > 0 {
                    text.push_str(", ");
                }
                text.push_str(&format!("{k:?}: {v}"));
            }
            text.push('}');
            proptest::prop_assert_eq!(format!("{m:?}"), text);
            // Content equality against fresh maps in either order, and
            // inequality once one value differs.
            let fresh: DetMap<K, u32> = model.0.iter().copied().collect();
            let reversed: DetMap<K, u32> = model.0.iter().rev().copied().collect();
            proptest::prop_assert!(m == fresh && m == reversed);
            if let Some(&(k, v)) = model.0.first() {
                let mut other = fresh.clone();
                other.insert(k, v + 1);
                proptest::prop_assert!(m != other);
            }
        }
        let owned: Vec<(K, u32)> = m.into_iter().collect();
        proptest::prop_assert_eq!(owned, model.0);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Up to 64 live keys: runs cross the scan threshold, grow the
        /// slot table and rebuild it on compaction.
        #[test]
        fn detmap_matches_vec_model(
            ops in proptest::collection::vec((0u8..8, 0u8..64, 0u32..100), 0..400),
        ) {
            run_against_model(ops, |k| k)?;
        }

        /// The same runs with every key hashing alike.
        #[test]
        fn detmap_with_colliding_keys_matches_vec_model(
            ops in proptest::collection::vec((0u8..8, 0u8..32, 0u32..100), 0..300),
        ) {
            run_against_model(ops, Collide)?;
        }

        /// `DetSet` against an insertion-ordered `Vec` of members.
        #[test]
        fn detset_matches_vec_model(
            ops in proptest::collection::vec((0u8..3, 0u8..64), 0..400),
        ) {
            let mut s: DetSet<u8> = DetSet::new();
            let mut model: Vec<u8> = Vec::new();
            for (kind, v) in ops {
                let pos = model.iter().position(|&m| m == v);
                match kind {
                    0 => {
                        proptest::prop_assert_eq!(s.insert(v), pos.is_none());
                        if pos.is_none() {
                            model.push(v);
                        }
                    }
                    1 => {
                        proptest::prop_assert_eq!(s.remove(&v), pos.is_some());
                        if let Some(i) = pos {
                            model.remove(i);
                        }
                    }
                    _ => proptest::prop_assert_eq!(s.contains(&v), pos.is_some()),
                }
                let order: Vec<u8> = s.iter().copied().collect();
                proptest::prop_assert_eq!(&order, &model);
                proptest::prop_assert_eq!(s.len(), model.len());
                check_table(&s.map)?;
                let reversed: DetSet<u8> = model.iter().rev().copied().collect();
                proptest::prop_assert!(s == reversed);
            }
            let owned: Vec<u8> = s.into_iter().collect();
            proptest::prop_assert_eq!(owned, model);
        }
    }
}
