//! The discrete-event core: a deterministic time-ordered event queue.
//!
//! Events at equal timestamps are ordered by insertion sequence number, so a
//! simulation is a pure function of its configuration and RNG seed.
//!
//! The queue is the simulator's *nondeterminism point*: the default
//! [`crate::SeededScheduler`] always takes the earliest [`EventKey`]
//! (reproducing the classic seeded run), while a model checker may select
//! **any** pending key — every pending event is considered enabled under the
//! explorer's time abstraction — which is what
//! [`EventQueue::keys`]/[`EventQueue::take`] exist for.
//!
//! # Implementation: a calendar queue over a slab
//!
//! The hot path (`schedule` → `next_key` → `take`-the-min, millions of
//! times per run) is served by a *calendar queue*: simulated time is cut
//! into fixed-width days (`2^DAY_SHIFT` µs each), one bucket per day across
//! a rotating window of `buckets.len()` days. An event lands in the bucket
//! of its day when its day falls inside the current window, and in an
//! unsorted overflow tier when it is further out; when the window drains,
//! it rotates forward to the just-consumed minimum and migrates the
//! newly-covered entries into buckets. Buckets hold `(EventKey, slot)`
//! pairs, unsorted — they are tiny (a day of traffic), so a linear min-scan
//! beats maintaining order — and the overflow is unsorted too, because the
//! only thing the hot path ever asks of it is its minimum (memoized) and
//! the only bulk operation is the rotation partition. The `Event` values
//! themselves live in a free-list slab, so scheduling is an O(1) push with
//! no per-event allocation once the slab is warm.
//!
//! None of this is visible through the API: keys are handed out and honored
//! in exact `(at, seq)` order, `keys`/`iter` enumerate in that global
//! order, and a taken key stays gone. `crates/sim/tests/replay.rs` pins the
//! equivalence against the `BTreeMap` queue this one replaced over
//! randomized schedule/take interleavings.

use crate::config::NetworkConfig;
use crate::message::{ClientId, Message, OpId};
use crate::network::Partition;
use crate::time::SimTime;
use arbitree_quorum::SiteId;
use std::cell::Cell;

/// Events driving the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A message arrives at its destination.
    Deliver(Message),
    /// A site fail-stops, storage intact ([`crate::CrashMode::Transient`]).
    Crash(SiteId),
    /// A site fail-stops *and loses its storage*
    /// ([`crate::CrashMode::Amnesia`]): on recovery it returns empty and
    /// must resynchronize before serving quorum traffic again.
    AmnesiaCrash(SiteId),
    /// A crashed site comes back. How it comes back depends on how it went
    /// down: a transient crash resumes serving with its durable state
    /// intact, while an amnesia crash re-enters as
    /// [`crate::SiteHealth::Syncing`] and runs anti-entropy before serving.
    Recover(SiteId),
    /// The rejoin manager's retry timer for a syncing site fires: resend
    /// outstanding range probes (or restart the rejoin if the sync source
    /// went away). Tagged with the rejoin `epoch` so timers armed before
    /// the last progress are ignored as stale.
    SyncRetry {
        /// The syncing site.
        site: SiteId,
        /// Retry attempt counter (drives the backoff policy).
        attempt: u32,
        /// Rejoin epoch the timer was armed in (globally monotonic; a
        /// mismatch means progress happened since and the timer is stale).
        epoch: u64,
    },
    /// A partition is installed (or cleared, with [`Partition::none`])
    /// mid-run — the schedulable form of
    /// [`crate::Simulation::set_partition`].
    SetPartition(Partition),
    /// A temporary network-behaviour override is installed (`Some`) or
    /// cleared (`None`): drop bursts and latency spikes are time windows
    /// bounded by a pair of these events.
    NetOverride(Option<NetworkConfig>),
    /// A client wakes up to issue its next operation.
    ClientTick(ClientId),
    /// A scheduled live reconfiguration begins (the simulation holds the
    /// queue of target protocols; this event just pops the next one).
    Reconfigure,
    /// An operation-phase timeout fires at its coordinator.
    OpTimeout {
        /// The client coordinating the operation.
        client: ClientId,
        /// The operation.
        op: OpId,
        /// Phase-attempt counter the timeout was armed for (stale timeouts
        /// with an old counter are ignored).
        attempt: u64,
    },
}

/// Identity of a pending event: its scheduled firing time plus the insertion
/// sequence number that breaks ties FIFO.
///
/// Keys are totally ordered (`at` first, then `seq`) and stable: a pending
/// event keeps its key until it is taken, and re-executing the same prefix
/// of choices reproduces the same keys — which is what lets a stateless
/// model checker name "the same event" across re-executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Scheduled firing time.
    pub at: SimTime,
    /// Insertion sequence number (unique per queue).
    pub seq: u64,
}

/// Initial width of one calendar day in log2 microseconds: 64 µs per
/// bucket, a shade under the simulator's default one-way network latency,
/// so a delivery wave spreads over a handful of buckets instead of piling
/// into one. Rotation re-derives the width from the live event density
/// (see [`EventQueue::rotate_to`]).
const INITIAL_DAY_SHIFT: u32 = 6;
/// Initial number of buckets (window span = `64 × 64 µs ≈ 4 ms`, which
/// covers a default phase timeout).
const INITIAL_BUCKETS: usize = 64;
/// Bucket-count ceiling for the rotation-time sizing policy. An empty
/// bucket is one `Vec` header, so even the ceiling costs well under a
/// megabyte — and only queues that actually rotate (≥ [`ROTATE_MIN_OVERFLOW`]
/// pending) ever grow past [`INITIAL_BUCKETS`].
const MAX_BUCKETS: usize = 16_384;
/// Minimum overflow population worth rotating the window for. Below this,
/// the flat overflow tier with its memoized minimum already serves a
/// handful of events well, and rotation would just churn allocations —
/// the regime the model checker's small, sparse scenarios live in.
const ROTATE_MIN_OVERFLOW: usize = 16;

/// A pending entry as the calendar stores it: the key plus the slab slot
/// holding the event value. 24 bytes — what bucket scans and migrations
/// actually move, instead of the full `Event` (a `Message` is an order of
/// magnitude larger).
type Entry = (EventKey, u32);

/// Deterministic future-event queue.
///
/// Calendar-bucketed by firing day with an unsorted overflow tier; event
/// values live in a free-list slab (see the module docs). The observable
/// contract is exactly a `BTreeMap<EventKey, Event>`'s: earliest-first
/// order for the seeded path and arbitrary-key removal for the model
/// checker.
#[derive(Debug)]
pub struct EventQueue {
    /// Event storage; `None` slots are free and their indices sit in
    /// `free`. Entries in `buckets`/`overflow` index into this.
    slab: Vec<Option<Event>>,
    /// Free-list of reusable slab slots.
    free: Vec<u32>,
    /// The *prime* slot of each day's bucket: its smallest entry, stored
    /// inline. At the sizing policy's target occupancy most buckets hold
    /// zero or one entry, so the hot path — insert into an empty bucket,
    /// take a day's minimum — reads and writes exactly this one flat slot
    /// and never chases a heap pointer. `prime[i]` is valid iff bit `i` of
    /// `occupied` is set.
    prime: Vec<Entry>,
    /// Collision storage: every bucket entry *other* than the prime,
    /// unsorted. `spill[i]` is non-empty iff bit `i` of `spill_used` is
    /// set, and only then does the bucket's min-maintenance touch it.
    spill: Vec<Vec<Entry>>,
    /// Occupancy bitmap: bit `i` set iff bucket `i` is non-empty (⇔ its
    /// prime is valid). Lets the min-scan find the first occupied day with
    /// a find-first-set sweep instead of touching one slot per empty day.
    occupied: Vec<u64>,
    /// Bit `i` set iff `spill[i]` is non-empty, so the common take-the-min
    /// path learns "no spill to promote" from a word already in cache
    /// instead of loading the spill vector's header.
    spill_used: Vec<u64>,
    /// Total entries across all buckets (`len - overflow.len()`); an O(1)
    /// emptiness check so the rotation trigger costs nothing per take.
    bucket_len: usize,
    /// Events scheduled at or beyond the window's end (or, degenerately,
    /// behind its start). Unsorted: inserts are an O(1) push, the minimum
    /// is memoized in `overflow_min`, and everything else that touches the
    /// tier — rotation's partition, arbitrary-key removal by the model
    /// checker, `keys`/`iter` (which sort anyway) — is a linear pass over
    /// a set that is either cold or small.
    overflow: Vec<Entry>,
    /// Memoized earliest overflow key (`None` iff the tier is empty).
    /// Maintained eagerly on insert/remove/rotate so the hot path never
    /// scans the tier to learn its minimum.
    overflow_min: Option<EventKey>,
    /// `buckets.len() - 1`; the bucket count is a power of two.
    mask: u64,
    /// Current width of one day in log2 microseconds. Re-derived at each
    /// rotation from the overflow's density so bucket occupancy stays near
    /// one event regardless of how tightly the workload packs time.
    day_shift: u32,
    /// First day covered by the current window.
    window_start: u64,
    /// Scan cursor: every bucket day before `cur_day` is empty.
    cur_day: u64,
    /// Number of pending events (slab occupancy).
    len: usize,
    /// Next insertion sequence number.
    next_seq: u64,
    /// Memoized earliest pending key. `Some` is always correct; `None`
    /// means "recompute". Interior-mutable so `next_key(&self)` can cache
    /// its scan — the scheduler seam reads the min through `&Simulation`.
    cached_min: Cell<Option<EventKey>>,
}

/// Placeholder for unoccupied `prime` slots (never read: validity is
/// governed by the `occupied` bitmap).
const NO_ENTRY: Entry = (
    EventKey {
        at: SimTime::from_micros(0),
        seq: 0,
    },
    0,
);

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            prime: vec![NO_ENTRY; INITIAL_BUCKETS],
            spill: vec![Vec::new(); INITIAL_BUCKETS],
            occupied: vec![0; INITIAL_BUCKETS / 64],
            spill_used: vec![0; INITIAL_BUCKETS / 64],
            bucket_len: 0,
            overflow: Vec::new(),
            overflow_min: None,
            mask: (INITIAL_BUCKETS - 1) as u64,
            day_shift: INITIAL_DAY_SHIFT,
            window_start: 0,
            cur_day: 0,
            len: 0,
            next_seq: 0,
            cached_min: Cell::new(None),
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// The calendar day of a timestamp under the current day width.
    #[inline]
    fn day(&self, at: SimTime) -> u64 {
        at.as_micros() >> self.day_shift
    }

    /// First day *not* covered by the current window.
    #[inline]
    fn window_end(&self) -> u64 {
        self.window_start + self.prime.len() as u64
    }

    /// Adds `entry` to bucket `idx`, keeping the bucket's minimum in its
    /// prime slot. The common case (empty bucket) is one flat write plus a
    /// bitmap bit; only a same-day collision touches the spill vector.
    #[inline]
    fn bucket_insert(&mut self, idx: usize, entry: Entry) {
        let (w, b) = (idx >> 6, 1u64 << (idx & 63));
        if self.occupied[w] & b == 0 {
            self.prime[idx] = entry;
            self.occupied[w] |= b;
        } else {
            let evicted = if entry.0 < self.prime[idx].0 {
                std::mem::replace(&mut self.prime[idx], entry)
            } else {
                entry
            };
            self.spill[idx].push(evicted);
            self.spill_used[w] |= b;
        }
        self.bucket_len += 1;
    }

    /// Parks `event` in the slab and returns its slot.
    #[inline]
    fn alloc(&mut self, event: Event) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = self.slab.len() as u32;
                self.slab.push(Some(event));
                slot
            }
        }
    }

    /// Releases `slot` back to the free list, returning its event.
    #[inline]
    fn release(&mut self, slot: u32) -> Event {
        // arbitree-lint: allow(D005) — slots are released only by the entry that allocated them
        let event = self.slab[slot as usize].take().expect("occupied slot");
        self.free.push(slot);
        event
    }

    /// Schedules `event` to fire at `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = EventKey { at, seq };
        let slot = self.alloc(event);
        let day = self.day(at);
        // Days outside the window — before it as well as past it — go to
        // the overflow tier. "Before" cannot happen under the simulator's
        // contract (every schedule targets `now` or later, and rotation
        // re-bases onto the day of a consumed minimum), but the structure
        // stays total rather than leaning on the caller.
        if day >= self.window_start && day < self.window_end() {
            self.bucket_insert((day & self.mask) as usize, (key, slot));
            // A re-armed cursor is cheaper than a subtle miss: if the new
            // entry lands behind the cursor, rewind to its day.
            if day < self.cur_day {
                self.cur_day = day;
            }
        } else {
            self.overflow.push((key, slot));
            if self.overflow_min.is_none_or(|m| key < m) {
                self.overflow_min = Some(key);
            }
        }
        self.len += 1;
        // The memoized min stays correct unless the newcomer undercuts it.
        if let Some(m) = self.cached_min.get() {
            if key < m {
                self.cached_min.set(Some(key));
            }
        }
    }

    /// First occupied bucket index at or circularly after `start`, if any.
    ///
    /// Circular order from the cursor's index visits each bucket exactly
    /// once, in increasing-day order of the days the window maps onto
    /// them — so the first set bit is the first non-empty day. (Wrap
    /// happens at the array boundary, which is also a word boundary, so
    /// within any one word higher bits are always later days.)
    #[inline]
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let nwords = self.occupied.len();
        let mut w = start >> 6;
        let mut cur = self.occupied[w] & (!0u64 << (start & 63));
        for _ in 0..=nwords {
            if cur != 0 {
                return Some((w << 6) + cur.trailing_zeros() as usize);
            }
            w += 1;
            if w == nwords {
                w = 0;
            }
            cur = self.occupied[w];
        }
        None
    }

    /// The earliest key across the window's buckets, if any. The first
    /// non-empty day holds the bucket-tier minimum — earlier days are
    /// earlier times by construction (and every day before the cursor is
    /// empty, so the bitmap scan starts there) — and its prime slot *is*
    /// that day's minimum, so the whole scan is one find-first-set plus
    /// one flat load.
    #[inline]
    fn bucket_min(&self) -> Option<EventKey> {
        let idx = self.next_occupied((self.cur_day & self.mask) as usize)?;
        Some(self.prime[idx].0)
    }

    /// Re-bases the window onto the just-consumed global minimum at `at`
    /// and migrates the newly-covered overflow entries into buckets. Only
    /// legal when every bucket is empty, and only sound for an `at` no
    /// later than any event the caller might still schedule — the take
    /// path qualifies, since simulated time (and hence every future
    /// `schedule`) is at or past the minimum it just consumed. For the
    /// same reason every overflow key is `>= at`, so no migrated entry can
    /// land behind the new window start.
    ///
    /// Sizing: the day width is re-derived from the overflow's density —
    /// one day ≈ the average gap between pending events — and the bucket
    /// count from how many such days the overflow spans, so occupancy
    /// stays near one event per bucket whether the workload packs a
    /// thousand events into a millisecond or sprays them over minutes.
    fn rotate_to(&mut self, at: SimTime) {
        debug_assert_eq!(self.bucket_len, 0, "rotation with occupied buckets");
        let n = self.overflow.len() as u64;
        let first = at.as_micros();
        let last = self
            .overflow
            .iter()
            .map(|&(k, _)| k.at.as_micros())
            .max()
            .unwrap_or(first);
        let span = last.saturating_sub(first).max(1);
        // Day width ≈ average inter-event gap (floor of its log2)…
        let gap = (span / n.max(1)).max(1);
        let mut shift = 63 - gap.leading_zeros();
        // …widened until the span fits under the bucket ceiling.
        while (span >> shift) >= MAX_BUCKETS as u64 {
            shift += 1;
        }
        // Window ≈ 2× the overflow's span: events keep arriving while the
        // new window drains, and a window that only just covers today's
        // pending set would route most of those arrivals through the
        // overflow tier (push, then migrate) instead of straight into a
        // bucket. Wider would cut that detour further, but the bucket
        // array itself is the hot path's cache footprint — past 2× the
        // extra headers cost more in misses than the detour they save.
        let buckets = usize::try_from((((span >> shift) + 2) * 2).next_power_of_two())
            .unwrap_or(MAX_BUCKETS)
            .clamp(INITIAL_BUCKETS, MAX_BUCKETS);
        self.prime.resize(buckets, NO_ENTRY);
        self.spill.resize(buckets, Vec::new());
        self.occupied.clear();
        self.occupied.resize(buckets / 64, 0);
        self.spill_used.clear();
        self.spill_used.resize(buckets / 64, 0);
        self.mask = (buckets - 1) as u64;
        self.day_shift = shift;
        self.window_start = first >> shift;
        self.cur_day = self.window_start;
        let end = self.window_end();
        // Partition in place: entries whose day the new window covers move
        // into buckets, the rest stay (keeping the tier's allocation).
        let mut i = 0;
        while i < self.overflow.len() {
            let (key, slot) = self.overflow[i];
            if self.day(key.at) < end {
                self.overflow.swap_remove(i);
                let idx = (self.day(key.at) & self.mask) as usize;
                self.bucket_insert(idx, (key, slot));
            } else {
                i += 1;
            }
        }
        self.overflow_min = self.overflow.iter().map(|&(k, _)| k).min();
    }

    /// Pops the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let key = self.next_key()?;
        self.take(key)
    }

    /// Removes and returns the pending event with `key`, if present.
    #[inline]
    pub fn take(&mut self, key: EventKey) -> Option<(SimTime, Event)> {
        let day = self.day(key.at);
        let in_window = day >= self.window_start && day < self.window_end();
        let is_cached_min = self.cached_min.get() == Some(key);
        let slot = if in_window {
            let idx = (day & self.mask) as usize;
            let (w, b) = (idx >> 6, 1u64 << (idx & 63));
            if self.occupied[w] & b == 0 {
                return None;
            }
            if self.prime[idx].0 == key {
                // Taking the bucket's minimum — the overwhelmingly common
                // case (the seeded scheduler always takes the global min,
                // which is always a prime). Promote the smallest spill
                // entry, if any, to keep the prime the bucket's min.
                let slot = self.prime[idx].1;
                if self.spill_used[w] & b != 0 {
                    let spill = &mut self.spill[idx];
                    let pos = spill
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &(k, _))| k)
                        .map(|(p, _)| p)
                        // arbitree-lint: allow(D005) — the spill_used bit was just checked
                        .expect("spill bit over empty spill");
                    self.prime[idx] = spill.swap_remove(pos);
                    if spill.is_empty() {
                        self.spill_used[w] &= !b;
                    }
                } else {
                    self.occupied[w] &= !b;
                }
                self.bucket_len -= 1;
                slot
            } else if self.spill_used[w] & b != 0 {
                // Arbitrary-key removal (the model checker's path).
                let spill = &mut self.spill[idx];
                let pos = spill.iter().position(|&(k, _)| k == key)?;
                let (_, slot) = spill.swap_remove(pos);
                if spill.is_empty() {
                    self.spill_used[w] &= !b;
                }
                self.bucket_len -= 1;
                slot
            } else {
                return None;
            }
        } else {
            let pos = self.overflow.iter().position(|&(k, _)| k == key)?;
            let (_, slot) = self.overflow.swap_remove(pos);
            if self.overflow_min == Some(key) {
                self.overflow_min = self.overflow.iter().map(|&(k, _)| k).min();
            }
            slot
        };
        self.len -= 1;
        if is_cached_min {
            self.cached_min.set(None);
            // The taken key was the global min: every bucket day before
            // its own is empty, so the cursor can jump to it, and — once
            // the window fully drains — the window itself can re-base
            // there and pull the overflow tier forward. (Simulated time
            // is at least `key.at` from here on, so no later schedule can
            // land behind the new window start.)
            if in_window && day > self.cur_day {
                self.cur_day = day;
            }
            if self.bucket_len == 0 && self.overflow.len() >= ROTATE_MIN_OVERFLOW {
                self.rotate_to(key.at);
            } else if in_window {
                // If the min's bucket is still occupied (a spill entry was
                // promoted), its prime is the new bucket-tier minimum —
                // the next `next_key` needs no scan at all.
                let idx = (day & self.mask) as usize;
                if self.occupied[idx >> 6] >> (idx & 63) & 1 != 0 {
                    let b = self.prime[idx].0;
                    self.cached_min
                        .set(Some(self.overflow_min.map_or(b, |o| b.min(o))));
                }
            }
        }
        Some((key.at, self.release(slot)))
    }

    /// The earliest pending key (what the seeded scheduler selects).
    ///
    /// The overflow tier usually holds only days past the window, but a
    /// caller scheduling behind the window parks entries there too, so the
    /// two tiers' minima must genuinely be compared.
    #[inline]
    pub fn next_key(&self) -> Option<EventKey> {
        if let Some(k) = self.cached_min.get() {
            return Some(k);
        }
        let min = match (self.bucket_min(), self.overflow_min) {
            (Some(b), o) if o.is_none_or(|o| b <= o) => Some(b),
            (_, o) => o,
        };
        self.cached_min.set(min);
        min
    }

    /// Every in-window entry: occupied primes plus all spill contents.
    fn bucket_entries(&self) -> impl Iterator<Item = Entry> + '_ {
        (0..self.prime.len())
            .filter(|idx| self.occupied[idx >> 6] >> (idx & 63) & 1 != 0)
            .map(|idx| self.prime[idx])
            .chain(self.spill.iter().flat_map(|s| s.iter().copied()))
    }

    /// All pending keys in `(at, seq)` order.
    ///
    /// Enumeration materializes and sorts — the model checker's enabled
    /// sets are small, and global order is part of the API contract the
    /// explorer's schedule counting depends on.
    pub fn keys(&self) -> impl Iterator<Item = EventKey> + '_ {
        let mut keys: Vec<EventKey> = self
            .bucket_entries()
            .map(|(k, _)| k)
            .chain(self.overflow.iter().map(|&(k, _)| k))
            .collect();
        keys.sort_unstable();
        keys.into_iter()
    }

    /// All pending events in `(at, seq)` order.
    pub fn iter(&self) -> impl Iterator<Item = (EventKey, &Event)> + '_ {
        let mut entries: Vec<Entry> = self
            .bucket_entries()
            .chain(self.overflow.iter().copied())
            .collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.into_iter().map(|(k, slot)| {
            (
                k,
                // arbitree-lint: allow(D005) — every queued entry points at a live slab slot
                self.slab[slot as usize].as_ref().expect("occupied slot"),
            )
        })
    }

    /// The pending event with `key`, if present.
    pub fn get(&self, key: EventKey) -> Option<&Event> {
        let day = self.day(key.at);
        let slot = if day < self.window_end() && day >= self.window_start {
            let idx = (day & self.mask) as usize;
            let (w, b) = (idx >> 6, 1u64 << (idx & 63));
            if self.occupied[w] & b != 0 && self.prime[idx].0 == key {
                self.prime[idx].1
            } else if self.spill_used[w] & b != 0 {
                self.spill[idx]
                    .iter()
                    .find(|&&(k, _)| k == key)
                    .map(|&(_, s)| s)?
            } else {
                return None;
            }
        } else {
            self.overflow
                .iter()
                .find(|&&(k, _)| k == key)
                .map(|&(_, s)| s)?
        };
        self.slab[slot as usize].as_ref()
    }

    /// Time of the next event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_key().map(|k| k.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), Event::Crash(SiteId::new(0)));
        q.schedule(SimTime::from_micros(10), Event::Crash(SiteId::new(1)));
        q.schedule(SimTime::from_micros(20), Event::Crash(SiteId::new(2)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10u32 {
            q.schedule(t, Event::Crash(SiteId::new(i)));
        }
        let ids: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Crash(s) => s.as_u32(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_micros(9), Event::ClientTick(ClientId(0)));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn take_removes_by_key_without_disturbing_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), Event::Crash(SiteId::new(0)));
        q.schedule(SimTime::from_micros(20), Event::Crash(SiteId::new(1)));
        q.schedule(SimTime::from_micros(20), Event::Crash(SiteId::new(2)));
        let keys: Vec<EventKey> = q.keys().collect();
        assert_eq!(keys.len(), 3);
        // Take the middle event (first of the two at t=20).
        let (t, e) = q.take(keys[1]).unwrap();
        assert_eq!(t.as_micros(), 20);
        assert_eq!(e, Event::Crash(SiteId::new(1)));
        // Its key is gone; the others still pop in order.
        assert!(q.take(keys[1]).is_none());
        assert!(q.get(keys[0]).is_some());
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Crash(s) => s.as_u32(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rest, vec![0, 2]);
    }

    #[test]
    fn next_key_is_earliest_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), Event::Reconfigure);
        q.schedule(SimTime::from_micros(3), Event::Reconfigure);
        q.schedule(SimTime::from_micros(3), Event::Reconfigure);
        let k = q.next_key().unwrap();
        assert_eq!(k.at.as_micros(), 3);
        assert_eq!(k.seq, 1);
        // Keys are stable: peeking does not change anything.
        assert_eq!(q.next_key(), Some(k));
        assert_eq!(q.len(), 3);
    }

    /// Events far past the window land in the overflow tier and come back
    /// out through rotation, in order, interleaved with near events
    /// scheduled mid-drain.
    #[test]
    fn overflow_rotation_preserves_order() {
        let mut q = EventQueue::new();
        let window_micros = (INITIAL_BUCKETS as u64) << INITIAL_DAY_SHIFT;
        // One near event, a spray far beyond the first window, and one in
        // a later window still.
        q.schedule(SimTime::from_micros(1), Event::Reconfigure);
        for i in 0..20u64 {
            q.schedule(
                SimTime::from_micros(window_micros * 3 + i * 97),
                Event::Crash(SiteId::new(i as u32)),
            );
        }
        q.schedule(SimTime::from_micros(window_micros * 40), Event::Reconfigure);
        let mut times = Vec::new();
        while let Some((t, _)) = q.pop() {
            times.push(t.as_micros());
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(times.len(), 22);
        assert!(q.is_empty());
    }

    /// Slab slots are recycled: a schedule/pop churn does not grow storage
    /// beyond the high-water mark of concurrently pending events.
    #[test]
    fn slab_reuses_slots() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.schedule(SimTime::from_micros(round * 10), Event::Reconfigure);
            q.schedule(SimTime::from_micros(round * 10 + 1), Event::Reconfigure);
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert!(
            q.slab.len() <= 2,
            "slab grew to {} slots for 2 concurrent events",
            q.slab.len()
        );
    }

    /// Taking a key out of the overflow tier directly (the model checker
    /// fires far-future events first) leaves near events intact.
    #[test]
    fn take_from_overflow_before_rotation() {
        let mut q = EventQueue::new();
        let far = SimTime::from_micros(10_000_000);
        q.schedule(SimTime::from_micros(5), Event::Reconfigure);
        q.schedule(far, Event::Crash(SiteId::new(7)));
        let far_key = q.keys().find(|k| k.at == far).unwrap();
        let (t, e) = q.take(far_key).unwrap();
        assert_eq!(t, far);
        assert_eq!(e, Event::Crash(SiteId::new(7)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_key().unwrap().at.as_micros(), 5);
    }
}
