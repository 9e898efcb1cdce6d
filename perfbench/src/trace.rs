//! The scheduler-seam trace: a benchmark-side [`Scheduler`] that splits a
//! run's wall time by layer without any tracing inside the simulator.
//!
//! `Simulation::run_with` calls `select` once per event, so the time from
//! the end of one `select` to the start of the next is the cost of the
//! event chosen last: taking it off the queue, dispatching it to its
//! layer, and flushing the messages it sent. The time inside `select`
//! (the earliest-first pick) is the queue + scheduler layer. Each span
//! costs two clock reads, which is why end-to-end numbers come from an
//! untraced run.

use arbitree_sim::{Endpoint, Event, EventKey, Payload, Scheduler, Simulation};
use std::time::Instant;

/// The layer an event's handling belongs to, named after the modules that
/// do the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Quorum-protocol delivery to a replica (`engine`, `site`, `storage`,
    /// `network`).
    Site,
    /// A reply reaching a coordinator (`coordinator`, `locks`, `checker`).
    ClientMsg,
    /// A client starting its next transaction (`workload`, quorum pick).
    Tick,
    /// A phase timeout firing (`coordinator` retries and aborts).
    Timeout,
    /// Anti-entropy traffic and its retry timers (`recovery`, `sync`).
    Sync,
    /// Crashes, recoveries, partitions, network overrides (`failure`,
    /// `nemesis`).
    Fault,
    /// Anything else (live reconfiguration; unused by the workloads).
    Other,
}

impl Layer {
    /// Every event layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Site,
        Layer::ClientMsg,
        Layer::Tick,
        Layer::Timeout,
        Layer::Sync,
        Layer::Fault,
        Layer::Other,
    ];

    /// The name used in metric names (`layer.<name>.*`).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Site => "site",
            Layer::ClientMsg => "client_msg",
            Layer::Tick => "tick",
            Layer::Timeout => "timeout",
            Layer::Sync => "sync",
            Layer::Fault => "fault",
            Layer::Other => "other",
        }
    }

    /// The layer that handles `event`.
    pub fn of(event: &Event) -> Layer {
        match event {
            Event::Deliver(msg) => match (&msg.payload, msg.to) {
                (
                    Payload::RangeHashReq { .. }
                    | Payload::RangeHashResp { .. }
                    | Payload::RangeFill { .. },
                    _,
                ) => Layer::Sync,
                (_, Endpoint::Site(_)) => Layer::Site,
                (_, Endpoint::Client(_)) => Layer::ClientMsg,
            },
            Event::ClientTick(_) => Layer::Tick,
            Event::OpTimeout { .. } => Layer::Timeout,
            Event::SyncRetry { .. } => Layer::Sync,
            Event::Crash(_)
            | Event::AmnesiaCrash(_)
            | Event::Recover(_)
            | Event::SetPartition(_)
            | Event::NetOverride(_) => Layer::Fault,
            Event::Reconfigure => Layer::Other,
        }
    }
}

/// Per-layer busy time and event counts of one traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerTrace {
    /// Nanoseconds spent handling events, per [`Layer::ALL`] index.
    pub ns: [u64; 7],
    /// Events handled, per [`Layer::ALL`] index.
    pub events: [u64; 7],
    /// Nanoseconds inside `select`: the queue + scheduler layer.
    pub select_ns: u64,
    /// `select` calls.
    pub selects: u64,
    /// Sum over `select` calls of the pending-queue length.
    pub pending_sum: u64,
    current: Option<Layer>,
    mark: Option<Instant>,
}

impl LayerTrace {
    /// Sum of every span: event handling plus `select`.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum::<u64>() + self.select_ns
    }

    /// Events handled across all layers.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Adds another run's trace to this one.
    pub fn absorb(&mut self, other: &LayerTrace) {
        for i in 0..Layer::ALL.len() {
            self.ns[i] += other.ns[i];
            self.events[i] += other.events[i];
        }
        self.select_ns += other.select_ns;
        self.selects += other.selects;
        self.pending_sum += other.pending_sum;
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

impl Scheduler for LayerTrace {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        let entered = Instant::now();
        if let (Some(layer), Some(mark)) = (self.current.take(), self.mark) {
            self.ns[layer as usize] += ns_between(mark, entered);
            self.events[layer as usize] += 1;
        }
        let queue = sim.engine().queue();
        let key = queue.next_key();
        // The event past the end time is selected but never run, so it is
        // classified here and only counted once the next `select` (which
        // never comes for it) closes its span.
        self.current = key.and_then(|k| queue.get(k)).map(Layer::of);
        self.pending_sum += queue.len() as u64;
        self.selects += 1;
        let left = Instant::now();
        self.select_ns += ns_between(entered, left);
        self.mark = Some(left);
        key
    }
}

/// The plain earliest-first order of `SeededScheduler`, reading the clock
/// only once every [`SegmentClock::EVERY`] events: it cuts an untraced run
/// into segments that can be timed separately, at a cost of one counter
/// per event. A run is deterministic, so the segments of every repetition
/// cover the same events.
#[derive(Debug, Default)]
pub struct SegmentClock {
    /// When each segment began.
    pub marks: Vec<Instant>,
    seen: u64,
}

impl SegmentClock {
    /// Events per segment.
    pub const EVERY: u64 = 1 << 15;

    /// Wall seconds of each segment, the last one ending at `end`.
    pub fn segments(&self, end: Instant) -> Vec<f64> {
        let mut bounds = self.marks.clone();
        bounds.push(end);
        bounds
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
            .collect()
    }
}

impl Scheduler for SegmentClock {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        if self.seen.is_multiple_of(Self::EVERY) {
            self.marks.push(Instant::now());
        }
        self.seen += 1;
        sim.engine().queue().next_key()
    }
}

/// A scheduler that records when the first event is about to run and then
/// stops the run: the end of set-up.
#[derive(Debug, Default)]
pub struct FirstEvent {
    /// When `select` was first called.
    pub at: Option<Instant>,
}

impl Scheduler for FirstEvent {
    fn select(&mut self, _sim: &Simulation) -> Option<EventKey> {
        self.at.get_or_insert_with(Instant::now);
        None
    }
}

/// Records the latency of every committed operation as it commits, from
/// the coordinator's latency counters: no history needed. Each committed
/// transaction adds one sample per operation it held, so the samples match
/// what a recorded history would give.
#[derive(Debug, Default)]
pub struct LatencyTap {
    /// Per-operation latencies, in simulated microseconds.
    pub samples: Vec<u64>,
    seen: (u64, u64, u64),
}

impl Scheduler for LatencyTap {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        let m = sim.engine().metrics();
        let now = (
            m.latency_samples,
            m.total_latency.as_micros(),
            m.reads_ok + m.writes_ok,
        );
        if now.0 > self.seen.0 {
            assert_eq!(
                now.0,
                self.seen.0 + 1,
                "one event committed two transactions"
            );
            let latency = now.1 - self.seen.1;
            for _ in self.seen.2..now.2 {
                self.samples.push(latency);
            }
        }
        self.seen = now;
        sim.engine().queue().next_key()
    }
}
