//! `perfbench`: the repository benchmark. One command runs one named
//! workload in this process, one simulation at a time and with no worker
//! threads, checks that its outputs are correct, and prints every metric
//! by name and unit as the last line of standard output:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced runs; `--trace 1`
//! prints the per-layer metrics of a traced run of the same workload and
//! seed (see `WORKLOADS.md`). The exit code is nonzero when any
//! correctness check fails.

mod mc;
mod probes;
mod stats;
mod trace;
mod workload;

use arbitree_sim::{History, SeededScheduler, SimMetrics, SimReport, Simulation};
use stats::{fastest, percentiles, sum_of_fastest, Percentiles};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{FirstEvent, Layer, LayerTrace, SegmentClock};
use workload::{SimInput, Workload};

/// Set-ups timed before the first run and after every run; `setup_s` is
/// the fastest.
const SETUP_REPS: usize = 5;
/// Fewest measured repetitions per half, even past `--seconds`.
const MIN_REPS: usize = 2;
/// Time spent on offline-check repetitions after each run of the second
/// half (at least one each time); `verify_s` sums each part's fastest.
const VERIFY_SLICE: Duration = Duration::from_millis(1_000);

/// The end-to-end metrics `--trace 0` prints, with their units, as
/// `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 11] = [
    ("ops_per_wall_s", "ops/s"),
    ("schedules_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("verify_s", "s"),
    ("sim_ops_per_s", "ops/sim_s"),
    ("sim_p50_us", "sim_us"),
    ("sim_p99_us", "sim_us"),
    ("sim_p999_us", "sim_us"),
    ("msgs_per_op", "msgs/op"),
    ("availability", "fraction"),
];

/// The per-layer metrics `--trace 1` prints, with their units, as
/// `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 53] = [
    ("layer.queue.ns_per_event", "ns"),
    ("layer.queue.share", "fraction"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.pending_mean", "count"),
    ("layer.site.ns_per_event", "ns"),
    ("layer.site.share", "fraction"),
    ("layer.site.events", "count"),
    ("layer.client_msg.ns_per_event", "ns"),
    ("layer.client_msg.share", "fraction"),
    ("layer.client_msg.events", "count"),
    ("layer.tick.ns_per_event", "ns"),
    ("layer.tick.share", "fraction"),
    ("layer.tick.events", "count"),
    ("layer.timeout.ns_per_event", "ns"),
    ("layer.timeout.share", "fraction"),
    ("layer.timeout.events", "count"),
    ("layer.sync.ns_per_event", "ns"),
    ("layer.sync.share", "fraction"),
    ("layer.sync.events", "count"),
    ("layer.fault.ns_per_event", "ns"),
    ("layer.fault.share", "fraction"),
    ("layer.fault.events", "count"),
    ("site.requests", "count"),
    ("site.ns_per_request", "ns"),
    ("coord.timeouts_fired", "count"),
    ("coord.retries", "count"),
    ("coord.aborts", "count"),
    ("sync.keys_transferred", "count"),
    ("sync.ranges_compared", "count"),
    ("sync.rejoins", "count"),
    ("sync.rejoin_ms_mean", "sim_ms"),
    ("net.messages_sent", "count"),
    ("net.payloads_per_message", "ratio"),
    ("net.delivered_ratio", "ratio"),
    ("storage.keys", "count"),
    ("storage.commit_ns", "ns"),
    ("storage.read_ns", "ns"),
    ("locks.acquire_release_ns", "ns"),
    ("quorum.pick_read_ns", "ns"),
    ("quorum.pick_write_ns", "ns"),
    ("quorum.pick_read_down_ns", "ns"),
    ("quorum.pick_write_down_ns", "ns"),
    ("checker.linearizable_ns_per_event", "ns"),
    ("sim.latency_samples", "count"),
    ("sim.beyond_p999", "count"),
    ("check.schedules", "count"),
    ("check.states", "count"),
    ("check.ns_per_schedule", "ns"),
    ("check.build_us", "us"),
    ("check.fingerprint_ns", "ns"),
    ("trace.overhead", "fraction"),
    ("trace.layer_sum_ratio", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload <uniform-1m|zipf-hot|chaos-rejoin|mc-explore> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The gate's verdict and the metrics of one invocation.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    errors: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The result line: one JSON object.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = END_TO_END
                    .iter()
                    .chain(PER_LAYER.iter())
                    .find(|m| m.0 == name)
                    .map_or("", |m| m.1);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload {
        Workload::McExplore => mc_workload(&args),
        _ => sim_workload(&args),
    };
    let non_finite: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| format!("metric {} is not a finite number", m.0))
        .collect();
    out.errors.extend(non_finite);
    let declared: Vec<&str> = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    }
    .iter()
    .map(|m| m.0)
    .collect();
    let printed: Vec<&str> = out.metrics.iter().map(|m| m.0.as_str()).collect();
    if printed != declared {
        out.errors.push(format!(
            "printed metrics {printed:?} are not the declared {declared:?}"
        ));
    }
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!("{}", out.json());
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`). Every
/// invocation runs one workload in a fresh process, so the peak is that
/// workload's alone.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Repeated runs of one workload and seed.
struct Runs {
    /// Wall seconds of each run, from the first event to the report.
    walls: Vec<f64>,
    /// Wall seconds of each run's segments (untraced runs only).
    segments: Vec<Vec<f64>>,
    /// The last run's report.
    report: SimReport,
    /// The last run's simulation, kept for inspection.
    sim: Simulation,
    /// Layer spans summed over every run (empty when untraced).
    trace: LayerTrace,
}

/// Runs `input` until `budget` has passed and at least [`MIN_REPS`] runs
/// are done, traced or not, calling `between` after each run. Set-up is
/// outside the timed span. Every run must produce the same metrics as the
/// first: the simulator is deterministic, and so is this check.
fn run_batch(
    input: &SimInput,
    budget: Duration,
    traced: bool,
    out: &mut Outcome,
    between: &mut dyn FnMut(),
) -> Runs {
    let deadline = Instant::now() + budget;
    let mut walls = Vec::new();
    let mut segments = Vec::new();
    let mut trace = LayerTrace::default();
    let mut first: Option<SimMetrics> = None;
    let mut last: Option<(SimReport, Simulation)> = None;
    while walls.len() < MIN_REPS || Instant::now() < deadline {
        // Free the previous run before building the next, so the peak
        // resident set is one run's.
        drop(last.take());
        let mut sim = input.build();
        let start = Instant::now();
        let report = if traced {
            let mut run_trace = LayerTrace::default();
            let report = sim.run_with(&mut run_trace);
            trace.absorb(&run_trace);
            report
        } else {
            let mut clock = SegmentClock::default();
            let report = sim.run_with(&mut clock);
            segments.push(clock.segments(Instant::now()));
            report
        };
        walls.push(start.elapsed().as_secs_f64());
        match &first {
            None => first = Some(report.metrics.clone()),
            Some(m) => out.require(*m == report.metrics, || {
                format!("run {} of one seed differs from the first", walls.len())
            }),
        }
        last = Some((report, sim));
        between();
    }
    let (report, sim) = last.expect("at least one run");
    Runs {
        walls,
        segments,
        report,
        sim,
        trace,
    }
}

/// Wall seconds from parsing the tree spec to the first event.
fn setup_once(input: &SimInput) -> f64 {
    let start = Instant::now();
    let mut sim = input.build();
    let mut first = FirstEvent::default();
    sim.run_with(&mut first);
    (first.at.expect("run_with selects at least once") - start).as_secs_f64()
}

/// Committed keys on the fullest replica of `sim`.
fn fullest_store(sim: &Simulation) -> usize {
    sim.sites()
        .iter()
        .map(|s| s.storage().committed_sorted().len())
        .max()
        .unwrap_or(0)
}

/// The online checks every simulated run must pass.
fn gate_report(report: &SimReport, out: &mut Outcome) {
    out.require(report.consistent && report.violations == 0, || {
        format!(
            "online checker: consistent {} with {} violations",
            report.consistent, report.violations
        )
    });
    out.require(report.metrics.sync_violations == 0, || {
        format!(
            "{} replies served by non-serving sites",
            report.metrics.sync_violations
        )
    });
}

/// The run's operation history: recorded by the workload itself, or else
/// by one extra, untimed run with recording on, which must reproduce the
/// timed runs' metrics exactly (recording only observes).
fn history_of(input: &SimInput, timed: &SimReport, out: &mut Outcome) -> History {
    if input.config.record_history {
        return timed.history.clone();
    }
    let mut recorded = input.clone();
    recorded.config.record_history = true;
    let report = recorded.build().run();
    out.require(report.metrics == timed.metrics, || {
        "the history-recording run differs from the timed runs".to_string()
    });
    report.history
}

/// Per-operation latencies (response minus invocation) of a history.
fn latencies(history: &History) -> Vec<u64> {
    history
        .events()
        .iter()
        .map(|e| e.responded.as_micros() - e.invoked.as_micros())
        .collect()
}

/// Object-disjoint parts of the history checked in `uniform-1m` and
/// `chaos-rejoin`, whose histories are too large for one whole-history
/// check (its time grows with objects × events).
const VERIFY_PARTS: u32 = 16;

/// The offline check's input: the whole history as one part, or
/// [`VERIFY_PARTS`] parts by object id. Every rule of the check is
/// per-object, so checking the parts is checking the whole.
fn verify_parts(history: &History, whole: bool) -> Vec<History> {
    if whole {
        return vec![history.clone()];
    }
    let mut parts = vec![History::new(); VERIFY_PARTS as usize];
    for e in history.events() {
        parts[(e.obj.0 % VERIFY_PARTS) as usize].record(e.clone());
    }
    parts
}

/// `History::check_linearizable` on every part, each timed on its own:
/// wall seconds per part and violations found.
fn verify(parts: &[History]) -> (Vec<f64>, usize) {
    let mut violations = 0;
    let times = parts
        .iter()
        .map(|h| {
            let start = Instant::now();
            violations += h.check_linearizable().len();
            start.elapsed().as_secs_f64()
        })
        .collect();
    (times, violations)
}

/// Repeats the offline check of `parts` for [`VERIFY_SLICE`] (at least
/// once), adding each repetition's per-part times to `times` and each
/// violation count to `violations`.
fn verify_slice(parts: &[History], times: &mut Vec<Vec<f64>>, violations: &mut usize) {
    let start = Instant::now();
    loop {
        let (t, found) = verify(parts);
        times.push(t);
        *violations += found;
        if start.elapsed() >= VERIFY_SLICE {
            break;
        }
    }
}

fn committed_ops(m: &SimMetrics) -> u64 {
    m.reads_ok + m.writes_ok
}

/// The simulated-time metrics: exact functions of workload and seed.
fn put_simulated(out: &mut Outcome, m: &SimMetrics, sim_seconds: f64, pct: &Percentiles) {
    let ops = committed_ops(m) as f64;
    out.put("sim_ops_per_s", ops / sim_seconds);
    out.put("sim_p50_us", pct.p50 as f64);
    out.put("sim_p99_us", pct.p99 as f64);
    out.put("sim_p999_us", pct.p999 as f64);
    out.put("msgs_per_op", m.messages_sent as f64 / ops);
    out.put(
        "availability",
        m.txns_ok as f64 / (m.txns_ok + m.txns_failed) as f64,
    );
}

fn log_percentiles(pct: &Percentiles) {
    eprintln!(
        "latency samples {}: p50 {} p99 {} p99.9 {} us ({} samples beyond p99.9)",
        pct.samples, pct.p50, pct.p99, pct.p999, pct.beyond_p999
    );
}

fn sim_workload(args: &Args) -> Outcome {
    let input = SimInput::generate(args.workload, args.seed).expect("a simulated workload");
    eprintln!(
        "{} seed {}: {}",
        args.workload.name(),
        args.seed,
        input.describe()
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let whole_history = args.workload == Workload::ZipfHot;
    let sim_seconds = input.config.duration.as_micros() as f64 / 1e6;
    let mut out = Outcome::default();

    if !args.trace {
        // First half: the timed runs and set-ups alone, so that their peak
        // resident set is the workload's. Second half: more timed runs,
        // with set-ups and the offline check timed in between, so that
        // every timing samples the whole measurement window.
        let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup_once(&input)).collect();
        let mut runs = run_batch(&input, budget / 2, false, &mut out, &mut || {
            setups.extend((0..SETUP_REPS).map(|_| setup_once(&input)));
        });
        let peak = peak_rss_mib();
        out.require(peak.is_some(), || {
            "no VmHWM in /proc/self/status".to_string()
        });
        let m = runs.report.metrics.clone();
        gate_report(&runs.report, &mut out);
        let history = history_of(&input, &runs.report, &mut out);
        drop(runs.sim);
        let parts = verify_parts(&history, whole_history);
        let (mut verify_times, mut violations) = (Vec::new(), 0);
        let second = run_batch(&input, budget / 2, false, &mut out, &mut || {
            setups.extend((0..SETUP_REPS).map(|_| setup_once(&input)));
            verify_slice(&parts, &mut verify_times, &mut violations);
        });
        out.require(second.report.metrics == m, || {
            "the second half's runs differ from the first half's".to_string()
        });
        out.require(violations == 0, || {
            format!("offline checker found {violations} violations")
        });
        runs.walls.extend(second.walls);
        runs.segments.extend(second.segments);
        let verify_s = sum_of_fastest(&verify_times);
        let pct = percentiles(latencies(&history)).unwrap_or(Percentiles {
            samples: 0,
            p50: 0,
            p99: 0,
            p999: 0,
            beyond_p999: 0,
        });
        log_percentiles(&pct);
        let ops = committed_ops(&m) as f64;
        // Every segment at its fastest: other tenants of the machine slow
        // it down in spells of a few seconds, which a whole run rarely
        // escapes but a 30 ms segment often does.
        let wall = sum_of_fastest(&runs.segments);
        eprintln!(
            "{} runs: fastest {:.4} s, segments at their fastest {wall:.4} s",
            runs.walls.len(),
            fastest(&runs.walls)
        );
        out.put("ops_per_wall_s", ops / wall);
        out.put("schedules_per_s", 1.0 / wall);
        out.put("setup_s", fastest(&setups));
        out.put("peak_rss_mib", peak.unwrap_or(f64::NAN));
        out.put("verify_s", verify_s);
        put_simulated(&mut out, &m, sim_seconds, &pct);
        out.attempted = m.txns_ok + m.txns_failed;
        out.failed = m.txns_failed;
        return out;
    }

    // Traced invocation: untraced runs for the overhead baseline, then
    // traced runs of the same seed, which must observe without changing
    // a single counter.
    let plain = run_batch(&input, budget / 2, false, &mut out, &mut || {});
    drop(plain.sim);
    let traced = run_batch(&input, budget / 2, true, &mut out, &mut || {});
    gate_report(&traced.report, &mut out);
    out.require(plain.report.metrics == traced.report.metrics, || {
        "the traced run's metrics differ from the untraced run's".to_string()
    });
    let m = traced.report.metrics.clone();
    let t = &traced.trace;
    let reps = traced.walls.len() as f64;
    let traced_wall: f64 = traced.walls.iter().sum();
    let layer_sum_ratio = t.total_ns() as f64 / 1e9 / traced_wall;
    out.require((0.9..=1.1).contains(&layer_sum_ratio), || {
        format!("layer spans sum to {layer_sum_ratio:.3} of the traced wall time")
    });
    let events_per_run = t.total_events() as f64 / reps;
    out.put(
        "layer.queue.ns_per_event",
        t.select_ns as f64 / t.selects as f64,
    );
    out.put("layer.queue.share", t.select_ns as f64 / 1e9 / traced_wall);
    out.put("engine.events", events_per_run);
    out.put(
        "engine.events_per_s",
        events_per_run / fastest(&plain.walls),
    );
    out.put(
        "engine.pending_mean",
        t.pending_sum as f64 / t.selects as f64,
    );
    put_layers(&mut out, t, traced_wall, reps);

    let site_requests: u64 = m.site_requests.values().sum();
    let site_ns = t.ns[Layer::Site as usize] as f64 / reps;
    out.put("site.requests", site_requests as f64);
    out.put("site.ns_per_request", site_ns / site_requests.max(1) as f64);
    let fullest = fullest_store(&traced.sim);
    drop(traced.sim);
    put_counters(&mut out, &m);
    put_probes(&mut out, fullest, &input.config, input.tree, args.seed);

    let history = history_of(&input, &plain.report, &mut out);
    let (part_times, violations) = verify(&verify_parts(&history, whole_history));
    let verify_s: f64 = part_times.iter().sum();
    out.require(violations == 0, || {
        format!("offline checker found {violations} violations")
    });
    out.put(
        "checker.linearizable_ns_per_event",
        verify_s * 1e9 / history.len().max(1) as f64,
    );
    let pct = percentiles(latencies(&history));
    put_sample_counts(&mut out, pct);
    for name in [
        "check.schedules",
        "check.states",
        "check.ns_per_schedule",
        "check.build_us",
        "check.fingerprint_ns",
    ] {
        out.put(name, 0.0);
    }
    let overhead = fastest(&traced.walls) / fastest(&plain.walls) - 1.0;
    out.put("trace.overhead", overhead);
    out.put("trace.layer_sum_ratio", layer_sum_ratio);
    out.attempted = m.txns_ok + m.txns_failed;
    out.failed = m.txns_failed;
    out
}

/// `layer.<name>.{ns_per_event,share,events}` for every event layer the
/// workloads exercise.
fn put_layers(out: &mut Outcome, t: &LayerTrace, traced_wall: f64, reps: f64) {
    for layer in Layer::ALL {
        if layer == Layer::Other {
            continue;
        }
        let i = layer as usize;
        let name = layer.name();
        out.put(
            &format!("layer.{name}.ns_per_event"),
            t.ns[i] as f64 / t.events[i].max(1) as f64,
        );
        out.put(
            &format!("layer.{name}.share"),
            t.ns[i] as f64 / 1e9 / traced_wall,
        );
        out.put(&format!("layer.{name}.events"), t.events[i] as f64 / reps);
    }
}

/// Counters of the coordinator, anti-entropy and network layers.
fn put_counters(out: &mut Outcome, m: &SimMetrics) {
    out.put("coord.timeouts_fired", m.timeouts_fired as f64);
    out.put(
        "coord.retries",
        (m.retries_read + m.retries_prepare + m.retries_commit) as f64,
    );
    out.put(
        "coord.aborts",
        (m.aborts_exhausted + m.aborts_conflict + m.aborts_no_quorum) as f64,
    );
    out.put("sync.keys_transferred", m.sync_keys_transferred as f64);
    out.put("sync.ranges_compared", m.sync_ranges_compared as f64);
    out.put("sync.rejoins", m.rejoins_completed as f64);
    out.put(
        "sync.rejoin_ms_mean",
        m.rejoin_time_total.as_micros() as f64 / 1e3 / m.rejoins_completed.max(1) as f64,
    );
    let sent = m.messages_sent.max(1) as f64;
    out.put("net.messages_sent", m.messages_sent as f64);
    out.put(
        "net.payloads_per_message",
        (m.messages_sent - m.batches_sent + m.batched_payloads) as f64 / sent,
    );
    out.put("net.delivered_ratio", m.messages_delivered as f64 / sent);
}

/// The direct single-layer measurements.
fn put_probes(
    out: &mut Outcome,
    keys: usize,
    config: &arbitree_sim::SimConfig,
    tree: &str,
    seed: u64,
) {
    let (commit_ns, read_ns) = probes::storage(keys, seed);
    out.put("storage.keys", keys as f64);
    out.put("storage.commit_ns", commit_ns);
    out.put("storage.read_ns", read_ns);
    out.put("locks.acquire_release_ns", probes::locks(config, seed));
    let q = probes::quorum(tree, seed);
    out.put("quorum.pick_read_ns", q.read);
    out.put("quorum.pick_write_ns", q.write);
    out.put("quorum.pick_read_down_ns", q.read_down);
    out.put("quorum.pick_write_down_ns", q.write_down);
}

/// How many latency samples the percentiles rest on.
fn put_sample_counts(out: &mut Outcome, pct: Option<Percentiles>) {
    let pct = pct.map_or((0, 0), |p| (p.samples, p.beyond_p999));
    out.put("sim.latency_samples", pct.0 as f64);
    out.put("sim.beyond_p999", pct.1 as f64);
}

fn mc_workload(args: &Args) -> Outcome {
    let input = mc::McInput::generate(args.seed);
    let caps: Vec<String> = input
        .runs
        .iter()
        .map(|(s, cap)| format!("{}@{cap}", s.name))
        .collect();
    eprintln!("mc-explore seed {}: {}", args.seed, caps.join(" "));
    let budget = Duration::from_secs_f64(args.seconds);
    let mut out = Outcome::default();

    if !args.trace {
        // Set-ups and the mutation-kill matrix are timed between passes, so
        // that every timing samples the whole measurement window.
        let mut setups = Vec::new();
        let mut kills = Vec::new();
        let mut passes: Vec<mc::PassStats> = Vec::new();
        let deadline = Instant::now() + budget;
        while passes.len() < MIN_REPS || Instant::now() < deadline {
            setups.extend((0..SETUP_REPS).map(|_| mc::setup_pass(&input).as_secs_f64()));
            match mc::explore_pass(&input, None).and_then(|p| Ok((p, mc::kill_matrix()?))) {
                Ok((p, k)) => {
                    passes.push(p);
                    kills.push(k);
                }
                Err(e) => {
                    out.errors.push(e);
                    break;
                }
            }
        }
        let peak = peak_rss_mib();
        out.require(peak.is_some(), || {
            "no VmHWM in /proc/self/status".to_string()
        });
        let pass = passes.last().cloned().unwrap_or_default();
        // Each scenario's exploration is timed on its own; a pass takes the
        // sum of the scenarios' fastest times.
        let walls: Vec<Vec<f64>> = passes.iter().map(|p| p.walls.clone()).collect();
        let pass_wall = sum_of_fastest(&walls);
        eprintln!("{} passes, fastest pass {pass_wall:.4} s", passes.len());
        let (m, sim_seconds) = seeded_totals(&input, &mut out);
        let pct = percentiles(mc::seeded_latencies(&input)).expect("scenarios commit");
        log_percentiles(&pct);
        out.put("ops_per_wall_s", pass.ops as f64 / pass_wall);
        out.put("schedules_per_s", pass.schedules as f64 / pass_wall);
        out.put("setup_s", fastest(&setups));
        out.put("peak_rss_mib", peak.unwrap_or(f64::NAN));
        out.put("verify_s", sum_of_fastest(&kills));
        put_simulated(&mut out, &m, sim_seconds, &pct);
        out.attempted = pass.schedules.max(1);
        return out;
    }

    // Traced invocation: the explorer cannot be wrapped from outside, so
    // the layer split comes from the scenarios' seeded runs, repeated.
    let mut plain_walls = Vec::new();
    let mut plain_metrics = Vec::new();
    let deadline = Instant::now() + budget / 2;
    while plain_walls.len() < MIN_REPS || Instant::now() < deadline {
        let runs = mc::seeded_runs::<SeededScheduler>(&input);
        plain_walls.push(runs.iter().map(|r| r.wall).sum::<f64>());
        plain_metrics = runs.into_iter().map(|r| r.report.metrics).collect();
    }
    let mut t = LayerTrace::default();
    let mut traced_walls = Vec::new();
    let mut traced_metrics = Vec::new();
    let mut fullest = 0;
    let deadline = Instant::now() + budget / 2;
    while traced_walls.len() < MIN_REPS || Instant::now() < deadline {
        let runs = mc::seeded_runs::<LayerTrace>(&input);
        traced_walls.push(runs.iter().map(|r| r.wall).sum::<f64>());
        traced_metrics.clear();
        for run in runs {
            t.absorb(&run.scheduler);
            fullest = fullest.max(fullest_store(&run.sim));
            gate_report(&run.report, &mut out);
            traced_metrics.push(run.report.metrics);
        }
    }
    out.require(plain_metrics == traced_metrics, || {
        "the traced runs' metrics differ from the untraced runs'".to_string()
    });
    let reps = traced_walls.len() as f64;
    let traced_wall: f64 = traced_walls.iter().sum();
    let layer_sum_ratio = t.total_ns() as f64 / 1e9 / traced_wall;
    let events_per_pass = t.total_events() as f64 / reps;
    out.put(
        "layer.queue.ns_per_event",
        t.select_ns as f64 / t.selects as f64,
    );
    out.put("layer.queue.share", t.select_ns as f64 / 1e9 / traced_wall);
    out.put("engine.events", events_per_pass);
    out.put(
        "engine.events_per_s",
        events_per_pass / fastest(&plain_walls),
    );
    out.put(
        "engine.pending_mean",
        t.pending_sum as f64 / t.selects as f64,
    );
    put_layers(&mut out, &t, traced_wall, reps);
    let m = sum_metrics(&traced_metrics);
    let site_requests: u64 = m.site_requests.values().sum();
    out.put("site.requests", site_requests as f64);
    out.put(
        "site.ns_per_request",
        t.ns[Layer::Site as usize] as f64 / reps / site_requests.max(1) as f64,
    );
    put_counters(&mut out, &m);
    let shape = arbitree_sim::SimConfig {
        objects: input.runs.iter().map(|r| r.0.objects).max().unwrap_or(1),
        max_txn_ops: 2,
        read_fraction: 0.5,
        ..arbitree_sim::SimConfig::default()
    };
    put_probes(&mut out, fullest, &shape, input.runs[0].0.spec, args.seed);
    out.put("checker.linearizable_ns_per_event", 0.0);
    let pct = percentiles(mc::seeded_latencies(&input));
    put_sample_counts(&mut out, pct);

    let start = Instant::now();
    let pass = match mc::explore_pass(&input, None) {
        Ok(p) => p,
        Err(e) => {
            out.errors.push(e);
            mc::PassStats::default()
        }
    };
    let pass_ns = start.elapsed().as_nanos() as f64;
    out.put("check.schedules", pass.schedules as f64);
    out.put("check.states", pass.states as f64);
    out.put(
        "check.ns_per_schedule",
        pass_ns / pass.schedules.max(1) as f64,
    );
    let builds: Vec<f64> = (0..SETUP_REPS)
        .map(|_| mc::setup_pass(&input).as_secs_f64() * 1e6 / input.runs.len() as f64)
        .collect();
    out.put("check.build_us", fastest(&builds));
    out.put("check.fingerprint_ns", fingerprint_ns(&input));
    let overhead = fastest(&traced_walls) / fastest(&plain_walls) - 1.0;
    out.put("trace.overhead", overhead);
    out.put("trace.layer_sum_ratio", layer_sum_ratio);
    out.attempted = pass.schedules.max(1);
    out
}

/// Metrics of the scenarios' seeded runs, summed, and their simulated
/// seconds; every run must pass the online checks.
fn seeded_totals(input: &mc::McInput, out: &mut Outcome) -> (SimMetrics, f64) {
    let mut sim_us = 0;
    let mut metrics = Vec::new();
    for run in mc::seeded_runs::<SeededScheduler>(input) {
        gate_report(&run.report, out);
        sim_us += run.sim.engine().now().as_micros();
        metrics.push(run.report.metrics);
    }
    (sum_metrics(&metrics), sim_us as f64 / 1e6)
}

/// The counters the benchmark reads, summed over several runs.
fn sum_metrics(all: &[SimMetrics]) -> SimMetrics {
    let mut sum = SimMetrics::default();
    for m in all {
        sum.messages_sent += m.messages_sent;
        sum.messages_delivered += m.messages_delivered;
        sum.batches_sent += m.batches_sent;
        sum.batched_payloads += m.batched_payloads;
        sum.reads_ok += m.reads_ok;
        sum.writes_ok += m.writes_ok;
        sum.txns_ok += m.txns_ok;
        sum.txns_failed += m.txns_failed;
        sum.timeouts_fired += m.timeouts_fired;
        sum.retries_read += m.retries_read;
        sum.retries_prepare += m.retries_prepare;
        sum.retries_commit += m.retries_commit;
        sum.aborts_exhausted += m.aborts_exhausted;
        sum.aborts_conflict += m.aborts_conflict;
        sum.aborts_no_quorum += m.aborts_no_quorum;
        sum.sync_keys_transferred += m.sync_keys_transferred;
        sum.sync_ranges_compared += m.sync_ranges_compared;
        sum.rejoins_completed += m.rejoins_completed;
        sum.rejoin_time_total = sum.rejoin_time_total + m.rejoin_time_total;
        sum.sync_violations += m.sync_violations;
        for (&site, &n) in &m.site_requests {
            *sum.site_requests.entry(site).or_insert(0) += n;
        }
    }
    sum
}

/// Mean nanoseconds per `Simulation::fingerprint` over the scenarios'
/// end states.
fn fingerprint_ns(input: &mc::McInput) -> f64 {
    const CALLS: usize = 2_000;
    let runs = mc::seeded_runs::<SeededScheduler>(input);
    let start = Instant::now();
    for run in &runs {
        for _ in 0..CALLS {
            std::hint::black_box(run.sim.fingerprint());
        }
    }
    start.elapsed().as_nanos() as f64 / (CALLS * runs.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_is_checked() {
        let a = args(&[
            "--workload",
            "zipf-hot",
            "--seed",
            "9",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ZipfHot);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.0, true));
        assert!(args(&["--workload", "zipf-hot"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "mc-explore",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let field = |key: &str| -> Vec<&str> {
            let tag = format!("\"{key}\": \"");
            json.split(tag.as_str())
                .skip(1)
                .map(|rest| &rest[..rest.find('"').expect("closing quote")])
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let metrics: Vec<(&str, &str)> =
            END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        let mut names = workloads.clone();
        names.extend(metrics.iter().map(|m| m.0));
        assert_eq!(field("name"), names);
        let units: Vec<&str> = metrics.iter().map(|m| m.1).collect();
        assert_eq!(field("unit"), units);
    }

    #[test]
    fn observers_never_change_a_run() {
        let mut input = SimInput::generate(Workload::ZipfHot, 3).unwrap();
        input.config.duration = arbitree_sim::SimDuration::from_millis(300);
        let plain = input.build().run();
        let mut layers = LayerTrace::default();
        let start = Instant::now();
        let traced = input.build().run_with(&mut layers);
        let wall = start.elapsed().as_nanos() as u64;
        let mut clock = SegmentClock::default();
        let segmented = input.build().run_with(&mut clock);
        let mut tap = trace::LatencyTap::default();
        let tapped = input.build().run_with(&mut tap);
        for other in [&traced, &segmented, &tapped] {
            assert_eq!(other.metrics, plain.metrics);
            assert_eq!(other.history, plain.history);
        }
        assert!(layers.total_events() > 1_000);
        assert!(layers.total_ns() <= wall);
        assert_eq!(clock.segments(Instant::now()).len(), clock.marks.len());
        // The tap's per-operation latencies are the history's, in order.
        assert_eq!(tap.samples, latencies(&plain.history));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut out = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        out.put("setup_s", 0.25);
        out.put("ops_per_wall_s", 1234.5);
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ops_per_wall_s\": {\"value\": 1234.5, \"unit\": \"ops/s\"}}}"
        );
        out.require(false, || "broken".to_string());
        assert!(out.json().starts_with("{\"correct\": false"));
    }
}
