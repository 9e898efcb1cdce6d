//! The `mc-explore` workload: `arbitree_check::explore` over the
//! bounded-tier scenarios, each at a schedule cap the seed picks from
//! [`CAPS`]. Exploration is deterministic, so each (scenario, cap) pair
//! has pinned schedule and state counts; a pass that reaches other counts,
//! or finds a violation, fails the benchmark.

use crate::trace::{FirstEvent, LatencyTap};
use crate::workload::mix;
use arbitree_check::{explore, kill_one, Budget, Mutation, Scenario};
use arbitree_sim::{Scheduler, SimReport, Simulation};
use std::time::{Duration, Instant};

/// The schedule caps a seed chooses from, one draw per scenario.
pub const CAPS: [u64; 4] = [1_000, 1_250, 1_500, 1_750];

/// `(scenario, cap, schedules, states)` as explored under
/// `Budget::smoke().capped(cap)`.
const PINS: &[(&str, u64, u64, u64)] = &[
    ("writers-race", 1000, 1000, 697),
    ("writers-race", 1250, 1250, 792),
    ("writers-race", 1500, 1500, 880),
    ("writers-race", 1750, 1750, 976),
    ("write-read-race", 1000, 982, 1000),
    ("write-read-race", 1250, 1218, 1250),
    ("write-read-race", 1500, 1495, 1500),
    ("write-read-race", 1750, 1750, 1735),
    ("crash-abort", 1000, 905, 1000),
    ("crash-abort", 1250, 1140, 1250),
    ("crash-abort", 1500, 1379, 1500),
    ("crash-abort", 1750, 1608, 1750),
    ("write-crash-recover", 1000, 1000, 840),
    ("write-crash-recover", 1250, 1250, 1072),
    ("write-crash-recover", 1500, 1500, 1219),
    ("write-crash-recover", 1750, 1750, 1362),
    ("amnesia-rejoin", 1000, 1000, 824),
    ("amnesia-rejoin", 1250, 1250, 1041),
    ("amnesia-rejoin", 1500, 1500, 1173),
    ("amnesia-rejoin", 1750, 1750, 1378),
    ("batched-repair", 1000, 1000, 933),
    ("batched-repair", 1250, 1250, 1163),
    ("batched-repair", 1500, 1500, 1392),
    ("batched-repair", 1750, 1750, 1527),
    ("cross-shard", 1000, 1000, 661),
    ("cross-shard", 1250, 1250, 753),
    ("cross-shard", 1500, 1500, 863),
    ("cross-shard", 1750, 1750, 955),
];

/// `(mutation, schedules to the kill)` under `Budget::smoke()`.
const KILL_PINS: &[(&str, u64)] = &[
    ("read-skips-level", 0),
    ("write-missing-site", 0),
    ("skip-version-bump", 1),
    ("stale-commit-ack", 935),
    ("keep-locks-on-abort", 1),
    ("early-lock-release", 6205),
];

/// One seed's model-checker input: every bounded-tier scenario with its cap.
#[derive(Debug, Clone)]
pub struct McInput {
    /// Scenarios and their schedule caps.
    pub runs: Vec<(Scenario, u64)>,
}

impl McInput {
    /// The input of `seed`.
    pub fn generate(seed: u64) -> McInput {
        let runs = Scenario::bounded()
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let pick = mix(seed, 100 + i as u64) % CAPS.len() as u64;
                (s, CAPS[pick as usize])
            })
            .collect();
        McInput { runs }
    }

    /// Operations in one replay of `scenario`'s script.
    fn script_ops(scenario: &Scenario) -> u64 {
        scenario
            .script
            .iter()
            .map(|s| (s.req.reads.len() + s.req.writes.len()) as u64)
            .sum()
    }
}

/// Totals of one exploration pass over every scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassStats {
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct states visited.
    pub states: u64,
    /// Scripted operations replayed: each schedule re-runs its scenario's
    /// script.
    pub ops: u64,
    /// Wall seconds of each scenario's exploration, in input order.
    pub walls: Vec<f64>,
}

/// Explores every scenario of `input` once, `mutation` compiled in if
/// given. Fails on a violation, or on counts other than the pinned ones.
pub fn explore_pass(input: &McInput, mutation: Option<&Mutation>) -> Result<PassStats, String> {
    let mut total = PassStats::default();
    for (scenario, cap) in &input.runs {
        let start = Instant::now();
        let outcome = explore(scenario, mutation, Budget::smoke().capped(*cap));
        total.walls.push(start.elapsed().as_secs_f64());
        if let Some(v) = &outcome.violation {
            return Err(format!(
                "{} (cap {cap}): {} violation: {}",
                scenario.name, v.kind, v.detail
            ));
        }
        let got = (outcome.stats.schedules, outcome.stats.states);
        let pinned = PINS
            .iter()
            .find(|p| p.0 == scenario.name && p.1 == *cap)
            .map(|p| (p.2, p.3));
        if pinned != Some(got) {
            return Err(format!(
                "{} (cap {cap}): explored (schedules, states) = {got:?}, pinned {pinned:?}",
                scenario.name
            ));
        }
        total.schedules += got.0;
        total.states += got.1;
        total.ops += got.0 * McInput::script_ops(scenario);
    }
    Ok(total)
}

/// Wall time to build every scenario's simulation up to its first event.
pub fn setup_pass(input: &McInput) -> Duration {
    let mut total = Duration::ZERO;
    for (scenario, _) in &input.runs {
        let start = Instant::now();
        let mut sim = scenario.build(None);
        let mut first = FirstEvent::default();
        sim.run_with(&mut first);
        total += first.at.expect("run_with selects at least once") - start;
    }
    total
}

/// Runs the mutation-kill matrix: every seeded mutation must be killed,
/// after exactly its pinned number of schedules. Returns each kill's wall
/// seconds, in [`Mutation::ALL`] order.
pub fn kill_matrix() -> Result<Vec<f64>, String> {
    let mut walls = Vec::new();
    for mutation in Mutation::ALL {
        let start = Instant::now();
        let kill = kill_one(mutation, Budget::smoke());
        walls.push(start.elapsed().as_secs_f64());
        let pinned = KILL_PINS.iter().find(|p| p.0 == kill.mutation).map(|p| p.1);
        if !kill.killed || pinned != Some(kill.schedules) {
            return Err(format!(
                "mutation {} on {}: killed {} after {} schedules, pinned {pinned:?}",
                kill.mutation, kill.scenario, kill.killed, kill.schedules
            ));
        }
    }
    Ok(walls)
}

/// One scenario run in the plain earliest-first order.
#[derive(Debug)]
pub struct SeededRun<S> {
    /// The simulation after the run.
    pub sim: Simulation,
    /// Its report.
    pub report: SimReport,
    /// The scheduler that drove it.
    pub scheduler: S,
    /// Wall seconds of `run_with` alone, without building the scenario.
    pub wall: f64,
}

/// Runs every scenario once in the plain earliest-first order under a
/// fresh `S`.
pub fn seeded_runs<S: Scheduler + Default>(input: &McInput) -> Vec<SeededRun<S>> {
    input
        .runs
        .iter()
        .map(|(scenario, _)| {
            let mut sim = scenario.build(None);
            let mut scheduler = S::default();
            let start = Instant::now();
            let report = sim.run_with(&mut scheduler);
            let wall = start.elapsed().as_secs_f64();
            SeededRun {
                sim,
                report,
                scheduler,
                wall,
            }
        })
        .collect()
}

/// Per-operation latencies of the seeded runs, in simulated microseconds.
pub fn seeded_latencies(input: &McInput) -> Vec<u64> {
    seeded_runs::<LatencyTap>(input)
        .into_iter()
        .flat_map(|run| run.scheduler.samples)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seeded_mutation_fails_the_pass() {
        // Any seed: the gate must trip on a protocol bug the explorer finds.
        let input = McInput {
            runs: vec![(Scenario::writers_race(), 50_000)],
        };
        let mutation = Mutation::Fault(arbitree_sim::FaultInjection::SkipVersionBump);
        let err = explore_pass(&input, Some(&mutation)).unwrap_err();
        assert!(err.contains("violation"), "{err}");
    }

    #[test]
    fn an_unpinned_count_fails_the_pass() {
        let input = McInput {
            runs: vec![(Scenario::writers_race(), 7)],
        };
        let err = explore_pass(&input, None).unwrap_err();
        assert!(err.contains("pinned None"), "{err}");
    }

    #[test]
    fn every_seed_draws_pinned_caps() {
        for seed in 0..50 {
            let input = McInput::generate(seed);
            assert_eq!(input.runs.len(), Scenario::bounded().len());
            for (scenario, cap) in &input.runs {
                assert!(
                    PINS.iter().any(|p| p.0 == scenario.name && p.1 == *cap),
                    "{} at cap {cap} has no pin",
                    scenario.name
                );
            }
        }
    }
}
