//! The named workloads and the simulator inputs each one generates from the
//! benchmark seed. The simulator only ever receives the generated
//! [`SimConfig`], churn schedule and nemesis script.

use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::{ReplicaControl, SiteId};
use arbitree_sim::{
    build_profile, FailureSchedule, Nemesis, NemesisAction, NemesisKind, NetworkConfig,
    ObjectDistribution, RetryPolicy, SimConfig, SimDuration, SimTime, Simulation,
};
use std::collections::BTreeSet;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large uniform store over the 30-replica `1-2-4-8-16` tree: site
    /// delivery dominates.
    Uniform1m,
    /// Small Zipf-skewed store, read-heavy, history recorded: lock and
    /// coordinator work dominates.
    ZipfHot,
    /// Churn plus a rotating nemesis: recovery, timeouts and retries.
    ChaosRejoin,
    /// Model-checker exploration of the bounded-tier scenarios.
    McExplore,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Uniform1m,
        Workload::ZipfHot,
        Workload::ChaosRejoin,
        Workload::McExplore,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Uniform1m => "uniform-1m",
            Workload::ZipfHot => "zipf-hot",
            Workload::ChaosRejoin => "chaos-rejoin",
            Workload::McExplore => "mc-explore",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Simulated length of one `uniform-1m` run. Stores start empty and fill
/// as the run goes, so the length is part of the workload.
const UNIFORM_RUN: SimDuration = SimDuration::from_millis(1_000);
/// Simulated length of one `zipf-hot` run.
const ZIPF_RUN: SimDuration = SimDuration::from_millis(11_000);
/// One nemesis window of `chaos-rejoin`: one built-in profile runs alone
/// in it, and a run holds one window per profile.
const CHAOS_WINDOW: SimDuration = SimDuration::from_millis(1_500);
/// Outage of each rolling restart of `chaos-rejoin`.
const RESTART_DOWN: SimDuration = SimDuration::from_millis(50);

/// SplitMix64 finaliser: derives independent sub-seeds from the benchmark
/// seed, so the simulator RNG, the nemesis and the model checker's caps
/// never share a stream.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one simulated workload run is made of.
#[derive(Debug, Clone)]
pub struct SimInput {
    /// Tree spec of every shard's protocol instance.
    pub tree: &'static str,
    /// The simulator configuration (seed included).
    pub config: SimConfig,
    /// Background crashes and recoveries.
    pub churn: FailureSchedule,
    /// Scripted adversarial faults.
    pub nemesis: Nemesis,
}

impl SimInput {
    /// The inputs of `workload` at `seed`, or `None` for the model-checker
    /// workload, which runs scenarios rather than one simulation.
    pub fn generate(workload: Workload, seed: u64) -> Option<SimInput> {
        let base = SimConfig {
            seed: mix(seed, 1),
            clients: 16,
            think_time: SimDuration::from_micros(300),
            network: NetworkConfig::default(),
            ..SimConfig::default()
        };
        let input = match workload {
            Workload::Uniform1m => SimInput {
                tree: "1-2-4-8-16",
                config: SimConfig {
                    objects: 1 << 20,
                    object_distribution: ObjectDistribution::Uniform,
                    shards: 16,
                    batching: true,
                    max_txn_ops: 16,
                    read_fraction: 0.5,
                    duration: UNIFORM_RUN,
                    ..base
                },
                churn: FailureSchedule::none(),
                nemesis: Nemesis::none(),
            },
            Workload::ZipfHot => SimInput {
                tree: "1-3-5",
                config: SimConfig {
                    objects: 1 << 10,
                    object_distribution: ObjectDistribution::Zipfian { exponent: 1.0 },
                    max_txn_ops: 4,
                    read_fraction: 0.9,
                    record_history: true,
                    duration: ZIPF_RUN,
                    ..base
                },
                churn: FailureSchedule::none(),
                nemesis: Nemesis::none(),
            },
            Workload::ChaosRejoin => {
                let tree = "1-3-5";
                let probe = ArbitraryProtocol::parse(tree).expect("valid tree spec");
                let levels: Vec<Vec<SiteId>> = probe
                    .tree()
                    .physical_levels()
                    .iter()
                    .map(|&k| probe.tree().level_sites(k).to_vec())
                    .collect();
                let sites = probe.tree().replica_count();
                let duration = CHAOS_WINDOW.saturating_mul(NemesisKind::ALL.len() as u64);
                let config = SimConfig {
                    objects: 1 << 16,
                    clients: 64,
                    think_time: SimDuration::from_millis(2),
                    max_attempts: 3,
                    // Full jitter: retry delays spread over [d, 2d], so
                    // retried operations do not bunch into latency
                    // clusters whose share straddles a percentile (with
                    // jitter 0.25, p99.9 jumped between two clusters from
                    // seed to seed).
                    retry: RetryPolicy::Exponential {
                        cap: SimDuration::from_millis(24),
                        jitter: 1.0,
                    },
                    duration,
                    ..base
                };
                let nemesis = rotating_nemesis(&levels, config.network, mix(seed, 3));
                SimInput {
                    tree,
                    churn: rolling_restarts(sites, duration),
                    nemesis,
                    config,
                }
            }
            Workload::McExplore => return None,
        };
        Some(input)
    }

    /// Builds the simulation from the tree spec up: one parsed protocol
    /// instance per shard, then the churn and nemesis scheduled. This is
    /// the set-up `setup_s` times, together with `run`'s priming of the
    /// first client ticks.
    pub fn build(&self) -> Simulation {
        let protocols = (0..self.config.shards)
            .map(|_| {
                Box::new(ArbitraryProtocol::parse(self.tree).expect("valid tree spec"))
                    as Box<dyn ReplicaControl>
            })
            .collect();
        let mut sim = Simulation::from_shards(self.config.clone(), protocols);
        self.churn.apply(&mut sim);
        sim.schedule_nemesis(&self.nemesis);
        sim
    }

    /// One line describing the inputs, for the run log.
    pub fn describe(&self) -> String {
        let c = &self.config;
        format!(
            "tree {} | {} keys {:?} | {} shards | batching {} | {} clients | think {} | \
             txn <= {} ops | reads {} | delay {}-{} | {} churn events | {} nemesis steps | {} simulated",
            self.tree,
            c.objects,
            c.object_distribution,
            c.shards,
            c.batching,
            c.clients,
            c.think_time,
            c.max_txn_ops,
            c.read_fraction,
            c.network.min_latency,
            c.network.max_latency,
            self.churn.events().len() + self.churn.amnesia_events().len(),
            self.nemesis.steps().len(),
            c.duration,
        )
    }
}

/// Background churn as rolling restarts that lose storage: the run is cut
/// into one slot per replica, and each replica amnesia-crashes a quarter
/// into its slot, stays down [`RESTART_DOWN`], and rejoins through
/// anti-entropy. Randomly drawn outages (exponential, or even bounded
/// ones at seeded moments) made a run's tail latency and cost per
/// operation hinge on the seed; the seeded nemesis supplies the
/// randomness instead.
fn rolling_restarts(sites: usize, duration: SimDuration) -> FailureSchedule {
    let mut schedule = FailureSchedule::none();
    let slot = duration.as_micros() / sites as u64;
    for site in 0..sites as u32 {
        let at = SimTime::from_micros(slot * u64::from(site) + slot / 4);
        schedule
            .amnesia_crash(at, SiteId::new(site))
            .recover(at + RESTART_DOWN, SiteId::new(site));
    }
    schedule
}

/// The built-in nemesis profiles in turn, one per [`CHAOS_WINDOW`], never
/// two at a time. Each window's script is clipped to the window and
/// whatever it leaves broken at the window's end (a partition, a network
/// override, a crashed site) is undone there, so the next profile starts
/// clean.
fn rotating_nemesis(levels: &[Vec<SiteId>], network: NetworkConfig, seed: u64) -> Nemesis {
    let window = CHAOS_WINDOW.as_micros();
    let mut script = Nemesis::none();
    for (i, kind) in NemesisKind::ALL.into_iter().enumerate() {
        let offset = window * i as u64;
        // The targeted level is not left to the seed: windows take the
        // physical levels in turn, so the seed moves timings and victims
        // within a level but never decides which level a partition or a
        // level crash takes out (which made availability and tail latency
        // swing from seed to seed).
        let level = std::slice::from_ref(&levels[i % levels.len()]);
        let profile = build_profile(kind, level, network, CHAOS_WINDOW, mix(seed, i as u64));
        let mut broken = Broken::default();
        for (at, action) in profile.steps() {
            if at.as_micros() < window {
                broken.apply(action);
                script = script.at(
                    SimTime::from_micros(offset + at.as_micros()),
                    action.clone(),
                );
            }
        }
        for repair in broken.repairs() {
            script = script.at(SimTime::from_micros(offset + window), repair);
        }
    }
    script
}

/// What a nemesis script has left broken so far.
#[derive(Debug, Default)]
struct Broken {
    partitioned: bool,
    overridden: bool,
    down: BTreeSet<SiteId>,
}

impl Broken {
    fn apply(&mut self, action: &NemesisAction) {
        match action {
            NemesisAction::SetPartition(_) => self.partitioned = true,
            NemesisAction::HealPartition => self.partitioned = false,
            NemesisAction::Crash(s) | NemesisAction::AmnesiaCrash(s) => {
                self.down.insert(*s);
            }
            NemesisAction::Recover(s) => {
                self.down.remove(s);
            }
            NemesisAction::NetworkOverride(_) => self.overridden = true,
            NemesisAction::ClearNetworkOverride => self.overridden = false,
        }
    }

    /// The actions that undo everything still broken.
    fn repairs(&self) -> Vec<NemesisAction> {
        let mut out = Vec::new();
        if self.partitioned {
            out.push(NemesisAction::HealPartition);
        }
        if self.overridden {
            out.push(NemesisAction::ClearNetworkOverride);
        }
        out.extend(self.down.iter().map(|&s| NemesisAction::Recover(s)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in [
            Workload::Uniform1m,
            Workload::ZipfHot,
            Workload::ChaosRejoin,
        ] {
            let a = SimInput::generate(w, 7).unwrap();
            let b = SimInput::generate(w, 7).unwrap();
            assert_eq!(a.config, b.config);
            assert_eq!(a.churn.events(), b.churn.events());
            assert_eq!(a.nemesis, b.nemesis);
            let c = SimInput::generate(w, 8).unwrap();
            assert_ne!(a.config.seed, c.config.seed);
        }
        assert!(SimInput::generate(Workload::McExplore, 7).is_none());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn every_nemesis_window_ends_clean() {
        for seed in 0..20 {
            let input = SimInput::generate(Workload::ChaosRejoin, seed).unwrap();
            let mut steps = input.nemesis.steps().to_vec();
            // Stable: the repairs stay after the steps they undo.
            steps.sort_by_key(|(at, _)| *at);
            let window = CHAOS_WINDOW.as_micros();
            let mut boundary = window;
            let mut broken = Broken::default();
            for (at, action) in &steps {
                while at.as_micros() > boundary {
                    assert!(
                        broken.repairs().is_empty(),
                        "seed {seed}: broken at {boundary}us"
                    );
                    boundary += window;
                }
                broken.apply(action);
            }
            assert!(broken.repairs().is_empty());
            assert!(steps
                .iter()
                .any(|(_, a)| matches!(a, NemesisAction::AmnesiaCrash(_))));
            assert!(steps
                .iter()
                .all(|(at, _)| *at <= SimTime::ZERO + input.config.duration));
        }
    }
}
