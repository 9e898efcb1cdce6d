//! Direct measurements of single layers through their public APIs, shaped
//! like the workload under test: a store of the workload's size, lock plans
//! drawn like the coordinator draws them, quorum picks on the workload's
//! tree.

use arbitree_core::{ArbitraryProtocol, Timestamp};
use arbitree_quorum::{AliveSet, ReplicaControl, SiteId};
use arbitree_sim::{LockManager, LockMode, ObjectId, ObjectSampler, OpId, SimConfig, Storage};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Operations each probe times; enough for tens of milliseconds each.
const PROBE_OPS: usize = 200_000;

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Nanoseconds per `Storage::commit` of a staged write and per
/// `Storage::read`, on a store already holding `keys` committed keys.
pub fn storage(keys: usize, seed: u64) -> (f64, f64) {
    let keys = keys.max(1) as u32;
    let sid = SiteId::new(0);
    let value = Bytes::copy_from_slice(&[7u8; 12]);
    let mut store = Storage::new();
    for k in 0..keys {
        store.commit(ObjectId(k), OpId(0), value.clone(), Timestamp::new(1, sid));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let targets: Vec<u32> = (0..PROBE_OPS).map(|_| rng.gen_range(0..keys)).collect();
    for (i, &k) in targets.iter().enumerate() {
        let ts = Timestamp::new(2 + i as u64, sid);
        store.prepare(ObjectId(k), OpId(1 + i as u64), value.clone(), ts);
    }
    let start = Instant::now();
    for (i, &k) in targets.iter().enumerate() {
        let ts = Timestamp::new(2 + i as u64, sid);
        store.commit(ObjectId(k), OpId(1 + i as u64), value.clone(), ts);
    }
    let commit_ns = ns_per(start, targets.len());
    let start = Instant::now();
    let mut acc = 0u64;
    for &k in &targets {
        acc ^= black_box(store.read(ObjectId(k))).ts.version();
    }
    black_box(acc);
    (commit_ns, ns_per(start, targets.len()))
}

/// Nanoseconds per lock (one acquire plus one release) on the workload's
/// striped `LockManager`, running transactions' lock plans one after
/// another: 1..=`max_txn_ops` distinct objects drawn from the workload's
/// distribution, each read or written per `read_fraction`, acquired in
/// ascending object order.
pub fn locks(config: &SimConfig, seed: u64) -> f64 {
    let manager = LockManager::striped(config.shards);
    let sampler = ObjectSampler::new(config.objects, config.object_distribution);
    let mut rng = StdRng::seed_from_u64(seed);
    let max_ops = config.max_txn_ops.min(config.objects);
    let mut plans = Vec::new();
    let mut locks = 0;
    while locks < PROBE_OPS {
        let n = rng.gen_range(1..=max_ops);
        let mut plan: Vec<(ObjectId, LockMode)> = Vec::with_capacity(n);
        while plan.len() < n {
            let obj = ObjectId(sampler.sample(&mut rng));
            if plan.iter().all(|&(o, _)| o != obj) {
                let mode = if rng.gen::<f64>() < config.read_fraction {
                    LockMode::Read
                } else {
                    LockMode::Write
                };
                plan.push((obj, mode));
            }
        }
        plan.sort_by_key(|&(o, _)| o);
        locks += plan.len();
        plans.push(plan);
    }
    let start = Instant::now();
    for (i, plan) in plans.iter().enumerate() {
        let op = OpId(i as u64);
        for &(obj, mode) in plan {
            black_box(manager.acquire(op, obj, mode));
        }
        for &(obj, _) in plan {
            black_box(manager.release(op, obj));
        }
    }
    ns_per(start, locks)
}

/// Nanoseconds per `pick_read_quorum` and `pick_write_quorum` on `tree`,
/// with every site alive and with one site down (each site in turn).
#[derive(Debug, Clone, Copy)]
pub struct QuorumPicks {
    /// Read pick, all sites alive.
    pub read: f64,
    /// Write pick, all sites alive.
    pub write: f64,
    /// Read pick, one site down.
    pub read_down: f64,
    /// Write pick, one site down.
    pub write_down: f64,
}

/// Times quorum picks on `tree` (see [`QuorumPicks`]).
pub fn quorum(tree: &str, seed: u64) -> QuorumPicks {
    let protocol = ArbitraryProtocol::parse(tree).expect("valid tree spec");
    let n = protocol.universe().len();
    let full = AliveSet::full(n);
    let one_down: Vec<AliveSet> = (0..n)
        .map(|s| {
            let mut alive = full;
            alive.remove(SiteId::new(s as u32));
            alive
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut time = |write: bool, alive: &dyn Fn(usize) -> AliveSet| {
        let start = Instant::now();
        for i in 0..PROBE_OPS {
            let alive = alive(i);
            if write {
                black_box(protocol.pick_write_quorum(alive, &mut rng));
            } else {
                black_box(protocol.pick_read_quorum(alive, &mut rng));
            }
        }
        ns_per(start, PROBE_OPS)
    };
    let all = |_| full;
    let down = |i: usize| one_down[i % n];
    QuorumPicks {
        read: time(false, &all),
        write: time(true, &all),
        read_down: time(false, &down),
        write_down: time(true, &down),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_costs() {
        let (commit, read) = storage(1_000, 1);
        assert!(commit > 0.0 && read > 0.0);
        let config = SimConfig {
            objects: 64,
            max_txn_ops: 4,
            ..SimConfig::default()
        };
        assert!(locks(&config, 1) > 0.0);
        let q = quorum("1-3-5", 1);
        assert!(q.read > 0.0 && q.write > 0.0 && q.read_down > 0.0 && q.write_down > 0.0);
    }
}
