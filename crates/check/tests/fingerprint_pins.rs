//! Pins the three state fingerprints at fixed steps of two seeded runs.
//!
//! The fingerprints hash storage, staged writes, the transaction table,
//! the lock table and the checker model, all of which live in `DetMap`s
//! and are hashed in their iteration order. These values therefore move
//! if a change to the maps, or to anything they hold, changes what a run
//! does or the order its state is hashed in — the failure the model
//! checker's pinned schedule counts would also show, but here with the
//! step at which the runs first diverge.

use arbitree_check::Scenario;
use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::SiteId;
use arbitree_sim::{
    ClientId, EventKey, ObjectId, Scheduler, SeededScheduler, SimConfig, SimDuration, SimTime,
    Simulation, TxnRequest,
};
use bytes::Bytes;

/// The seeded earliest-first order, sampling all three fingerprints
/// before every `every`-th event.
struct Sampler {
    every: usize,
    step: usize,
    samples: Vec<String>,
}

impl Sampler {
    fn sample(&mut self, sim: &Simulation) {
        let (n64, w128) = sim.fingerprint_wide();
        let (c64, c128) = sim.fingerprint_canonical();
        assert_eq!(sim.fingerprint(), n64, "narrow lane of the wide pass");
        self.samples.push(format!(
            "{:>4}: {n64:016x} {w128:032x} {c64:016x} {c128:032x}",
            self.step
        ));
    }
}

impl Scheduler for Sampler {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        if self.step.is_multiple_of(self.every) {
            self.sample(sim);
        }
        self.step += 1;
        SeededScheduler.select(sim)
    }
}

/// Runs `sim` to its end, sampling every `every` steps and once more at
/// the end.
fn samples(mut sim: Simulation, every: usize) -> Vec<String> {
    let mut sampler = Sampler {
        every,
        step: 0,
        samples: Vec::new(),
    };
    sim.run_with(&mut sampler);
    sampler.sample(&sim);
    sampler.samples
}

/// A scripted run on `1-3-5` with enough objects per transaction that the
/// per-site storage and per-transaction maps hold more than a handful of
/// keys, plus a crash and recovery mid-run.
fn scripted() -> Simulation {
    let config = SimConfig {
        seed: 11,
        clients: 3,
        objects: 32,
        auto_workload: false,
        duration: SimDuration::from_millis(400),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(config, ArbitraryProtocol::parse("1-3-5").unwrap());
    let val = |i: u32| Bytes::copy_from_slice(&i.to_le_bytes());
    sim.schedule_transaction(
        SimTime::from_millis(1),
        ClientId(0),
        TxnRequest {
            reads: Vec::new(),
            writes: (0..12).map(|i| (ObjectId(i), val(i))).collect(),
        },
    );
    sim.schedule_transaction(
        SimTime::from_millis(1),
        ClientId(1),
        TxnRequest {
            reads: (12..24).map(ObjectId).collect(),
            writes: vec![(ObjectId(30), val(30))],
        },
    );
    sim.schedule_transaction(
        SimTime::from_millis(20),
        ClientId(2),
        TxnRequest {
            reads: (0..4).map(ObjectId).collect(),
            writes: (4..16).map(|i| (ObjectId(i), val(i + 100))).collect(),
        },
    );
    sim.schedule_crash(SimTime::from_millis(30), SiteId::new(5));
    sim.schedule_recover(SimTime::from_millis(90), SiteId::new(5));
    sim.schedule_transaction(
        SimTime::from_millis(120),
        ClientId(0),
        TxnRequest {
            reads: (0..16).map(ObjectId).collect(),
            writes: Vec::new(),
        },
    );
    sim
}

#[test]
fn scripted_run_fingerprints_are_pinned() {
    let expected = [
        "   0: a3d8a01da2b7cab6 c9177d5ca56cbb071a59ea8b8dddd7f7 dbc7cfbde4269b7e 4ca7c0fdaecc77590004a867264a7f4f",
        "  50: f7c43e35b9afe93e 2d6f33b9acd8c9b323d6dec60f563dc6 732f72d3217d0816 0682b58c9a559c533de87d0e5620f97e",
        " 100: 9f795f31e2275e08 15666c7578ea0b4b67396efdfb5a1cbd a256f5543e0f88e0 7022bdb1ca55d454578663428f1ea0f5",
        " 150: 86f7bb2b411eaa83 9e663931eda6ea5bb87c3f4ce530a218 2ac38e6a71546dc5 bfd1c564b5916945405dfa9c36df7626",
        " 200: 9a103ee594925c6e 8e87e364aa8012b79c64d1d762b96d6d f5478f3a9f197d35 41b6216007a2856a2f7c93dac69cac2a",
        " 250: 2841d9f0796e8e2d a13718fa74872dd74655e59e95f71d87 d5794ef2c91b11c6 e765cc63bc1a695c90dbf5c9847b1bdc",
        " 300: 311296788979071b a19d1ab18ec2c9a25dba96aa78280def 4c31e036b33155b9 36a7530d0d0a412721e2762eff2419e5",
        " 350: d3bd9949b9cef18a 0fda4e4a7f1f9c769f12c2d292ef88de e916fa8a62e86edc 6b3e66c275280117464d3d5a5151ddcc",
        " 400: 5d380e3895a19b3c b93f7ca59d212038ad95c5e21bcab4f9 8a4534ceb9313920 032597827d8702d5155048f04e98a4f5",
        " 450: 0746699dbe202732 6f9f269d740e56d7338aa4ef5f1f0ca8 ec88549aa6f45be8 fde7175ffe7b87c3d91d6f11ff6ce5fa",
        " 500: 392467133fc85a70 3e3fce41d8bd5b459fe3116e28854e63 97c2ae2dfa423ba8 6dfcb9aabdd6daa6f12049c6fb5072f3",
        " 550: 238b8e55ad6c7c58 edc06dc53137968b8be019aff30b77c6 30ff38b4ed8a1cf5 1b2593154e630e22c9a454942102cab7",
        " 600: 82ec59e91f73f562 386b4566dc488407d70b9a33be27e342 b6df430ae505f78d fa93e6cf179a2fa94acc2ac21a9f06f1",
        " 625: 0100898c0787a470 f4c83aa1228eb7469234b49e21776730 f98ccd6f0b502223 27b728bcbeaf175d3fba2be868fe4c03",
    ];
    assert_eq!(samples(scripted(), 50), expected);
}

#[test]
fn bounded_scenario_fingerprints_are_pinned() {
    let expected = [
        "   0: 4f6c21078ec07998 7deb16c4a08dc4cd2701fb9349ca0c07 bf13bc26f5cd9630 4b2d6bf8d87f2cd73ebdd7e0c4260def",
        "   4: 97f3fd35ec058d65 de59f39b1c7c0c4ed86a2c0812af4052 9d16c96b3ffef9bf b6af349ebd67b6adfdcbb55b8a1cea78",
        "   8: 15d4e1038294d31d bed87cdf531d2aa00e7cec02a24632eb 14b791af2a407d4b 51992ee5dae4d1f0e1f643fa65687f39",
        "  12: c18c1b1551b9f4bf 29dea375d64d9eea9d7f9dd875ac1a8f e307726fca31f0a3 524f246acfd95dfe8c906239a90cf71b",
        "  16: 8f995b83bb3d99f6 e4a1ff66ddf91b57cf3c50c9f57bdf6d 552888b057c63fce c9009bdde591a079b5c7ac252dc199c5",
        "  20: a1bbc9954c904472 2ab22e0ac1b7e0e5ab4eab57710c1071 142eff5f91aab0b8 f53c96f6f77b663b86b9c81d9797573b",
        "  24: c4cac5ac8e4ce102 df75790c4ebf8fbe2ecf162ddee4d17d f74807490193d550 cb59067ca484dd1c3991d6377da9e76b",
        "  28: ce9c6c21ed89d9e3 bbda97c2b4c2741d1e3796e3867b3f6b 590c927a978bd37d 554dbc7515b9beafc990affd39074731",
        "  32: fecb9aeddbcbde5a 41ecec26909a9db26202d24bbba1050f 2328df14b0471794 2b427d53be35b35a6ae6ee3833d81fad",
        "  35: bd28746bed905d5f 8bb1d3ba7794a4a862d9010d70be188f 4d10e1b72bdd8a0d 0bdb022601196166055bc155a596a38d",
    ];
    assert_eq!(samples(Scenario::amnesia_rejoin().build(None), 4), expected);
}
