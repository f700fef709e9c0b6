//! The digest matrix: every simulated outcome of a grid of small runs,
//! pinned as one 64-bit FNV-1a of the `SimResult`'s `Debug` text per
//! cell.
//!
//! Open-loop cells: every [`Routing`] whose hop bound fits the cell's VC
//! classes × PF q = 7, Slim Fly q = 5, the smallest Dragonfly and the
//! smallest square HyperX whose 5 % draw fails a link × {uniform,
//! perm2hop} × {healthy, static 5 %, transient 5 % under each
//! [`InFlightPolicy`]}. Closed-loop cells: one job per `pf_workload`
//! generator on PF q = 7, healthy and transient.
//!
//! A change that moves a cell says "re-bless" and names the cause; on a
//! mismatch the test prints every line of its block as observed, so a
//! deliberate re-bless is a paste.

use pf_graph::{bfs, FailureSet, FaultSchedule};
use pf_sim::traffic::{resolve, TrafficPattern};
use pf_sim::{simulate, simulate_workload, InFlightPolicy, RouteTables, Routing, SimConfig};
use pf_sim::{JobResult, SimResult};
use pf_topo::{Dragonfly, HyperX, PolarFlyTopo, SlimFly, Topology};
use pf_workload::{
    all_to_all, halo_exchange, multi_job_mix, param_server, recursive_doubling_allreduce,
    ring_allreduce, JobAssignment,
};

const PINS: &str = "\
PF7 uniform healthy Min 0xf55acf426334d771
PF7 uniform healthy MinAdaptive 0xf55acf426334d771
PF7 uniform healthy Valiant 0x98d32324388a3af5
PF7 uniform healthy CompactValiant 0x58a45e217bdba204
PF7 uniform healthy Ugal 0x77b43ff2157ea230
PF7 uniform healthy UgalPf 0xf55acf426334d771
PF7 uniform static Min 0xb1e0edc9987d52df
PF7 uniform static MinAdaptive 0xd2723959e351bea0
PF7 uniform static Valiant 0x9b94bbf015be8fd2
PF7 uniform static CompactValiant 0x098fa2bbadf4e94d
PF7 uniform static Ugal 0xf4c13bcb4e4fa913
PF7 uniform static UgalPf 0x9ba3fca6706f543d
PF7 uniform drop Min 0x090d7666b129e1a4
PF7 uniform drop MinAdaptive 0x24f6df03035346b8
PF7 uniform drop Valiant 0x4078a9b2c5040dde
PF7 uniform drop CompactValiant 0x40250244be6facf1
PF7 uniform drop Ugal 0xb20a992cafe3d8ed
PF7 uniform drop UgalPf 0xc4161e558baca111
PF7 uniform drain Min 0x120dead333bddcfb
PF7 uniform drain MinAdaptive 0xd8c49118fd14416c
PF7 uniform drain Valiant 0x0f2c11eb836d81d5
PF7 uniform drain CompactValiant 0x82a2b8b7bc7af9da
PF7 uniform drain Ugal 0xed66d96c93361aa0
PF7 uniform drain UgalPf 0x6cdb001edda694ba
PF7 perm2hop healthy Min 0x7da57183ad4c1b68
PF7 perm2hop healthy MinAdaptive 0x7da57183ad4c1b68
PF7 perm2hop healthy Valiant 0x4e15c2144299f2d2
PF7 perm2hop healthy CompactValiant 0x8a4fa4c9c5785a8d
PF7 perm2hop healthy Ugal 0x13e5b84c96ba75f4
PF7 perm2hop healthy UgalPf 0xfdf8d49893d1dd9f
PF7 perm2hop static Min 0xf7309d9a7330c08c
PF7 perm2hop static MinAdaptive 0x19323e9645e7087e
PF7 perm2hop static Valiant 0x427c1a68e2c81a17
PF7 perm2hop static CompactValiant 0xfabe0ef32d4ab956
PF7 perm2hop static Ugal 0xe378274e6d2c2e63
PF7 perm2hop static UgalPf 0x7b19830fce9a6963
PF7 perm2hop drop Min 0x2e18588a6dbfb89d
PF7 perm2hop drop MinAdaptive 0x5d51ca21183f3da8
PF7 perm2hop drop Valiant 0x79c6d48d6d939c64
PF7 perm2hop drop CompactValiant 0x85d6d8a8b66402c8
PF7 perm2hop drop Ugal 0x0a0a7626f4923123
PF7 perm2hop drop UgalPf 0x89023396b5857d3f
PF7 perm2hop drain Min 0xb313c150ff7c6b82
PF7 perm2hop drain MinAdaptive 0x8b556293f73ce731
PF7 perm2hop drain Valiant 0x8815eeb522269ab4
PF7 perm2hop drain CompactValiant 0x9b59ecbd1ed0eba5
PF7 perm2hop drain Ugal 0xf96dab2b55e2b4c6
PF7 perm2hop drain UgalPf 0x7231bd1b5a08edc5
SF5 uniform healthy Min 0xab4109e0e63489d0
SF5 uniform healthy MinAdaptive 0xab4109e0e63489d0
SF5 uniform healthy Valiant 0x2e4712cb1405decc
SF5 uniform healthy CompactValiant 0x97c84aecbf3e83e1
SF5 uniform healthy Ugal 0xe7dec8a1557337cd
SF5 uniform healthy UgalPf 0xab4109e0e63489d0
SF5 uniform static Min 0x8cf0eaaf3a8f5a46
SF5 uniform static MinAdaptive 0x03f675f4c1416824
SF5 uniform static Valiant 0x9ec1309745ecb103
SF5 uniform static CompactValiant 0xfaccea9829d05868
SF5 uniform static Ugal 0x0b41f15cdeb50537
SF5 uniform static UgalPf 0x4b0182919ae62aad
SF5 uniform drop Min 0xe36c4f87890b6410
SF5 uniform drop MinAdaptive 0x802877e0cb0df0ae
SF5 uniform drop Valiant 0xb21ff51af89521a7
SF5 uniform drop CompactValiant 0x8b82672d4f8638d1
SF5 uniform drop Ugal 0xe58d212f66f50e8d
SF5 uniform drop UgalPf 0xa0bd1d7f721684b8
SF5 uniform drain Min 0xa513d9584a94d239
SF5 uniform drain MinAdaptive 0x48ff293a962292b7
SF5 uniform drain Valiant 0x8ae51338ce0b15b7
SF5 uniform drain CompactValiant 0x869b270c84e074c1
SF5 uniform drain Ugal 0x3c50537647158acf
SF5 uniform drain UgalPf 0xf6b12a7abdfa3636
SF5 perm2hop healthy Min 0x264d0b8358d11892
SF5 perm2hop healthy MinAdaptive 0x264d0b8358d11892
SF5 perm2hop healthy Valiant 0x0d69f3fbe31ab78c
SF5 perm2hop healthy CompactValiant 0xd768c56552359931
SF5 perm2hop healthy Ugal 0x746be41d456c3eec
SF5 perm2hop healthy UgalPf 0x91e741852c17e362
SF5 perm2hop static Min 0x933733ff2d709b2d
SF5 perm2hop static MinAdaptive 0xa52d444c44b1ed25
SF5 perm2hop static Valiant 0xc0eab7b9551b7cab
SF5 perm2hop static CompactValiant 0x5b69387ac4676f5f
SF5 perm2hop static Ugal 0x06d8798d4914f1ea
SF5 perm2hop static UgalPf 0x40337cc4b2c29e50
SF5 perm2hop drop Min 0x10655e0ca9a22756
SF5 perm2hop drop MinAdaptive 0x5cc29d95ac2de10b
SF5 perm2hop drop Valiant 0xcd35b2fe935d69c5
SF5 perm2hop drop CompactValiant 0x0aff84f6d3944fc5
SF5 perm2hop drop Ugal 0xfc3d8699eb1908e5
SF5 perm2hop drop UgalPf 0xe5974b644d504d1f
SF5 perm2hop drain Min 0xb6109feb83caf276
SF5 perm2hop drain MinAdaptive 0x4960c21a2ef80f85
SF5 perm2hop drain Valiant 0x824ddcfe7d48679f
SF5 perm2hop drain CompactValiant 0x158a0e7b965e83da
SF5 perm2hop drain Ugal 0xc4194e9ca22545ea
SF5 perm2hop drain UgalPf 0xb1492cd6b7f5ecc0
DF22 uniform healthy Min 0x53d5bff13d7de326
DF22 uniform healthy MinAdaptive 0xedfc306bfc6f7c41
DF22 uniform healthy CompactValiant 0x6df3f9672a149ae9
DF22 uniform static Min 0x4b8c25c6c568e8b0
DF22 uniform static MinAdaptive 0x677aaa0189d4c921
DF22 uniform static Valiant 0x1aec28a14a16f8ba
DF22 uniform static CompactValiant 0x46665f1844ac2015
DF22 uniform static Ugal 0x1fe879e257d83387
DF22 uniform static UgalPf 0xcd16ffa585653d72
DF22 uniform drop Min 0x24c376a2c28f27be
DF22 uniform drop MinAdaptive 0x3239e01b5e293b86
DF22 uniform drop Valiant 0xd85be707a4df50ba
DF22 uniform drop CompactValiant 0xf94e1b3f6aea02f2
DF22 uniform drop Ugal 0x62c72458f1f39bef
DF22 uniform drop UgalPf 0x970fe8b1d2675c11
DF22 uniform drain Min 0x03aca9c626f8d8f3
DF22 uniform drain MinAdaptive 0x3239e01b5e293b86
DF22 uniform drain Valiant 0x4e377e901a3f8b20
DF22 uniform drain CompactValiant 0x31208d861bd2d98e
DF22 uniform drain Ugal 0x844b69ddb213743d
DF22 uniform drain UgalPf 0x76f0057a24b514bb
DF22 perm2hop healthy Min 0x4c1b5a6cd0261634
DF22 perm2hop healthy MinAdaptive 0xc9764b33b32017f8
DF22 perm2hop healthy CompactValiant 0xa68204c140b511f2
DF22 perm2hop static Min 0x1bd80b719a40dd1c
DF22 perm2hop static MinAdaptive 0xeb4958a6cb0668b9
DF22 perm2hop static Valiant 0x8edfa31157893ad8
DF22 perm2hop static CompactValiant 0x828db980d6265c4d
DF22 perm2hop static Ugal 0x98088473033835af
DF22 perm2hop static UgalPf 0x99debf3bc73e16af
DF22 perm2hop drop Min 0xa1d9f81f1c85ee19
DF22 perm2hop drop MinAdaptive 0xa9b00988f03fd9ef
DF22 perm2hop drop Valiant 0xad975e0bac66d880
DF22 perm2hop drop CompactValiant 0x654b32e1321ad042
DF22 perm2hop drop Ugal 0x798f68a5972216ef
DF22 perm2hop drop UgalPf 0x83c9eece8def25b1
DF22 perm2hop drain Min 0x7ba2722c7ccdf37e
DF22 perm2hop drain MinAdaptive 0x6c7d3d6f03ae0348
DF22 perm2hop drain Valiant 0x9047b591eb8d2bb8
DF22 perm2hop drain CompactValiant 0x3d63e409cf897a8d
DF22 perm2hop drain Ugal 0xf9759a3ea575e96a
DF22 perm2hop drain UgalPf 0xc909d91aa5ac194a
HX33 uniform healthy Min 0xcf172cf9fc39aff7
HX33 uniform healthy MinAdaptive 0xd0646d90e9e258f4
HX33 uniform healthy Valiant 0xb527e25b4ad5efae
HX33 uniform healthy CompactValiant 0x3031accb11058f5f
HX33 uniform healthy Ugal 0x84d5d23375b8a251
HX33 uniform healthy UgalPf 0xcf172cf9fc39aff7
HX33 uniform static Min 0x8337544aac30918c
HX33 uniform static MinAdaptive 0x827954eb5de36719
HX33 uniform static Valiant 0x8933e041b4bb128a
HX33 uniform static CompactValiant 0x5578ea31f6ad0599
HX33 uniform static Ugal 0x812365402eef9daa
HX33 uniform static UgalPf 0x9ef126db10732cfb
HX33 uniform drop Min 0xc03d7d7be749573d
HX33 uniform drop MinAdaptive 0x0a3aa5a00b7c2187
HX33 uniform drop Valiant 0x39864d1cdad40ea9
HX33 uniform drop CompactValiant 0x886f078442b332e1
HX33 uniform drop Ugal 0x566eee6cfe5c0fd9
HX33 uniform drop UgalPf 0x7dae6fee6c8f6873
HX33 uniform drain Min 0xc03d7d7be749573d
HX33 uniform drain MinAdaptive 0x0a3aa5a00b7c2187
HX33 uniform drain Valiant 0x5534d0d95166cd6a
HX33 uniform drain CompactValiant 0x886f078442b332e1
HX33 uniform drain Ugal 0x4d89a9a3ece7aa6c
HX33 uniform drain UgalPf 0x7dae6fee6c8f6873
HX33 perm2hop healthy Min 0x430a5499b8e1493f
HX33 perm2hop healthy MinAdaptive 0xb6def27e3a25818c
HX33 perm2hop healthy Valiant 0xa570edc955ae4b3c
HX33 perm2hop healthy CompactValiant 0xc0da22c147cbbc82
HX33 perm2hop healthy Ugal 0x5d967e8381e08b4c
HX33 perm2hop healthy UgalPf 0x513d9ebbc48e9702
HX33 perm2hop static Min 0xb430c68f2f59ed6b
HX33 perm2hop static MinAdaptive 0x788cbae10b605b41
HX33 perm2hop static Valiant 0xf27f87ea3e87e95a
HX33 perm2hop static CompactValiant 0xc95c03663c1377bd
HX33 perm2hop static Ugal 0xb3eb28ce482e9cd5
HX33 perm2hop static UgalPf 0xa25448d30563ce59
HX33 perm2hop drop Min 0x96ef38c07edbdefc
HX33 perm2hop drop MinAdaptive 0x68a3e2f3ba077e51
HX33 perm2hop drop Valiant 0x17f81ffc77336cce
HX33 perm2hop drop CompactValiant 0x48a547067a7e722b
HX33 perm2hop drop Ugal 0xb2fd8277e82f7f7d
HX33 perm2hop drop UgalPf 0x483a84a1c6881445
HX33 perm2hop drain Min 0x972fa32d151f1ef3
HX33 perm2hop drain MinAdaptive 0x17d6583bd0b76ef4
HX33 perm2hop drain Valiant 0x2113c6a27c0005a1
HX33 perm2hop drain CompactValiant 0x5bb6950dddcad4e2
HX33 perm2hop drain Ugal 0x0f3c21d7995b479d
HX33 perm2hop drain UgalPf 0xedfa80c8bcad3dfe
WL ring healthy Min 0xa53d65beceabcd84
WL ring drop UgalPf 0x0069af71eeb14d7a
WL recdoub healthy Min 0x9e6b421a4a8b6507
WL recdoub drop UgalPf 0xf435b4ffec3860c2
WL all_to_all healthy Min 0x6e2cb0a0b32d2fab
WL all_to_all drop UgalPf 0xd5ec0983675857cb
WL halo healthy Min 0x58e9f9a169189b91
WL halo drop UgalPf 0x6008e4ca58845ff8
WL param_server healthy Min 0x8100edc2924712be
WL param_server drop UgalPf 0x1e0388dce0ccebd2
WL mix healthy Min 0x736dba0b9a20a524
WL mix drop UgalPf 0x0efdbf37fddfad1a
";

/// Seed of every table build, traffic draw, fault draw and run.
const SEED: u64 = 3;
/// Share of links a faulted cell fails.
const RATIO: f64 = 0.05;

/// 64-bit FNV-1a of `r`'s `Debug` text.
fn digest(r: &SimResult) -> u64 {
    format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The short run every open-loop cell simulates; faulted cells get 8 VC
/// classes, as residual paths outgrow the healthy diameter.
fn config(faulted: bool, policy: InFlightPolicy) -> SimConfig {
    let cfg = SimConfig::default()
        .warmup(100)
        .measure(200)
        .drain_max(400)
        .convergence_delay(40)
        .fault_policy(policy)
        .seed(SEED);
    if faulted {
        cfg.vc_classes(8)
    } else {
        cfg
    }
}

/// The transient schedule: the static cell's links, each failing in
/// `[0, 200)` and repaired 120 cycles later.
fn transient_schedule(topo: &Topology) -> FaultSchedule {
    FaultSchedule::sample_connected_links(topo.graph(), RATIO, 200, 120, SEED)
}

/// The fault columns, in pin order.
const FAULTS: [&str; 4] = ["healthy", "static", "drop", "drain"];

/// Simulates every valid cell of `topo` and returns one pin line each.
fn open_loop_lines(label: &str, topo: &Topology) -> String {
    let g = topo.graph();
    let failures = FailureSet::sample_connected(g, RATIO, SEED);
    assert!(!failures.is_empty(), "{label}: the 5 % draw fails no link");
    let residual = bfs::diameter(&failures.residual(g)).expect("connected residual");
    let healthy = bfs::diameter(g).expect("connected topology");
    let static_topo = topo
        .with_faults(FaultSchedule::from_failures(&failures))
        .unwrap();
    let transient_topo = topo.with_faults(transient_schedule(topo)).unwrap();
    let mut out = String::new();
    for pattern in [TrafficPattern::Uniform, TrafficPattern::Perm2Hop] {
        let dests = resolve(pattern, g, &topo.host_routers(), SEED);
        for fault in FAULTS {
            let (net, policy): (&Topology, _) = match fault {
                "healthy" => (topo, InFlightPolicy::default()),
                "static" => (&static_topo, InFlightPolicy::default()),
                "drop" => (&transient_topo, InFlightPolicy::DropRetransmit),
                _ => (&transient_topo, InFlightPolicy::Drain),
            };
            let cfg = config(fault != "healthy", policy);
            // Every transient state keeps a superset of the static
            // residual's links, so its diameter bounds them all.
            let diameter = if fault == "healthy" {
                healthy
            } else {
                residual
            };
            let tables = RouteTables::build_for(net, SEED);
            for routing in Routing::all() {
                if routing.max_hops(diameter) > u32::from(cfg.vc_classes) {
                    continue;
                }
                let r = simulate(net, &tables, &dests, routing, 0.3, cfg.clone());
                out += &format!(
                    "{label} {pattern} {fault} {routing:?} {:#018x}\n",
                    digest(&r)
                );
            }
        }
    }
    out
}

/// Asserts that `observed` equals the lines of [`PINS`] starting with
/// `label`.
fn check(label: &str, observed: &str) {
    let pinned: String = PINS
        .lines()
        .filter(|l| l.split(' ').next() == Some(label))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        observed == pinned,
        "{label}: digests moved; observed:\n{observed}"
    );
}

#[test]
fn polarfly_q7() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    check("PF7", &open_loop_lines("PF7", &topo));
}

#[test]
fn slimfly_q5() {
    let topo = SlimFly::new(5, 3).unwrap();
    check("SF5", &open_loop_lines("SF5", &topo));
}

#[test]
fn dragonfly_a2_h2() {
    let topo = Dragonfly::new(2, 2, 2);
    check("DF22", &open_loop_lines("DF22", &topo));
}

#[test]
fn hyperx_3x3() {
    let topo = HyperX::new(3, 3, 2);
    check("HX33", &open_loop_lines("HX33", &topo));
}

/// One generator's jobs, by name.
fn generator_jobs(name: &str) -> Vec<JobAssignment> {
    let solo = |w| vec![JobAssignment::solo(w)];
    match name {
        "ring" => solo(ring_allreduce(12, 16, 4)),
        "recdoub" => solo(recursive_doubling_allreduce(12, 16, 2)),
        "all_to_all" => solo(all_to_all(10, 8, 2)),
        "halo" => solo(halo_exchange(&[3, 4], 8, 2, 3)),
        "param_server" => solo(param_server(12, 2, 32, 16, 4)),
        "mix" => multi_job_mix(40, 5, 4, 0xC0FFEE),
        _ => unreachable!("{name}"),
    }
}

/// One job per generator (the mix: one of each family) on PF q = 7,
/// healthy under MIN and transient under UGAL-PF.
#[test]
fn closed_loop_generators() {
    let topo = PolarFlyTopo::new(7, 4).unwrap();
    let transient = topo.with_faults(transient_schedule(&topo)).unwrap();
    let mut out = String::new();
    for name in [
        "ring",
        "recdoub",
        "all_to_all",
        "halo",
        "param_server",
        "mix",
    ] {
        let runs: [(&str, &Topology, Routing, bool); 2] = [
            ("healthy", &topo, Routing::Min, false),
            ("drop", &transient, Routing::UgalPf, true),
        ];
        for (fault, net, routing, faulted) in runs {
            let cfg = config(faulted, InFlightPolicy::DropRetransmit);
            let r = simulate_workload(net, routing, generator_jobs(name), &cfg).unwrap();
            assert!(
                r.jobs.iter().all(|j: &JobResult| j.makespan.is_some()),
                "{name} {fault}: a job did not finish"
            );
            out += &format!("WL {name} {fault} {routing:?} {:#018x}\n", digest(&r));
        }
    }
    check("WL", &out);
}
