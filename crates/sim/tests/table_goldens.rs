//! Byte-level goldens for the all-pairs-distance consumers: full
//! `(dist, next_hop)` route tables, `failure_trial` curves and the
//! `Perm1Hop`/`Perm2Hop` destination maps. The digests were recorded with
//! the scalar one-BFS-per-source implementation; any rebuild of the
//! distance kernel, of `RouteTables::build` or of `traffic::resolve` must
//! reproduce them exactly — every reservoir draw and every matching
//! included.
//!
//! Unlike values drawn straight from a seed, these pin *this repo's*
//! vendored RNG streams on purpose: the tables are the contract.

use pf_graph::failures::failure_trial;
use pf_graph::random_regular::random_regular;
use pf_graph::{Csr, FailureSet};
use pf_sim::tables::RouteTables;
use pf_sim::traffic::{resolve, DestMap, TrafficPattern};
use polarfly::PolarFly;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn er(q: u64) -> PolarFly {
    PolarFly::new(q).expect("prime power")
}

/// Digest of every `dist(s, d)` and `next_hop(s, d)`, row-major.
fn tables_digest(g: &Csr, seed: u64) -> u64 {
    let t = RouteTables::build(g, seed);
    let n = t.router_count() as u32;
    let mut h = Fnv::new();
    h.word(u64::from(n));
    for s in 0..n {
        for d in 0..n {
            h.word(u64::from(t.dist(s, d)) << 32 | u64::from(t.next_hop(s, d)));
        }
    }
    h.0
}

#[test]
fn healthy_route_tables_match_goldens() {
    for (q, seed, want) in [
        (7, 1, 0x34d3_bd55_87c6_8d34u64),
        (7, 42, 0x34d3_bd55_87c6_8d34),
        (31, 1, 0x4da9_a166_4585_9324),
        (31, 42, 0x4da9_a166_4585_9324),
    ] {
        let got = tables_digest(er(q).graph(), seed);
        assert_eq!(got, want, "ER_{q} seed {seed}: digest {got:#018x}");
    }
}

/// Healthy ER_q has one minimal next hop per pair (the digests above do
/// not depend on the seed); residual and random graphs have equal-cost
/// ties, so these pin every reservoir draw.
#[test]
fn tie_breaking_route_tables_match_goldens() {
    let pf = er(31);
    let connected = FailureSet::sample_connected(pf.graph(), 0.10, 23).residual(pf.graph());
    // A plain 85 % sample leaves unreachable pairs in the tables.
    let shattered = FailureSet::sample(pf.graph(), 0.85, 5).residual(pf.graph());
    assert!(!shattered.is_connected());
    let jellyfish = random_regular(200, 6, 9);
    for (label, g, seed, want) in [
        ("ER_31 -10%", &connected, 11, 0xfaaa_b006_21e2_9a30u64),
        ("ER_31 -10%", &connected, 42, 0xbde5_fe36_c28e_6994),
        ("ER_31 -85%", &shattered, 1, 0x47dc_0057_bdd4_afd2),
        ("RRG(200,6)", &jellyfish, 1, 0xa22b_2811_112b_48d3),
        ("RRG(200,6)", &jellyfish, 42, 0xd6e1_6ad3_f4b8_e9a2),
    ] {
        let got = tables_digest(g, seed);
        assert_eq!(got, want, "{label} seed {seed}: digest {got:#018x}");
    }
}

#[test]
fn failure_trial_matches_goldens() {
    let pf = er(31);
    for (seed, want) in [(1, 0x70d1_880e_46f1_0f9bu64), (42, 0x8347_6cac_1de8_0525)] {
        let t = failure_trial(pf.graph(), &[0.1, 0.3, 0.5], seed);
        let mut h = Fnv::new();
        h.word(t.disconnect_ratio.to_bits());
        for p in &t.curve {
            h.word(p.failure_ratio.to_bits());
            h.word(u64::from(p.diameter));
            h.word(p.aspl.to_bits());
            h.word(u64::from(p.connected));
        }
        assert_eq!(h.0, want, "seed {seed}: digest {:#018x}", h.0);
    }
}

#[test]
fn hop_permutations_match_goldens() {
    for (q, pattern, want) in [
        (7, TrafficPattern::Perm1Hop, 0x4930_3735_c6d2_74fdu64),
        (7, TrafficPattern::Perm2Hop, 0x37b4_a283_9149_d1fd),
        (31, TrafficPattern::Perm1Hop, 0x5588_d1fd_3172_358c),
        (31, TrafficPattern::Perm2Hop, 0xd84e_9f9c_0590_dba8),
    ] {
        let pf = er(q);
        let hosts: Vec<u32> = (0..pf.router_count() as u32).collect();
        let DestMap::Fixed { dest } = resolve(pattern, pf.graph(), &hosts, 42) else {
            panic!("{pattern} resolves to a fixed map");
        };
        let mut h = Fnv::new();
        dest.iter().for_each(|&d| h.word(u64::from(d)));
        assert_eq!(h.0, want, "ER_{q} {pattern}: digest {:#018x}", h.0);
    }
}
