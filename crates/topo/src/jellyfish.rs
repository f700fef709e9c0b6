//! Jellyfish (Singla et al., NSDI'12) — switches wired as a seeded random
//! regular graph. The paper uses it as the random-expander baseline
//! (Table V: 993 routers of radix 32, mirroring the PolarFly scale).

use crate::Topology;
use pf_graph::random_regular;

/// Jellyfish (random regular) constructor.
pub enum Jellyfish {}

impl Jellyfish {
    /// Builds a connected random `k`-regular network on `n` routers with
    /// `p` endpoints each. Deterministic in `seed`.
    pub fn new(n: usize, k: usize, p: usize, seed: u64) -> Topology {
        let graph = random_regular::random_regular(n, k, seed);
        let name = format!("JF(n={},k={k},p={p},s={seed})", graph.vertex_count());
        Topology::uniform(name, graph, p)
    }

    /// The Table V configuration: 993 routers, network radix 32, p = 16.
    pub fn table_v(seed: u64) -> Topology {
        Jellyfish::new(993, 32, 16, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::bfs;

    #[test]
    fn table_v_configuration() {
        let jf = Jellyfish::table_v(7);
        assert_eq!(jf.router_count(), 993);
        assert!(jf.graph().is_regular(32));
        assert!(jf.graph().is_connected());
        // Random 32-regular graphs on 993 vertices have diameter 2-3 w.h.p.
        let d = bfs::diameter(jf.graph()).unwrap();
        assert!((2..=3).contains(&d), "unexpected diameter {d}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Jellyfish::new(100, 6, 2, 3);
        let b = Jellyfish::new(100, 6, 2, 3);
        assert!(a.graph().edges().eq(b.graph().edges()));
    }
}
