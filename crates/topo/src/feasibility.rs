//! The qualitative feasibility matrix of Table I (§III): which
//! topology families are direct, modular, expandable, flexible and of
//! diameter 2.

/// Qualitative support level in the Table I feasibility matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// The criterion is fully satisfied.
    Full,
    /// The criterion is partially satisfied.
    Partial,
    /// The criterion is not satisfied.
    None,
}

/// One Table I row.
#[derive(Debug, Clone)]
pub struct FeasibilityRow {
    /// Topology name.
    pub topology: &'static str,
    /// Direct network (no dedicated switch chips).
    pub direct: Support,
    /// Decomposes into rack/pod-sized modules.
    pub modular: Support,
    /// Grows incrementally without rewiring.
    pub expandable: Support,
    /// Many feasible radix configurations.
    pub flexible: Support,
    /// Diameter-2 connectivity.
    pub diameter2: Support,
}

/// The Table I feasibility matrix, as assessed in §III of the paper.
pub fn feasibility_table() -> Vec<FeasibilityRow> {
    use Support::{Full, None as No, Partial};
    let row = |topology, direct, modular, expandable, flexible, diameter2| FeasibilityRow {
        topology,
        direct,
        modular,
        expandable,
        flexible,
        diameter2,
    };
    vec![
        row("Fat tree", No, Full, Full, Full, No),
        row("Dragonfly", Partial, Full, Full, Partial, No),
        row("HyperX", Partial, Full, Full, Partial, Full),
        row("OFT", No, Partial, No, Full, Full),
        row("MLFM", No, Full, No, Partial, Full),
        row("Slim Fly", Full, Full, Partial, Partial, Full),
        row("PolarFly", Full, Full, Partial, Full, Full),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_polarfly_satisfies_most_criteria() {
        let table = feasibility_table();
        let pf = table.iter().find(|r| r.topology == "PolarFly").unwrap();
        assert_eq!(pf.direct, Support::Full);
        assert_eq!(pf.flexible, Support::Full);
        assert_eq!(pf.diameter2, Support::Full);
        // Only PolarFly has ≥ partial support on every criterion with full
        // support on at least four.
        for r in &table {
            let full = [r.direct, r.modular, r.expandable, r.flexible, r.diameter2]
                .iter()
                .filter(|&&s| s == Support::Full)
                .count();
            if r.topology != "PolarFly" {
                assert!(full <= 4);
            } else {
                assert!(full >= 4);
            }
        }
    }
}
