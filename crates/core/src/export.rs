//! Graph exports for visualization (Fig. 13 and Fig. 6 of the paper).
//!
//! Produces Graphviz DOT and a simple JSON node-link format, annotated
//! with vertex classes (quadric / V1 / V2), cluster membership, and the
//! three-layer coordinates the paper's figures use (quadrics on top, V1 in
//! the middle, V2 at the bottom, clusters fanned around a circle).

use crate::er::{PolarFly, VertexClass};
use crate::layout::Layout;
use std::fmt::Write as _;

/// A positioned vertex of the layered drawing.
#[derive(Debug, Clone)]
pub struct NodePosition {
    /// Router id.
    pub router: u32,
    /// Layout cluster (rack) id.
    pub cluster: u32,
    /// Vertex class (drawing layer).
    pub class: VertexClass,
    /// Drawing x coordinate.
    pub x: f64,
    /// Drawing y coordinate.
    pub y: f64,
}

/// Computes the paper-style layered positions: clusters at equal angles on
/// a circle, quadrics centered on top (`y = 2`), V1 at `y = 1`, V2 at
/// `y = 0`, members spread within their cluster's angular sector.
pub fn layered_positions(pf: &PolarFly, layout: &Layout) -> Vec<NodePosition> {
    let clusters = layout.cluster_count() as f64;
    let mut out = Vec::with_capacity(pf.router_count());
    for cl in 0..layout.cluster_count() as u32 {
        let members = layout.cluster(cl);
        let base = (cl as f64) / clusters * std::f64::consts::TAU;
        let span = std::f64::consts::TAU / clusters * 0.8;
        for (i, &v) in members.iter().enumerate() {
            let frac = if members.len() > 1 {
                i as f64 / (members.len() - 1) as f64
            } else {
                0.5
            };
            let angle = base + (frac - 0.5) * span;
            let class = pf.class(v);
            let y = match class {
                VertexClass::Quadric => 2.0,
                VertexClass::V1 => 1.0,
                VertexClass::V2 => 0.0,
            };
            let radius = 10.0 + y;
            out.push(NodePosition {
                router: v,
                cluster: cl,
                class,
                x: radius * angle.cos(),
                y: radius * angle.sin() + y * 0.5,
            });
        }
    }
    out.sort_by_key(|n| n.router);
    out
}

fn class_color(c: VertexClass) -> &'static str {
    match c {
        VertexClass::Quadric => "red",
        VertexClass::V1 => "green",
        VertexClass::V2 => "blue",
    }
}

/// Renders the laid-out PolarFly as Graphviz DOT: colors by class,
/// `cluster` attributes by rack, positions from [`layered_positions`].
pub fn to_dot(pf: &PolarFly, layout: &Layout) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "graph er{} {{", pf.q());
    let _ = writeln!(
        s,
        "  // PolarFly q={}: {} routers",
        pf.q(),
        pf.router_count()
    );
    for n in layered_positions(pf, layout) {
        let _ = writeln!(
            s,
            "  {} [color={}, cluster=c{}, pos=\"{:.2},{:.2}!\"];",
            n.router,
            class_color(n.class),
            n.cluster,
            n.x,
            n.y
        );
    }
    for (u, v) in pf.graph().edges() {
        let intra = layout.cluster_of(u) == layout.cluster_of(v);
        let style = if intra { "" } else { " [color=gray]" };
        let _ = writeln!(s, "  {u} -- {v}{style};");
    }
    s.push_str("}\n");
    s
}

/// Renders a node-link JSON document (hand-rolled; no serde dependency):
/// `{"q":.., "nodes":[{"id","cluster","class","x","y"},..], "links":[[u,v],..]}`.
pub fn to_json(pf: &PolarFly, layout: &Layout) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"q\":{},\"nodes\":[", pf.q());
    for (i, n) in layered_positions(pf, layout).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let class = match n.class {
            VertexClass::Quadric => "W",
            VertexClass::V1 => "V1",
            VertexClass::V2 => "V2",
        };
        let _ = write!(
            s,
            "{{\"id\":{},\"cluster\":{},\"class\":\"{}\",\"x\":{:.3},\"y\":{:.3}}}",
            n.router, n.cluster, class, n.x, n.y
        );
    }
    s.push_str("],\"links\":[");
    for (i, (u, v)) in pf.graph().edges().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{u},{v}]");
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PolarFly, Layout) {
        let pf = PolarFly::new(7).unwrap();
        let l = Layout::new(&pf);
        (pf, l)
    }

    #[test]
    fn positions_cover_every_router_once() {
        let (pf, l) = setup();
        let pos = layered_positions(&pf, &l);
        assert_eq!(pos.len(), pf.router_count());
        for (i, n) in pos.iter().enumerate() {
            assert_eq!(n.router as usize, i);
            assert_eq!(n.cluster, l.cluster_of(n.router));
        }
    }

    #[test]
    fn dot_output_mentions_every_edge() {
        let (pf, l) = setup();
        let dot = to_dot(&pf, &l);
        assert!(dot.starts_with("graph er7 {"));
        assert_eq!(dot.matches(" -- ").count(), pf.graph().edge_count());
        assert_eq!(dot.matches("color=red").count(), pf.quadrics().len());
    }

    #[test]
    fn json_is_structurally_sound() {
        let (pf, l) = setup();
        let json = to_json(&pf, &l);
        assert!(json.starts_with("{\"q\":7,"));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches("\"id\":").count(), pf.router_count());
        assert_eq!(json.matches('[').count(), 2 + pf.graph().edge_count());
    }
}
