//! Machine-readable result rows: one JSON object per line (JSON Lines).
//!
//! The sweep binaries (`resilience_sweep`, `transient_sweep`,
//! `collective_sweep`) used to hand-roll aligned-column tables, each
//! with its own format; downstream analysis had to re-parse every one.
//! They now share this writer: banner and diagnostic text keeps going
//! to stdout/stderr as before, but every *data* row is a single JSON
//! object on its own line, so `grep '^{'` (or any JSONL reader)
//! recovers the sweep losslessly.
//!
//! No serde exists in this offline workspace, so the writer is a small
//! hand-rolled builder: string values are escaped, non-finite floats
//! are emitted as `null` (JSON has no NaN), and field order follows
//! insertion order.

use pf_sim::SimResult;
use std::fmt::Write as _;

/// Builder for one JSON-lines row. Chain field setters and finish with
/// [`Row::emit`] (print to stdout) or [`Row::finish`] (return the line).
///
/// ```
/// use pf_bench::jsonl::Row;
///
/// let line = Row::new("demo").str("topo", "PF(q=31)").u64("faults", 3).finish();
/// assert_eq!(line, r#"{"kind":"demo","topo":"PF(q=31)","faults":3}"#);
/// ```
pub struct Row {
    buf: String,
}

impl Row {
    /// Starts a row with a `kind` discriminator field, so mixed streams
    /// of row types stay self-describing.
    pub fn new(kind: &str) -> Row {
        let mut r = Row {
            buf: String::from("{"),
        };
        r.push_key("kind");
        r.push_str_value(kind);
        r
    }

    fn push_key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    fn push_str_value(&mut self, v: &str) {
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(mut self, key: &str, v: &str) -> Row {
        self.push_key(key);
        self.push_str_value(v);
        self
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn u64(mut self, key: &str, v: u64) -> Row {
        self.push_key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (`null` for non-finite values — JSON has no
    /// NaN/Inf).
    #[must_use]
    pub fn f64(mut self, key: &str, v: f64) -> Row {
        self.push_key(key);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(mut self, key: &str, v: bool) -> Row {
        self.push_key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds an optional integer field (`null` when absent).
    #[must_use]
    pub fn opt_u64(mut self, key: &str, v: Option<u64>) -> Row {
        self.push_key(key);
        match v {
            Some(v) => {
                let _ = write!(self.buf, "{v}");
            }
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Adds an array-of-integers field (histograms, per-phase counters).
    #[must_use]
    pub fn u64_array(mut self, key: &str, vs: &[u64]) -> Row {
        self.push_key(key);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
        self
    }

    /// Adds the shared [`SimResult`] fields every sweep reports:
    /// offered/accepted load, latency, delivery, saturation, and the
    /// fault counters.
    #[must_use]
    pub fn sim_result(self, r: &SimResult) -> Row {
        self.f64("offered", r.offered_load)
            .f64("accepted", r.accepted_load)
            .f64("avg_latency", r.avg_latency)
            .f64("p50_latency", r.p50_latency)
            .f64("p99_latency", r.p99_latency)
            .f64("p999_latency", r.p999_latency)
            .f64("avg_hops", r.avg_hops)
            .u64("generated", r.generated)
            .u64("delivered", r.delivered)
            .f64("delivery", r.delivery_ratio())
            .bool("saturated", r.saturated)
            .bool("deadline_expired", r.deadline_expired)
            .u64("retransmitted", r.retransmitted_packets)
            .u64("dropped_flits", r.dropped_flits)
            .u64("table_swaps", u64::from(r.table_swaps))
            .u64("down_link_flits", r.down_link_flits)
            .u64("vc_class_clamps", r.vc_class_clamps)
            .u64("skipped_router_cycles", r.skipped_router_cycles)
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Closes the object and prints it to stdout.
    pub fn emit(self) {
        println!("{}", self.finish());
    }
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_types() {
        let line = Row::new("t")
            .str("name", "a\"b\\c")
            .u64("n", 7)
            .f64("x", 1.5)
            .f64("bad", f64::NAN)
            .bool("ok", true)
            .opt_u64("makespan", None)
            .finish();
        assert_eq!(
            line,
            r#"{"kind":"t","name":"a\"b\\c","n":7,"x":1.5,"bad":null,"ok":true,"makespan":null}"#
        );
    }

    #[test]
    fn sim_result_fields_are_complete() {
        use pf_sim::{simulate, RouteTables, Routing, SimConfig, TrafficPattern};
        let topo = pf_topo::PolarFlyTopo::new(5, 2).unwrap();
        let tables = RouteTables::build(topo.graph(), 1);
        let dests = pf_sim::traffic::resolve(
            TrafficPattern::Uniform,
            topo.graph(),
            &topo.host_routers(),
            1,
        );
        let r = simulate(
            &topo,
            &tables,
            &dests,
            Routing::Min,
            0.1,
            SimConfig::quick(),
        );
        let line = Row::new("point").sim_result(&r).finish();
        for key in [
            "offered",
            "accepted",
            "avg_latency",
            "p50_latency",
            "p99_latency",
            "p999_latency",
            "delivery",
            "saturated",
            "deadline_expired",
            "vc_class_clamps",
            "skipped_router_cycles",
        ] {
            assert!(line.contains(&format!("\"{key}\":")), "{line}");
        }
        // A data line parses as a flat JSON object: starts/ends correctly
        // and has no raw newlines.
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
    }
}
