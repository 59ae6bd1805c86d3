//! Host-time spans recorded around the benchmark's own calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! call from this crate into a workspace crate's public API.
//!
//! A span's name is `<layer>.<call>`; the layer is the workspace crate
//! (`simcore`, `datatype`, `devengine`, `memsim`, `mpirt`, `faultsim`)
//! or `bench` for the benchmark's own work. Spans nest through a stack;
//! every span carries its parent and the id of the operation it served.
//! They are kept in memory and written out as a Chrome trace at exit.

use std::collections::BTreeMap;
use std::time::Instant;

/// The root span of one timed operation.
pub const OP: &str = "bench.op";

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Outermost open span when this one started (itself at top level).
    root: usize,
    op: u64,
}

pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Tag the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            root: parent.map_or(id, |p| self.spans[p].root),
            op: self.op,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("span exit without enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Self time per layer, in ns per timed operation: over the spans
    /// under [`OP`] roots, each span's duration minus the time its
    /// direct children cover (children nest on one thread, so their
    /// durations never overlap), summed per layer and divided by the
    /// number of operations.
    pub fn self_ns_per_op(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut total: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut ops = 0u64;
        for (s, kids) in self.spans.iter().zip(child_ns) {
            if self.spans[s.root].name != OP {
                continue;
            }
            ops += u64::from(s.parent.is_none());
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *total.entry(layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(kids);
        }
        total
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 / ops.max(1) as f64))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome `trace_event` JSON: one complete event per span, with the
    /// operation id and parent index in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_counts_only_operations() {
        let mut sp = Spans::new(true);
        for op in 0..2 {
            sp.set_op(op);
            sp.enter(OP);
            sp.time("mpirt.wait_all", || {
                std::thread::sleep(Duration::from_millis(5))
            });
            sp.exit();
        }
        // A probe outside any operation does not count.
        sp.time("devengine.build_plan", || {
            std::thread::sleep(Duration::from_millis(5))
        });
        let by = sp.self_ns_per_op();
        assert!(by["mpirt"] >= 5e6, "{by:?}");
        assert!(by["bench"] < by["mpirt"], "{by:?}");
        assert!(!by.contains_key("devengine"), "{by:?}");
        assert_eq!(sp.len(), 5);
        assert!(sp.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut sp = Spans::new(false);
        sp.time(OP, || ());
        assert_eq!(sp.len(), 0);
        assert!(sp.self_ns_per_op().is_empty());
    }
}
