//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call it
//! makes into a layer's public function (and, for durability, around each
//! call through the counting [`crate::store::CountingStore`]). They stay
//! in memory, one recorder per thread, and are taken out when the run
//! ends. With no recorder installed — every untraced run — [`span`] only
//! calls its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The runtime crates a span can be charged to, plus the benchmark's own
/// code (set-up glue, output checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Bench,
    Catalog,
    Query,
    Optimizer,
    Inum,
    Core,
    Cophy,
    Solver,
    Autopart,
    Interaction,
    Colt,
    Durability,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::Catalog,
        Layer::Query,
        Layer::Optimizer,
        Layer::Inum,
        Layer::Core,
        Layer::Cophy,
        Layer::Solver,
        Layer::Autopart,
        Layer::Interaction,
        Layer::Colt,
        Layer::Durability,
        Layer::Bench,
    ];

    /// The layer's crate-style name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Catalog => "catalog",
            Layer::Query => "query",
            Layer::Optimizer => "optimizer",
            Layer::Inum => "inum",
            Layer::Core => "core",
            Layer::Cophy => "cophy",
            Layer::Solver => "solver",
            Layer::Autopart => "autopart",
            Layer::Interaction => "interaction",
            Layer::Colt => "colt",
            Layer::Durability => "durability",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The run every span of one process shares.
    pub run: u64,
    /// Whether this span is one timed operation of the workload.
    pub op: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Install a recorder on this thread; spans recorded from now on carry
/// `run` as their run id.
pub fn start(run: u64) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Remove this thread's recorder and hand back its spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Whether a recorder is installed on this thread.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Run `f` inside a span charged to `layer`.
pub fn span<T>(layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
    record(layer, name, false, f)
}

/// [`span`] for one timed operation of the workload (what its end-to-end
/// latency metrics sample).
pub fn op<T>(layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
    record(layer, name, true, f)
}

fn record<T>(layer: Layer, name: &'static str, op: bool, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let idx = rec.spans.len();
            let start_ns = rec.origin.elapsed().as_nanos() as u64;
            rec.spans.push(Span {
                name,
                layer,
                start_ns,
                end_ns: start_ns,
                parent: rec.open.last().copied(),
                run: rec.run,
                op,
            });
            rec.open.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = opened {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Each span's self time: its duration minus the part its children
/// cover (children never overlap their parent's other children, since
/// spans nest on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

/// Self times of the spans called `name`, in seconds, in record order.
pub fn self_seconds_of(spans: &[Span], name: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| *ns as f64 * 1e-9)
        .collect()
}

/// Whether span `i` lies inside (or is) a timed operation.
fn under_op(spans: &[Span], mut i: usize) -> bool {
    loop {
        if spans[i].op {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// Per-layer self time in seconds, over all spans and over the spans
/// inside the timed operations, plus the wall time of those operations.
pub struct SelfTimeTable {
    pub all: BTreeMap<Layer, f64>,
    pub in_ops: BTreeMap<Layer, f64>,
    pub ops_wall_s: f64,
}

impl SelfTimeTable {
    pub fn new(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let mut all = BTreeMap::new();
        let mut in_ops = BTreeMap::new();
        let mut ops_wall_s = 0.0;
        for (i, s) in spans.iter().enumerate() {
            let secs = selfs[i] as f64 * 1e-9;
            *all.entry(s.layer).or_insert(0.0) += secs;
            if under_op(spans, i) {
                *in_ops.entry(s.layer).or_insert(0.0) += secs;
            }
            if s.op && !s.parent.is_some_and(|p| under_op(spans, p)) {
                ops_wall_s += s.duration_ns() as f64 * 1e-9;
            }
        }
        SelfTimeTable {
            all,
            in_ops,
            ops_wall_s,
        }
    }

    /// The human-readable table the traced run prints.
    pub fn render(&self) -> String {
        let mut out = String::from("layer self time (s)      whole run   inside timed ops\n");
        for layer in Layer::ALL {
            let a = self.all.get(&layer).copied().unwrap_or(0.0);
            let o = self.in_ops.get(&layer).copied().unwrap_or(0.0);
            if a > 0.0 {
                let _ = writeln!(out, "  {:<22} {:>10.4} {:>18.4}", layer.name(), a, o);
            }
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>10.4} {:>18.4}",
            "sum",
            self.all.values().sum::<f64>(),
            self.in_ops.values().sum::<f64>()
        );
        let _ = writeln!(out, "timed operations wall: {:.4} s", self.ops_wall_s);
        out
    }
}

/// Spans as JSON lines: `{"run", "id", "parent", "layer", "name", "op",
/// "start_ns", "end_ns"}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"run\": {}, \"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.run,
            i,
            parent,
            s.layer.name(),
            s.name,
            s.op,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        start(7);
        op(Layer::Bench, "step", || {
            span(Layer::Cophy, "inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 7));
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].duration_ns());
        let table = SelfTimeTable::new(&spans);
        assert!(table.in_ops[&Layer::Cophy] >= 0.005);
        assert!(!enabled());
    }

    #[test]
    fn untraced_span_only_runs_the_closure() {
        assert_eq!(span(Layer::Core, "x", || 3), 3);
        assert!(finish().is_empty());
    }
}
