//! Scenario benchmark for pgdesign.
//!
//! Three workloads drive the library's public scenario API in-process,
//! each chosen so one group of layers does most of the work:
//!
//! * `offline-sdss200` — scenario 2, `Designer::recommend` on 200-query
//!   SDSS workloads (CoPhy and its solver);
//! * `interactive-tpch1000` — scenario 1, an `InteractiveSession` over
//!   1000 TPC-H queries running a seeded DBA script, with one concurrent
//!   `SessionReader` thread (core edits, matrix lookups, interactions);
//! * `online-durable` — scenario 3, a drifting SDSS stream fed to a
//!   durable `OnlineSession` (COLT, epoch rotation, the durable log).
//!
//! Every run checks its outputs against an independent recomputation
//! (a fresh `Inum` costing designs without any cost matrix) or against
//! properties the method must have, and prints one JSON line. See
//! `README.md` beside this crate for the metrics and reference figures.

pub mod check;
pub mod interactive;
pub mod offline;
pub mod online;
pub mod stats;
pub mod store;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// End-to-end metrics every untraced run prints: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_ms", "ms"),
    ("throughput", "1/s"),
    ("design_cost", "cost"),
];

/// Per-layer metrics every traced run prints: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("catalog.build_ms", "ms"),
    ("query.generate_ms", "ms"),
    ("optimizer.skeletons_built", "count"),
    ("inum.warmup_ms", "ms"),
    ("inum.publish_ms", "ms"),
    ("inum.cells_computed", "count"),
    ("inum.cells_reused", "count"),
    ("inum.build_ms", "ms"),
    ("inum.cost_calls", "count"),
    ("inum.skeleton_misses", "count"),
    ("inum.lookups_per_step", "count"),
    ("inum.reader_lookups", "count"),
    ("inum.reader_staleness", "generations"),
    ("core.edit_us", "us"),
    ("core.evaluate_ms", "ms"),
    ("cophy.advise_s", "s"),
    ("cophy.vs_greedy", "ratio"),
    ("solver.nodes", "count"),
    ("solver.gap_pct", "%"),
    ("autopart.advise_ms", "ms"),
    ("autopart.iterations", "count"),
    ("interaction.analyze_ms", "ms"),
    ("colt.observe_us", "us"),
    ("colt.whatif_calls", "count/epoch"),
    ("colt.candidates_dropped", "count"),
    ("colt.index_changes", "count"),
    ("durability.fsyncs_per_epoch", "count"),
    ("durability.bytes_per_epoch", "bytes"),
    ("durability.write_ms", "ms/epoch"),
    ("durability.retries", "count"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["offline-sdss200", "interactive-tpch1000", "online-durable"];

/// One run's settings, as parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Seconds-long inputs that keep every check (the crate's own tests).
    pub smoke: bool,
    /// Where the traced run writes its spans as JSON lines.
    pub spans_file: Option<PathBuf>,
}

/// Operations attempted and failed; the first few failures are kept for
/// the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Record one operation; `ok == false` counts it failed, with the
    /// reason `why` gives.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    /// Record one checked operation: it fails with the check's reason.
    pub fn check(&mut self, verdict: Result<(), String>) {
        let ok = verdict.is_ok();
        self.op(ok, || verdict.err().unwrap_or_default());
    }

    /// Record `n` operations, all failed or none.
    pub fn ops(&mut self, n: u64, ok: bool, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.op(ok, why);
        self.attempted += n - 1;
        if !ok {
            self.failed += n - 1;
        }
    }
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Run-level invariants (not tied to one operation) that did not hold.
    pub broken: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Metrics read from the traced run's spans once it ends: `(metric,
    /// span name, scale)` — the median self time of the spans so named,
    /// in seconds times `scale`.
    pub span_metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set `metric` from the spans called `span` when the run ends.
    pub fn from_spans(&mut self, metric: &'static str, span: &'static str, scale: f64) {
        self.span_metrics.push((metric, span, scale));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: every metric of `wanted`, by name, with its unit.
    /// A missing or non-finite value makes the run incorrect.
    pub fn json(&self, wanted: &[(&str, &str)]) -> String {
        let mut correct = self.broken.is_empty();
        let mut metrics = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed
        )
    }
}

/// The skeleton-cache and matrix counters of one round's session(s), as
/// `tuning_stats()` reports them.
#[derive(Debug, Default, Clone, Copy)]
pub struct InumCounts {
    pub skeletons_built: f64,
    pub cells: f64,
    pub cells_reused: f64,
    pub build_ms: f64,
    pub cost_calls: f64,
    pub skeleton_misses: f64,
}

impl InumCounts {
    pub fn of(stats: &pgdesign::TuningStats) -> Self {
        InumCounts {
            skeletons_built: stats.inum.skeletons_built as f64,
            cells: stats.matrix.cells as f64,
            cells_reused: stats.matrix.cells_reused as f64,
            build_ms: stats.matrix.build_nanos as f64 * 1e-6,
            cost_calls: stats.inum.cost_calls as f64,
            skeleton_misses: stats.inum.cache_misses as f64,
        }
    }

    /// Field-wise sum (a round of several sessions).
    pub fn sum(all: impl IntoIterator<Item = InumCounts>) -> Self {
        all.into_iter()
            .fold(InumCounts::default(), |a, b| InumCounts {
                skeletons_built: a.skeletons_built + b.skeletons_built,
                cells: a.cells + b.cells,
                cells_reused: a.cells_reused + b.cells_reused,
                build_ms: a.build_ms + b.build_ms,
                cost_calls: a.cost_calls + b.cost_calls,
                skeleton_misses: a.skeleton_misses + b.skeleton_misses,
            })
    }
}

impl Outcome {
    /// The per-layer counters of `optimizer` and `inum`, median over rounds.
    pub fn set_inum_counts(&mut self, rounds: &[InumCounts]) {
        let each =
            |f: fn(&InumCounts) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
        self.set("optimizer.skeletons_built", each(|c| c.skeletons_built));
        self.set("inum.cells_computed", each(|c| c.cells));
        self.set("inum.cells_reused", each(|c| c.cells_reused));
        self.set("inum.build_ms", each(|c| c.build_ms));
        self.set("inum.cost_calls", each(|c| c.cost_calls));
        self.set("inum.skeleton_misses", each(|c| c.skeleton_misses));
    }
}

/// Deterministic sub-seeds: the `i`-th input stream of a run seeded `seed`.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    // SplitMix64 finaliser over (seed, i).
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    if cfg.trace {
        trace::start(cfg.seed);
    }
    let mut out = match cfg.workload.as_str() {
        "offline-sdss200" => offline::run(cfg),
        "interactive-tpch1000" => interactive::run(cfg),
        "online-durable" => online::run(cfg),
        other => {
            return Err(format!(
                "unknown workload {other:?} (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    }?;
    if cfg.trace {
        let spans = trace::finish();
        for (metric, span, scale) in std::mem::take(&mut out.span_metrics) {
            out.set(
                metric,
                stats::median(&trace::self_seconds_of(&spans, span)) * scale,
            );
        }
        out.note(trace::SelfTimeTable::new(&spans).render());
        if let Some(path) = &cfg.spans_file {
            std::fs::write(path, trace::to_json_lines(&spans))
                .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_metric_and_flags_gaps() {
        let mut out = Outcome::default();
        out.tally.op(true, String::new);
        out.set("a", 1.5);
        let line = out.json(&[("a", "ms"), ("b", "s")]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(line.contains("\"b\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }

    #[test]
    fn tally_counts_whole_groups() {
        let mut t = Tally::default();
        t.ops(5, false, || "x".into());
        t.ops(3, true, String::new);
        assert_eq!((t.attempted, t.failed, t.failures.len()), (8, 5, 1));
    }

    #[test]
    fn sub_seeds_differ() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(3, 4), sub_seed(3, 4));
    }
}
