//! `offline-sdss200`: scenario 2, `Designer::recommend` on 200-query SDSS
//! workloads at a budget of half the data size.
//!
//! A round is one recommendation per workload of the run (six workloads,
//! each from its own sub-seed); the run repeats whole rounds until its
//! time is up, and times set-ups between recommendations. Peak RSS is
//! read when the last round ends, before any output check allocates. The
//! traced run goes through the stages `recommend` runs,
//! one `TuningSession::advise` per stage, so each advisor's time is its
//! own span.

use crate::check::{close, mismatch, Checker};
use crate::stats::{median, peak_rss_mib, round_tail, timed};
use crate::trace::{self, Layer};
use crate::{sub_seed, InumCounts, Outcome, RunConfig, Tally};
use pgdesign::{Designer, IndexAdvisor, InteractionAdvisor, OfflineReport, PartitionAdvisor};
use pgdesign_autopart::AutoPartConfig;
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_catalog::samples::sdss_catalog;
use pgdesign_cophy::{greedy_select, CophyConfig};
use pgdesign_interaction::schedule_pair_on;
use pgdesign_query::generators::sdss_workload;
use pgdesign_query::Workload;
use std::time::Instant;

const SCALE: f64 = 0.01;

struct Size {
    queries: usize,
    workloads: usize,
    /// Set-ups timed after each recommendation.
    setups_between: usize,
}

const FULL: Size = Size {
    queries: 200,
    workloads: 6,
    setups_between: 3,
};

const SMOKE: Size = Size {
    queries: 9,
    workloads: 2,
    setups_between: 1,
};

struct Inputs {
    designer: Designer,
    workloads: Vec<Workload>,
}

/// Catalog, workloads, and one tuning session warmed up per workload
/// (dropped again).
fn set_up(seed: u64, size: &Size) -> Inputs {
    trace::span(Layer::Bench, "setup", || {
        let catalog = trace::span(Layer::Catalog, "catalog", || sdss_catalog(SCALE));
        let workloads: Vec<Workload> = trace::span(Layer::Query, "generate", || {
            (0..size.workloads)
                .map(|i| sdss_workload(&catalog, size.queries, sub_seed(seed, i as u64)))
                .collect()
        });
        let designer = Designer::new(catalog);
        for w in &workloads {
            drop(trace::span(Layer::Inum, "warmup", || {
                designer.tuning_session(w.clone())
            }));
        }
        Inputs {
            designer,
            workloads,
        }
    })
}

/// Counts and results of one traced recommendation.
struct StageCounts {
    vs_greedy: f64,
    nodes: f64,
    gap_pct: f64,
    iterations: f64,
    lookups: f64,
    inum: InumCounts,
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let size = if cfg.smoke { SMOKE } else { FULL };
    let mut out = Outcome::default();
    let (secs, inputs) = timed(|| set_up(cfg.seed, &size));
    let mut setup_s = vec![secs];
    let designer = &inputs.designer;
    let budget = designer.catalog.data_bytes() / 2;
    let checker = Checker::new(designer);

    let start = Instant::now();
    let mut round_ms: Vec<Vec<f64>> = Vec::new();
    let mut round_costs = Vec::new();
    let mut staged = Vec::new();
    let mut reports = Vec::new();
    loop {
        let mut round = Vec::with_capacity(inputs.workloads.len());
        let mut round_cost = 0.0;
        for w in &inputs.workloads {
            let secs = if cfg.trace {
                let (secs, counts) =
                    recommend_staged(designer, &checker, w, budget, &mut out.tally);
                staged.push(counts);
                secs
            } else {
                let (secs, report) = timed(|| designer.recommend(w, budget));
                round_cost += report.combined_cost;
                reports.push(report);
                secs
            };
            round.push(secs * 1e3);
            for _ in 0..size.setups_between {
                let (secs, again) = timed(|| set_up(cfg.seed, &size));
                setup_s.push(secs);
                drop(again);
            }
        }
        round_ms.push(round);
        round_costs.push(round_cost);
        if start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    let peak_rss = peak_rss_mib();
    // Round by round, the reports follow the workloads' order.
    for (report, w) in reports.iter().zip(inputs.workloads.iter().cycle()) {
        let verdict = check_report(report, designer, &checker, w, budget);
        out.tally.check(verdict);
    }

    let op_ms: Vec<f64> = round_ms.concat();
    let (tail_ms, tail_label) = round_tail(&round_ms);
    out.note(format!(
        "offline-sdss200: {} recommendations in {} rounds of {} workloads x {} queries, budget {} bytes",
        op_ms.len(),
        round_ms.len(),
        size.workloads,
        size.queries,
        budget
    ));
    out.note(format!(
        "recommend: median {:.1} ms over {} samples, {tail_label} per round {:.1} ms",
        median(&op_ms),
        op_ms.len(),
        tail_ms
    ));
    out.note(format!(
        "timed operations: {:.4} s; {} set-ups",
        op_ms.iter().sum::<f64>() * 1e-3,
        setup_s.len()
    ));
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss);
    out.set("op_ms", median(&op_ms));
    let round_rates: Vec<f64> = round_ms
        .iter()
        .map(|r| (size.queries * r.len()) as f64 / (r.iter().sum::<f64>() * 1e-3))
        .collect();
    out.set("throughput", median(&round_rates));
    out.set("design_cost", median(&round_costs));
    if cfg.trace {
        per_layer(&mut out, &staged, size.workloads);
    }
    Ok(out)
}

fn check_report(
    r: &OfflineReport,
    designer: &Designer,
    checker: &Checker<'_>,
    w: &Workload,
    budget: u64,
) -> Result<(), String> {
    let base: Vec<f64> = r.per_query.iter().map(|p| p.0).collect();
    let adopted: Vec<f64> = r.per_query.iter().map(|p| p.1).collect();
    if let Some(m) = mismatch(
        &base,
        &checker.query_costs(&PhysicalDesign::empty(), w),
        1e-9,
    ) {
        return Err(format!("base cost, {m}"));
    }
    if let Some(m) = mismatch(&adopted, &checker.query_costs(&r.design, w), 1e-9) {
        return Err(format!("adopted cost, {m}"));
    }
    let fresh_base = checker.workload_cost(&PhysicalDesign::empty(), w);
    let fresh_adopted = checker.workload_cost(&r.design, w);
    if !close(r.base_cost, fresh_base, 1e-9) || !close(r.combined_cost, fresh_adopted, 1e-9) {
        return Err(format!(
            "totals {} / {} vs fresh {fresh_base} / {fresh_adopted}",
            r.base_cost, r.combined_cost
        ));
    }
    let cat = &designer.catalog;
    let index_bytes = r.design.index_bytes(&cat.schema, &cat.stats);
    let replication = r.design.replication_bytes(&cat.schema, &cat.stats);
    if index_bytes > budget || replication > budget / 10 {
        return Err(format!(
            "index bytes {index_bytes} / replication {replication} over budget {budget}"
        ));
    }
    if r.combined_cost > r.base_cost {
        return Err(format!(
            "adopted {} above base {}",
            r.combined_cost, r.base_cost
        ));
    }
    Ok(())
}

/// One traced recommendation, stage by stage on one session: the index,
/// partition and interaction advisors (plus the schedule) `recommend`
/// runs. Returns the wall time of the stages and their counts.
fn recommend_staged(
    designer: &Designer,
    checker: &Checker<'_>,
    w: &Workload,
    budget: u64,
    tally: &mut Tally,
) -> (f64, StageCounts) {
    let t = Instant::now();
    let (session, rec, parts) = trace::op(Layer::Bench, "recommend", || {
        let mut session = trace::span(Layer::Inum, "warmup", || designer.tuning_session(w.clone()));
        let rec = trace::span(Layer::Cophy, "advise_index", || {
            session.advise(&mut IndexAdvisor::new(CophyConfig {
                storage_budget_bytes: budget,
                ..Default::default()
            }))
        });
        let parts = trace::span(Layer::Autopart, "advise_partition", || {
            session.advise(&mut PartitionAdvisor::new(AutoPartConfig {
                replication_budget_bytes: budget / 10,
                ..Default::default()
            }))
        });
        trace::span(Layer::Interaction, "advise_interaction", || {
            let analysis = session.advise(&mut InteractionAdvisor::new(rec.indexes.clone()));
            let ids: Vec<usize> = analysis
                .indexes
                .iter()
                .filter_map(|i| session.matrix().candidate_id(i))
                .collect();
            schedule_pair_on(session.matrix(), &ids)
        });
        (session, rec, parts)
    });
    let secs = t.elapsed().as_secs_f64();

    // CoPhy is warm-started from greedy on the same matrix, so it can
    // never end above greedy at the same budget.
    let greedy = trace::span(Layer::Cophy, "greedy_select", || {
        greedy_select(session.matrix(), budget)
    });
    let stats = session.stats();
    drop(session);

    let verdict = trace::span(Layer::Bench, "check", || {
        let empty = PhysicalDesign::empty();
        let fresh_base = checker.query_costs(&empty, w);
        let got_base: Vec<f64> = rec.per_query.iter().map(|p| p.0).collect();
        let got_cost: Vec<f64> = rec.per_query.iter().map(|p| p.1).collect();
        if rec.cost > greedy.cost {
            return Err(format!("CoPhy {} above greedy {}", rec.cost, greedy.cost));
        }
        if rec.total_index_bytes > budget || rec.cost > rec.base_cost {
            return Err(format!(
                "indexes: {} bytes of {budget}, cost {} vs base {}",
                rec.total_index_bytes, rec.cost, rec.base_cost
            ));
        }
        if let Some(m) = mismatch(&got_base, &fresh_base, 1e-9)
            .or_else(|| mismatch(&got_cost, &checker.query_costs(&rec.design, w), 1e-9))
        {
            return Err(format!("index recommendation, {m}"));
        }
        let fresh_parts = checker.workload_cost(&parts.design, w);
        if parts.replication_bytes > budget / 10 || !close(parts.cost, fresh_parts, 1e-9) {
            return Err(format!(
                "partitions: replication {} of {}, cost {} vs fresh {fresh_parts}",
                parts.replication_bytes,
                budget / 10,
                parts.cost
            ));
        }
        Ok(())
    });
    tally.check(verdict);

    let counts = StageCounts {
        vs_greedy: rec.cost / greedy.cost,
        nodes: rec.nodes as f64,
        gap_pct: rec.gap * 100.0,
        iterations: parts.iterations as f64,
        lookups: stats.matrix.lookups as f64,
        inum: InumCounts::of(&stats),
    };
    (secs, counts)
}

/// The traced run's per-layer metrics. Counts are summed over a round
/// (one recommendation per workload) and the median round is reported;
/// times are medians of the stage spans' self times. Layers off this
/// workload's path read 0.
fn per_layer(out: &mut Outcome, staged: &[StageCounts], per_round: usize) {
    let each =
        |f: fn(&StageCounts) -> f64| -> f64 { median(&staged.iter().map(f).collect::<Vec<_>>()) };
    out.from_spans("catalog.build_ms", "catalog", 1e3);
    out.from_spans("query.generate_ms", "generate", 1e3);
    out.from_spans("inum.warmup_ms", "warmup", 1e3);
    out.from_spans("cophy.advise_s", "advise_index", 1.0);
    out.from_spans("autopart.advise_ms", "advise_partition", 1e3);
    out.from_spans("interaction.analyze_ms", "advise_interaction", 1e3);
    let rounds: Vec<InumCounts> = staged
        .chunks(per_round)
        .map(|round| InumCounts::sum(round.iter().map(|c| c.inum)))
        .collect();
    out.set_inum_counts(&rounds);
    out.set("inum.lookups_per_step", each(|c| c.lookups));
    out.set("cophy.vs_greedy", each(|c| c.vs_greedy));
    out.set("solver.nodes", each(|c| c.nodes));
    out.set("solver.gap_pct", each(|c| c.gap_pct));
    out.set("autopart.iterations", each(|c| c.iterations));
    for name in [
        "inum.publish_ms",
        "inum.reader_lookups",
        "inum.reader_staleness",
        "core.edit_us",
        "core.evaluate_ms",
        "colt.observe_us",
        "colt.whatif_calls",
        "colt.candidates_dropped",
        "colt.index_changes",
        "durability.fsyncs_per_epoch",
        "durability.bytes_per_epoch",
        "durability.write_ms",
        "durability.retries",
    ] {
        out.set(name, 0.0);
    }
}
