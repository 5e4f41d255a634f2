//! `interactive-tpch1000`: scenario 1 on the TPC-H catalog, one
//! `InteractiveSession` over 1000 queries running a seeded DBA script,
//! with one reader thread evaluating the latest published snapshot
//! throughout.
//!
//! A round opens a fresh session (the warm-up is untimed here and timed
//! in set-up) and runs the same script: design edits each followed by
//! `evaluate()` and a `publish()` for the reader (the timed what-if
//! steps), `interaction_graph()` over a fixed set of indexes, and
//! `advise(JointAdvisor)` at half the data size. Every round therefore
//! does the same work, first registrations of structures included. The
//! reader wakes on each publish and evaluates the newest snapshot once,
//! so it follows the DBA at step granularity and leaves the main
//! thread's core alone between steps. One set-up is timed between
//! rounds. Peak RSS is read when round 1 ends, before the first re-timed
//! set-up and before any output check allocates.

use crate::check::{close, mismatch, Checker};
use crate::stats::{median, peak_rss_mib, round_tail, timed};
use crate::trace::{self, Layer};
use crate::{sub_seed, InumCounts, Outcome, RunConfig};
use pgdesign::{
    BenefitReport, Designer, InteractiveSession, JointAdvisor, JointReport, SessionReader,
};
use pgdesign_catalog::design::{
    HorizontalPartitioning, Index, PhysicalDesign, VerticalPartitioning,
};
use pgdesign_catalog::samples::tpch_catalog;
use pgdesign_catalog::schema::TableId;
use pgdesign_catalog::Catalog;
use pgdesign_interaction::InteractionGraph;
use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
use pgdesign_query::generators::tpch_workload;
use pgdesign_query::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

const SCALE: f64 = 0.01;

struct Size {
    queries: usize,
    steps: usize,
    graph_indexes: usize,
    graphs_per_round: usize,
    /// Pre-drawn vertical and horizontal partitionings the script picks from.
    partitionings: usize,
    /// Every this many steps of the first round is checked.
    check_stride: usize,
}

const FULL: Size = Size {
    queries: 1000,
    steps: 1000,
    graph_indexes: 6,
    graphs_per_round: 2,
    partitionings: 8,
    check_stride: 100,
};

const SMOKE: Size = Size {
    queries: 60,
    steps: 24,
    graph_indexes: 4,
    graphs_per_round: 1,
    partitionings: 3,
    check_stride: 6,
};

/// One design edit of the DBA script.
#[derive(Debug, Clone)]
enum Edit {
    AddIndex(usize),
    RemoveIndex(usize),
    SetVertical(usize),
    ClearVertical(TableId),
    SetHorizontal(usize),
    ClearHorizontal(TableId),
}

/// The seeded DBA script and the structures it draws from.
struct Script {
    indexes: Vec<Index>,
    verticals: Vec<VerticalPartitioning>,
    horizontals: Vec<HorizontalPartitioning>,
    steps: Vec<Edit>,
    /// The indexes the interaction graph is drawn over.
    graph: Vec<Index>,
    /// Subsets (positions into `graph`) the reader thread evaluates: every
    /// non-empty one, in mask order.
    reader_sets: Vec<Vec<usize>>,
}

fn make_script(
    catalog: &Catalog,
    workload: &Workload,
    indexes: Vec<Index>,
    seed: u64,
    size: &Size,
) -> Script {
    let mut rng = StdRng::seed_from_u64(seed);
    let tables: Vec<TableId> = workload
        .iter()
        .flat_map(|(q, _)| q.tables.iter().map(|t| t.table))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .filter(|&t| catalog.schema.table(t).width() >= 3)
        .collect();
    // The partitionings cycle through the tables, so every seed edits
    // the same tables; the seed draws the columns and the bounds.
    let verticals: Vec<VerticalPartitioning> = (0..size.partitionings)
        .map(|i| {
            let table = tables[i % tables.len()];
            let width = catalog.schema.table(table).width();
            let mut cols: Vec<u16> = (0..width).collect();
            for i in (1..cols.len()).rev() {
                cols.swap(i, rng.random_range(0..=i));
            }
            let cut = rng.random_range(1..width) as usize;
            VerticalPartitioning::new(table, vec![cols[..cut].to_vec(), cols[cut..].to_vec()])
        })
        .collect();
    let horizontals = (0..size.partitionings)
        .map(|i| {
            let table = tables[(i + 1) % tables.len()];
            let width = catalog.schema.table(table).width();
            let column = rng.random_range(0..width);
            let s = &catalog.table_stats(table).columns[column as usize];
            let (lo, hi) = (s.min, s.max.max(s.min + 1.0));
            let bounds = (0..3).map(|_| rng.random_range(lo..hi)).collect();
            HorizontalPartitioning::new(table, column, bounds)
        })
        .collect::<Vec<_>>();

    // Draw the edits against a simulated design so removals and clears
    // always have something to act on.
    let mut selected: BTreeSet<usize> = BTreeSet::new();
    let mut vertical: BTreeSet<TableId> = BTreeSet::new();
    let mut horizontal: BTreeSet<TableId> = BTreeSet::new();
    let mut steps = Vec::with_capacity(size.steps);
    let pick = |rng: &mut StdRng, set: &BTreeSet<TableId>| {
        *set.iter()
            .nth(rng.random_range(0..set.len()))
            .expect("non-empty")
    };
    for _ in 0..size.steps {
        let r = rng.random_range(0..100u32);
        // Index edits keep the design at roughly 4 to 12 indexes.
        let add = selected.len() < 4 || (selected.len() < 12 && rng.random_bool(0.5));
        let edit = match r {
            0..=64 if add && selected.len() < indexes.len() => {
                let free: Vec<usize> = (0..indexes.len())
                    .filter(|i| !selected.contains(i))
                    .collect();
                Edit::AddIndex(free[rng.random_range(0..free.len())])
            }
            0..=64 if !selected.is_empty() => {
                let on: Vec<usize> = selected.iter().copied().collect();
                Edit::RemoveIndex(on[rng.random_range(0..on.len())])
            }
            77..=81 if !vertical.is_empty() => Edit::ClearVertical(pick(&mut rng, &vertical)),
            0..=81 => Edit::SetVertical(rng.random_range(0..size.partitionings)),
            95.. if !horizontal.is_empty() => Edit::ClearHorizontal(pick(&mut rng, &horizontal)),
            _ => Edit::SetHorizontal(rng.random_range(0..size.partitionings)),
        };
        match &edit {
            Edit::AddIndex(i) => {
                selected.insert(*i);
            }
            Edit::RemoveIndex(i) => {
                selected.remove(i);
            }
            Edit::SetVertical(v) => {
                vertical.insert(verticals[*v].table);
            }
            Edit::ClearVertical(t) => {
                vertical.remove(t);
            }
            Edit::SetHorizontal(h) => {
                horizontal.insert(horizontals[*h].table);
            }
            Edit::ClearHorizontal(t) => {
                horizontal.remove(t);
            }
        }
        steps.push(edit);
    }

    let mut graph: Vec<Index> = Vec::new();
    while graph.len() < size.graph_indexes.min(indexes.len()) {
        let idx = &indexes[rng.random_range(0..indexes.len())];
        if !graph.contains(idx) {
            graph.push(idx.clone());
        }
    }
    let reader_sets = (1..1u32 << graph.len())
        .map(|mask| (0..graph.len()).filter(|b| mask & (1 << b) != 0).collect())
        .collect();
    Script {
        indexes,
        verticals,
        horizontals,
        steps,
        graph,
        reader_sets,
    }
}

fn apply(s: &mut InteractiveSession<'_>, script: &Script, edit: &Edit) {
    match edit {
        Edit::AddIndex(i) => {
            s.add_index(script.indexes[*i].clone());
        }
        Edit::RemoveIndex(i) => {
            s.remove_index(&script.indexes[*i]);
        }
        Edit::SetVertical(v) => s.set_vertical(script.verticals[*v].clone()),
        Edit::ClearVertical(t) => s.clear_vertical(*t),
        Edit::SetHorizontal(h) => s.set_horizontal(script.horizontals[*h].clone()),
        Edit::ClearHorizontal(t) => s.clear_horizontal(*t),
    }
}

/// What the main thread shares with the reader thread.
struct Shared {
    feed: Mutex<Feed>,
    wake: Condvar,
    /// Evaluations the reader has completed, and the nanoseconds they
    /// took (snapshot refresh and evaluation).
    evals: AtomicU64,
    busy_ns: AtomicU64,
}

#[derive(Default)]
struct Feed {
    /// `session number << 32 | published generation` of the live session.
    published: u64,
    /// A new session's reader and the candidate ids of the graph indexes
    /// on it, waiting to be picked up.
    handle: Option<(u64, SessionReader, Vec<usize>)>,
    stop: bool,
}

impl Shared {
    fn feed(&self) -> MutexGuard<'_, Feed> {
        self.feed.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Announce `generation` of session `session_no` — with a new
    /// session's reader handle — and wake the reader.
    fn publish(
        &self,
        session_no: u64,
        generation: u64,
        handle: Option<(SessionReader, Vec<usize>)>,
    ) {
        let mut feed = self.feed();
        feed.published = session_no << 32 | generation;
        if let Some((reader, ids)) = handle {
            feed.handle = Some((session_no, reader, ids));
        }
        drop(feed);
        self.wake.notify_one();
    }

    fn stop(&self) {
        self.feed().stop = true;
        self.wake.notify_one();
    }

    /// `(evaluations, busy seconds)` so far.
    fn reader_work(&self) -> (u64, f64) {
        (
            self.evals.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        )
    }
}

/// What the reader thread did.
struct ReaderResult {
    evals: u64,
    staleness_sum: u64,
    staleness_samples: u64,
    /// The last evaluation as plain data: the design and its costs.
    last: Option<(Vec<Index>, (f64, f64))>,
}

fn reader_loop(shared: &Shared, sets: &[Vec<usize>]) -> ReaderResult {
    let mut current: Option<(u64, SessionReader, Vec<usize>)> = None;
    let mut res = ReaderResult {
        evals: 0,
        staleness_sum: 0,
        staleness_samples: 0,
        last: None,
    };
    let mut seen = 0u64;
    let mut last_ids = Vec::new();
    let mut last_costs = (0.0, 0.0);
    loop {
        {
            let mut feed = shared.feed();
            while !feed.stop && feed.published == seen {
                feed = shared.wake.wait(feed).unwrap_or_else(|e| e.into_inner());
            }
            if feed.stop {
                break;
            }
            if let Some(fresh) = feed.handle.take() {
                current = Some(fresh);
            }
            seen = feed.published;
        }
        let Some((session_no, reader, ids)) = current.as_mut() else {
            continue;
        };
        let t = Instant::now();
        if reader.is_stale() {
            reader.refresh();
        }
        let set = &sets[res.evals as usize % sets.len()];
        let cand: Vec<usize> = set.iter().map(|&p| ids[p]).collect();
        last_costs = reader.evaluate(&cand);
        let busy = t.elapsed().as_nanos() as u64;
        let published = shared.feed().published;
        if published >> 32 == *session_no {
            let behind = (published & 0xFFFF_FFFF).saturating_sub(reader.snapshot().generation());
            res.staleness_sum += behind;
            res.staleness_samples += 1;
        }
        last_ids = cand;
        res.evals += 1;
        shared.busy_ns.fetch_add(busy, Ordering::Relaxed);
        shared.evals.store(res.evals, Ordering::Relaxed);
    }
    res.last = current.map(|(_, reader, _)| {
        let snap = reader.snapshot();
        let design = last_ids
            .iter()
            .filter_map(|&id| snap.candidate(id).cloned())
            .collect();
        (design, last_costs)
    });
    res
}

/// One round's results, compared round against round.
#[derive(Clone, PartialEq)]
struct RoundResults {
    step_costs: Vec<f64>,
    doi: Vec<Vec<f64>>,
    joint_cost: f64,
}

/// What round 1 keeps for the output checks after the run.
struct Checked {
    /// Sampled steps: number, the design after the edit, its report.
    steps: Vec<(usize, PhysicalDesign, BenefitReport)>,
    doi: Vec<Vec<f64>>,
    joint: Option<JointReport>,
}

struct RoundCounts {
    inum: InumCounts,
    lookups_per_step: f64,
    reader_lookups: f64,
    iterations: f64,
}

/// Catalog, workload, candidate pool, script, and a session warmed up on
/// the workload (dropped again).
fn set_up(seed: u64, size: &Size) -> (Designer, Workload, Script) {
    trace::span(Layer::Bench, "setup", || {
        let catalog = trace::span(Layer::Catalog, "catalog", || tpch_catalog(SCALE));
        let workload = trace::span(Layer::Query, "generate", || {
            tpch_workload(&catalog, size.queries, sub_seed(seed, 0))
        });
        let pool = trace::span(Layer::Optimizer, "candidates", || {
            workload_candidates(&catalog, &workload, &CandidateConfig::default()).indexes
        });
        let script = make_script(&catalog, &workload, pool, sub_seed(seed, 1), size);
        let designer = Designer::new(catalog);
        drop(open_session(&designer, &workload));
        (designer, workload, script)
    })
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let size = if cfg.smoke { SMOKE } else { FULL };
    let mut out = Outcome::default();

    let (secs, (designer, workload, script)) = timed(|| set_up(cfg.seed, &size));
    let mut setup_s = vec![secs];
    let budget = designer.catalog.data_bytes() / 2;

    let shared = Shared {
        feed: Mutex::new(Feed::default()),
        wake: Condvar::new(),
        evals: AtomicU64::new(0),
        busy_ns: AtomicU64::new(0),
    };
    let mut step_ms: Vec<Vec<f64>> = Vec::new();
    let mut reader_rates = Vec::new();
    let mut graph_ms = Vec::new();
    let mut advise_ms = Vec::new();
    let mut joint_costs = Vec::new();
    let mut counts = Vec::new();
    let mut first: Option<RoundResults> = None;
    let mut peak_rss = 0.0;
    let mut checked = Checked {
        steps: Vec::new(),
        doi: Vec::new(),
        joint: None,
    };
    let reader = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader_loop(&shared, &script.reader_sets));
        let start = Instant::now();
        let mut session_no = 0u64;
        loop {
            session_no += 1;
            let mut s = open_session(&designer, &workload);
            let graph_ids = s
                .tuning_session()
                .matrix_mut()
                .add_candidates(&script.graph);
            let generation = s.publish();
            shared.publish(session_no, generation, Some((s.reader(), graph_ids)));
            let reader_before = shared.reader_work();
            let mut round_steps = Vec::with_capacity(script.steps.len());

            let checking = first.is_none();
            let mut results = RoundResults {
                step_costs: Vec::with_capacity(script.steps.len()),
                doi: Vec::new(),
                joint_cost: 0.0,
            };
            let lookups_before = s.tuning_stats().matrix.lookups;
            for (i, edit) in script.steps.iter().enumerate() {
                let (secs, (report, generation)) = timed(|| {
                    trace::op(Layer::Bench, "step", || {
                        trace::span(Layer::Core, "edit", || apply(&mut s, &script, edit));
                        let report = trace::span(Layer::Core, "evaluate", || s.evaluate());
                        let generation = trace::span(Layer::Inum, "publish", || s.publish());
                        (report, generation)
                    })
                });
                round_steps.push(secs * 1e3);
                shared.publish(session_no, generation, None);
                results.step_costs.push(report.whatif_cost);
                if checking && (i % size.check_stride == 0 || i + 1 == script.steps.len()) {
                    checked.steps.push((i, s.design(), report));
                }
            }
            let steps_lookups = s.tuning_stats().matrix.lookups - lookups_before;

            // The graph over a fixed selection: only the graph indexes.
            s.reset();
            for idx in s.design().indexes().to_vec() {
                s.remove_index(&idx);
            }
            for idx in &script.graph {
                s.add_index(idx.clone());
            }
            for _ in 0..size.graphs_per_round {
                let (secs, graph) =
                    timed(|| trace::op(Layer::Interaction, "graph", || s.interaction_graph()));
                graph_ms.push(secs * 1e3);
                results.doi = doi_of(&graph, &script.graph);
            }

            let (secs, joint) = timed(|| {
                trace::op(Layer::Cophy, "advise_joint", || {
                    s.advise(&mut JointAdvisor::new(budget))
                })
            });
            advise_ms.push(secs * 1e3);
            step_ms.push(round_steps);
            let stats = s.tuning_stats();
            shared.publish(session_no, stats.published_generation, None);
            let reader_after = shared.reader_work();
            reader_rates.push(
                (reader_after.0 - reader_before.0) as f64 / (reader_after.1 - reader_before.1),
            );
            results.joint_cost = joint.joint.cost;
            joint_costs.push(joint.joint.cost);
            counts.push(RoundCounts {
                inum: InumCounts::of(&stats),
                lookups_per_step: steps_lookups as f64 / script.steps.len() as f64,
                reader_lookups: stats.reader_lookups as f64,
                iterations: joint.joint.partition_iterations as f64,
            });
            drop(s);
            if session_no == 1 {
                peak_rss = peak_rss_mib();
            }

            // Later rounds repeat the first one's work exactly, so they
            // must repeat its answers bit for bit.
            match &first {
                None => {
                    checked.doi = results.doi.clone();
                    checked.joint = Some(joint);
                    first = Some(results);
                }
                Some(want) => {
                    let ops = (script.steps.len() + size.graphs_per_round + 1) as u64;
                    let same = *want == results;
                    out.tally.ops(ops, same, || {
                        format!("round {session_no} differs from round 1")
                    });
                }
            }
            if start.elapsed().as_secs_f64() >= cfg.seconds {
                break;
            }
            let (secs, again) = timed(|| set_up(cfg.seed, &size));
            setup_s.push(secs);
            drop(again);
        }
        shared.stop();
        reader.join().expect("reader thread")
    });

    trace::span(Layer::Bench, "check", || {
        let checker = Checker::new(&designer);
        check_first_round(
            &mut out, &checker, &designer, &workload, &script, &size, &checked, budget,
        );
        // The reader's last evaluation against a fresh costing of its design.
        out.tally.check(match &reader.last {
            Some((indexes, (base, cost))) => {
                let design = PhysicalDesign::with_indexes(indexes.iter().cloned());
                let fresh_base = checker.workload_cost(&PhysicalDesign::empty(), &workload);
                let fresh = checker.workload_cost(&design, &workload);
                if close(*base, fresh_base, 1e-9) && close(*cost, fresh, 1e-9) {
                    Ok(())
                } else {
                    Err(format!(
                        "reader: {base} / {cost} vs fresh {fresh_base} / {fresh}"
                    ))
                }
            }
            None => Err("the reader evaluated nothing".to_string()),
        });
    });

    let (tail_ms, tail_label) = round_tail(&step_ms);
    let all_steps: Vec<f64> = step_ms.concat();
    out.note(format!(
        "interactive-tpch1000: {} rounds of {} steps over {} queries; {} reader evaluations; {} set-ups",
        advise_ms.len(),
        script.steps.len(),
        size.queries,
        reader.evals,
        setup_s.len()
    ));
    out.note(format!(
        "what-if step (edit + evaluate + publish): median {:.4} ms over {} samples, \
         {tail_label} per round {:.4} ms; reader {:.0} evaluations per busy second",
        median(&all_steps),
        all_steps.len(),
        tail_ms,
        median(&reader_rates)
    ));
    out.note(format!(
        "interaction_graph ({} indexes): median {:.3} ms over {}; advise(JointAdvisor): median {:.3} ms over {}",
        script.graph.len(),
        median(&graph_ms),
        graph_ms.len(),
        median(&advise_ms),
        advise_ms.len()
    ));
    let ops_ms: f64 = all_steps.iter().chain(&graph_ms).chain(&advise_ms).sum();
    out.note(format!("timed operations: {:.4} s", ops_ms * 1e-3));
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss);
    out.set("op_ms", median(&all_steps));
    out.set("throughput", median(&reader_rates));
    out.set("design_cost", median(&joint_costs));
    if cfg.trace {
        let each = |f: fn(&RoundCounts) -> f64| median(&counts.iter().map(f).collect::<Vec<_>>());
        out.from_spans("catalog.build_ms", "catalog", 1e3);
        out.from_spans("query.generate_ms", "generate", 1e3);
        out.from_spans("inum.warmup_ms", "warmup", 1e3);
        out.from_spans("inum.publish_ms", "publish", 1e3);
        out.from_spans("core.edit_us", "edit", 1e6);
        out.from_spans("core.evaluate_ms", "evaluate", 1e3);
        out.from_spans("cophy.advise_s", "advise_joint", 1.0);
        out.from_spans("interaction.analyze_ms", "graph", 1e3);
        out.set_inum_counts(&counts.iter().map(|c| c.inum).collect::<Vec<_>>());
        out.set("inum.lookups_per_step", each(|c| c.lookups_per_step));
        out.set(
            "inum.reader_lookups",
            counts.iter().map(|c| c.reader_lookups).sum(),
        );
        out.set(
            "inum.reader_staleness",
            reader.staleness_sum as f64 / reader.staleness_samples.max(1) as f64,
        );
        out.set("autopart.iterations", each(|c| c.iterations));
        for name in [
            "cophy.vs_greedy",
            "solver.nodes",
            "solver.gap_pct",
            "autopart.advise_ms",
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
    Ok(out)
}

/// Round 1's operations: the sampled steps against fresh costs (the
/// others are held to round 1 only through the later rounds), one graph
/// against the doi definition, and the joint recommendation.
#[allow(clippy::too_many_arguments)]
fn check_first_round(
    out: &mut Outcome,
    checker: &Checker<'_>,
    designer: &Designer,
    workload: &Workload,
    script: &Script,
    size: &Size,
    checked: &Checked,
    budget: u64,
) {
    for (i, design, report) in &checked.steps {
        let verdict = check_step(checker, workload, design, report);
        out.tally
            .check(verdict.map_err(|e| format!("step {i}: {e}")));
    }
    let unsampled = script.steps.len() - checked.steps.len();
    out.tally.ops(unsampled as u64, true, String::new);
    let verdict = check_graph(checker, workload, &script.graph, &checked.doi);
    out.tally
        .check(verdict.map_err(|e| format!("interaction graph: {e}")));
    out.tally
        .ops(size.graphs_per_round as u64 - 1, true, String::new);
    out.tally.check(match &checked.joint {
        Some(joint) => check_joint(checker, designer, workload, joint, budget)
            .map_err(|e| format!("joint advice: {e}")),
        None => Err("no joint advice".to_string()),
    });
}

fn open_session<'a>(designer: &'a Designer, workload: &Workload) -> InteractiveSession<'a> {
    trace::span(Layer::Inum, "warmup", || designer.session(workload.clone()))
}

fn check_step(
    checker: &Checker<'_>,
    workload: &Workload,
    design: &PhysicalDesign,
    r: &BenefitReport,
) -> Result<(), String> {
    let got: Vec<f64> = r.per_query.iter().map(|q| q.whatif_cost).collect();
    if let Some(m) = mismatch(&got, &checker.query_costs(design, workload), 1e-9) {
        return Err(m);
    }
    let fresh = checker.workload_cost(design, workload);
    let fresh_base = checker.workload_cost(&PhysicalDesign::empty(), workload);
    if !close(r.whatif_cost, fresh, 1e-9) || !close(r.base_cost, fresh_base, 1e-9) {
        return Err(format!(
            "totals {} / {} vs fresh {fresh_base} / {fresh}",
            r.base_cost, r.whatif_cost
        ));
    }
    Ok(())
}

/// The graph's edge weights as a doi matrix over `order`.
fn doi_of(graph: &InteractionGraph, order: &[Index]) -> Vec<Vec<f64>> {
    let pos: Vec<Option<usize>> = graph
        .indexes
        .iter()
        .map(|i| order.iter().position(|o| o == i))
        .collect();
    let mut doi = vec![vec![0.0; order.len()]; order.len()];
    for &(i, j, w) in &graph.edges {
        if let (Some(a), Some(b)) = (pos[i], pos[j]) {
            doi[a][b] = w;
            doi[b][a] = w;
        }
    }
    doi
}

/// Recompute the degree of interaction from its definition in the
/// `interaction` crate docs, with fresh costs:
/// `doi(a,b) = max over q, X ⊆ S∖{a,b} of
/// |δ_a(q, X) − δ_a(q, X ∪ {b})| / cost(q, X ∪ {a,b})`.
fn check_graph(
    checker: &Checker<'_>,
    workload: &Workload,
    indexes: &[Index],
    doi: &[Vec<f64>],
) -> Result<(), String> {
    let n = indexes.len();
    let costs: Vec<Vec<f64>> = (0..1u32 << n)
        .map(|mask| {
            let design = PhysicalDesign::with_indexes(
                (0..n)
                    .filter(|b| mask & (1 << b) != 0)
                    .map(|b| indexes[b].clone()),
            );
            checker.query_costs(&design, workload)
        })
        .collect();
    for a in 0..n {
        for b in (a + 1)..n {
            let free: Vec<usize> = (0..n).filter(|&k| k != a && k != b).collect();
            let mut want = 0.0f64;
            for sub in 0..1u32 << free.len() {
                let x: u32 = free
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| sub & (1 << bit) != 0)
                    .map(|(_, &p)| 1 << p)
                    .sum();
                let (xa, xb, xab) = (x | 1 << a, x | 1 << b, x | 1 << a | 1 << b);
                for q in 0..workload.len() {
                    let delta_a = costs[x as usize][q] - costs[xa as usize][q];
                    let delta_a_with_b = costs[xb as usize][q] - costs[xab as usize][q];
                    want = want.max((delta_a - delta_a_with_b).abs() / costs[xab as usize][q]);
                }
            }
            // Edges below 1e-12 are not drawn; agreement is to 1e-6.
            let got = doi[a][b];
            if (got - want).abs() > 1e-6 * want.max(1.0) {
                return Err(format!("doi({a},{b}) = {got}, definition gives {want}"));
            }
        }
    }
    Ok(())
}

fn check_joint(
    checker: &Checker<'_>,
    designer: &Designer,
    workload: &Workload,
    report: &JointReport,
    budget: u64,
) -> Result<(), String> {
    let j = &report.joint;
    if !(j.cost <= j.index_cost && j.index_cost <= j.base_cost) {
        return Err(format!(
            "cost {} / index cost {} / base {}",
            j.cost, j.index_cost, j.base_cost
        ));
    }
    let cat = &designer.catalog;
    let index_bytes = j.design.index_bytes(&cat.schema, &cat.stats);
    if index_bytes > budget || j.replication_bytes > budget - index_bytes {
        return Err(format!(
            "index bytes {index_bytes} + replication {} over budget {budget}",
            j.replication_bytes
        ));
    }
    let got: Vec<f64> = j.per_query.iter().map(|p| p.1).collect();
    if let Some(m) = mismatch(&got, &checker.query_costs(&j.design, workload), 1e-6) {
        return Err(m);
    }
    let fresh = checker.workload_cost(&j.design, workload);
    let fresh_base = checker.workload_cost(&PhysicalDesign::empty(), workload);
    if !close(j.cost, fresh, 1e-6) || !close(j.base_cost, fresh_base, 1e-6) {
        return Err(format!(
            "totals {} / {} vs fresh {fresh_base} / {fresh}",
            j.base_cost, j.cost
        ));
    }
    Ok(())
}
