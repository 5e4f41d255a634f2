//! `online-durable`: scenario 3, a long drifting SDSS stream with a fixed
//! phase length fed to a durable `OnlineSession`.
//!
//! A round opens a durable session on an empty store and observes the
//! whole stream; the run repeats whole rounds until its time is up, and
//! times one more set-up between rounds. The store is the program's
//! in-memory `DurableStore` behind the counting wrapper, and the
//! program's own flush policy applies: an fsync per log record, the tuner
//! sidecar every epoch, a checkpoint every 8 publishes. The matrix build
//! runs serial (`PGDESIGN_THREADS=1`). Peak RSS is read when round 1
//! ends, before the first re-timed set-up (whose second copy of the
//! stream would fragment the heap of later rounds) and before any output
//! check allocates.

use crate::check::{close, Checker};
use crate::stats::{median, peak_rss_mib, round_tail, timed};
use crate::store::{CountingStore, StoreCounters};
use crate::trace::{self, Layer};
use crate::{sub_seed, InumCounts, Outcome, RunConfig};
use pgdesign::{Designer, OnlineSession, SessionReader};
use pgdesign_catalog::design::{Index, PhysicalDesign};
use pgdesign_catalog::samples::sdss_catalog;
use pgdesign_colt::{ColtConfig, EpochReport};
use pgdesign_durability::SharedMemStore;
use pgdesign_query::ast::Query;
use pgdesign_query::generators::DriftingStream;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::time::Instant;

const SCALE: f64 = 0.01;

/// The matrix build's worker count for this workload: serial.
const SERIAL_BUILD: (&str, &str) = ("PGDESIGN_THREADS", "1");

struct Size {
    queries: usize,
    phase_len: usize,
}

const FULL: Size = Size {
    queries: 48_000,
    phase_len: 4_000,
};

const SMOKE: Size = Size {
    queries: 1_200,
    phase_len: 150,
};

fn colt_config(designer: &Designer) -> ColtConfig {
    ColtConfig {
        storage_budget_bytes: designer.catalog.data_bytes() / 4,
        ..Default::default()
    }
}

fn open<'a>(
    designer: &'a Designer,
    store: &SharedMemStore,
    counters: &Rc<StoreCounters>,
) -> Result<OnlineSession<'a>, String> {
    let store = Box::new(CountingStore::new(store.clone(), counters.clone()));
    trace::span(Layer::Inum, "warmup", || {
        OnlineSession::open_or_create_on(designer, colt_config(designer), store)
    })
    .map_err(|e| format!("durable open failed: {e}"))
}

/// Catalog, stream, and a durable open on an empty store (dropped again).
fn set_up(seed: u64, size: &Size) -> Result<(Designer, Vec<Query>), String> {
    trace::span(Layer::Bench, "setup", || {
        let catalog = trace::span(Layer::Catalog, "catalog", || sdss_catalog(SCALE));
        let stream = trace::span(Layer::Query, "generate", || {
            DriftingStream::sdss_default(catalog.clone(), size.phase_len, sub_seed(seed, 0))
                .batch(size.queries)
        });
        let designer = Designer::new(catalog);
        drop(open(
            &designer,
            &SharedMemStore::new(),
            &Rc::new(StoreCounters::default()),
        )?);
        Ok((designer, stream))
    })
}

/// A fingerprint of the parts of the epoch reports a repeated round must
/// reproduce exactly: per epoch its number, untuned, tuned and build
/// cost (bit for bit), materialized set, what-if calls and dropped
/// candidates.
fn trajectory(reports: &[EpochReport]) -> u64 {
    let mut h = DefaultHasher::new();
    for r in reports {
        r.epoch.hash(&mut h);
        for cost in [r.untuned_cost, r.tuned_cost, r.build_cost] {
            cost.to_bits().hash(&mut h);
        }
        r.materialized.hash(&mut h);
        r.whatif_calls.hash(&mut h);
        r.candidates_dropped.hash(&mut h);
    }
    h.finish()
}

/// What the last round leaves for the checks: plain data and its store.
struct LastRound {
    reports: Vec<EpochReport>,
    design: Vec<Index>,
    /// The live session's workload cost under the empty and the
    /// materialized design, read from its published snapshot.
    costs: Option<(f64, f64)>,
    store: SharedMemStore,
    io_faults: u64,
    /// Its trajectory is round 1's.
    same_as_first: bool,
}

/// Workload cost under the empty design and under `design`, from the
/// snapshot `reader` holds; `None` when a design index is no candidate.
fn snapshot_costs(reader: &SessionReader, design: &[Index]) -> Option<(f64, f64)> {
    let snap = reader.snapshot();
    let ids: Option<Vec<usize>> = design.iter().map(|i| snap.candidate_id(i)).collect();
    Some((
        snap.workload_cost(&snap.empty_config()),
        snap.workload_cost(&snap.config_of(ids?)),
    ))
}

struct RoundCounts {
    inum: InumCounts,
    lookups_per_epoch: f64,
    whatif_per_epoch: f64,
    dropped: f64,
    changes: f64,
    fsyncs_per_epoch: f64,
    bytes_per_epoch: f64,
    write_ms_per_epoch: f64,
    retries: f64,
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    // Each epoch close costs its 25 new queries through
    // `CostMatrix::add_queries`, which by default fans them out over one
    // scoped worker per core. On a small shared machine the epoch close then
    // waits for a second core that other tenants hold, and its median moved
    // by more than a quarter between runs of the same code; serial, it is
    // faster and repeats. The run is its own process and no thread runs yet.
    std::env::set_var(SERIAL_BUILD.0, SERIAL_BUILD.1);
    let size = if cfg.smoke { SMOKE } else { FULL };
    let mut out = Outcome::default();

    let (secs, made) = timed(|| set_up(cfg.seed, &size));
    let mut setup_s = vec![secs];
    let (designer, stream) = made?;
    let config = colt_config(&designer);
    let epoch_len = config.epoch_length;
    let epochs = (stream.len() / epoch_len) as f64;

    let mut close_ms: Vec<Vec<f64>> = Vec::new();
    let mut round_rates = Vec::new();
    let mut ops_s = 0.0;
    let mut tuned_costs = Vec::new();
    let mut counts = Vec::new();
    let mut first_trajectory = None;
    let mut peak_rss = 0.0;
    let start = Instant::now();
    let mut round = 0u64;
    let last =
        loop {
            round += 1;
            let counters = Rc::new(StoreCounters::default());
            let store = SharedMemStore::new();
            let mut session = open(&designer, &store, &counters)?;
            let mut round_close = Vec::with_capacity(stream.len() / epoch_len);
            let mut observe_s = 0.0;
            for (i, q) in stream.iter().enumerate() {
                let q: Query = q.clone();
                let closes = (i + 1) % epoch_len == 0;
                let t = Instant::now();
                if closes {
                    trace::op(Layer::Colt, "epoch_close", || session.observe(q));
                } else {
                    trace::op(Layer::Colt, "observe", || session.observe(q));
                }
                let secs = t.elapsed().as_secs_f64();
                observe_s += secs;
                if closes {
                    round_close.push(secs * 1e3);
                }
            }
            close_ms.push(round_close);
            round_rates.push(stream.len() as f64 / observe_s);
            ops_s += observe_s;
            let stats = session.tuning_stats();
            let reports = session.reports();
            tuned_costs.push(session.cumulative_costs().1);
            if round == 1 {
                peak_rss = peak_rss_mib();
            }

            let (syncs, bytes, errors, nanos) = counters.snapshot();
            let io_faults = errors + stats.io_retries + stats.io_suspensions;
            counts.push(RoundCounts {
                inum: InumCounts::of(&stats),
                lookups_per_epoch: stats.matrix.lookups as f64 / epochs,
                whatif_per_epoch: reports.iter().map(|r| r.whatif_calls as f64).sum::<f64>()
                    / epochs,
                dropped: reports.iter().map(|r| r.candidates_dropped as f64).sum(),
                changes: reports.iter().map(|r| r.events.len() as f64).sum(),
                fsyncs_per_epoch: syncs as f64 / epochs,
                bytes_per_epoch: bytes as f64 / epochs,
                write_ms_per_epoch: nanos as f64 * 1e-6 / epochs,
                retries: io_faults as f64,
            });

            // Every round repeats round 1's trajectory exactly. A round whose
            // durable log retried or suspended fails as a whole. The last
            // round's observations are checked epoch by epoch once the run
            // ends; earlier rounds count here.
            let done = start.elapsed().as_secs_f64() >= cfg.seconds;
            let fingerprint = trajectory(reports);
            let same = *first_trajectory.get_or_insert(fingerprint) == fingerprint;
            if done {
                let design = session.current_design().indexes().to_vec();
                let costs = snapshot_costs(&session.reader(), &design);
                break LastRound {
                    reports: reports.to_vec(),
                    design,
                    costs,
                    store,
                    io_faults,
                    same_as_first: same,
                };
            }
            out.tally.ops(stream.len() as u64, io_faults == 0 && same, || {
            format!("round {round}: {io_faults} durable I/O faults, trajectory as round 1: {same}")
        });
            drop(session);
            let (secs, made) = timed(|| set_up(cfg.seed, &size));
            setup_s.push(secs);
            made?;
        };

    trace::span(Layer::Bench, "check", || {
        let checker = Checker::new(&designer);
        check_epochs(
            &mut out,
            &checker,
            &designer,
            &stream,
            &last,
            config.storage_budget_bytes,
            epoch_len,
        );
        check_in_memory(&mut out, &designer, &stream, &last.reports);
        check_reopen(&mut out, &designer, &last)
    })?;

    // The gated timings are the run's slowest round: the highest round
    // median of the epoch close and the lowest round rate. On a shared
    // machine rounds ran at two speeds about a third apart, switching
    // mid-run as other tenants came and went; the fast speed moved from run
    // to run and so did the share of rounds at each, but the slow speed
    // held. Nearly every run had a round at it.
    let (tail_ms, tail_label) = round_tail(&close_ms);
    let all_close: Vec<f64> = close_ms.concat();
    let round_close: Vec<f64> = close_ms.iter().map(|r| median(r)).collect();
    let slowest_close = round_close.iter().copied().fold(0.0, f64::max);
    let slowest_rate = round_rates.iter().copied().fold(f64::INFINITY, f64::min);
    out.note(format!(
        "online-durable: {round} rounds of {} queries (phase {}, epoch {epoch_len}), in-memory store; \
         {} set-ups",
        stream.len(),
        size.phase_len,
        setup_s.len()
    ));
    out.note(format!(
        "epoch close: median {:.4} ms over {} samples, round medians {:.4}..{slowest_close:.4} ms, \
         {tail_label} per round {:.4} ms",
        median(&all_close),
        all_close.len(),
        round_close.iter().copied().fold(f64::INFINITY, f64::min),
        tail_ms,
    ));
    out.note(format!(
        "queries observed per second: rounds {slowest_rate:.0}..{:.0}, median {:.0}",
        round_rates.iter().copied().fold(0.0, f64::max),
        median(&round_rates)
    ));
    out.note(format!("timed operations: {ops_s:.4} s"));
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss);
    out.set("op_ms", slowest_close);
    out.set("throughput", slowest_rate);
    out.set("design_cost", median(&tuned_costs));
    if cfg.trace {
        let each = |f: fn(&RoundCounts) -> f64| median(&counts.iter().map(f).collect::<Vec<_>>());
        out.from_spans("catalog.build_ms", "catalog", 1e3);
        out.from_spans("query.generate_ms", "generate", 1e3);
        out.from_spans("inum.warmup_ms", "warmup", 1e3);
        out.from_spans("colt.observe_us", "observe", 1e6);
        out.set_inum_counts(&counts.iter().map(|c| c.inum).collect::<Vec<_>>());
        out.set("inum.lookups_per_step", each(|c| c.lookups_per_epoch));
        out.set("colt.whatif_calls", each(|c| c.whatif_per_epoch));
        out.set("colt.candidates_dropped", each(|c| c.dropped));
        out.set("colt.index_changes", each(|c| c.changes));
        out.set("durability.fsyncs_per_epoch", each(|c| c.fsyncs_per_epoch));
        out.set("durability.bytes_per_epoch", each(|c| c.bytes_per_epoch));
        out.set("durability.write_ms", each(|c| c.write_ms_per_epoch));
        out.set("durability.retries", counts.iter().map(|c| c.retries).sum());
        for name in [
            "inum.publish_ms",
            "inum.reader_lookups",
            "inum.reader_staleness",
            "core.edit_us",
            "core.evaluate_ms",
            "cophy.advise_s",
            "cophy.vs_greedy",
            "solver.nodes",
            "solver.gap_pct",
            "autopart.advise_ms",
            "autopart.iterations",
            "interaction.analyze_ms",
        ] {
            out.set(name, 0.0);
        }
    }
    Ok(out)
}

/// The last round, epoch by epoch: the untuned sum against fresh costs under
/// the empty design, the tuned sum (builds aside) against fresh costs
/// under the design in force when the epoch's queries arrived (the
/// previous epoch's materialized set), and the materialized bytes against
/// the budget. A failed epoch, or durable I/O faults in the round, fail
/// the epoch's observations.
fn check_epochs(
    out: &mut Outcome,
    checker: &Checker<'_>,
    designer: &Designer,
    stream: &[Query],
    last: &LastRound,
    budget: u64,
    epoch_len: usize,
) {
    let cat = &designer.catalog;
    let empty = PhysicalDesign::empty();
    let mut in_force = PhysicalDesign::empty();
    let reports = &last.reports;
    let io_faults = last.io_faults;
    if reports.len() * epoch_len != stream.len() {
        out.broken.push(format!(
            "{} epochs for {} queries",
            reports.len(),
            stream.len()
        ));
    }
    for (r, queries) in reports.iter().zip(stream.chunks(epoch_len)) {
        let untuned: f64 = queries.iter().map(|q| checker.cost(&empty, q)).sum();
        let tuned: f64 = queries.iter().map(|q| checker.cost(&in_force, q)).sum();
        in_force = PhysicalDesign::with_indexes(r.materialized.iter().cloned());
        let bytes = in_force.index_bytes(&cat.schema, &cat.stats);
        let ok = close(r.untuned_cost, untuned, 1e-9)
            && close(r.tuned_cost, tuned + r.build_cost, 1e-9)
            && bytes <= budget
            && io_faults == 0
            && last.same_as_first;
        out.tally.ops(queries.len() as u64, ok, || {
            format!(
                "epoch {}: untuned {} vs fresh {untuned}, tuned {} vs fresh {tuned} + builds {}, \
                 {bytes} bytes of {budget}, {io_faults} durable I/O faults, \
                 trajectory as round 1: {}",
                r.epoch, r.untuned_cost, r.tuned_cost, r.build_cost, last.same_as_first
            )
        });
    }
}

/// The same stream through an in-memory session gives the same
/// trajectory.
fn check_in_memory(
    out: &mut Outcome,
    designer: &Designer,
    stream: &[Query],
    reports: &[EpochReport],
) {
    let mut session = designer.online_session(colt_config(designer));
    session.observe_all(stream.iter().cloned());
    let same = trajectory(session.reports()) == trajectory(reports);
    out.tally.op(same, || {
        "the in-memory session's trajectory differs from the durable one".into()
    });
}

/// A reopen of the last round's state is warm and costs as the live
/// session did: no matrix build, no cold-start reason, the same design,
/// and the same workload costs under the empty and the materialized
/// design.
fn check_reopen(out: &mut Outcome, designer: &Designer, last: &LastRound) -> Result<(), String> {
    let reopened = open(designer, &last.store, &Rc::new(StoreCounters::default()))?;
    let stats = reopened.tuning_stats();
    let warm = stats.matrix.builds == 0 && stats.recovery.is_some_and(|r| r.cold_start.is_none());
    let back = snapshot_costs(&reopened.reader(), &last.design);
    let same_costs = match (last.costs, back) {
        (Some(a), Some(b)) => close(a.0, b.0, 1e-9) && close(a.1, b.1, 1e-9),
        _ => false,
    };
    let same_design = reopened.current_design().indexes() == last.design.as_slice();
    out.tally.op(warm && same_costs && same_design, || {
        format!(
            "reopen: warm {warm}, costs {:?} vs {back:?}, same design {same_design}",
            last.costs
        )
    });
    Ok(())
}
