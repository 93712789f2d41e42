//! `bulk_threaded`: the direct API. `maintain_all` keeps three views of
//! one pair `a ⋈ b` (naive, AR and GI) on the pipelined
//! `ThreadedCluster` with L = 2. Each round inserts a fresh batch of
//! rows into `a`, then deletes the previous round's batch, then reads
//! `READS_PER_ROUND` point keys back through `MaintainedView::read_key`.
//! The data fits in the buffer pool, so the time goes to per-row work:
//! B+tree probes, heap and index changes, page encoding, message bytes
//! and the runtime's rings.
//!
//! The traced run replays every round on a sequential twin (same views,
//! same deltas) and on a twin with no views, and every read as a
//! snapshot and a lookup on the sequential twin's serving tier. The
//! threaded and sequential outcomes must agree on every counted cost.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pvm::engine::MeterReport;
use pvm::obs::metric;
use pvm::prelude::*;

use crate::gen::{by_join_value, history_row, mix, schema, table_rows, Rng};
use crate::layers::{self, err, mean, us, Counted, Counters, Mean, Res, KINDS};
use crate::stats::{Report, Samples, READ_GROUP};
use crate::trace::Tracer;
use crate::Args;

const L: usize = 2;
const BUFFER_PAGES: usize = 8_192;
const B_ROWS: u64 = 100_000;
/// Distinct join values: each `a` row joins about two `b` rows.
const DOMAIN: u64 = 50_000;
const BATCH: u64 = 2_048;
const WARMUP_ROUNDS: u64 = 2;
/// Measured rounds per episode; three episodes give the 20 rounds a
/// median needs.
const EPISODE_ROUNDS: u64 = 7;
/// Point reads after each measured round.
const READS_PER_ROUND: u64 = 64;
/// Episodes a run makes at least, so `setup_s` is a median of several.
const SETUPS: usize = 3;
const METHODS: [(&str, MaintenanceMethod); 3] = [
    ("naive", MaintenanceMethod::Naive),
    ("ar", MaintenanceMethod::AuxiliaryRelation),
    ("gi", MaintenanceMethod::GlobalIndex),
];

/// The batch round `n` inserts (and round `n + 1` deletes).
pub fn batch(seed: u64, n: u64) -> Vec<Row> {
    (n * BATCH..(n + 1) * BATCH)
        .map(|i| history_row(seed, i, DOMAIN))
        .collect()
}

fn b_rows(seed: u64) -> Vec<Row> {
    table_rows(seed, 2, B_ROWS, DOMAIN)
}

/// Base tables, `b` loaded, and — unless `bare` — the three views.
fn build(b: Vec<Row>, bare: bool) -> Res<(Cluster, Vec<MaintainedView>)> {
    let mut cluster = Cluster::new(ClusterConfig::new(L).with_buffer_pages(BUFFER_PAGES));
    cluster
        .create_table(TableDef::hash_heap("a", schema(["id", "c", "p"]), 0))
        .map_err(err)?;
    let b_id = cluster
        .create_table(TableDef::hash_heap("b", schema(["id", "d", "q"]), 0))
        .map_err(err)?;
    cluster.insert(b_id, b).map_err(err)?;
    let mut views = Vec::new();
    if !bare {
        for (label, method) in METHODS {
            let def = JoinViewDef::two_way(format!("v_{label}"), "a", "b", 1, 1, 3, 3);
            let mut view = MaintainedView::create(&mut cluster, def, method).map_err(err)?;
            view.enable_serving(&cluster).map_err(err)?;
            views.push(view);
        }
    }
    Ok((cluster, views))
}

fn maintain<B: Backend>(
    backend: &mut B,
    views: &mut [MaintainedView],
    delta: &Delta,
) -> (Instant, Instant, Res<Vec<MaintenanceOutcome>>) {
    let mut refs: Vec<&mut MaintainedView> = views.iter_mut().collect();
    let t0 = Instant::now();
    let out = maintain_all(backend, &mut refs, "a", delta);
    let t1 = Instant::now();
    (t0, t1, out.map_err(err))
}

fn same_costs(a: &MaintenanceOutcome, b: &MaintenanceOutcome) -> bool {
    let eq = |x: &MeterReport, y: &MeterReport| x.per_node == y.per_node && x.net == y.net;
    a.view_rows == b.view_rows
        && eq(&a.base, &b.base)
        && eq(&a.aux, &b.aux)
        && eq(&a.compute, &b.compute)
        && eq(&a.view, &b.view)
}

/// The traced run's twins: a sequential copy with the same views, and
/// a copy of the base tables alone.
struct Twins {
    seq: Cluster,
    seq_views: Vec<MaintainedView>,
    bare: Cluster,
}

impl Twins {
    /// Replay one round. Returns the sequential outcomes.
    fn replay(
        &mut self,
        delta: &Delta,
        span: Option<(&mut Tracer, usize, u64, &'static str)>,
    ) -> Res<(Vec<MaintenanceOutcome>, f64)> {
        let (s0, s1, outs) = maintain(&mut self.seq, &mut self.seq_views, delta);
        let outs = outs?;
        let a = self.bare.table_id("a").map_err(err)?;
        let (insert, rows) = match delta {
            Delta::Insert(rows) => (true, rows.clone()),
            Delta::Delete(rows) => (false, rows.clone()),
            Delta::Update { .. } => unreachable!("rounds insert or delete"),
        };
        let e0 = Instant::now();
        let changed = if insert {
            self.bare.insert(a, rows).map(|p| p.len())
        } else {
            self.bare.delete(a, &rows, &[])
        };
        let e1 = Instant::now();
        if changed.map_err(err)? != delta.len() {
            return Err("bare twin changed the wrong number of rows".into());
        }
        if let Some((tracer, root, op, tag)) = span {
            let core = tracer.reserve();
            let engine = if insert {
                "engine.insert"
            } else {
                "engine.delete"
            };
            tracer.leaf(core, op, engine, "base", true, e0, e1);
            tracer.record(core, Some(root), op, "core.maintain_all", tag, true, s0, s1);
        }
        Ok((outs, us(s0, s1)))
    }
}

/// What `read_key(id)` must return: the `a` row joined with every `b`
/// row of its join value, sorted.
fn expected(a: &Row, b_by_key: &HashMap<i64, Vec<Row>>) -> Vec<Row> {
    let key = a.get(1).and_then(Value::as_int).unwrap_or(i64::MIN);
    let mut rows: Vec<Row> = b_by_key
        .get(&key)
        .map_or(&[][..], Vec::as_slice)
        .iter()
        .map(|b| a.concat(b))
        .collect();
    rows.sort();
    rows
}

/// Everything measured across a run's episodes.
#[derive(Default)]
struct Acc {
    setup_s: Samples,
    /// Latency of each round's write, by kind (insert, delete).
    lat: [Samples; 2],
    /// Rows per second of each round's write, by kind.
    rate: [Samples; 2],
    reads: Samples,
    chain_len: (usize, usize),
    /// Traced run: rounds of untraced episodes, by kind.
    untraced: [Samples; 2],
    /// Traced run: sequential twin and threaded times of traced rounds.
    seq_us: [Samples; 2],
    thr_us: [Samples; 2],
    tracer: Tracer,
    counted: [Counted; 3],
    counters: Counters,
    rows: u64,
    rounds: u64,
    measured: Duration,
    /// Operation ids handed out so far, to writes and reads alike.
    ops: u64,
    rows_per_msg: Mean,
    watermark_lag: Mean,
    run_ahead: Mean,
    runtime_noop_us: Samples,
    engine_noop_us: Samples,
    probe_us: Samples,
    space_amp: Option<f64>,
    delta_table: Option<(Cluster, TableId)>,
}

/// One episode: a fresh set-up, a warm-up, then `EPISODE_ROUNDS`
/// measured rounds. Deleting gets slower as the heap of `a` grows under
/// churn, so every episode measures the same window of that history. In
/// a traced run, `traced` says whether this episode's rounds record
/// spans; alternating whole episodes keeps traced and untraced rounds at
/// the same history depths.
fn episode(args: &Args, seed: u64, traced: bool, acc: &mut Acc, report: &mut Report) -> Res<()> {
    let b = b_rows(seed);
    let b_by_key = by_join_value(&b);
    let mut rng = Rng::stream(seed, 3);
    let t0 = Instant::now();
    let (cluster, mut views) = build(b.clone(), false)?;
    let mut thr = ThreadedCluster::from_cluster(cluster);
    acc.setup_s.push(layers::secs(t0));
    let mut twins = if args.trace {
        let (seq, seq_views) = build(b.clone(), false)?;
        let (bare, _) = build(b, true)?;
        // Tracing on in both, so the gated histograms are recorded.
        for c in [&seq, thr.engine()] {
            c.set_trace_sink(Arc::new(RingSink::new(4_096)));
        }
        Some(Twins {
            seq,
            seq_views,
            bare,
        })
    } else {
        drop(b);
        None
    };

    // Round n inserts batch n, then deletes batch n - 1.
    let round = |n: u64| {
        let ins = Delta::Insert(batch(seed, n));
        let del = (n > 0).then(|| Delta::Delete(batch(seed, n - 1)));
        (ins, del)
    };
    for n in 0..WARMUP_ROUNDS {
        let (ins, del) = round(n);
        for d in std::iter::once(&ins).chain(del.as_ref()) {
            let (_, _, out) = maintain(&mut thr, &mut views, d);
            report.op(out.err());
            if let Some(t) = twins.as_mut() {
                t.replay(d, None)?;
            }
        }
    }

    let before = Counters::read(thr.engine());
    let loop_start = Instant::now();
    for n in WARMUP_ROUNDS..WARMUP_ROUNDS + EPISODE_ROUNDS {
        let (ins, del) = round(n);
        acc.rounds += 1;
        let traced = twins.is_some() && traced && !acc.tracer.full();
        for (kind, d) in [(0, Some(ins)), (1, del)] {
            let Some(d) = d else { continue };
            let tag = KINDS[kind];
            let id = acc.ops;
            acc.ops += 1;
            let root = traced.then(|| acc.tracer.reserve());
            let (t0, t1, out) = maintain(&mut thr, &mut views, &d);
            let thr_out = match out {
                Ok(o) => o,
                Err(e) => {
                    report.op(Some(e));
                    continue;
                }
            };
            report.op(None);
            acc.lat[kind].push(us(t0, t1));
            acc.rate[kind].push(d.len() as f64 / (t1 - t0).as_secs_f64());
            acc.rows += d.len() as u64;
            for (c, o) in acc.counted.iter_mut().zip(&thr_out) {
                c.delta_rows += d.len() as u64;
                c.add(o);
            }
            let Some(tw) = twins.as_mut() else { continue };
            let span = root.map(|r| (&mut acc.tracer, r, id, tag));
            let (seq_out, seq_t) = tw.replay(&d, span)?;
            match root {
                Some(r) => {
                    acc.tracer
                        .record(r, None, id, "runtime.maintain_all", tag, false, t0, t1);
                    acc.seq_us[kind].push(seq_t);
                    acc.thr_us[kind].push(us(t0, t1));
                }
                None => acc.untraced[kind].push(us(t0, t1)),
            }
            let agree = seq_out.len() == thr_out.len()
                && seq_out.iter().zip(&thr_out).all(|(s, t)| same_costs(s, t));
            report.op((!agree).then(|| format!("{tag} round {n}: threaded costs differ")));
        }
        // Point reads of rows the round inserted, keyed on `a.id`.
        let live = batch(seed, n);
        for r in 0..READS_PER_ROUND {
            let v = (r % views.len() as u64) as usize;
            let row = &live[rng.below(BATCH) as usize];
            let key = row.get(0).cloned().unwrap_or(Value::Null);
            let id = acc.ops;
            acc.ops += 1;
            let root = traced.then(|| acc.tracer.reserve());
            let t0 = Instant::now();
            let got = views[v].read_key(&mut thr, &key);
            let t1 = Instant::now();
            acc.reads.push(us(t0, t1));
            if let Some(reader) = views[v].serve_reader() {
                acc.chain_len.0 += reader.chain_len();
                acc.chain_len.1 += 1;
            }
            let check = got.map_err(err).and_then(|mut rows| {
                rows.sort();
                (rows == expected(row, &b_by_key))
                    .then_some(())
                    .ok_or(format!("read_key({key}) on view {v} diverged"))
            });
            report.op(check.err());
            let (Some(root), Some(tw)) = (root, twins.as_ref()) else {
                continue;
            };
            let reader = tw.seq_views[v]
                .serve_reader()
                .ok_or("the twin's view serves no snapshots")?;
            let s0 = Instant::now();
            let snap = reader.snapshot();
            let s1 = Instant::now();
            let rows = snap.lookup(0, &key);
            let s2 = Instant::now();
            drop((snap, rows));
            let tracer = &mut acc.tracer;
            tracer.leaf(root, id, "serve.snapshot", "read", true, s0, s1);
            tracer.leaf(root, id, "serve.lookup", "read", true, s1, s2);
            tracer.record(root, None, id, "core.read_key", "read", false, t0, t1);
        }
    }
    acc.measured += loop_start.elapsed();
    acc.counters
        .add(&Counters::read(thr.engine()).since(&before));

    for v in &views {
        let check = v.check_consistent(thr.engine());
        report.op(check.err().map(|e| format!("{}: {e}", v.def().name)));
    }
    let a = thr.engine().table_id("a").map_err(err)?;
    let live = thr.engine().row_count(a).map_err(err)?;
    report.op((live != BATCH).then(|| format!("a holds {live} rows, expected {BATCH}")));
    if acc.space_amp.is_none() {
        let b_id = thr.engine().table_id("b").map_err(err)?;
        acc.space_amp = Some(layers::space_amp(thr.engine(), &[a, b_id])?);
    }
    if let Some(mut tw) = twins {
        for v in &tw.seq_views {
            let check = v.check_consistent(&tw.seq);
            report.op(check.err().map(|e| format!("sequential twin: {e}")));
        }
        layers::add_histogram(
            &mut acc.rows_per_msg,
            thr.engine(),
            metric::BATCH_ROWS_PER_MSG,
        );
        layers::add_histogram(
            &mut acc.watermark_lag,
            thr.engine(),
            metric::WATERMARK_LAG_US,
        );
        layers::add_histogram(&mut acc.run_ahead, thr.engine(), metric::RUN_AHEAD_STEPS);
        acc.runtime_noop_us
            .push(layers::step_noop_us(&mut thr, 200)?);
        acc.engine_noop_us
            .push(layers::step_noop_us(&mut tw.seq, 500)?);
        let keys: Vec<Value> = batch(seed, 0)
            .iter()
            .take(200)
            .filter_map(|r| r.get(1).cloned())
            .collect();
        let mut tables: Vec<TableId> = tw
            .seq_views
            .iter()
            .flat_map(|v| v.method_tables())
            .collect();
        tables.sort();
        tables.dedup();
        acc.probe_us
            .extend(&layers::probe_us(&mut tw.seq, &tables, &keys)?);
    }
    // Kept until the next episode's set-up is timed, then dropped.
    acc.delta_table = Some((thr.into_cluster(), a));
    drop(views);
    Ok(())
}

pub fn run(args: &Args, report: &mut Report) -> Res<()> {
    let mut acc = Acc::default();
    let mut n = 0;
    while n < SETUPS || acc.measured < Duration::from_secs(args.seconds) {
        drop(acc.delta_table.take());
        episode(args, mix(args.seed, n as u64), n % 2 == 1, &mut acc, report)?;
        n += 1;
    }
    let (cluster, a) = acc.delta_table.take().expect("at least one episode ran");
    eprintln!("  bulk_threaded: {n} episodes, {} rounds", acc.rounds);

    if !args.trace {
        report.metric("setup_s", acc.setup_s.median()?, "s");
        report.metric("peak_rss_mb", layers::peak_rss_mb()?, "MB");
        report.metric("space_amp", acc.space_amp.unwrap_or(0.0), "ratio");
        // An episode holds too few rounds for a median of its own; pool
        // them (every episode covers the same rounds of history).
        for (kind, tag) in KINDS.into_iter().enumerate() {
            report.latency(
                &format!("{tag}_p50_us"),
                std::slice::from_ref(&acc.lat[kind]),
                0.5,
            )?;
            report.metric(
                format!("{tag}_rows_per_s"),
                acc.rate[kind].median()?,
                "rows/s",
            );
        }
        let groups = acc.reads.chunks(READ_GROUP);
        report.latency("read_p50_us", &groups, 0.5)?;
        report.latency("read_p99_us", &groups, 0.99)?;
        return Ok(());
    }

    let tracer = &acc.tracer;
    for (kind, tag) in KINDS.into_iter().enumerate() {
        report.note(
            &format!("runtime.speedup.{tag}"),
            acc.seq_us[kind].median()? / acc.thr_us[kind].median()?,
            "ratio",
        );
        report.metric(
            format!("core.maintain_us.{tag}"),
            acc.seq_us[kind].median()?,
            "us",
        );
        report.metric(
            format!("engine.base_{tag}_us"),
            tracer
                .durations(&format!("engine.{tag}"), "base")
                .median()?,
            "us",
        );
        report.metric(
            format!("unattributed_us.{tag}"),
            tracer.unattributed_us("runtime.maintain_all", tag)?,
            "us",
        );
        report.metric(
            format!("trace_overhead_us.{tag}"),
            acc.thr_us[kind].median()? - acc.untraced[kind].median()?,
            "us",
        );
    }
    report.metric(
        "serve.snapshot_us",
        tracer.durations("serve.snapshot", "read").median()?,
        "us",
    );
    report.metric(
        "serve.lookup_us",
        tracer.durations("serve.lookup", "read").median()?,
        "us",
    );
    let (links, samples) = acc.chain_len;
    report.note(
        "serve.chain_len",
        links as f64 / samples.max(1) as f64,
        "links",
    );
    report.metric(
        "unattributed_us.read",
        tracer.unattributed_us("core.read_key", "read")?,
        "us",
    );
    let labelled: Vec<(&str, Counted)> = METHODS
        .iter()
        .zip(&acc.counted)
        .map(|((label, _), c)| (*label, *c))
        .collect();
    layers::report_core(report, &labelled, acc.rows);
    layers::report_net(report, &acc.counted, acc.rows);
    report.metric(
        "net.rows_per_message",
        mean(metric::BATCH_ROWS_PER_MSG, acc.rows_per_msg)?,
        "rows",
    );
    report.note(
        "runtime.watermark_lag_us",
        mean(metric::WATERMARK_LAG_US, acc.watermark_lag)?,
        "us",
    );
    report.note(
        "runtime.run_ahead_steps",
        mean(metric::RUN_AHEAD_STEPS, acc.run_ahead)?,
        "steps",
    );
    report.note("runtime.step_noop_us", acc.runtime_noop_us.median()?, "us");
    report.metric("engine.step_noop_us", acc.engine_noop_us.median()?, "us");
    acc.counters.report(report, acc.rows as f64);
    report.metric("storage.probe_us", acc.probe_us.median()?, "us");
    layers::report_delta_table(report, &cluster, &[a])?;
    acc.tracer
        .write_jsonl(&crate::trace_path(args))
        .map_err(err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_batches() {
        assert_eq!(batch(5, 3), batch(5, 3));
        assert_ne!(batch(5, 3), batch(6, 3));
        assert_eq!(b_rows(5)[..100], b_rows(5)[..100]);
        // Consecutive batches never share a row id.
        let ids = |n| {
            batch(5, n)
                .iter()
                .map(|r| r.get(0).cloned())
                .collect::<Vec<_>>()
        };
        assert!(ids(0).iter().all(|id| !ids(1).contains(id)));
    }
}
