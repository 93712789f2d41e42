//! `serve_stream`: one writer streams 16-row batches through
//! `MaintainedView::apply` into one AR view on the sequential backend
//! with L = 4. Each round inserts a fresh batch into `a`, then deletes
//! the previous round's batch. Meanwhile one reader thread runs a closed
//! loop of snapshot, point lookup and 1 ms of busy think time. Every read
//! is checked against the rows the generated schedule says the view held
//! at the snapshot's epoch.
//!
//! The writer is sequential on purpose: a threaded writer plus the
//! reader would put three runnable threads on a two-core host, and the
//! write rate would then measure the scheduler.
//!
//! The traced run replays every write on a twin holding only the base
//! tables (`Cluster::insert` or `Cluster::delete` of the same rows), and
//! splits each read into its snapshot and lookup calls.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pvm::obs::metric;
use pvm::prelude::*;

use crate::gen::{by_join_value, history_row, mix, schema, table_rows, Rng};
use crate::layers::{self, err, us, Counted, Counters, Mean, Res, ENGINE_SPANS, KINDS};
use crate::stats::{Report, Samples, READ_GROUP};
use crate::trace::Tracer;
use crate::Args;

const L: usize = 4;
const BUFFER_PAGES: usize = 4_096;
const B_ROWS: u64 = 16_000;
/// Distinct join values: each key matches about four `b` rows.
const DOMAIN: u64 = 4_000;
const BATCH: u64 = 16;
/// The view column point reads filter on (`a.c`, the join value).
const KEY_COL: usize = 1;
const THINK: Duration = Duration::from_millis(1);
const WARMUP_ROUNDS: u64 = 200;
/// Measured rounds per episode, each one insert and one delete.
const EPISODE_ROUNDS: u64 = 500;
/// Episodes a run makes at least, so `setup_s` is a median of several.
const SETUPS: usize = 3;
/// Traced run: rounds per block; blocks alternate untraced/traced.
const BLOCK: u64 = 25;

/// The rows of batch `n` (batch 0 is part of set-up).
pub fn batch_rows(seed: u64, n: u64) -> Vec<Row> {
    (n * BATCH..(n + 1) * BATCH)
        .map(|i| history_row(seed, i, DOMAIN))
        .collect()
}

/// Round `n ≥ 1`: insert batch `n`, then delete batch `n - 1`.
pub fn round(seed: u64, n: u64) -> [Delta; 2] {
    [
        Delta::Insert(batch_rows(seed, n)),
        Delta::Delete(batch_rows(seed, n - 1)),
    ]
}

/// The `a` rows live at view epoch `epoch ≥ 1`. Set-up inserts batch 0
/// (epoch 1); round `n`'s insert makes epoch `2n`, its delete `2n + 1`.
pub fn live_at(seed: u64, epoch: u64) -> Vec<Row> {
    let n = epoch / 2;
    let mut rows = batch_rows(seed, n);
    if epoch.is_multiple_of(2) {
        rows.extend(batch_rows(seed, n - 1));
    }
    rows
}

fn b_rows(seed: u64) -> Vec<Row> {
    table_rows(seed, 2, B_ROWS, DOMAIN)
}

/// What `lookup(KEY_COL, key)` must return at `epoch`: the join of the
/// `a` rows live then with the `b` rows of the same key, sorted.
fn expected(seed: u64, epoch: u64, key: i64, b_by_key: &HashMap<i64, Vec<Row>>) -> Vec<Row> {
    let Some(bs) = b_by_key.get(&key) else {
        return Vec::new();
    };
    let mut rows: Vec<Row> = live_at(seed, epoch)
        .iter()
        .filter(|a| a.get(KEY_COL).and_then(Value::as_int) == Some(key))
        .flat_map(|a| bs.iter().map(move |b| a.concat(b)))
        .collect();
    rows.sort();
    rows
}

fn build(b: Vec<Row>, seed: u64, bare: bool) -> Res<(Cluster, Option<MaintainedView>)> {
    let mut cluster = Cluster::new(ClusterConfig::new(L).with_buffer_pages(BUFFER_PAGES));
    let a = cluster
        .create_table(TableDef::hash_heap("a", schema(["id", "c", "p"]), 0))
        .map_err(err)?;
    let b_id = cluster
        .create_table(TableDef::hash_heap("b", schema(["id", "d", "q"]), 0))
        .map_err(err)?;
    cluster.insert(b_id, b).map_err(err)?;
    if bare {
        cluster.insert(a, batch_rows(seed, 0)).map_err(err)?;
        return Ok((cluster, None));
    }
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let mut view = MaintainedView::create(&mut cluster, def, MaintenanceMethod::AuxiliaryRelation)
        .map_err(err)?;
    view.enable_serving(&cluster).map_err(err)?;
    view.apply(&mut cluster, 0, &Delta::Insert(batch_rows(seed, 0)))
        .map_err(err)?;
    Ok((cluster, Some(view)))
}

/// Busy-wait for `d`. A sleeping reader lets its core go idle, and on a
/// virtualized host the wake-up path then stalls about one read in a
/// hundred by hundreds of µs whatever the program does; that puts the
/// read p99 on a knife edge between two modes. Spinning keeps the core
/// awake, so the tail reflects the serving tier.
fn think(d: Duration) {
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// One read's clock readings: start, after the snapshot, after the
/// lookup. The reader records them; spans are built after it stops.
type ReadTimes = (Instant, Instant, Instant);

#[derive(Default)]
struct ReaderOut {
    reads: Vec<ReadTimes>,
    chain_len: Vec<usize>,
    failures: Vec<String>,
}

fn reader_loop(
    reader: ServeReader,
    seed: u64,
    b_by_key: &HashMap<i64, Vec<Row>>,
    stop: &AtomicBool,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut rng = Rng::stream(seed, 3);
    while !stop.load(Ordering::Acquire) {
        // Pick a key of a row live at the current epoch, before timing.
        let live = live_at(seed, reader.current_epoch().max(1));
        let pick = live[rng.below(live.len() as u64) as usize].clone();
        let key_value = pick.get(KEY_COL).cloned().unwrap_or(Value::Null);
        let t0 = Instant::now();
        let snap = reader.snapshot();
        let t1 = Instant::now();
        let rows = snap.lookup(KEY_COL, &key_value);
        let t2 = Instant::now();
        let at = snap.epoch();
        drop(snap);
        out.reads.push((t0, t1, t2));
        out.chain_len.push(reader.chain_len());
        let key = key_value.as_int().unwrap_or(i64::MIN);
        let mut got = rows;
        got.sort();
        if at == 0 || got != expected(seed, at, key, b_by_key) {
            out.failures
                .push(format!("lookup(c = {key}) at epoch {at} diverged"));
        }
        think(THINK);
    }
    out
}

/// Everything measured across a run's episodes.
#[derive(Default)]
struct Acc {
    setup_s: Samples,
    /// Write latency by kind (insert, delete), one group per episode.
    lat: [Vec<Samples>; 2],
    /// Rows per second of write time by kind, one value per episode.
    rate: [Samples; 2],
    /// Traced run: writes of untraced blocks, by kind.
    untraced: [Samples; 2],
    reads: Samples,
    tracer: Tracer,
    chain_len: (usize, usize),
    counted: Counted,
    counters: Counters,
    rows_per_msg: Mean,
    rounds: u64,
    /// Operation ids handed out so far, to writes and reads alike.
    ops: u64,
    measured: Duration,
    step_noop_us: Samples,
    probe_us: Samples,
    space_amp: Option<f64>,
    delta_table: Option<(Cluster, TableId)>,
}

/// Replay one write on the bare twin. Returns when the call started and
/// ended.
fn replay(bare: &mut Cluster, delta: &Delta) -> Res<(Instant, Instant)> {
    let a = bare.table_id("a").map_err(err)?;
    let (insert, rows) = match delta {
        Delta::Insert(rows) => (true, rows.clone()),
        Delta::Delete(rows) => (false, rows.clone()),
        Delta::Update { .. } => unreachable!("rounds insert or delete"),
    };
    let e0 = Instant::now();
    let changed = if insert {
        bare.insert(a, rows).map(|p| p.len())
    } else {
        bare.delete(a, &rows, &[])
    };
    let e1 = Instant::now();
    if changed.map_err(err)? != BATCH as usize {
        return Err("bare twin: a write changed the wrong number of rows".into());
    }
    Ok((e0, e1))
}

/// One episode: a fresh set-up, a warm-up, then `EPISODE_ROUNDS`
/// measured rounds with the reader running. Each delete scans a heap that
/// grows under churn, so every episode measures the same window of that
/// history.
fn episode(args: &Args, seed: u64, acc: &mut Acc, report: &mut Report) -> Res<()> {
    let b = b_rows(seed);
    let b_by_key = by_join_value(&b);
    let t0 = Instant::now();
    let (mut cluster, view) = build(b.clone(), seed, false)?;
    acc.setup_s.push(layers::secs(t0));
    let mut view = view.expect("set-up builds the view");
    let mut bare = if args.trace {
        // Tracing on, so the gated histograms are recorded.
        cluster.set_trace_sink(Arc::new(RingSink::new(4_096)));
        Some(build(b, seed, true)?.0)
    } else {
        drop(b);
        None
    };

    for n in 1..=WARMUP_ROUNDS {
        for delta in round(seed, n) {
            let out = view.apply(&mut cluster, 0, &delta);
            report.op(out.err().map(err));
            if let Some(bare) = bare.as_mut() {
                replay(bare, &delta)?;
            }
        }
    }

    let reader = view.serve_reader().ok_or("the view serves no snapshots")?;
    let stop = AtomicBool::new(false);
    let mut backlog: Vec<Delta> = Vec::new();
    let before = Counters::read(&cluster);
    let first = WARMUP_ROUNDS + 1;
    let last = WARMUP_ROUNDS + EPISODE_ROUNDS;
    let mut lat = [Samples::default(), Samples::default()];
    let reads = std::thread::scope(|s| -> Res<ReaderOut> {
        let handle = s.spawn(|| reader_loop(reader, seed, &b_by_key, &stop));
        let loop_start = Instant::now();
        let written = (|| -> Res<()> {
            for n in first..=last {
                acc.rounds += 1;
                let traced = bare.is_some() && ((n - first) / BLOCK) % 2 == 1 && !acc.tracer.full();
                if traced {
                    let bare = bare.as_mut().expect("traced runs have a bare twin");
                    for old in backlog.drain(..) {
                        replay(bare, &old)?;
                    }
                }
                for (kind, delta) in round(seed, n).into_iter().enumerate() {
                    let id = acc.ops;
                    acc.ops += 1;
                    let root = traced.then(|| acc.tracer.reserve());
                    let t0 = Instant::now();
                    let out = view.apply(&mut cluster, 0, &delta);
                    let t1 = Instant::now();
                    match out {
                        Ok(o) => {
                            acc.counted.delta_rows += BATCH;
                            acc.counted.add(&o);
                            report.op(None);
                        }
                        Err(e) => report.op(Some(err(e))),
                    }
                    lat[kind].push(us(t0, t1));
                    let Some(bare) = bare.as_mut() else { continue };
                    let Some(root) = root else {
                        acc.untraced[kind].push(us(t0, t1));
                        backlog.push(delta);
                        continue;
                    };
                    let (e0, e1) = replay(bare, &delta)?;
                    let tracer = &mut acc.tracer;
                    tracer.leaf(root, id, ENGINE_SPANS[kind], "base", true, e0, e1);
                    tracer.record(root, None, id, "core.apply", KINDS[kind], false, t0, t1);
                }
            }
            Ok(())
        })();
        acc.measured += loop_start.elapsed();
        stop.store(true, Ordering::Release);
        let reads = handle
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        written.map(|()| reads)
    })?;
    for (kind, episode) in lat.into_iter().enumerate() {
        let rows = (episode.len() as u64 * BATCH) as f64;
        acc.rate[kind].push(rows / (episode.sum() / 1e6));
        acc.lat[kind].push(episode);
    }
    acc.counters.add(&Counters::read(&cluster).since(&before));

    for f in &reads.failures {
        report.fail(f.clone());
    }
    report.attempted += reads.reads.len() as u64;
    report.op(view.check_consistent(&cluster).err().map(err));
    let served = view.serve_reader().map(|r| {
        let mut rows = r.snapshot().rows();
        rows.sort();
        rows
    });
    let mut stored = cluster.scan_all(view.view_table()).map_err(err)?;
    stored.sort();
    report
        .op((served.as_ref() != Some(&stored))
            .then(|| "final snapshot differs from the view".into()));
    let a = cluster.table_id("a").map_err(err)?;
    let live = cluster.row_count(a).map_err(err)?;
    report.op((live != BATCH).then(|| format!("a holds {live} rows, expected {BATCH}")));
    if acc.space_amp.is_none() {
        let b_id = cluster.table_id("b").map_err(err)?;
        acc.space_amp = Some(layers::space_amp(&cluster, &[a, b_id])?);
    }
    acc.chain_len.0 += reads.chain_len.iter().sum::<usize>();
    acc.chain_len.1 += reads.chain_len.len();
    for (t0, t1, t2) in reads.reads {
        acc.reads.push(us(t0, t2));
        if bare.is_none() || acc.tracer.full() {
            continue;
        }
        let root = acc.tracer.reserve();
        let id = acc.ops;
        acc.ops += 1;
        acc.tracer
            .leaf(root, id, "serve.snapshot", "read", false, t0, t1);
        acc.tracer
            .leaf(root, id, "serve.lookup", "read", false, t1, t2);
        acc.tracer
            .record(root, None, id, "serve.read", "read", false, t0, t2);
    }
    if args.trace {
        layers::add_histogram(&mut acc.rows_per_msg, &cluster, metric::BATCH_ROWS_PER_MSG);
        acc.step_noop_us
            .push(layers::step_noop_us(&mut cluster, 500)?);
        let keys: Vec<Value> = batch_rows(seed, last)
            .iter()
            .filter_map(|r| r.get(KEY_COL).cloned())
            .collect();
        acc.probe_us.extend(&layers::probe_us(
            &mut cluster,
            &view.method_tables(),
            &keys,
        )?);
    }
    // Kept until the next episode's set-up is timed, then dropped.
    acc.delta_table = Some((cluster, a));
    drop(view);
    Ok(())
}

pub fn run(args: &Args, report: &mut Report) -> Res<()> {
    let mut acc = Acc::default();
    let mut n = 0;
    while n < SETUPS || acc.measured < Duration::from_secs(args.seconds) {
        drop(acc.delta_table.take());
        episode(args, mix(args.seed, n as u64), &mut acc, report)?;
        n += 1;
    }
    let (cluster, a) = acc.delta_table.take().expect("at least one episode ran");
    eprintln!("  serve_stream: {n} episodes, {} rounds", acc.rounds);

    if !args.trace {
        report.metric("setup_s", acc.setup_s.median()?, "s");
        report.metric("peak_rss_mb", layers::peak_rss_mb()?, "MB");
        report.metric("space_amp", acc.space_amp.unwrap_or(0.0), "ratio");
        for (kind, tag) in KINDS.into_iter().enumerate() {
            report.latency(&format!("{tag}_p50_us"), &acc.lat[kind], 0.5)?;
            report.metric(
                format!("{tag}_rows_per_s"),
                acc.rate[kind].median()?,
                "rows/s",
            );
        }
        // An episode holds too few reads for a p99 of its own; group
        // consecutive reads instead.
        let groups = acc.reads.chunks(READ_GROUP);
        report.latency("read_p50_us", &groups, 0.5)?;
        report.latency("read_p99_us", &groups, 0.99)?;
        return Ok(());
    }

    let tracer = &acc.tracer;
    for (kind, tag) in KINDS.into_iter().enumerate() {
        let traced = tracer.durations("core.apply", tag).median()?;
        report.metric(format!("core.maintain_us.{tag}"), traced, "us");
        report.metric(
            format!("trace_overhead_us.{tag}"),
            traced - acc.untraced[kind].median()?,
            "us",
        );
        report.metric(
            format!("engine.base_{tag}_us"),
            tracer.durations(ENGINE_SPANS[kind], "base").median()?,
            "us",
        );
        report.metric(
            format!("unattributed_us.{tag}"),
            tracer.unattributed_us("core.apply", tag)?,
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
        tracer.unattributed_us("serve.read", "read")?,
        "us",
    );
    layers::report_core(report, &[("ar", acc.counted)], acc.counted.delta_rows);
    layers::report_net(report, &[acc.counted], acc.counted.delta_rows);
    report.metric(
        "net.rows_per_message",
        layers::mean(metric::BATCH_ROWS_PER_MSG, acc.rows_per_msg)?,
        "rows",
    );
    report.metric("engine.step_noop_us", acc.step_noop_us.median()?, "us");
    acc.counters.report(report, (acc.rounds * 2 * BATCH) as f64);
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
    use crate::gen::row3;

    fn rows(d: &Delta) -> Vec<Row> {
        match d {
            Delta::Insert(r) | Delta::Delete(r) => r.clone(),
            Delta::Update { .. } => unreachable!(),
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let [ins, del] = round(9, 4);
        let [ins2, del2] = round(9, 4);
        assert_eq!((rows(&ins), rows(&del)), (rows(&ins2), rows(&del2)));
        assert_ne!(rows(&ins), rows(&round(10, 4)[0]));
        assert!(matches!((&ins, &del), (Delta::Insert(_), Delta::Delete(_))));
        // Each round deletes exactly what the previous one inserted.
        assert_eq!(rows(&round(9, 5)[1]), rows(&ins));
    }

    #[test]
    fn live_rows_follow_the_epochs() {
        assert_eq!(live_at(3, 1), batch_rows(3, 0));
        let mut both = live_at(3, 4);
        both.sort();
        let mut want = [batch_rows(3, 1), batch_rows(3, 2)].concat();
        want.sort();
        assert_eq!(both, want);
        assert_eq!(live_at(3, 5), batch_rows(3, 2));
    }

    #[test]
    fn expected_reads_follow_the_schedule() {
        let live = batch_rows(1, 0);
        let join = |r: &Row| r.get(KEY_COL).and_then(Value::as_int).unwrap();
        let key = join(&live[0]);
        let b = vec![row3(0, key, "x".into()), row3(1, key, "y".into())];
        let by_key = HashMap::from([(key, b.clone())]);
        // Epoch 1 reads the rows of batch 0, joined with b.
        let got = expected(1, 1, key, &by_key);
        let hits = live.iter().filter(|r| join(r) == key).count();
        assert_eq!(got.len(), 2 * hits);
        assert!(got.contains(&live[0].concat(&b[0])));
        // Epoch 2 still holds batch 0; epoch 3 has deleted it.
        assert!(expected(1, 2, key, &by_key).contains(&live[0].concat(&b[0])));
        assert!(!expected(1, 3, key, &by_key).contains(&live[0].concat(&b[0])));
        assert!(expected(1, 1, key, &HashMap::new()).is_empty());
    }
}
