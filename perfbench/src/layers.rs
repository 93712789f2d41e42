//! Readings taken from outside the program: counters it already exposes,
//! and timed calls into public functions of single layers.

use std::time::Instant;

use pvm::engine::{hash_value, PartitionSpec};
use pvm::obs::HistogramSnapshot;
use pvm::prelude::{Backend, Cluster, CostSnapshot, MaintenanceOutcome, Row, TableId, Value};
use pvm::types::NodeId;

use crate::stats::{Report, Samples};

/// Shorthand for the benchmark's error type.
pub type Res<T> = Result<T, String>;

/// Convert any displayable error (mostly `PvmError`) into the benchmark's.
pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Pages of every table (base, AR, GI, view) over pages of `base`.
pub fn space_amp(cluster: &Cluster, base: &[TableId]) -> Res<f64> {
    let mut all = 0;
    for id in cluster.catalog().ids() {
        all += cluster.total_pages(id).map_err(err)?;
    }
    let mut b = 0;
    for &id in base {
        b += cluster.total_pages(id).map_err(err)?;
    }
    Ok(all as f64 / b.max(1) as f64)
}

/// Cluster-wide counters: abstract operations and page I/O summed over
/// nodes, plus buffer-pool hits and misses.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub ops: CostSnapshot,
    pub hits: u64,
    pub misses: u64,
}

impl Counters {
    pub fn read(cluster: &Cluster) -> Counters {
        let mut c = Counters::default();
        for s in cluster.node_snapshots() {
            c.ops += s;
        }
        for n in cluster.nodes() {
            let pool = n.buffer().lock();
            c.hits += pool.hits();
            c.misses += pool.misses();
        }
        c
    }

    pub fn add(&mut self, other: &Counters) {
        self.ops += other.ops;
        self.hits += other.hits;
        self.misses += other.misses;
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            ops: self.ops - before.ops,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
        }
    }

    /// Emit the per-row engine and storage counts over `rows` changed rows.
    pub fn report(&self, report: &mut Report, rows: f64) {
        let per_row = |n: u64| n as f64 / rows.max(1.0);
        report.metric(
            "engine.searches_per_row",
            per_row(self.ops.searches),
            "count",
        );
        report.metric("engine.fetches_per_row", per_row(self.ops.fetches), "count");
        report.metric("engine.inserts_per_row", per_row(self.ops.inserts), "count");
        report.metric(
            "storage.page_reads_per_row",
            per_row(self.ops.page_reads),
            "count",
        );
        report.metric(
            "storage.page_writes_per_row",
            per_row(self.ops.page_writes),
            "count",
        );
        let touched = (self.hits + self.misses).max(1);
        report.metric(
            "storage.buffer_hit_rate",
            self.hits as f64 / touched as f64,
            "ratio",
        );
    }
}

/// Counted maintenance costs summed over outcomes, per method.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counted {
    pub delta_rows: u64,
    pub tw_io: f64,
    pub view_rows: u64,
    pub searches: u64,
    pub sends: u64,
    pub bytes: u64,
}

impl Counted {
    pub fn add(&mut self, out: &MaintenanceOutcome) {
        self.tw_io += out.tw_io();
        self.view_rows += out.view_rows;
        self.searches += out.aux.total().searches + out.compute.total().searches;
        self.sends += out.sends();
        self.bytes += [&out.base, &out.aux, &out.compute, &out.view]
            .iter()
            .map(|r| r.net.bytes_sent)
            .sum::<u64>();
    }

    pub fn merge(&mut self, o: &Counted) {
        self.delta_rows += o.delta_rows;
        self.tw_io += o.tw_io;
        self.view_rows += o.view_rows;
        self.searches += o.searches;
        self.sends += o.sends;
        self.bytes += o.bytes;
    }
}

/// `core.tw_io_per_row` (TW I/Os over `delta_rows`, summed over the views
/// each delta maintains) and `core.view_rows_per_search`, over every
/// label of `all`; each label's own figures go out as notes.
pub fn report_core(report: &mut Report, all: &[(&str, Counted)], delta_rows: u64) {
    let (mut tw_io, mut view_rows, mut searches) = (0.0, 0, 0);
    for (label, c) in all {
        report.note(
            &format!("core.tw_io_per_row.{label}"),
            c.tw_io / c.delta_rows.max(1) as f64,
            "io",
        );
        report.note(
            &format!("core.view_rows_per_search.{label}"),
            c.view_rows as f64 / c.searches.max(1) as f64,
            "ratio",
        );
        tw_io += c.tw_io;
        view_rows += c.view_rows;
        searches += c.searches;
    }
    report.metric("core.tw_io_per_row", tw_io / delta_rows.max(1) as f64, "io");
    report.metric(
        "core.view_rows_per_search",
        view_rows as f64 / searches.max(1) as f64,
        "ratio",
    );
}

/// `net.sends_per_row` and `net.bytes_per_row` over every method.
pub fn report_net(report: &mut Report, all: &[Counted], delta_rows: u64) {
    let rows = delta_rows.max(1) as f64;
    let sends: u64 = all.iter().map(|c| c.sends).sum();
    let bytes: u64 = all.iter().map(|c| c.bytes).sum();
    report.metric("net.sends_per_row", sends as f64 / rows, "count");
    report.metric("net.bytes_per_row", bytes as f64 / rows, "bytes");
}

/// Write kinds, in the order every workload keeps them.
pub const KINDS: [&str; 2] = ["insert", "delete"];
/// The engine call that replays each kind on a twin with no views.
pub const ENGINE_SPANS: [&str; 2] = ["engine.insert", "engine.delete"];

/// A histogram's `(sum, count)`, accumulated over episodes.
pub type Mean = (u64, u64);

pub fn add_histogram(acc: &mut Mean, cluster: &Cluster, name: &str) {
    if let Some(h) = histogram(cluster, name) {
        acc.0 += h.sum;
        acc.1 += h.total;
    }
}

pub fn mean(name: &str, (sum, total): Mean) -> Res<f64> {
    if total == 0 {
        return Err(format!("no {name} samples"));
    }
    Ok(sum as f64 / total as f64)
}

/// A histogram from the cluster's metrics registry, if it was observed.
pub fn histogram(cluster: &Cluster, name: &str) -> Option<HistogramSnapshot> {
    cluster
        .obs_handle()
        .metrics()
        .histograms()
        .into_iter()
        .find(|(n, h)| n == name && h.total > 0)
        .map(|(_, h)| h)
}

/// A counter from the cluster's metrics registry (0 if never touched).
pub fn counter(cluster: &Cluster, name: &str) -> u64 {
    cluster
        .obs_handle()
        .metrics()
        .counters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// Median µs of `Backend::step` with a closure that does nothing.
pub fn step_noop_us<B: Backend>(backend: &mut B, steps: usize) -> Res<f64> {
    let mut s = Samples::default();
    for _ in 0..steps {
        let t0 = Instant::now();
        let out = backend.step(|_ctx| Ok(())).map_err(err)?;
        let dt = t0.elapsed();
        drop(out);
        s.push(dt.as_secs_f64() * 1e6);
    }
    s.median()
}

/// Time `NodeState::index_search` on each hash-clustered table of
/// `tables`, probing `keys` at their home nodes.
pub fn probe_us(cluster: &mut Cluster, tables: &[TableId], keys: &[Value]) -> Res<Samples> {
    let l = cluster.node_count() as u64;
    let mut s = Samples::default();
    for &t in tables {
        let PartitionSpec::Hash { column } = cluster.def(t).map_err(err)?.partitioning else {
            continue;
        };
        for key in keys {
            let node = NodeId::from((hash_value(key) % l) as usize);
            let probe = Row::new(vec![key.clone()]);
            let n = cluster.node_mut(node).map_err(err)?;
            let t0 = Instant::now();
            let rows = n.index_search(t, &[column], &probe).map_err(err)?;
            let dt = t0.elapsed();
            drop(rows);
            s.push(dt.as_secs_f64() * 1e6);
        }
    }
    Ok(s)
}

/// `storage.heap_pages.a` and `storage.live_rows.a` over the delta-side
/// base tables.
pub fn report_delta_table(report: &mut Report, cluster: &Cluster, tables: &[TableId]) -> Res<()> {
    let (mut pages, mut rows) = (0, 0);
    for &t in tables {
        pages += cluster.heap_pages(t).map_err(err)?;
        rows += cluster.row_count(t).map_err(err)?;
    }
    report.metric("storage.heap_pages.a", pages as f64, "pages");
    report.metric("storage.live_rows.a", rows as f64, "rows");
    Ok(())
}

/// Seconds since `t0`, as a float.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Microseconds between two instants.
pub fn us(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e6
}
