//! `point_sql`: one client runs a closed loop of single-row `INSERT` and
//! `DELETE` statements through `Session::execute_one` on the sequential
//! backend with L = 8, with a point `SELECT` on a view after every
//! `READ_EVERY` writes. The statements rotate over three tenants, each a
//! pair `a_m ⋈ b_m` maintained by one method: naive, auxiliary relation
//! (AR) and global index (GI). The AR tenant carries a second view with
//! the same join signature, so the session pools the pair into one
//! probe-once group that `maintain_catalog` runs. The data is about four
//! times the buffer pool, so the pool's miss path is exercised.
//!
//! The traced run replays every statement one layer down on twins built
//! from the same seed: `pvm_sql::parser::parse` on the statement text,
//! `maintain_catalog` on a direct-API twin with the same views, and
//! `Cluster::insert` / `Cluster::delete` on a twin with no views. Reads
//! replay as a snapshot and a lookup on the twin's serving tier.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pvm::engine::PartitionSpec;
use pvm::obs::metric;
use pvm::prelude::*;
use pvm::sql::parser::parse;

use std::collections::HashMap;

use crate::gen::{by_join_value, mix, row3, schema, table_rows, Rng};
use crate::layers::{self, err, us, Counted, Counters, Mean, Res, KINDS};
use crate::stats::{Report, Samples, READ_GROUP};
use crate::trace::Tracer;
use crate::Args;

const L: usize = 8;
const BUFFER_PAGES: usize = 32;
const B_ROWS: u64 = 20_000;
/// Distinct join values: each `a` row joins about `B_ROWS / DOMAIN` rows.
const DOMAIN: u64 = 2_000;
/// Live `a` rows per tenant; the stream keeps each within `LIVE ± SLACK`.
const LIVE: usize = 200;
const SLACK: usize = 20;
const LOAD_CHUNK: usize = 500;
const WARMUP_OPS: usize = 3_000;
/// Measured writes per episode.
const EPISODE_OPS: u64 = 8_000;
/// Writes between two reads: an episode reads 2,000 times.
const READ_EVERY: u64 = 4;
/// Episodes a run makes at least, so `setup_s` is a median of several.
const SETUPS: usize = 3;
/// Traced run: statements per block; blocks alternate untraced/traced.
const BLOCK: u64 = 60;
/// Session-style lineage ring, mirrored on the twins so the obs gate
/// matches the session's.
const LINEAGE_CAPACITY: usize = 4096;

/// One view of a tenant, as its `CREATE VIEW` spells it.
struct ViewSpec {
    name: &'static str,
    select: &'static str,
    /// The `PARTITION ON` column, if not the first projected one.
    partition_on: Option<&'static str>,
}

/// One tenant `a_m ⋈ b_m` and the views that maintain it.
struct Tenant {
    label: &'static str,
    method: MaintenanceMethod,
    /// The method as `CREATE VIEW … USING` spells it.
    using: &'static str,
    views: &'static [ViewSpec],
}

const FULL: &str = "x.id, x.c, x.p, y.id, y.q";

const TENANTS: [Tenant; 3] = [
    Tenant {
        label: "naive",
        method: MaintenanceMethod::Naive,
        using: "NAIVE",
        views: &[ViewSpec {
            name: "v_naive",
            select: FULL,
            partition_on: None,
        }],
    },
    Tenant {
        label: "ar",
        method: MaintenanceMethod::AuxiliaryRelation,
        using: "AUXILIARY RELATION",
        views: &[
            ViewSpec {
                name: "v_ar",
                select: FULL,
                partition_on: None,
            },
            // Same join signature, other projection: the session pools
            // the two into one probe-once group.
            ViewSpec {
                name: "v_ar2",
                select: "x.id, y.id, y.q",
                partition_on: Some("y.id"),
            },
        ],
    },
    Tenant {
        label: "gi",
        method: MaintenanceMethod::GlobalIndex,
        using: "GLOBAL INDEX",
        views: &[ViewSpec {
            name: "v_gi",
            select: FULL,
            partition_on: None,
        }],
    },
];

/// Index of the AR tenant, whose views share one group.
const AR_TENANT: usize = 1;

/// One generated statement and the row it touches.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub tenant: usize,
    pub insert: bool,
    pub row: Row,
    pub sql: String,
}

/// One generated point read: every row of a tenant's first view whose
/// join value is `key`.
#[derive(Debug, Clone, PartialEq)]
pub struct Read {
    pub tenant: usize,
    pub key: i64,
    pub sql: String,
}

/// The statement stream: a pure function of the seed.
pub struct OpStream {
    rng: Rng,
    read_rng: Rng,
    live: [Vec<Row>; 3],
    next_id: i64,
    issued: u64,
    reads: u64,
}

impl OpStream {
    /// The stream and the `a` rows each tenant starts with.
    pub fn new(seed: u64) -> (OpStream, [Vec<Row>; 3]) {
        let mut rng = Rng::stream(seed, 1);
        let live: [Vec<Row>; 3] = std::array::from_fn(|_| {
            (0..LIVE)
                .map(|i| row3(i as i64, rng.below(DOMAIN) as i64, rng.payload()))
                .collect()
        });
        let initial = live.clone();
        let stream = OpStream {
            rng,
            read_rng: Rng::stream(seed, 3),
            live,
            next_id: LIVE as i64,
            issued: 0,
            reads: 0,
        };
        (stream, initial)
    }

    pub fn next_op(&mut self) -> Op {
        let tenant = (self.issued % 3) as usize;
        self.issued += 1;
        let live = &mut self.live[tenant];
        let insert = if live.len() <= LIVE - SLACK {
            true
        } else if live.len() >= LIVE + SLACK {
            false
        } else {
            self.rng.below(2) == 0
        };
        if insert {
            let (id, c, p) = (self.next_id, self.rng.below(DOMAIN), self.rng.payload());
            self.next_id += 1;
            let row = row3(id, c as i64, p.clone());
            live.push(row.clone());
            let sql = format!("INSERT INTO a_{tenant} VALUES ({id}, {c}, '{p}')");
            Op {
                tenant,
                insert,
                row,
                sql,
            }
        } else {
            let row = live.swap_remove(self.rng.below(live.len() as u64) as usize);
            let sql = format!("DELETE FROM a_{tenant} WHERE id = {}", int(&row, 0));
            Op {
                tenant,
                insert,
                row,
                sql,
            }
        }
    }

    /// A read of the join value of a row live now, so most reads return
    /// rows. Reads draw from their own generator and leave the writes
    /// unchanged.
    pub fn next_read(&mut self) -> Read {
        let tenant = (self.reads % 3) as usize;
        self.reads += 1;
        let live = &self.live[tenant];
        let key = int(&live[self.read_rng.below(live.len() as u64) as usize], 1);
        let view = TENANTS[tenant].views[0].name;
        Read {
            tenant,
            key,
            sql: format!("SELECT * FROM {view} WHERE c = {key}"),
        }
    }

    /// What `read` must return now: the tenant's live `a` rows of its key
    /// joined with the `b` rows of the key, as the view projects them
    /// (`x.id, x.c, x.p, y.id, y.q`), sorted.
    pub fn expected(&self, read: &Read, b_by_key: &[HashMap<i64, Vec<Row>>; 3]) -> Vec<Row> {
        let bs = b_by_key[read.tenant]
            .get(&read.key)
            .map_or(&[][..], Vec::as_slice);
        let mut rows: Vec<Row> = self.live[read.tenant]
            .iter()
            .filter(|a| int(a, 1) == read.key)
            .flat_map(|a| {
                bs.iter().map(move |b| {
                    let v = |r: &Row, c: usize| r.get(c).cloned().unwrap_or(Value::Null);
                    Row::new(vec![v(a, 0), v(a, 1), v(a, 2), v(b, 0), v(b, 2)])
                })
            })
            .collect();
        rows.sort();
        rows
    }

    fn live(&self, tenant: usize) -> usize {
        self.live[tenant].len()
    }
}

fn int(row: &Row, col: usize) -> i64 {
    row.get(col).and_then(Value::as_int).unwrap_or(i64::MIN)
}

/// `b` rows of every tenant.
fn b_rows(seed: u64) -> [Vec<Row>; 3] {
    std::array::from_fn(|t| table_rows(seed, 100 + t as u64, B_ROWS, DOMAIN))
}

/// `b` rows of every tenant by join value.
fn by_key(b: &[Vec<Row>; 3]) -> [HashMap<i64, Vec<Row>>; 3] {
    std::array::from_fn(|t| by_join_value(&b[t]))
}

fn values_sql(rows: &[Row]) -> String {
    rows.iter()
        .map(|r| {
            let v: Vec<String> = r.values().iter().map(Value::to_string).collect();
            format!("({})", v.join(", "))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Every set-up statement, built before any clock starts.
fn setup_sql(a: &[Vec<Row>; 3], b: &[Vec<Row>; 3]) -> Vec<String> {
    let mut out = Vec::new();
    for t in 0..3 {
        out.push(format!(
            "CREATE TABLE a_{t} (id INT, c INT, p STR) PARTITION BY HASH(id)"
        ));
        out.push(format!(
            "CREATE TABLE b_{t} (id INT, d INT, q STR) PARTITION BY HASH(id)"
        ));
        for chunk in b[t].chunks(LOAD_CHUNK) {
            out.push(format!("INSERT INTO b_{t} VALUES {}", values_sql(chunk)));
        }
        out.push(format!("INSERT INTO a_{t} VALUES {}", values_sql(&a[t])));
    }
    for (t, tenant) in TENANTS.iter().enumerate() {
        for v in tenant.views {
            let partition = v
                .partition_on
                .map_or(String::new(), |c| format!(" PARTITION ON {c}"));
            out.push(format!(
                "CREATE VIEW {} USING {} AS SELECT {} \
                 FROM a_{t} x, b_{t} y WHERE x.c = y.d{partition}",
                v.name, tenant.using, v.select
            ));
        }
    }
    out
}

fn setup(sql: &[String]) -> Res<Session> {
    let mut s = Session::new(ClusterConfig::new(L).with_buffer_pages(BUFFER_PAGES));
    for stmt in sql {
        let out = s.execute_one(stmt).map_err(err)?;
        drop(out);
    }
    Ok(s)
}

/// The same tables and views built through the direct API, plus a
/// second cluster holding only the base tables.
struct Twin {
    cluster: Cluster,
    views: Vec<MaintainedView>,
    /// Tenant of each view, parallel to `views`.
    view_tenant: Vec<usize>,
    catalog: SharedCatalog,
    bare: Cluster,
    bare_a: [TableId; 3],
    counted: [Counted; 3],
}

fn base_cluster(a: &[Vec<Row>; 3], b: &[Vec<Row>; 3]) -> Res<(Cluster, [TableId; 3])> {
    let mut cluster = Cluster::new(ClusterConfig::new(L).with_buffer_pages(BUFFER_PAGES));
    cluster.set_trace_sink(Arc::new(RingSink::new(LINEAGE_CAPACITY)));
    let mut a_ids = [TableId(0); 3];
    for t in 0..3 {
        let table =
            |name: String, s| TableDef::new(name, s, PartitionSpec::hash(0), Organization::Heap);
        a_ids[t] = cluster
            .create_table(table(format!("a_{t}"), schema(["id", "c", "p"])))
            .map_err(err)?;
        let b_id = cluster
            .create_table(table(format!("b_{t}"), schema(["id", "d", "q"])))
            .map_err(err)?;
        cluster.insert(b_id, b[t].clone()).map_err(err)?;
        cluster.insert(a_ids[t], a[t].clone()).map_err(err)?;
    }
    Ok((cluster, a_ids))
}

/// The definition the session binds for view `v` of tenant `t`.
fn view_def(t: usize, v: &ViewSpec) -> JoinViewDef {
    let col = |c: &str| match c {
        "x.id" => ViewColumn::new(0, 0),
        "x.c" => ViewColumn::new(0, 1),
        "x.p" => ViewColumn::new(0, 2),
        "y.id" => ViewColumn::new(1, 0),
        "y.q" => ViewColumn::new(1, 2),
        other => unreachable!("column {other} is not in any generated select list"),
    };
    let projection: Vec<ViewColumn> = v.select.split(", ").map(col).collect();
    let partition_column = match v.partition_on {
        Some(c) => projection
            .iter()
            .position(|p| *p == col(c))
            .expect("partition column is projected"),
        None => 0,
    };
    JoinViewDef {
        name: v.name.to_string(),
        relations: vec![format!("a_{t}"), format!("b_{t}")],
        edges: vec![ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1))],
        projection,
        partition_column,
    }
}

impl Twin {
    fn build(a: &[Vec<Row>; 3], b: &[Vec<Row>; 3]) -> Res<Twin> {
        let (mut cluster, _) = base_cluster(a, b)?;
        let (bare, bare_a) = base_cluster(a, b)?;
        let mut views = Vec::new();
        let mut view_tenant = Vec::new();
        let mut catalog = SharedCatalog::new();
        for (t, tenant) in TENANTS.iter().enumerate() {
            let first = views.len();
            for spec in tenant.views {
                let def = view_def(t, spec);
                let mut v =
                    MaintainedView::create(&mut cluster, def, tenant.method).map_err(err)?;
                v.enable_serving(&cluster).map_err(err)?;
                views.push(v);
                view_tenant.push(t);
            }
            // The session pools a tenant's views once a second view with
            // the same signature arrives; mirror that.
            if views.len() - first > 1 {
                for v in &views[first..] {
                    catalog.ars.enroll(&mut cluster, v.def()).map_err(err)?;
                }
                for v in &mut views[first..] {
                    v.adopt_ar_pool(&mut cluster, &catalog.ars).map_err(err)?;
                    v.set_shared_group(Some(0));
                }
            }
        }
        Ok(Twin {
            cluster,
            views,
            view_tenant,
            catalog,
            bare,
            bare_a,
            counted: Default::default(),
        })
    }

    /// Replay `op` on both twins; with `span`, record the replays as
    /// children of the statement's root span. Returns the µs
    /// `maintain_catalog` took.
    fn replay(&mut self, op: &Op, span: Option<(&mut Tracer, usize, u64)>) -> Res<f64> {
        let table = format!("a_{}", op.tenant);
        let delta = if op.insert {
            Delta::Insert(vec![op.row.clone()])
        } else {
            Delta::Delete(vec![op.row.clone()])
        };
        let bare_rows = vec![op.row.clone()];
        let mut refs: Vec<&mut MaintainedView> = self.views.iter_mut().collect();
        let c0 = Instant::now();
        let outs = maintain_catalog(&mut self.cluster, &self.catalog, &mut refs, &table, &delta);
        let c1 = Instant::now();
        let outs = outs.map_err(err)?;
        let e0 = Instant::now();
        let n = if op.insert {
            self.bare
                .insert(self.bare_a[op.tenant], bare_rows)
                .map(|p| p.len())
        } else {
            self.bare.delete(self.bare_a[op.tenant], &bare_rows, &[])
        };
        let e1 = Instant::now();
        if n.map_err(err)? != 1 {
            return Err(format!("bare twin: '{}' touched no row", op.sql));
        }
        let counted = &mut self.counted[op.tenant];
        counted.delta_rows += 1;
        for (i, out) in outs.iter().enumerate() {
            if self.view_tenant[i] == op.tenant {
                counted.add(out);
            }
        }
        drop(outs);
        if let Some((tracer, root, id)) = span {
            let method = TENANTS[op.tenant].label;
            let core = tracer.reserve();
            let name = if op.insert {
                "engine.insert"
            } else {
                "engine.delete"
            };
            tracer.leaf(core, id, name, "base", true, e0, e1);
            tracer.record(
                core,
                Some(root),
                id,
                "core.maintain_catalog",
                method,
                true,
                c0,
                c1,
            );
        }
        Ok(us(c0, c1))
    }

    /// Replay `read` as a snapshot and a lookup on the serving tier of
    /// the tenant's first view. Returns the clock readings and the rows.
    fn read(&self, read: &Read) -> Res<(Instant, Instant, Instant, Vec<Row>)> {
        let v = self
            .view_tenant
            .iter()
            .position(|&t| t == read.tenant)
            .expect("every tenant has a view");
        let reader = self.views[v]
            .serve_reader()
            .ok_or("the twin's view serves no snapshots")?;
        let key = Value::Int(read.key);
        let s0 = Instant::now();
        let snap = reader.snapshot();
        let s1 = Instant::now();
        let rows = snap.lookup(1, &key);
        let s2 = Instant::now();
        drop(snap);
        Ok((s0, s1, s2, rows))
    }

    /// The twin's views must pass their own check and equal the
    /// session's.
    fn check(&self, session: &Session) -> Vec<Option<String>> {
        self.views
            .iter()
            .map(|v| {
                let name = &v.def().name;
                v.check_consistent(&self.cluster)
                    .map_err(|e| format!("twin view {name}: {e}"))
                    .and_then(|()| {
                        let mut ours = v.contents(&self.cluster).map_err(err)?;
                        let sv = session
                            .view(name)
                            .ok_or(format!("no session view {name}"))?;
                        let mut theirs = sv.contents(session.cluster()).map_err(err)?;
                        ours.sort();
                        theirs.sort();
                        if ours == theirs {
                            Ok(())
                        } else {
                            Err(format!("twin view {name} differs from the session's"))
                        }
                    })
                    .err()
            })
            .collect()
    }
}

/// Run one statement; a wrong status line counts as a failure. Returns
/// when the call started and ended.
fn execute(session: &mut Session, op: &Op) -> (Instant, Instant, Option<String>) {
    let t0 = Instant::now();
    let out = session.execute_one(&op.sql);
    let t1 = Instant::now();
    let want = if op.insert {
        "inserted 1 rows"
    } else {
        "deleted 1 rows"
    };
    let err = match &out {
        Ok(o) if o.message.starts_with(want) => None,
        Ok(o) => Some(format!("'{}' answered '{}'", op.sql, o.message)),
        Err(e) => Some(format!("'{}' failed: {e}", op.sql)),
    };
    drop(out);
    (t0, t1, err)
}

/// Run one point read. Returns when the call started and ended, and the
/// rows it returned, sorted.
fn select(session: &mut Session, read: &Read) -> (Instant, Instant, Res<Vec<Row>>) {
    let t0 = Instant::now();
    let out = session.execute_one(&read.sql);
    let t1 = Instant::now();
    let rows = match out {
        Ok(o) => o
            .rows
            .map(|(_, mut rows)| {
                rows.sort();
                rows
            })
            .ok_or(format!("'{}' returned no rows", read.sql)),
        Err(e) => Err(format!("'{}' failed: {e}", read.sql)),
    };
    (t0, t1, rows)
}

fn tables(session: &Session, prefix: &str) -> Res<[TableId; 3]> {
    let mut ids = [TableId(0); 3];
    for (t, id) in ids.iter_mut().enumerate() {
        *id = session
            .cluster()
            .table_id(&format!("{prefix}_{t}"))
            .map_err(err)?;
    }
    Ok(ids)
}

/// `CHECK VIEW` on every view, and each tenant's live row count.
fn check_session(session: &mut Session, stream: &OpStream, report: &mut Report) -> Res<()> {
    for v in TENANTS.iter().flat_map(|t| t.views) {
        let out = session.execute_one(&format!("CHECK VIEW {}", v.name));
        report.op(out.err().map(|e| format!("CHECK VIEW {}: {e}", v.name)));
    }
    let a = tables(session, "a")?;
    for (t, id) in a.iter().enumerate() {
        let rows = session.cluster().row_count(*id).map_err(err)? as usize;
        let want = stream.live(t);
        report.op((rows != want).then(|| format!("a_{t} holds {rows} rows, expected {want}")));
    }
    Ok(())
}

/// Everything measured across a run's episodes.
#[derive(Default)]
struct Acc {
    setup_s: Samples,
    /// Statement latency by kind (insert, delete), one group per episode.
    lat: [Vec<Samples>; 2],
    /// Rows per second of statement time by kind, one value per episode.
    rate: [Samples; 2],
    /// Read latency, one group per episode.
    reads: Vec<Samples>,
    /// Traced run: statements of untraced blocks, by kind.
    untraced: [Samples; 2],
    /// `execute_one` minus the twin's replays, by kind (insert, delete,
    /// read).
    sql_self: [Samples; 3],
    /// The twin's `maintain_catalog`, by kind.
    core_us: [Samples; 2],
    chain_len: (usize, usize),
    parse_us: Samples,
    step_noop_us: Samples,
    probe_us: Samples,
    tracer: Tracer,
    counted: [Counted; 3],
    counters: Counters,
    /// Registry `(tw_milli_io, delta_rows)` per tenant.
    tw: [(u64, u64); 3],
    probes_saved: u64,
    ar_ops: u64,
    rows_per_msg: Mean,
    stmts: u64,
    measured: Duration,
    space_amp: Option<f64>,
    delta_table: Option<(Session, [TableId; 3])>,
}

/// One episode: a fresh set-up, a warm-up, then `EPISODE_OPS` measured
/// statements. Every episode has the same history length, so delete
/// costs, which grow with insert/delete churn, are measured over the
/// same window however fast the program runs.
fn episode(args: &Args, seed: u64, acc: &mut Acc, report: &mut Report) -> Res<()> {
    let (mut stream, a0) = OpStream::new(seed);
    let b = b_rows(seed);
    let sql = setup_sql(&a0, &b);
    let b_by_key = by_key(&b);
    let t0 = Instant::now();
    let mut session = setup(&sql)?;
    acc.setup_s.push(layers::secs(t0));
    drop(sql);
    let mut twin = if args.trace {
        Some(Twin::build(&a0, &b)?)
    } else {
        None
    };
    drop(b);
    let grouped = session
        .view("v_ar2")
        .and_then(MaintainedView::shared_group)
        .is_some();
    report.op((!grouped).then(|| "v_ar and v_ar2 did not form a shared group".to_string()));

    for _ in 0..WARMUP_OPS {
        let op = stream.next_op();
        let (_, _, e) = execute(&mut session, &op);
        report.op(e);
        if let Some(t) = twin.as_mut() {
            t.replay(&op, None)?;
        }
    }
    if let Some(t) = twin.as_mut() {
        t.counted = Default::default();
    }

    // (tenant, view, whether it is the tenant's first view)
    let views: Vec<(usize, &str, bool)> = TENANTS
        .iter()
        .enumerate()
        .flat_map(|(t, tenant)| {
            tenant
                .views
                .iter()
                .enumerate()
                .map(move |(i, v)| (t, v.name, i == 0))
        })
        .collect();
    let tw_before: Vec<(u64, u64)> = views
        .iter()
        .map(|(_, v, _)| view_counters(session.cluster(), v))
        .collect();
    let saved_before = layers::counter(session.cluster(), metric::SHARE_PROBES_SAVED);
    let before = Counters::read(session.cluster());
    let mut backlog: Vec<Op> = Vec::new();
    let mut lat = [Samples::default(), Samples::default()];
    let mut reads = Samples::default();
    let loop_start = Instant::now();
    for i in 0..EPISODE_OPS {
        let op = stream.next_op();
        let id = acc.stmts;
        acc.stmts += 1;
        let traced = args.trace && (i / BLOCK) % 2 == 1 && !acc.tracer.full();
        let root = traced.then(|| acc.tracer.reserve());
        let (t0, t1, e) = execute(&mut session, &op);
        report.op(e);
        let kind = usize::from(!op.insert);
        let tag = KINDS[kind];
        lat[kind].push(us(t0, t1));
        acc.ar_ops += u64::from(op.tenant == AR_TENANT);
        if let Some(tw) = twin.as_mut() {
            match root {
                None => {
                    acc.untraced[kind].push(us(t0, t1));
                    backlog.push(op);
                }
                Some(root) => {
                    for old in backlog.drain(..) {
                        tw.replay(&old, None)?;
                    }
                    let p0 = Instant::now();
                    let parsed = parse(&op.sql);
                    let p1 = Instant::now();
                    drop(parsed);
                    acc.tracer.leaf(root, id, "sql.parse", tag, true, p0, p1);
                    acc.parse_us.push(us(p0, p1));
                    let core = tw.replay(&op, Some((&mut acc.tracer, root, id)))?;
                    acc.tracer
                        .record(root, None, id, "sql.execute_one", tag, false, t0, t1);
                    acc.sql_self[kind].push(us(t0, t1) - core);
                    acc.core_us[kind].push(core);
                }
            }
        }
        if i % READ_EVERY != READ_EVERY - 1 {
            continue;
        }

        let read = stream.next_read();
        let id = acc.stmts;
        acc.stmts += 1;
        let root = traced.then(|| acc.tracer.reserve());
        let (t0, t1, rows) = select(&mut session, &read);
        reads.push(us(t0, t1));
        let want = stream.expected(&read, &b_by_key);
        let check = rows.and_then(|rows| {
            (rows == want)
                .then_some(())
                .ok_or(format!("'{}' returned other rows", read.sql))
        });
        report.op(check.err());
        let (Some(tw), Some(root)) = (twin.as_mut(), root) else {
            continue;
        };
        if let Some(reader) = session
            .view(TENANTS[read.tenant].views[0].name)
            .and_then(MaintainedView::serve_reader)
        {
            acc.chain_len.0 += reader.chain_len();
            acc.chain_len.1 += 1;
        }
        for old in backlog.drain(..) {
            tw.replay(&old, None)?;
        }
        let (s0, s1, s2, mut twin_rows) = tw.read(&read)?;
        twin_rows.sort();
        report.op((twin_rows != want).then(|| format!("twin lookup for '{}' diverged", read.sql)));
        acc.tracer
            .leaf(root, id, "serve.snapshot", "read", true, s0, s1);
        acc.tracer
            .leaf(root, id, "serve.lookup", "read", true, s1, s2);
        acc.tracer
            .record(root, None, id, "sql.execute_one", "read", false, t0, t1);
        acc.sql_self[2].push(us(t0, t1) - us(s0, s2));
    }
    acc.measured += loop_start.elapsed();
    for (kind, episode) in lat.into_iter().enumerate() {
        acc.rate[kind].push(episode.len() as f64 / (episode.sum() / 1e6));
        acc.lat[kind].push(episode);
    }
    acc.reads.push(reads);
    acc.counters
        .add(&Counters::read(session.cluster()).since(&before));
    for ((t, v, first), (m0, r0)) in views.iter().zip(&tw_before) {
        let (m, r) = view_counters(session.cluster(), v);
        acc.tw[*t].0 += m - m0;
        // Every view of a tenant counts the same delta rows.
        if *first {
            acc.tw[*t].1 += r - r0;
        }
    }
    acc.probes_saved +=
        layers::counter(session.cluster(), metric::SHARE_PROBES_SAVED) - saved_before;
    layers::add_histogram(
        &mut acc.rows_per_msg,
        session.cluster(),
        metric::BATCH_ROWS_PER_MSG,
    );

    check_session(&mut session, &stream, report)?;
    if let Some(tw) = twin.as_mut() {
        for old in backlog.drain(..) {
            tw.replay(&old, None)?;
        }
        for problem in tw.check(&session) {
            report.op(problem);
        }
        for (sum, c) in acc.counted.iter_mut().zip(&tw.counted) {
            sum.merge(c);
        }
        acc.step_noop_us
            .push(layers::step_noop_us(&mut tw.cluster, 500)?);
        let mut rng = Rng::stream(seed, 2);
        let keys: Vec<Value> = (0..100)
            .map(|_| Value::Int(rng.below(DOMAIN) as i64))
            .collect();
        let mut method_tables: Vec<TableId> = tw
            .views
            .iter()
            .flat_map(MaintainedView::method_tables)
            .collect();
        method_tables.sort();
        method_tables.dedup();
        acc.probe_us
            .extend(&layers::probe_us(&mut tw.cluster, &method_tables, &keys)?);
    }
    let a = tables(&session, "a")?;
    if acc.space_amp.is_none() {
        let b = tables(&session, "b")?;
        let base: Vec<TableId> = a.iter().chain(&b).copied().collect();
        acc.space_amp = Some(layers::space_amp(session.cluster(), &base)?);
    }
    // Kept until the next episode's set-up is timed, then dropped; the
    // last one is read for the delta-side table figures.
    acc.delta_table = Some((session, a));
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
    let (session, a) = acc.delta_table.take().expect("at least one episode ran");
    eprintln!("  point_sql: {n} episodes, {} statements", acc.stmts);

    report.note(
        "stmts_per_s",
        acc.stmts as f64 / acc.measured.as_secs_f64(),
        "1/s",
    );
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
            let mut p99 = Samples::default();
            for episode in &acc.lat[kind] {
                p99.push(episode.percentile(0.99)?);
            }
            report.note(&format!("{tag}_p99_us"), p99.median()?, "us");
        }
        let groups: Vec<Samples> = acc
            .reads
            .iter()
            .flat_map(|e| e.chunks(READ_GROUP))
            .collect();
        report.latency("read_p50_us", &groups, 0.5)?;
        report.latency("read_p99_us", &groups, 0.99)?;
        return Ok(());
    }

    let tracer = &acc.tracer;
    report.note("sql.parse_us", acc.parse_us.median()?, "us");
    for (kind, tag) in ["insert", "delete", "read"].into_iter().enumerate() {
        report.note(
            &format!("sql.self_us.{tag}"),
            acc.sql_self[kind].median()?,
            "us",
        );
        report.metric(
            format!("unattributed_us.{tag}"),
            tracer.unattributed_us("sql.execute_one", tag)?,
            "us",
        );
    }
    for (kind, tag) in KINDS.into_iter().enumerate() {
        report.metric(
            format!("core.maintain_us.{tag}"),
            acc.core_us[kind].median()?,
            "us",
        );
        report.metric(
            format!("engine.base_{tag}_us"),
            tracer
                .durations(&format!("engine.{tag}"), "base")
                .median()?,
            "us",
        );
        let traced = tracer.durations("sql.execute_one", tag).median()?;
        report.metric(
            format!("trace_overhead_us.{tag}"),
            traced - acc.untraced[kind].median()?,
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
    for (t, tenant) in TENANTS.iter().enumerate() {
        let label = tenant.label;
        report.note(
            &format!("core.maintain_us.{label}"),
            tracer.durations("core.maintain_catalog", label).median()?,
            "us",
        );
        let (milli, rows) = acc.tw[t];
        report.note(
            &format!("core.registry_tw_io_per_row.{label}"),
            milli as f64 / 1000.0 / rows.max(1) as f64,
            "io",
        );
    }
    let labelled: Vec<(&str, Counted)> = TENANTS
        .iter()
        .zip(&acc.counted)
        .map(|(t, c)| (t.label, *c))
        .collect();
    let delta_rows: u64 = acc.counted.iter().map(|c| c.delta_rows).sum();
    layers::report_core(report, &labelled, delta_rows);
    report.note(
        "core.share.probes_saved",
        acc.probes_saved as f64 / acc.ar_ops.max(1) as f64,
        "count",
    );
    report.metric("engine.step_noop_us", acc.step_noop_us.median()?, "us");
    acc.counters.report(report, delta_rows as f64);
    layers::report_net(report, &acc.counted, delta_rows);
    report.metric(
        "net.rows_per_message",
        layers::mean(metric::BATCH_ROWS_PER_MSG, acc.rows_per_msg)?,
        "rows",
    );
    report.metric("storage.probe_us", acc.probe_us.median()?, "us");
    layers::report_delta_table(report, session.cluster(), &a)?;
    acc.tracer
        .write_jsonl(&crate::trace_path(args))
        .map_err(err)?;
    Ok(())
}

/// `(tw_milli_io, delta_rows)` registry counters of one view.
fn view_counters(cluster: &Cluster, view: &str) -> (u64, u64) {
    (
        layers::counter(cluster, &metric::view_tw_milli_io(view)),
        layers::counter(cluster, &metric::view_delta_rows(view)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_statements() {
        let take = |seed| {
            let (mut s, a) = OpStream::new(seed);
            let ops: Vec<Op> = (0..2_000).map(|_| s.next_op()).collect();
            (a, ops)
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3).1, take(4).1);
        assert_eq!(b_rows(3), b_rows(3));
        let reads = |seed| {
            let (mut s, _) = OpStream::new(seed);
            (0..500)
                .map(|_| {
                    s.next_op();
                    s.next_read()
                })
                .collect::<Vec<Read>>()
        };
        assert_eq!(reads(3), reads(3));
        assert_ne!(reads(3), reads(4));
    }

    #[test]
    fn reads_leave_the_writes_unchanged_and_hit_live_rows() {
        let (mut plain, _) = OpStream::new(5);
        let (mut mixed, _) = OpStream::new(5);
        let b = by_key(&b_rows(5));
        let mut hits = 0;
        for _ in 0..300 {
            assert_eq!(plain.next_op(), mixed.next_op());
            let read = mixed.next_read();
            let rows = mixed.expected(&read, &b);
            assert!(rows.iter().all(|r| int(r, 1) == read.key));
            hits += usize::from(!rows.is_empty());
        }
        // A read's key is a live row's, so it misses only when no `b`
        // row has that join value.
        assert!(hits > 250, "{hits}");
    }

    #[test]
    fn live_sets_stay_bounded_and_deletes_hit_live_rows() {
        let (mut s, a) = OpStream::new(11);
        let mut live: Vec<std::collections::BTreeSet<i64>> = a
            .iter()
            .map(|rows| rows.iter().map(|r| int(r, 0)).collect())
            .collect();
        for _ in 0..20_000 {
            let op = s.next_op();
            let id = int(&op.row, 0);
            if op.insert {
                assert!(live[op.tenant].insert(id));
            } else {
                assert!(live[op.tenant].remove(&id), "{}", op.sql);
            }
            assert!(live[op.tenant].len().abs_diff(LIVE) <= SLACK);
        }
    }
}
