//! SQL access paths: a point statement reads only what its WHERE clause
//! can match. An `=` term on a table's partitioning column reads the one
//! node that holds the literal's rows (hash tables, light values of a
//! heavy-light table), and a view SELECT filters its snapshot while
//! iterating it. Neither may change a result.
//!
//! Every statement of a random script runs on two sessions built from the
//! same set-up. The second is the reference: each of its `c = k` terms is
//! rewritten to the equivalent `c >= k AND c <= k` (under `CmpOp::eval`
//! both are false for `NULL` and cross-type literals), which no access
//! path prunes on, so it scans every node and then filters. Rows and
//! status lines must agree statement by statement. View SELECTs outside
//! a transaction are also checked against the snapshot's full contents,
//! filtered, or for the partial view against the recomputed join.

use proptest::prelude::*;
use pvm::prelude::*;
use pvm::types::{CmpOp, Predicate, SchemaRef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base tables with no views, one per remaining partitioning spec.
const SPEC_TABLES: [&str; 3] = ["h", "g", "r"];
/// Heavy values of the heavy-light tables' `c` column.
const HEAVY: [i64; 2] = [0, 1];
const VIEWS: [&str; 5] = ["jv_ar", "jv_ar2", "jv_gi", "agg", "pv"];
const PARTIAL_VIEW: &str = "pv";

fn build() -> Session {
    let mut s = Session::new(ClusterConfig::new(4).with_buffer_pages(256));
    s.execute(
        "CREATE TABLE a (id INT, c INT, p STR) PARTITION BY HASH(id); \
         CREATE TABLE b (id INT, d INT, p STR) PARTITION BY HASH(id); \
         CREATE TABLE h (id INT, c INT, p STR) PARTITION BY HASH(c); \
         CREATE TABLE g (id INT, c INT, p STR) PARTITION BY HASH(c);",
    )
    .unwrap();
    let heavy: Vec<Value> = HEAVY.iter().map(|&v| Value::Int(v)).collect();
    let cluster = s.cluster_mut();
    for (name, mode) in [("h", SpreadMode::Salt), ("g", SpreadMode::Replicate)] {
        let id = cluster.table_id(name).unwrap();
        let spec = PartitionSpec::heavy_light(1, heavy.clone(), 3, mode);
        cluster.repartition(id, spec).unwrap();
    }
    let schema = Schema::new(vec![Column::int("id"), Column::int("c"), Column::str("p")]);
    cluster
        .create_table(TableDef::new(
            "r",
            schema.into_ref(),
            PartitionSpec::RoundRobin,
            Organization::Heap,
        ))
        .unwrap();
    for i in 0..16 {
        s.execute_one(&format!("INSERT INTO a VALUES ({i}, {}, 'a')", i % 5))
            .unwrap();
        s.execute_one(&format!("INSERT INTO b VALUES ({i}, {}, 'b')", i % 5))
            .unwrap();
        for t in SPEC_TABLES {
            s.execute_one(&format!("INSERT INTO {t} VALUES ({i}, {}, 's')", i % 4))
                .unwrap();
        }
    }
    s.execute(
        // Two signature-compatible AR views pool into one probe-once group.
        "CREATE VIEW jv_ar USING AUXILIARY RELATION AS \
             SELECT x.id, x.c, y.id FROM a x, b y WHERE x.c = y.d PARTITION ON x.id; \
         CREATE VIEW jv_ar2 USING AUXILIARY RELATION AS \
             SELECT y.id, y.p FROM a x, b y WHERE x.c = y.d PARTITION ON y.id; \
         CREATE VIEW jv_gi USING GLOBAL INDEX AS \
             SELECT x.id, y.id, y.d FROM a x, b y WHERE x.c = y.d PARTITION ON y.id; \
         CREATE VIEW agg USING AUXILIARY RELATION AS \
             SELECT x.c, COUNT(*), SUM(y.id) FROM a x, b y WHERE x.c = y.d GROUP BY x.c; \
         CREATE VIEW pv USING NAIVE AS \
             SELECT x.id, x.c, y.id FROM a x, b y WHERE x.c = y.d PARTITION ON x.id; \
         ALTER VIEW pv SET PARTIAL BUDGET 256;",
    )
    .unwrap();
    s
}

#[derive(Debug, Clone)]
struct Term {
    column: String,
    op: CmpOp,
    literal: Value,
}

fn literal_sql(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Str(s) => format!("'{s}'"),
        Value::Float(f) => format!("{f:?}"),
        other => other.to_string(),
    }
}

fn where_sql(terms: &[Term], reference: bool) -> String {
    if terms.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = terms
        .iter()
        .map(|t| {
            let lit = literal_sql(&t.literal);
            match t.op {
                CmpOp::Eq if reference => format!("{c} >= {lit} AND {c} <= {lit}", c = t.column),
                CmpOp::Eq => format!("{} = {lit}", t.column),
                CmpOp::Ne => format!("{} <> {lit}", t.column),
                _ => format!("{} < {lit}", t.column),
            }
        })
        .collect();
    format!(" WHERE {}", parts.join(" AND "))
}

fn schema_of(s: &Session, table: &str) -> SchemaRef {
    let c = s.cluster();
    c.def(c.table_id(table).unwrap()).unwrap().schema.clone()
}

/// Terms over `table`'s columns; the first is usually `=` on `key`.
fn gen_terms(rng: &mut StdRng, names: &[String], key: &str) -> Vec<Term> {
    let n = rng.gen_range(0..4usize);
    (0..n)
        .map(|i| {
            let column = if i == 0 && rng.gen_bool(0.7) {
                key.to_string()
            } else {
                names[rng.gen_range(0..names.len())].clone()
            };
            let op = match rng.gen_range(0..6u32) {
                0..=3 => CmpOp::Eq,
                4 => CmpOp::Ne,
                _ => CmpOp::Lt,
            };
            let literal = match rng.gen_range(0..12u32) {
                0 => Value::Null,
                1 => Value::from("s"),
                2 => Value::Float(1.5),
                _ => Value::Int(rng.gen_range(0..20i64)),
            };
            Term {
                column,
                op,
                literal,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Autocommit,
    Txn,
    Snapshot,
}

/// One random statement; the second string is the reference's text and
/// the last field the view a SELECT reads, if any.
fn gen_statement(rng: &mut StdRng, s: &Session) -> (String, String, Option<(String, Vec<Term>)>) {
    let tables = ["a", "b", "h", "g", "r"];
    let t = tables[rng.gen_range(0..tables.len())];
    let id = rng.gen_range(0..40i64);
    let c = rng.gen_range(0..6i64);
    let base_names: Vec<String> = ["id", if t == "b" { "d" } else { "c" }, "p"]
        .iter()
        .map(|n| n.to_string())
        .collect();
    // Hash tables partition on id, the heavy-light tables on c.
    let key = if matches!(t, "h" | "g") { "c" } else { "id" };
    let (head, names, key, view) = match rng.gen_range(0..10u32) {
        0..=1 => {
            let id_sql = if SPEC_TABLES.contains(&t) && rng.gen_bool(0.15) {
                "NULL".to_string()
            } else {
                id.to_string()
            };
            let sql = format!("INSERT INTO {t} VALUES ({id_sql}, {c}, 'i')");
            return (sql.clone(), sql, None);
        }
        2 => (
            format!("DELETE FROM {t}"),
            base_names,
            key.to_string(),
            None,
        ),
        3 => {
            let set = if rng.gen_bool(0.5) {
                "p = 'u'".to_string()
            } else {
                format!("{} = {c}", base_names[1])
            };
            let head = format!("UPDATE {t} SET {set}");
            (head, base_names, key.to_string(), None)
        }
        4..=5 => (
            format!("SELECT * FROM {t}"),
            base_names,
            key.to_string(),
            None,
        ),
        _ => {
            let v = VIEWS[rng.gen_range(0..VIEWS.len())];
            let names: Vec<String> = schema_of(s, v)
                .names()
                .iter()
                .map(|n| n.to_string())
                .filter(|n| n != "__count")
                .collect();
            let view_table = s.view(v).unwrap().view_table();
            let spec = &s.cluster().def(view_table).unwrap().partitioning;
            let key = names[spec.column().expect("views hash-partition")].clone();
            (format!("SELECT * FROM {v}"), names, key, Some(v))
        }
    };
    let terms = gen_terms(rng, &names, &key);
    // The partial view's `=` key picks which holes a read fills: the
    // reference reads it with the same text, so both sessions keep the
    // same resident set.
    let reference = view != Some(PARTIAL_VIEW);
    (
        format!("{head}{}", where_sql(&terms, false)),
        format!("{head}{}", where_sql(&terms, reference)),
        view.map(|v| (v.to_string(), terms)),
    )
}

/// Rows of `all` that satisfy `terms`, with the hidden `__count` column
/// dropped, sorted — what a view SELECT must return.
fn expected(schema: &Schema, all: Vec<Row>, terms: &[Term]) -> Vec<Row> {
    let mut pred = Predicate::always();
    for t in terms {
        pred = pred.and(schema.index_of(&t.column).unwrap(), t.op, t.literal.clone());
    }
    let visible: Vec<usize> = (0..schema.arity())
        .filter(|&i| schema.column(i).unwrap().name != "__count")
        .collect();
    let mut rows: Vec<Row> = all
        .into_iter()
        .filter(|r| pred.eval(r))
        .map(|r| r.project(&visible).unwrap())
        .collect();
    rows.sort();
    rows
}

/// A view's full contents as a SELECT at this point should see them: its
/// snapshot's rows, or the recomputed join for the partial view (whose
/// snapshot holds only resident keys).
fn view_contents(s: &Session, v: &str) -> Vec<Row> {
    let view = s.view(v).unwrap();
    match view.serve_reader() {
        Some(reader) if v != PARTIAL_VIEW => reader.snapshot().rows(),
        _ => view.recompute_expected(s.cluster()).unwrap(),
    }
}

fn run_script(seed: u64, len: usize) -> std::result::Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = build();
    let mut reference = build();
    let mut mode = Mode::Autocommit;
    // Each view's contents at the epoch a `BEGIN SNAPSHOT` pinned.
    let mut pinned: Vec<(String, Vec<Row>)> = Vec::new();
    let mut rolled_back = false;
    for step in 0..len {
        let (sql, ref_sql, view_read) = match (mode, rng.gen_range(0..14u32)) {
            (Mode::Autocommit, 0) => {
                mode = Mode::Txn;
                ("BEGIN".to_string(), "BEGIN".to_string(), None)
            }
            (Mode::Autocommit, 1) => {
                mode = Mode::Snapshot;
                pinned = VIEWS
                    .iter()
                    .map(|v| (v.to_string(), view_contents(&s, v)))
                    .collect();
                let sql = "BEGIN SNAPSHOT".to_string();
                (sql.clone(), sql, None)
            }
            (Mode::Txn | Mode::Snapshot, 0..=1) => {
                let end = if mode == Mode::Txn && rng.gen_bool(0.6) {
                    "ROLLBACK"
                } else {
                    "COMMIT"
                };
                mode = Mode::Autocommit;
                rolled_back |= end == "ROLLBACK";
                pinned.clear();
                (end.to_string(), end.to_string(), None)
            }
            _ => gen_statement(&mut rng, &s),
        };
        // What a view SELECT must return, from the state it reads.
        let oracle = match (&view_read, mode) {
            (Some((v, terms)), Mode::Autocommit) => {
                Some((v.clone(), terms.clone(), view_contents(&s, v)))
            }
            (Some((v, terms)), Mode::Snapshot) => pinned
                .iter()
                .find(|(p, _)| p == v)
                .map(|(_, rows)| (v.clone(), terms.clone(), rows.clone())),
            _ => None,
        };
        let got = s.execute_one(&sql);
        let want = reference.execute_one(&ref_sql);
        let ctx = format!("seed {seed}, step {step}: {sql}");
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                prop_assert_eq!(&g.message, &w.message, "status line: {}", ctx);
                let rows = |o: &SqlOutput| o.rows.as_ref().map(|(_, r)| r.clone());
                prop_assert_eq!(rows(g), rows(w), "rows: {}", ctx);
                if let Some((v, terms, all)) = oracle {
                    let want = expected(&schema_of(&s, &v), all, &terms);
                    prop_assert_eq!(rows(g), Some(want), "view oracle: {}", ctx);
                }
            }
            (Err(g), Err(w)) => {
                // The kind of error must agree; its detail may name a
                // different one of several evicted keys (hole sets are
                // hash sets).
                let kind = |e: &pvm::types::PvmError| {
                    e.to_string()
                        .split(':')
                        .take(2)
                        .collect::<Vec<_>>()
                        .join(":")
                };
                prop_assert_eq!(kind(g), kind(w), "errors: {}", ctx);
            }
            _ => {
                return Err(TestCaseError::fail(format!(
                    "{ctx}: one session failed: {got:?} vs {want:?}"
                )))
            }
        }
    }
    if mode != Mode::Autocommit {
        s.execute_one("COMMIT").unwrap();
        reference.execute_one("COMMIT").unwrap();
    }
    for t in ["a", "b", "h", "g", "r"] {
        let scan = |s: &Session| {
            let c = s.cluster();
            let mut rows = c.scan_all(c.table_id(t).unwrap()).unwrap();
            rows.sort();
            rows
        };
        prop_assert_eq!(
            scan(&s),
            scan(&reference),
            "table {} diverged (seed {})",
            t,
            seed
        );
    }
    for v in VIEWS {
        // Known defect, independent of access paths (ROADMAP, "partial
        // views after ROLLBACK"): a rollback rewinds the epoch but not the
        // partial view's eviction record, so its holes read as "snapshot
        // too old" from then on. Both sessions fail alike above.
        if v == PARTIAL_VIEW && rolled_back {
            continue;
        }
        s.execute_one(&format!("CHECK VIEW {v}")).unwrap();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn point_statements_match_scan_then_filter(seed in any::<u64>(), len in 20usize..60) {
        run_script(seed, len)?;
    }
}

#[test]
fn heavy_light_point_reads_cover_light_and_heavy_keys() {
    // The heavy-light tables' heavy keys (spread over several nodes) must
    // keep the all-node scan; their light keys prune. Both read the same
    // rows a full scan does, duplicates of replicated rows included.
    let mut s = build();
    for t in ["h", "g"] {
        let id = s.cluster().table_id(t).unwrap();
        for k in 0..4i64 {
            let got = s
                .execute_one(&format!("SELECT * FROM {t} WHERE c = {k}"))
                .unwrap()
                .rows
                .unwrap()
                .1;
            let mut want: Vec<Row> = s
                .cluster()
                .scan_all(id)
                .unwrap()
                .into_iter()
                .filter(|r| r[1] == Value::Int(k))
                .collect();
            want.sort();
            assert_eq!(got, want, "{t}: c = {k}");
            assert!(!got.is_empty(), "{t}: c = {k} has rows");
        }
    }
}
