//! Hash-join key equality is SQL `=`: mixed Int64/Float64 keys compare as
//! numbers, −0 equals +0, NaN and NULL never match, and incomparable
//! types fail like the filter path. Checked through the oracle
//! (`run_sql`), the engine (`FeisuCluster`), and a property test against
//! the independent nested-loop reference in `feisu_tests::join_ref`.

use feisu_common::rng::DetRng;
use feisu_core::engine::{ClusterSpec, FeisuCluster};
use feisu_exec::batch::RecordBatch;
use feisu_exec::executor::run_sql;
use feisu_exec::join::join;
use feisu_exec::MemProvider;
use feisu_format::{DataType, Field, Schema, Value};
use feisu_sql::ast::{Expr, JoinKind};
use feisu_sql::parser::parse_expr;
use feisu_tests::join_ref::nested_loop_join;
use feisu_tests::rows_to_batch;
use proptest::prelude::*;

// ------------------------------------------------- SQL `=` on join keys

/// Single-column tables `a(k)` and `b(x)` with the given types and values.
fn key_tables(
    kt: DataType,
    kv: &[Value],
    xt: DataType,
    xv: &[Value],
) -> Vec<(&'static str, Schema, Vec<Vec<Value>>)> {
    let one = |name: &str, t: DataType, vals: &[Value]| {
        (
            Schema::new(vec![Field::new(name, t, true)]),
            vals.iter().map(|v| vec![v.clone()]).collect::<Vec<_>>(),
        )
    };
    let (sa, ra) = one("k", kt, kv);
    let (sb, rb) = one("x", xt, xv);
    vec![("a", sa, ra), ("b", sb, rb)]
}

fn oracle_rows(tables: &[(&'static str, Schema, Vec<Vec<Value>>)], sql: &str) -> usize {
    let mut p = MemProvider::new();
    for (name, schema, rows) in tables {
        p.insert(*name, rows_to_batch(schema, rows));
    }
    run_sql(sql, &mut p)
        .unwrap_or_else(|e| panic!("oracle failed `{sql}`: {e}"))
        .rows()
}

fn engine_rows(tables: &[(&'static str, Schema, Vec<Vec<Value>>)], sql: &str) -> usize {
    let cluster = FeisuCluster::new(ClusterSpec::small()).unwrap();
    let admin = cluster.register_user("admin");
    cluster.grant_all(admin);
    let cred = cluster.login(admin).unwrap();
    // The two inputs live in different storage domains, as dimension
    // and fact tables do in a star query.
    for ((name, schema, rows), location) in tables.iter().zip(["/hdfs/t/a", "/kv/t/b"]) {
        cluster
            .create_table(name, schema.clone(), location, &cred)
            .unwrap();
        cluster.ingest_rows(name, rows.clone(), &cred).unwrap();
    }
    cluster
        .query(sql, &cred)
        .unwrap_or_else(|e| panic!("engine failed `{sql}`: {e}"))
        .batch
        .rows()
}

const JOIN_SQL: &str = "SELECT a.k, b.x FROM a JOIN b ON a.k = b.x";
const FILTER_SQL: &str = "SELECT a.k, b.x FROM a CROSS JOIN b WHERE a.k - b.x = 0";

/// The join must return what the filter path returns, on the oracle and
/// on the engine alike.
fn assert_join_agrees_with_filter(
    tables: &[(&'static str, Schema, Vec<Vec<Value>>)],
    expected: usize,
) {
    assert_eq!(oracle_rows(tables, FILTER_SQL), expected, "oracle filter");
    assert_eq!(oracle_rows(tables, JOIN_SQL), expected, "oracle join");
    assert_eq!(engine_rows(tables, FILTER_SQL), expected, "engine filter");
    assert_eq!(engine_rows(tables, JOIN_SQL), expected, "engine join");
}

#[test]
fn int_key_matches_equal_float_key() {
    let t = key_tables(
        DataType::Int64,
        &[Value::Int64(1), Value::Int64(2)],
        DataType::Float64,
        &[Value::Float64(1.0), Value::Float64(2.5)],
    );
    assert_join_agrees_with_filter(&t, 1);
}

#[test]
fn negative_zero_key_matches_positive_zero() {
    let t = key_tables(
        DataType::Float64,
        &[Value::Float64(0.0)],
        DataType::Float64,
        &[Value::Float64(0.0), Value::Float64(-0.0)],
    );
    assert_join_agrees_with_filter(&t, 2);
}

#[test]
fn nan_and_null_keys_never_match() {
    let t = key_tables(
        DataType::Float64,
        &[Value::Float64(f64::NAN), Value::Null, Value::Float64(3.0)],
        DataType::Float64,
        &[Value::Float64(f64::NAN), Value::Null, Value::Float64(3.0)],
    );
    assert_join_agrees_with_filter(&t, 1);
}

#[test]
fn nan_comparisons_are_false_on_every_filter_path() {
    // `x = 1.5` takes the columnar fast path, `x + 0 = 1.5` the row
    // interpreter: both must drop the NaN row instead of failing.
    let t = key_tables(
        DataType::Float64,
        &[Value::Float64(f64::NAN), Value::Float64(1.5)],
        DataType::Float64,
        &[],
    );
    for (sql, rows) in [
        ("SELECT k FROM a WHERE k = 1.5", 1),
        ("SELECT k FROM a WHERE k + 0 = 1.5", 1),
        ("SELECT k FROM a WHERE k <> 1.5", 0),
        ("SELECT k FROM a WHERE k + 0 <> 1.5", 0),
    ] {
        assert_eq!(oracle_rows(&t, sql), rows, "{sql}");
    }
}

fn batch(schema: Schema, rows: &[Vec<Value>]) -> RecordBatch {
    rows_to_batch(&schema, rows)
}

#[test]
fn incomparable_key_types_fail_like_the_filter_path() {
    let left = batch(
        Schema::new(vec![Field::new("a.k", DataType::Utf8, true)]),
        &[vec![Value::from("1")]],
    );
    let right = batch(
        Schema::new(vec![Field::new("b.x", DataType::Int64, true)]),
        &[vec![Value::Int64(1)]],
    );
    let schema = left.schema().join(right.schema());
    let on = vec![parse_expr("a.k = b.x").unwrap()];
    for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::RightOuter] {
        let err = join(&left, &right, kind, &on, &schema).unwrap_err();
        assert!(err.to_string().contains("cannot compare"), "{err}");
        assert!(nested_loop_join(&left, &right, kind, &on, &schema).is_err());
    }
    // With no non-null value on one side no pair is ever compared.
    let nulls = batch(right.schema().clone(), &[vec![Value::Null]]);
    let out = join(&left, &nulls, JoinKind::LeftOuter, &on, &schema).unwrap();
    assert_eq!(out.rows(), 1);
    assert_eq!(out.value_at(0, "b.x"), Some(Value::Null));
}

// ------------------------------------- property test against the referee

/// Key type pairs (left, right) the generator draws from; the last one is
/// incomparable and must fail exactly when the reference fails.
const KEY_TYPES: [(DataType, DataType); 7] = [
    (DataType::Int64, DataType::Int64),
    (DataType::Int64, DataType::Float64),
    (DataType::Float64, DataType::Int64),
    (DataType::Float64, DataType::Float64),
    (DataType::Utf8, DataType::Utf8),
    (DataType::Bool, DataType::Bool),
    (DataType::Utf8, DataType::Int64),
];

fn gen_value(rng: &mut DetRng, t: DataType) -> Value {
    if rng.chance(0.15) {
        return Value::Null;
    }
    match t {
        DataType::Int64 => Value::Int64(rng.range_i64(0, 4)),
        DataType::Float64 => Value::Float64([0.0, -0.0, 1.0, 2.0, 1.5, f64::NAN][rng.index(6)]),
        DataType::Utf8 => Value::from(["", "a", "b"][rng.index(3)]),
        DataType::Bool => Value::Bool(rng.chance(0.5)),
    }
}

/// One side: key columns `<p>.k0..` of the given types plus an Int64
/// payload `<p>.v`.
fn gen_side(rng: &mut DetRng, prefix: &str, types: &[DataType], rows: usize) -> RecordBatch {
    let mut fields: Vec<Field> = types
        .iter()
        .enumerate()
        .map(|(i, t)| Field::new(format!("{prefix}.k{i}"), *t, true))
        .collect();
    fields.push(Field::new(format!("{prefix}.v"), DataType::Int64, true));
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            let mut row: Vec<Value> = types.iter().map(|t| gen_value(rng, *t)).collect();
            row.push(gen_value(rng, DataType::Int64));
            row
        })
        .collect();
    batch(Schema::new(fields), &data)
}

/// ON conjuncts: one equality per key (sides and bare/computed keys
/// drawn at random) plus an optional residual.
fn gen_on(rng: &mut DetRng, types: &[(DataType, DataType)]) -> Vec<Expr> {
    let mut on = Vec::new();
    for (i, (lt, rt)) in types.iter().enumerate() {
        let numeric = lt.is_numeric() && rt.is_numeric();
        let (l, r) = if numeric && rng.chance(0.3) {
            (format!("l.k{i} * 2"), format!("r.k{i} * 2"))
        } else {
            (format!("l.k{i}"), format!("r.k{i}"))
        };
        let cond = if rng.chance(0.5) {
            format!("{l} = {r}")
        } else {
            format!("{r} = {l}")
        };
        on.push(parse_expr(&cond).unwrap());
    }
    // Residuals: across both sides, on one side, and constant.
    let residual = ["l.v < r.v", "l.v + r.v > 3", "r.v <> 2", "1 = 1", "2 < 1"];
    if let Some(r) = residual.get(rng.index(residual.len() + 2)) {
        on.push(parse_expr(r).unwrap());
    }
    on
}

/// Output rows as dynamic values (structural equality: NaN = NaN, and
/// −0 and +0 stay distinct, so copied keys must keep their bits).
fn rows_of(b: &RecordBatch) -> Vec<Vec<Value>> {
    (0..b.rows()).map(|i| b.row(i)).collect()
}

fn check_case(seed: u64) -> std::result::Result<(), String> {
    let mut rng = DetRng::new(seed);
    let kind = [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::RightOuter,
        JoinKind::Cross,
    ][rng.index(4)];
    let n_keys = 1 + rng.index(3);
    let types: Vec<(DataType, DataType)> = (0..n_keys)
        .map(|_| {
            // The incomparable pair is rare so most cases run to output.
            let i = rng.index(KEY_TYPES.len() * 4);
            KEY_TYPES[if i < KEY_TYPES.len() {
                i
            } else {
                i % (KEY_TYPES.len() - 1)
            }]
        })
        .collect();
    let (lrows, rrows) = (rng.index(11), rng.index(11));
    let lt: Vec<DataType> = types.iter().map(|t| t.0).collect();
    let rt: Vec<DataType> = types.iter().map(|t| t.1).collect();
    let left = gen_side(&mut rng, "l", &lt, lrows);
    let right = gen_side(&mut rng, "r", &rt, rrows);
    let on = if kind == JoinKind::Cross {
        Vec::new()
    } else {
        gen_on(&mut rng, &types)
    };
    let schema = left.schema().join(right.schema());
    let got = join(&left, &right, kind, &on, &schema);
    let want = nested_loop_join(&left, &right, kind, &on, &schema);
    let ctx = || format!("seed {seed}: {kind:?} {lrows}x{rrows} on {on:?}");
    match (got, want) {
        (Ok(g), Ok(w)) => {
            if g.schema() != w.schema() {
                return Err(format!(
                    "{}: schema {:?} vs {:?}",
                    ctx(),
                    g.schema(),
                    w.schema()
                ));
            }
            if rows_of(&g) != rows_of(&w) {
                return Err(format!(
                    "{}:\nengine\n{}reference\n{}",
                    ctx(),
                    g.to_table_string(),
                    w.to_table_string()
                ));
            }
            Ok(())
        }
        (Err(_), Err(_)) => Ok(()),
        (g, w) => Err(format!(
            "{}: engine {:?} vs reference {:?}",
            ctx(),
            g.map(|b| b.rows()),
            w.map(|b| b.rows())
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Inner, outer and cross joins over 1–3 keys of every type, with
    /// nulls, NaN, ±0, duplicate keys, residuals, empty inputs and either
    /// side smaller, produce exactly the reference's batch, row order
    /// included.
    #[test]
    fn hash_join_matches_nested_loop_reference(seed in any::<u64>()) {
        if let Err(msg) = check_case(seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

#[test]
fn both_build_sides_keep_left_major_order() {
    // Left smaller, then right smaller, each with duplicate keys on both
    // sides: the output order must not depend on which side was hashed.
    let side = |prefix: &str, keys: &[i64]| {
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| vec![Value::Int64(*k), Value::Int64(i as i64)])
            .collect();
        batch(
            Schema::new(vec![
                Field::new(format!("{prefix}.k0"), DataType::Int64, true),
                Field::new(format!("{prefix}.v"), DataType::Int64, true),
            ]),
            &rows,
        )
    };
    let small = [2, 1, 2];
    let large = [1, 2, 3, 2, 1, 2, 2, 0];
    for (l, r) in [(&small[..], &large[..]), (&large[..], &small[..])] {
        let (left, right) = (side("l", l), side("r", r));
        let schema = left.schema().join(right.schema());
        let on = vec![parse_expr("l.k0 = r.k0").unwrap()];
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::RightOuter] {
            let got = join(&left, &right, kind, &on, &schema).unwrap();
            let want = nested_loop_join(&left, &right, kind, &on, &schema).unwrap();
            assert_eq!(rows_of(&got), rows_of(&want), "{kind:?} {l:?} x {r:?}");
        }
    }
}
