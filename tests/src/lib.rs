//! Shared fixtures for the workspace integration tests.
//!
//! The central helper builds a populated [`FeisuCluster`] *and* a
//! [`MemProvider`] holding identical data, so every distributed answer
//! can be checked against the single-process oracle executor.

pub mod join_ref;

use feisu_core::engine::{ClusterSpec, FeisuCluster};
use feisu_exec::batch::RecordBatch;
use feisu_exec::MemProvider;
use feisu_format::{Column, DataType, Field, Schema, Value};
use feisu_storage::auth::Credential;

/// A cluster plus its oracle twin.
pub struct Fixture {
    pub cluster: FeisuCluster,
    pub oracle: MemProvider,
    pub cred: Credential,
    pub user: feisu_common::UserId,
}

/// Deterministic small clicks table used across tests.
pub fn clicks_schema() -> Schema {
    Schema::new(vec![
        Field::new("url", DataType::Utf8, false),
        Field::new("keyword", DataType::Utf8, false),
        Field::new("clicks", DataType::Int64, true),
        Field::new("score", DataType::Float64, false),
        Field::new("day", DataType::Int64, false),
    ])
}

/// Generates `rows` deterministic rows of the clicks table.
pub fn clicks_rows(rows: usize) -> Vec<Vec<Value>> {
    (0..rows)
        .map(|i| {
            vec![
                Value::from(format!("https://site{}.example/p{}", i % 7, i % 3)),
                Value::from(["map", "music", "news", "stock"][i % 4]),
                if i % 11 == 10 {
                    Value::Null
                } else {
                    Value::from(((i * 13) % 100) as i64)
                },
                Value::from((i % 10) as f64 / 10.0),
                Value::from(20160101 + (i / 50) as i64),
            ]
        })
        .collect()
}

/// Builds a small cluster with the clicks table on HDFS (plus the same
/// data in the oracle), a registered user, and a credential.
pub fn fixture(rows: usize) -> Fixture {
    fixture_with(rows, ClusterSpec::small(), "/hdfs/warehouse/clicks")
}

/// Fixture with custom spec and table location.
pub fn fixture_with(rows: usize, mut spec: ClusterSpec, location: &str) -> Fixture {
    // Small blocks so multi-block paths are exercised even in tests.
    spec.rows_per_block = spec.rows_per_block.min(64);
    // CI runs the e2e suites at a pinned pool width (scripts/ci.sh sets
    // FEISU_EXECUTION_THREADS=8) to prove simulated results don't depend
    // on the executor's thread count.
    // Specs that pin an explicit thread count (determinism sweeps) win.
    if spec.config.execution_threads == 0 {
        if let Ok(v) = std::env::var("FEISU_EXECUTION_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                spec.config.execution_threads = n;
            }
        }
    }
    let cluster = FeisuCluster::new(spec).expect("cluster");
    let user = cluster.register_user("tester");
    cluster.grant_all(user);
    let cred = cluster.login(user).expect("login");
    cluster
        .create_table("clicks", clicks_schema(), location, &cred)
        .expect("create table");
    let rows_data = clicks_rows(rows);
    cluster
        .ingest_rows("clicks", rows_data.clone(), &cred)
        .expect("ingest");

    let mut oracle = MemProvider::new();
    oracle.insert("clicks", rows_to_batch(&clicks_schema(), &rows_data));
    Fixture {
        cluster,
        oracle,
        cred,
        user,
    }
}

/// Materializes rows into a record batch (oracle-side storage).
pub fn rows_to_batch(schema: &Schema, rows: &[Vec<Value>]) -> RecordBatch {
    let mut builders: Vec<feisu_format::ColumnBuilder> = schema
        .fields()
        .iter()
        .map(|f| feisu_format::ColumnBuilder::new(f.data_type))
        .collect();
    for row in rows {
        for (b, v) in builders.iter_mut().zip(row.iter().cloned()) {
            b.push(v);
        }
    }
    let columns: Vec<Column> = builders.into_iter().map(|b| b.finish()).collect();
    RecordBatch::new(schema.clone(), columns).expect("batch")
}

/// Compares two batches as *bags of rows* (distributed execution may
/// reorder) after verifying schema compatibility.
pub fn assert_same_rows(got: &RecordBatch, want: &RecordBatch, context: &str) {
    assert_eq!(
        got.schema().len(),
        want.schema().len(),
        "{context}: column count"
    );
    assert_eq!(got.rows(), want.rows(), "{context}: row count");
    let canon = |b: &RecordBatch| {
        let mut rows: Vec<String> = (0..b.rows())
            .map(|i| {
                b.row(i)
                    .iter()
                    .map(|v| match v {
                        // Distributed partial aggregation reorders float
                        // sums; compare at 9 significant digits.
                        Value::Float64(f) => format!("{f:.9e}"),
                        other => other.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(canon(got), canon(want), "{context}: row contents");
}

/// Runs a query on both engines and asserts identical row bags.
pub fn check_against_oracle(fx: &mut Fixture, sql: &str) {
    let got = fx
        .cluster
        .query(sql, &fx.cred)
        .unwrap_or_else(|e| panic!("cluster failed `{sql}`: {e}"));
    let want = feisu_exec::executor::run_sql(sql, &mut fx.oracle)
        .unwrap_or_else(|e| panic!("oracle failed `{sql}`: {e}"));
    assert_same_rows(&got.batch, &want, sql);
}
