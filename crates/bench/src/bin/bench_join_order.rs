//! Benchmark for cost-based join reordering at lowering time.
//!
//! Builds a 3-table star: two dimension tables `d1`/`d2` (unique keys)
//! and a Zipfian fact table `f` whose keys reference both dimensions.
//! The query lists the dimensions first, so the syntactic left-deep
//! order starts with a `d1 x d2` cross product that the WHERE equalities
//! only collapse one join later. Two identical clusters run the same
//! statement: one with `FeisuConfig.optimizer.join_reorder` switched
//! off (the rule pipeline stays on in both, so the equalities still
//! become hash-join keys), one with the cost-based search enabled,
//! which puts the fact on the build side first using the ingest-time
//! table stats.
//!
//! Exact answer parity is asserted (integer SUM), and both simulated
//! response time and wall-clock are reported; results land in
//! `results/BENCH_join_order.json`.
//!
//! `--smoke` (or `FEISU_BENCH_SMOKE=1`) shrinks the tables for CI and
//! writes `target/bench-smoke/BENCH_join_order.json` instead, so a smoke
//! run never overwrites the committed full-run numbers.

use feisu_common::rng::DetRng;
use feisu_core::engine::{ClusterSpec, FeisuCluster, QueryResult};
use feisu_format::{DataType, Field, Schema, Value};
use feisu_storage::auth::Credential;
use std::time::Instant;

fn dim_schema() -> Schema {
    Schema::new(vec![Field::new("k", DataType::Int64, false)])
}

fn fact_schema() -> Schema {
    Schema::new(vec![
        Field::new("k1", DataType::Int64, false),
        Field::new("k2", DataType::Int64, false),
        Field::new("v", DataType::Int64, false),
    ])
}

fn build_cluster(
    dim_rows: usize,
    fact_rows: usize,
    join_reorder: bool,
) -> (FeisuCluster, Credential) {
    let mut spec = ClusterSpec::small();
    spec.config.optimizer.join_reorder = join_reorder;
    // Cold runs on every iteration: no cached index bits, no
    // identical-task result reuse, so the only difference between the
    // clusters is the join order the lowering chose.
    spec.use_smartindex = false;
    spec.task_reuse = false;
    let cluster = FeisuCluster::new(spec).expect("cluster");
    let user = cluster.register_user("bencher");
    cluster.grant_all(user);
    let cred = cluster.login(user).expect("login");

    // SSD-backed kv domain: scans are cheap, so the master-side join
    // work the reordering saves is what the response time measures.
    for dim in ["d1", "d2"] {
        cluster
            .create_table(dim, dim_schema(), &format!("/kv/bench/{dim}"), &cred)
            .expect("create dim");
        let rows: Vec<Vec<Value>> = (0..dim_rows as i64)
            .map(|i| vec![Value::Int64(i)])
            .collect();
        cluster.ingest_rows(dim, rows, &cred).expect("ingest dim");
    }
    cluster
        .create_table("f", fact_schema(), "/kv/bench/f", &cred)
        .expect("create fact");
    // Zipfian foreign keys: hot dimension rows dominate, as in real
    // click/star workloads. Chunked ingest bounds peak buffer memory.
    let mut rng = DetRng::new(0x10_0e_0e_d0);
    let chunk = 8192;
    let mut written = 0usize;
    while written < fact_rows {
        let n = chunk.min(fact_rows - written);
        let rows: Vec<Vec<Value>> = (written..written + n)
            .map(|i| {
                vec![
                    Value::Int64(rng.zipf(dim_rows, 0.9) as i64),
                    Value::Int64(rng.zipf(dim_rows, 0.9) as i64),
                    Value::Int64(i as i64),
                ]
            })
            .collect();
        cluster.ingest_rows("f", rows, &cred).expect("ingest fact");
        written += n;
    }
    (cluster, cred)
}

/// Runs `iters` cold queries; returns the (constant) simulated response
/// time in ms, best wall-clock ms, and the last result.
fn run(
    cluster: &FeisuCluster,
    cred: &Credential,
    sql: &str,
    iters: usize,
) -> (f64, f64, QueryResult) {
    let mut best = f64::INFINITY;
    let mut sim_ms = 0.0;
    let mut last = None;
    for i in 0..iters {
        let t = Instant::now();
        let r = cluster.query(sql, cred).expect("bench query");
        best = best.min(t.elapsed().as_nanos() as f64 / 1e6);
        if i == 0 {
            sim_ms = r.response_time.as_millis_f64();
        } else {
            assert_eq!(
                sim_ms,
                r.response_time.as_millis_f64(),
                "simulated time must be reuse-free and deterministic"
            );
        }
        last = Some(r);
    }
    (sim_ms, best, last.expect("at least one iter"))
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".into()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("FEISU_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (dim_rows, fact_rows, iters) = if smoke {
        (300, 3_000, 2)
    } else {
        (1_500, 30_000, 3)
    };

    let (syn, syn_cred) = build_cluster(dim_rows, fact_rows, false);
    let (opt, opt_cred) = build_cluster(dim_rows, fact_rows, true);

    // Dims listed first: the syntactic order crosses d1 x d2 before the
    // fact arrives to collapse it.
    let sql = "SELECT SUM(f.v) AS s FROM d1, d2, f WHERE f.k1 = d1.k AND f.k2 = d2.k";

    let (syn_sim, syn_wall, syn_res) = run(&syn, &syn_cred, sql, iters);
    let (opt_sim, opt_wall, opt_res) = run(&opt, &opt_cred, sql, iters);

    // Integer SUM: the answers must match exactly, not approximately.
    assert_eq!(
        syn_res.batch, opt_res.batch,
        "join reordering changed the answer"
    );
    let reordered = opt
        .metrics()
        .counter("feisu.optimizer.joins_reordered")
        .get();
    assert!(reordered > 0, "cost-based search never reordered");
    assert_eq!(
        syn.metrics()
            .counter("feisu.optimizer.joins_reordered")
            .get(),
        0,
        "kill switch must disable reordering"
    );
    // The chosen order, straight from EXPLAIN's trailer.
    let explain = opt.explain(sql, &opt_cred).expect("explain");
    let join_order = explain
        .lines()
        .find(|l| l.starts_with("JoinOrder: "))
        .unwrap_or("JoinOrder: <missing>")
        .trim_start_matches("JoinOrder: ")
        .to_string();

    let sim_speedup = syn_sim / opt_sim;
    let wall_speedup = syn_wall / opt_wall;
    feisu_bench::print_series(
        "join-order search: syntactic vs cost-chosen (3-way Zipfian star)",
        &[
            "config",
            "rows out",
            "syntactic sim ms",
            "reordered sim ms",
            "sim speedup",
            "wall speedup",
        ],
        &[vec![
            "star_3way".into(),
            format!("{}", opt_res.batch.rows()),
            format!("{syn_sim:.3}"),
            format!("{opt_sim:.3}"),
            format!("{sim_speedup:.2}x"),
            format!("{wall_speedup:.2}x"),
        ]],
    );
    println!("chosen order: {join_order}");

    let json = format!(
        "{{\n  \"bench\": \"join_order\",\n  \"dim_rows\": {dim_rows},\n  \
         \"fact_rows\": {fact_rows},\n  \"iters\": {iters},\n  \"smoke\": {smoke},\n  \
         \"configs\": [\n    {{\"name\": \"star_3way\", \"rows_out\": {}, \
         \"results_match\": true, \"joins_reordered\": {reordered}, \
         \"join_order\": \"{join_order}\", \
         \"syntactic_sim_ms\": {}, \"reordered_sim_ms\": {}, \"sim_speedup\": {}, \
         \"syntactic_wall_ms\": {}, \"reordered_wall_ms\": {}, \"wall_speedup\": {}}}\n  ]\n}}\n",
        opt_res.batch.rows(),
        json_f(syn_sim),
        json_f(opt_sim),
        json_f(sim_speedup),
        json_f(syn_wall),
        json_f(opt_wall),
        json_f(wall_speedup),
    );
    let dir = if smoke {
        "target/bench-smoke"
    } else {
        "results"
    };
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = format!("{dir}/BENCH_join_order.json");
    std::fs::write(&path, json).expect("write bench json");
    println!("\nresults -> {path}");
}
