//! End-to-end benchmark of the Feisu engine through its public API.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan_reuse --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One closed-loop client drives one workload (see `workload.rs` and
//! `WORKLOADS.md`). A *pass* times a few spare set-ups, then builds a
//! fresh cluster, loads the tables and replays the workload's fixed
//! operation sequence; passes repeat while the next one still fits in
//! `--seconds`, and at least `MIN_PASSES` times.
//! Every answer is checked against the oracle, and every pass must
//! reproduce the first pass's simulated results exactly.
//!
//! `--trace 0` reports the end-to-end metrics from the untraced engine.
//! `--trace 1` runs the traced per-layer replay instead (`replay.rs`).
//! Either way the last line of standard output is one JSON object.

mod check;
mod replay;
mod workload;

use check::{digest, Digest};
use feisu_bench::{build_cluster, Bench};
use feisu_common::SimDuration;
use feisu_core::engine::{ClusterSpec, FeisuCluster, QueryResult, QueryStats};
use feisu_storage::auth::Credential;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workload::{Op, Table, Workload};

/// Measured queries a pass must hold: p95 then has at least ten samples
/// beyond it.
const MIN_SAMPLES: usize = 200;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>: {e}",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let prep = Instant::now();
    let Some(wl) = Workload::new(&args.workload, args.seed) else {
        eprintln!(
            "unknown workload `{}`; one of {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    println!("workload {}: {}", wl.name, wl.sizes);
    println!("inputs ready in {:.2} s", prep.elapsed().as_secs_f64());
    let budget = Duration::from_secs(args.seconds);
    let report = if args.trace {
        let expected = match check::expected_answers(&wl) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        replay::run(&wl, &expected, budget)
    } else {
        if let Err(e) = reset_peak_rss() {
            eprintln!("cannot reset the peak resident set to leave input generation out: {e}");
            std::process::exit(1);
        }
        run_untraced(&wl, budget)
    };
    report.print();
    if !report.correct {
        std::process::exit(1);
    }
}

// ------------------------------------------------------------ reporting

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run prints: a table for people, then the one-line JSON result.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Shown in the table only.
    pub extra: Vec<Metric>,
    /// Shown in the table and the JSON result.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for m in self.extra.iter().chain(&self.metrics) {
            println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Nearest-rank percentile of an unsorted sample (`p` in 0..=1).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Resets the process's resident-set high-water mark to its current
/// resident set (Linux: writing 5 to `/proc/self/clear_refs`), so that a
/// later `peak_rss_mib` leaves out the temporaries of input generation.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set of this process since the last `reset_peak_rss`, in
/// MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

// ---------------------------------------------------------- one session

/// A freshly built and loaded cluster with the benchmark user logged in.
pub struct Session {
    pub cluster: FeisuCluster,
    pub cred: Credential,
    pub setup: Duration,
}

/// Rows and per-call wall times of a sequence of ingest calls.
#[derive(Default)]
pub struct IngestTally {
    pub rows: u64,
    pub calls: Vec<Duration>,
}

impl IngestTally {
    pub fn ingest(
        &mut self,
        cluster: &FeisuCluster,
        table: &str,
        columns: Vec<feisu_format::Column>,
        cred: &Credential,
    ) -> Result<Duration, String> {
        let rows = columns.first().map_or(0, |c| c.len()) as u64;
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            cluster.ingest_columns(table, columns, cred)
        }));
        let wall = t.elapsed();
        self.rows += rows;
        self.calls.push(wall);
        match r {
            Ok(Ok(_)) => Ok(wall),
            Ok(Err(e)) => Err(format!("ingest into {table} failed: {e}")),
            Err(_) => Err(format!("ingest into {table} panicked")),
        }
    }
}

impl Session {
    /// Builds the cluster and loads every table; the returned `setup`
    /// covers exactly that (the columns were generated beforehand).
    pub fn open(
        spec: &ClusterSpec,
        tables: &[Table],
        ingest: &mut IngestTally,
    ) -> Result<Session, String> {
        let loads: Vec<Vec<Vec<feisu_format::Column>>> =
            tables.iter().map(|t| t.chunks.clone()).collect();
        let t = Instant::now();
        let Bench { cluster, cred, .. } = build_cluster(spec.clone()).map_err(|e| e.to_string())?;
        for (table, chunks) in tables.iter().zip(loads) {
            cluster
                .create_table(&table.name, table.schema.clone(), &table.location, &cred)
                .map_err(|e| e.to_string())?;
            for columns in chunks {
                ingest.ingest(&cluster, &table.name, columns, &cred)?;
            }
        }
        Ok(Session {
            cluster,
            cred,
            setup: t.elapsed(),
        })
    }

    /// Runs one query of the closed loop: think, then query.
    pub fn query(&self, sql: &str, think: SimDuration) -> (Duration, Result<QueryResult, String>) {
        self.cluster.advance_time(think);
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| self.cluster.query(sql, &self.cred)));
        let wall = t.elapsed();
        let r = match r {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(e)) => Err(format!("query failed: {e}: {sql}")),
            Err(_) => Err(format!("query panicked: {sql}")),
        };
        (wall, r)
    }
}

/// Checks one engine answer against the oracle's digest.
pub fn check_answer(
    result: &QueryResult,
    expected: Option<Digest>,
    ordered: bool,
    sql: &str,
) -> Result<Digest, String> {
    let got = digest(&result.batch, ordered);
    match expected {
        Some(want) if want == got => Ok(got),
        _ => Err(format!("wrong answer: {sql}")),
    }
}

// --------------------------------------------------------- untraced run

/// Passes every run makes at least. Every pass replays the same
/// operations, and each operation's wall time is the best of its
/// timings over all passes of the run. On a shared host the speed
/// drifts for stretches of seconds to a minute; a sample is inflated
/// only when such a stretch covers the same operation in every pass,
/// so the more passes a run spreads over its `--seconds`, the less the
/// figures depend on when the run happened.
const MIN_PASSES: usize = 3;

/// Set-ups (building a cluster and loading the tables) each pass makes
/// and drops before its own. A set-up is a single short timing, and the
/// host's speed shifts over seconds, so `setup_s` and the initial loads'
/// ingest times take their statistics over many set-ups spread across
/// the passes.
const SPARE_SETUPS: usize = 3;

/// The simulated outcome of one pass, which every later pass must match
/// exactly: per-query simulated response time and query counters.
#[derive(PartialEq)]
struct PassSim {
    response: Vec<SimDuration>,
    stats: Vec<QueryStats>,
}

/// Wall times of one pass, in milliseconds and pass order.
#[derive(Default)]
struct PassWall {
    /// Measured queries.
    queries: Vec<f64>,
    /// Appends between measured queries.
    appends: Vec<f64>,
    /// Every ingest call: initial loads, then all appends.
    ingest: IngestTally,
    /// Wall time of every set-up, in seconds: the spare ones, then the
    /// pass's own.
    setups: Vec<f64>,
    /// The initial loads of the spare set-ups.
    spare_loads: Vec<IngestTally>,
}

/// Sum over the ingest calls in `calls` of each one's best time (ms)
/// across `tallies`.
fn best_calls(tallies: &[&IngestTally], calls: std::ops::Range<usize>) -> f64 {
    calls
        .map(|k| {
            tallies
                .iter()
                .map(|t| ms(t.calls[k]))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Sum over operations of each one's best time across passes.
fn best_total(passes: &[PassWall], times: impl Fn(&PassWall) -> Vec<f64>) -> f64 {
    best_each(passes, times).iter().sum()
}

/// Each operation's best time across passes.
fn best_each(passes: &[PassWall], times: impl Fn(&PassWall) -> Vec<f64>) -> Vec<f64> {
    let all: Vec<Vec<f64>> = passes.iter().map(times).collect();
    let n = all.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|k| all.iter().map(|t| t[k]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Runs the passes, then checks their answers. The oracle runs only
/// after the peak resident set has been read: the memory it frees stays
/// resident in the allocator, and would otherwise set the peak.
fn run_untraced(wl: &Workload, budget: Duration) -> Report {
    let start = Instant::now();
    let mut walls: Vec<PassWall> = Vec::new();
    let mut first: Option<PassSim> = None;
    let mut deterministic = true;
    // Per pass, the digest of every query's answer (`None` for appends
    // and failed queries), indexed like `wl.ops`.
    let mut digests: Vec<Vec<Option<Digest>>> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors: Vec<String> = Vec::new();
    // A pass starts only while the budget still holds one more pass of
    // the mean length so far, so the run ends near `--seconds`.
    while walls.len() < MIN_PASSES
        || start.elapsed() + start.elapsed() / walls.len() as u32 <= budget
    {
        let mut wall = PassWall::default();
        for _ in 0..SPARE_SETUPS {
            attempted += 1;
            let mut loads = IngestTally::default();
            match Session::open(&wl.spec, &wl.tables, &mut loads) {
                Ok(spare) => {
                    wall.setups.push(spare.setup.as_secs_f64());
                    wall.spare_loads.push(loads);
                }
                Err(e) => {
                    failed += 1;
                    errors.push(e);
                }
            }
        }
        attempted += 1;
        let session = match Session::open(&wl.spec, &wl.tables, &mut wall.ingest) {
            Ok(s) if failed == 0 => s,
            Ok(_) => break,
            Err(e) => {
                failed += 1;
                errors.push(e);
                break;
            }
        };
        wall.setups.push(session.setup.as_secs_f64());
        let mut sim = PassSim {
            response: Vec::new(),
            stats: Vec::new(),
        };
        let mut qi = 0usize;
        let mut answers = Vec::with_capacity(wl.ops.len());
        for op in &wl.ops {
            attempted += 1;
            let measured = qi >= wl.warmup;
            match op {
                Op::Append { table, columns } => {
                    let name = &wl.tables[*table].name;
                    match wall
                        .ingest
                        .ingest(&session.cluster, name, columns.clone(), &session.cred)
                    {
                        Ok(t) if measured => wall.appends.push(ms(t)),
                        Ok(_) => {}
                        Err(e) => {
                            failed += 1;
                            errors.push(e);
                        }
                    }
                    answers.push(None);
                }
                Op::Query { sql, ordered, .. } => {
                    let (t, r) = session.query(sql, wl.think);
                    answers.push(r.as_ref().ok().map(|r| digest(&r.batch, *ordered)));
                    match r {
                        Ok(r) if measured => {
                            wall.queries.push(ms(t));
                            sim.response.push(r.response_time);
                            sim.stats.push(r.stats);
                        }
                        Ok(_) => {}
                        Err(e) => {
                            failed += 1;
                            errors.push(e);
                        }
                    }
                    qi += 1;
                }
            }
        }
        drop(session);
        walls.push(wall);
        digests.push(answers);
        match &first {
            None => first = Some(sim),
            Some(f) => deterministic &= *f == sim,
        }
        if failed > 0 {
            break;
        }
    }
    let peak_rss = peak_rss_mib();
    match check::expected_answers(wl) {
        Ok(expected) => {
            for answers in &digests {
                for ((op, want), got) in wl.ops.iter().zip(&expected).zip(answers) {
                    if let (Op::Query { sql, .. }, Some(got)) = (op, got) {
                        if *want != Some(*got) {
                            failed += 1;
                            errors.push(format!("wrong answer: {sql}"));
                        }
                    }
                }
            }
        }
        Err(e) => {
            failed += 1;
            errors.push(e);
        }
    }
    let sim_ms: Vec<f64> = first
        .as_ref()
        .map(|f| f.response.iter().map(|d| d.as_millis_f64()).collect())
        .unwrap_or_default();
    let best_ms = best_each(&walls, |w| w.queries.clone());
    let loop_ms =
        best_total(&walls, |w| w.queries.clone()) + best_total(&walls, |w| w.appends.clone());
    // Each ingest call at its best time: initial loads over every set-up,
    // appends over every pass.
    let load_calls: usize = wl.tables.iter().map(|t| t.chunks.len()).sum();
    let ingests: Vec<&IngestTally> = walls.iter().map(|w| &w.ingest).collect();
    let loads: Vec<&IngestTally> = walls
        .iter()
        .flat_map(|w| w.spare_loads.iter().chain([&w.ingest]))
        .collect();
    let appends = load_calls..ingests.first().map_or(0, |t| t.calls.len());
    let ingest_ms = best_calls(&loads, 0..load_calls) + best_calls(&ingests, appends);
    let ingest_rows = walls.first().map_or(0, |w| w.ingest.rows);
    let setups: Vec<f64> = walls.iter().flat_map(|w| w.setups.clone()).collect();
    let mut notes: Vec<String> = walls
        .iter()
        .enumerate()
        .map(|(i, w)| {
            format!(
                "pass {}: set-ups {:.3?} s, wall p50 {:.3} ms, p95 {:.3} ms",
                i + 1,
                w.setups,
                percentile(&w.queries, 0.5),
                percentile(&w.queries, 0.95)
            )
        })
        .collect();
    notes.extend(errors.iter().take(5).cloned());
    if !deterministic {
        notes.push("simulated results differ between passes of one seed".into());
    }
    notes.push(format!(
        "{} passes of {} measured queries after {} warm-up",
        walls.len(),
        wl.queries() - wl.warmup,
        wl.warmup
    ));
    let correct = failed == 0 && deterministic && best_ms.len() >= MIN_SAMPLES;
    let m = |name, unit, value| Metric { name, unit, value };
    Report {
        correct,
        attempted,
        failed,
        notes,
        extra: vec![
            m(
                "failed_frac",
                "ratio",
                failed as f64 / attempted.max(1) as f64,
            ),
            m("samples", "count", best_ms.len() as f64),
        ],
        metrics: vec![
            m("setup_s", "s", median(&setups)),
            m(
                "qps",
                "1/s",
                best_ms.len() as f64 / (loop_ms / 1e3).max(1e-9),
            ),
            m("wall_p50_ms", "ms", percentile(&best_ms, 0.5)),
            m("wall_p95_ms", "ms", percentile(&best_ms, 0.95)),
            m("sim_p50_ms", "ms", percentile(&sim_ms, 0.5)),
            m("sim_p95_ms", "ms", percentile(&sim_ms, 0.95)),
            m(
                "ingest_rows_per_s",
                "rows/s",
                ingest_rows as f64 / (ingest_ms / 1e3).max(1e-9),
            ),
            m("peak_rss_mib", "MiB", peak_rss),
        ],
    }
}
