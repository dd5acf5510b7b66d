//! The three workloads: cluster shape, generated tables and the fixed
//! operation sequence one pass replays.
//!
//! Everything here is a pure function of the seed. The engine sees only
//! the tables (through ingest) and the SQL text (through `query`).

use feisu_bench::ScanWorkload;
use feisu_common::rng::DetRng;
use feisu_common::{ByteSize, SimDuration};
use feisu_core::engine::ClusterSpec;
use feisu_format::{Column, DataType, Field, Schema};
use feisu_workload::datasets::{generate_chunk, DatasetSpec};

pub const NAMES: [&str; 3] = ["scan_reuse", "groupby_wide", "star_join"];

/// One generated table: where it lives and its initial load, split into
/// the chunks each ingest call receives.
pub struct Table {
    pub name: String,
    pub location: String,
    pub schema: Schema,
    pub chunks: Vec<Vec<Column>>,
}

/// One step of a pass.
pub enum Op {
    /// A query; `ordered` marks an ORDER BY whose row order is part of
    /// the answer. `oracle` is the statement the oracle evaluates: the
    /// same query, in a form its written-order join executor can afford.
    Query {
        sql: String,
        oracle: String,
        ordered: bool,
    },
    /// Appends one fresh block to `tables[table]`.
    Append { table: usize, columns: Vec<Column> },
}

pub struct Workload {
    pub name: &'static str,
    pub spec: ClusterSpec,
    pub tables: Vec<Table>,
    pub ops: Vec<Op>,
    /// Leading queries of every pass that warm caches and indices and are
    /// left out of every metric.
    pub warmup: usize,
    /// Simulated idle time before every query (the closed-loop client's
    /// think time).
    pub think: SimDuration,
    /// Human-readable sizes, printed with the results.
    pub sizes: String,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "scan_reuse" => Some(scan_reuse(seed)),
            "groupby_wide" => Some(groupby_wide(seed)),
            "star_join" => Some(star_join(seed)),
            _ => None,
        }
    }

    pub fn queries(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Query { .. }))
            .count()
    }
}

/// Spec shared by all workloads: the engine's defaults and one leaf-task
/// worker per available core. The cluster's own seed (replica placement)
/// stays fixed: the run's seed varies the data and the SQL, not how
/// evenly blocks happen to land on nodes.
fn base_spec(dcs: u32, racks_per_dc: u32, nodes_per_rack: u32) -> ClusterSpec {
    let mut spec = ClusterSpec::small();
    spec.datacenters = dcs;
    spec.racks_per_dc = racks_per_dc;
    spec.nodes_per_rack = nodes_per_rack;
    spec.config.execution_threads = 0;
    spec
}

fn chunked(spec: &DatasetSpec, chunk: usize) -> Vec<Vec<Column>> {
    (0..spec.rows)
        .step_by(chunk)
        .map(|start| generate_chunk(spec, start, chunk))
        .collect()
}

// ------------------------------------------------------------ scan_reuse

const SCAN_ROWS: usize = 32_768;
const SCAN_FIELDS: usize = 48;
const SCAN_BLOCK_ROWS: usize = 2048;
const SCAN_QUERIES: usize = 640;
const SCAN_WARMUP: usize = 160;
/// Analysts whose statements the client interleaves.
const SCAN_USERS: u64 = 4;
/// One fresh log block is appended after every this many queries.
const SCAN_APPEND_EVERY: usize = 80;
/// DRAM tier per node, sized from the traced run's measured working set.
/// Every query of the mix reads every block it does not answer from
/// SmartIndex, and each block is read on the node the scheduler assigns
/// it to: over a pass each node's leaf reads about 1 MiB of blocks (three
/// of ~330 KiB). The tier holds that hot set with room to spare, but not
/// the node's share of the stored replicas (~2.8 MiB by the end of a
/// pass) nor the table (~7.4 MiB per replica); the SSD tier holds
/// everything.
const SCAN_MEM_TIER: u64 = 1536 << 10;

/// The paper's §VI-B mix over a T1-shaped log table: Zipf-0.9 predicate
/// reuse, 40% `COUNT(*)`, `CONTAINS` filters, with SmartIndex, task
/// reuse and the tiered cache on, and a block appended every
/// `SCAN_APPEND_EVERY` queries so writes sit beside the reads.
fn scan_reuse(seed: u64) -> Workload {
    let mut spec = base_spec(1, 2, 4);
    spec.rows_per_block = SCAN_BLOCK_ROWS;
    spec.config.cache.enabled = true;
    spec.config.cache.mem_capacity_per_node = ByteSize(SCAN_MEM_TIER);
    spec.config.cache.ssd_capacity_per_node = ByteSize::gib(1);
    let appends = SCAN_QUERIES / SCAN_APPEND_EVERY;
    let data = DatasetSpec {
        name: "t1".into(),
        rows: SCAN_ROWS + appends * SCAN_BLOCK_ROWS,
        fields: SCAN_FIELDS,
        url_pool: 5000,
        seed: seed ^ 0x71,
    };
    let initial = DatasetSpec {
        rows: SCAN_ROWS,
        ..data.clone()
    };
    let table = Table {
        name: "t1".into(),
        location: "/hdfs/logs/t1".into(),
        schema: data.schema(),
        chunks: chunked(&initial, 8192),
    };
    // Several analysts share the table, each with their own Zipfian
    // predicate population; the client interleaves their statements.
    let mut users: Vec<ScanWorkload> = (0..SCAN_USERS)
        .map(|u| ScanWorkload::new("t1", 16, 0.9, seed.wrapping_mul(SCAN_USERS).wrapping_add(u)))
        .collect();
    let mut ops = Vec::new();
    for i in 0..SCAN_QUERIES {
        if i > 0 && i % SCAN_APPEND_EVERY == 0 {
            let start = SCAN_ROWS + (i / SCAN_APPEND_EVERY - 1) * SCAN_BLOCK_ROWS;
            ops.push(Op::Append {
                table: 0,
                columns: generate_chunk(&data, start, SCAN_BLOCK_ROWS),
            });
        }
        let n = users.len();
        let sql = users[i % n].next_query();
        ops.push(Op::Query {
            oracle: sql.clone(),
            sql,
            ordered: false,
        });
    }
    Workload {
        name: "scan_reuse",
        spec,
        tables: vec![table],
        ops,
        warmup: SCAN_WARMUP,
        think: SimDuration::secs(2),
        sizes: format!(
            "t1 {SCAN_ROWS} rows x {SCAN_FIELDS} cols in {SCAN_BLOCK_ROWS}-row blocks on 8 nodes \
             (1 DC, 2 racks), +1 block per {SCAN_APPEND_EVERY} queries; cache DRAM {} KiB + \
             SSD 1 GiB per node; SmartIndex 512 MiB per leaf; {SCAN_QUERIES} queries per pass, \
             {SCAN_WARMUP} warm-up; think 2 s",
            SCAN_MEM_TIER >> 10
        ),
    }
}

// ---------------------------------------------------------- groupby_wide

const WIDE_ROWS: usize = 16_384;
const WIDE_BLOCK_ROWS: usize = 1024;
const WIDE_QUERIES: usize = 216;
const WIDE_WARMUP: usize = 12;

/// Integer COUNT/SUM/MIN/MAX grouped by high-cardinality `url`,
/// low-cardinality `day`, or both, on a 2-DC, 4-rack cluster. The
/// `dwell_ms` range literals come from a 120,000-wide domain, so
/// identical predicates (and thus index and task reuse) are rare.
fn groupby_wide(seed: u64) -> Workload {
    let mut spec = base_spec(2, 2, 4);
    spec.rows_per_block = WIDE_BLOCK_ROWS;
    let data = DatasetSpec {
        name: "clicks".into(),
        rows: WIDE_ROWS,
        fields: 6,
        url_pool: 5000,
        seed: seed ^ 0x72,
    };
    let table = Table {
        name: "clicks".into(),
        location: "/hdfs/logs/clicks".into(),
        schema: data.schema(),
        chunks: chunked(&data, 8192),
    };
    let mut rng = DetRng::new(seed ^ 0x6B);
    let keys = ["url", "day", "url, day"];
    // Group keys take turns so every seed has the same mix.
    let ops = (0..WIDE_QUERIES)
        .map(|i| {
            let key = keys[i % keys.len()];
            let lo = rng.range_i64(10, 100_000);
            let hi = lo + rng.range_i64(4_000, 30_000);
            let sql = format!(
                "SELECT {key}, COUNT(*) AS n, SUM(dwell_ms) AS dwell, MIN(clicks) AS lo, \
                 MAX(clicks) AS hi FROM clicks WHERE dwell_ms >= {lo} AND dwell_ms < {hi} \
                 GROUP BY {key}"
            );
            Op::Query {
                oracle: sql.clone(),
                sql,
                ordered: false,
            }
        })
        .collect();
    Workload {
        name: "groupby_wide",
        spec,
        tables: vec![table],
        ops,
        warmup: WIDE_WARMUP,
        think: SimDuration::secs(2),
        sizes: format!(
            "clicks {WIDE_ROWS} rows x 6 cols in {WIDE_BLOCK_ROWS}-row blocks on 16 nodes \
             (2 DCs, 4 racks); no block cache; SmartIndex 512 MiB per leaf; {WIDE_QUERIES} \
             queries per pass, {WIDE_WARMUP} warm-up; think 2 s"
        ),
    }
}

// ------------------------------------------------------------- star_join

const FACT_ROWS: usize = 32_768;
const STAR_QUERIES: usize = 240;
const STAR_WARMUP: usize = 24;
/// Queries per round of the shape cycle: each (group, filter) pair three
/// times with 3 relations, then once with 4.
const STAR_CYCLE: usize = 24;
/// Dimension sizes: (name, key column, attribute column, rows, distinct
/// attribute values).
const DIMS: [(&str, &str, usize, i64); 3] = [
    ("d1", "cat", 400, 40),
    ("d2", "region", 200, 20),
    ("d3", "brand", 100, 10),
];

/// A Zipfian star: small key-value dimensions, a fact table on HDFS, and
/// SQL that lists the dimensions first so the syntactic order starts
/// with a cross product the cost-based lowering must reorder away.
fn star_join(seed: u64) -> Workload {
    let mut spec = base_spec(1, 2, 4);
    spec.rows_per_block = 4096;
    let mut rng = DetRng::new(seed ^ 0x57A2);
    let mut tables = Vec::new();
    for (name, attr, rows, distinct) in DIMS {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new(attr, DataType::Int64, false),
        ]);
        let keys: Vec<i64> = (0..rows as i64).collect();
        let attrs: Vec<i64> = (0..rows).map(|_| rng.range_i64(0, distinct - 1)).collect();
        tables.push(Table {
            name: name.into(),
            location: format!("/kv/star/{name}"),
            schema,
            chunks: vec![vec![Column::from_i64(keys), Column::from_i64(attrs)]],
        });
    }
    let fact_schema = Schema::new(vec![
        Field::new("k1", DataType::Int64, false),
        Field::new("k2", DataType::Int64, false),
        Field::new("k3", DataType::Int64, false),
        Field::new("v", DataType::Int64, false),
    ]);
    let mut chunks = Vec::new();
    for start in (0..FACT_ROWS).step_by(8192) {
        let n = 8192.min(FACT_ROWS - start);
        let mut cols: Vec<Vec<i64>> = (0..4).map(|_| Vec::with_capacity(n)).collect();
        for _ in 0..n {
            for (c, (_, _, rows, _)) in cols.iter_mut().zip(DIMS) {
                c.push(rng.zipf(rows, 0.9) as i64);
            }
            cols[3].push(rng.range_i64(1, 1000));
        }
        chunks.push(cols.into_iter().map(Column::from_i64).collect());
    }
    tables.push(Table {
        name: "f".into(),
        location: "/hdfs/star/f".into(),
        schema: fact_schema,
        chunks,
    });

    let ops = (0..STAR_QUERIES)
        .map(|i| {
            // Group on one dimension, filter selectively on another, and
            // join the third in a quarter of the queries (3 or 4
            // relations). The shapes take turns in a fixed cycle, so every
            // seed has the same mix; the seed picks the filter values.
            // Half of the twelve shapes run about twice as long as the
            // other half, so an even mix would put the median exactly
            // between the two groups, where it jumps from run to run.
            let j = i % STAR_CYCLE;
            let g = j % 3;
            let filt = (g + 1 + (j / 3) % 2) % 3;
            let four = j >= STAR_CYCLE - 6;
            let mut rels: Vec<usize> = vec![g, filt];
            if four {
                rels.push(3 - g - filt);
            }
            rels.sort_unstable();
            let (gname, gattr, _, _) = DIMS[g];
            let (fname, fattr, _, fdistinct) = DIMS[filt];
            let value = rng.range_i64(0, fdistinct - 1);
            let from: Vec<&str> = rels.iter().map(|&d| DIMS[d].0).collect();
            let joins: Vec<String> = rels
                .iter()
                .map(|&d| format!("f.k{} = {}.k", d + 1, DIMS[d].0))
                .collect();
            let statement = |from: &str| {
                format!(
                    "SELECT {gname}.{gattr}, SUM(f.v) AS total, COUNT(*) AS n FROM {from} \
                     WHERE {} AND {fname}.{fattr} = {value} GROUP BY {gname}.{gattr} \
                     ORDER BY total DESC, {gname}.{gattr} LIMIT 5",
                    joins.join(" AND "),
                )
            };
            // The engine gets the dimensions first; the oracle joins in
            // written order, so it gets the fact first and never builds
            // the dimension cross product.
            Op::Query {
                sql: statement(&format!("{}, f", from.join(", "))),
                oracle: statement(&format!("f, {}", from.join(", "))),
                ordered: true,
            }
        })
        .collect();
    Workload {
        name: "star_join",
        spec,
        tables,
        ops,
        warmup: STAR_WARMUP,
        think: SimDuration::secs(2),
        sizes: format!(
            "fact f {FACT_ROWS} rows x 4 cols on HDFS, dims d1/d2/d3 400/200/100 rows on kv, \
             8 nodes (1 DC, 2 racks); no block cache; SmartIndex 512 MiB per leaf; \
             {STAR_QUERIES} queries per pass, {STAR_WARMUP} warm-up; think 2 s"
        ),
    }
}
