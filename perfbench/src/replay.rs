//! The traced per-layer replay.
//!
//! The engine keeps no wall-clock instrumentation, so the traced run
//! drives each query through the layers' public entry points itself, in
//! pipeline order, and records one span around every call:
//!
//! 1. front end: `parse_query`, `analyze`, `build_plan`,
//!    `optimize_with_trace`, then lowering with `reorder::lower_with`;
//! 2. scheduling: `Scheduler::assign_all` (the cluster's scheduler and
//!    heartbeat table are private, so the replay builds a `Scheduler`
//!    with the spec's policy and beats its own `HeartbeatTable`);
//! 3. task reuse: `JobManager::lookup_task` / `store_task`;
//! 4. leaves: `LeafServer::execute` on `cluster.leaf(node)`;
//! 5. merge: rack → DC → master over the `Topology`, with
//!    `stem::merge_agg_partition` for aggregate transports (the engine's
//!    repartition exchange, its partition folds run one after another
//!    here) and `stem::merge_outputs` for row results;
//! 6. master operators from `feisu_exec` (aggregate, join, sort, ops).
//!
//! Storage reads and block decoding happen inside `LeafServer::execute`,
//! out of reach of a span. They are measured by *probe* spans that
//! repeat the task's read and decode (`Block::deserialize_columns`) right
//! after the task. The read goes through a shadow router whose block
//! cache mirrors the engine's (see `shadow_router`), so it covers
//! authorization, the cache lookup and, on a miss, the domain read and
//! the cache admission. A probe's time is charged to storage or format
//! and taken out of the leaf's self time.
//!
//! The replay runs on its own cluster, beside an untraced reference
//! cluster built from the same spec with one leaf worker (the replay is
//! serial too). Both see the same ingests, think times and clock, and
//! for every query the replay's answer and task count must equal the
//! reference engine's. Simulated times and wire bytes come from the
//! reference engine's `QueryResult`.

use crate::check::{digest, Digest};
use crate::workload::{Op, Workload};
use crate::{check_answer, median, IngestTally, Metric, Report, Session};
use feisu_cluster::heartbeat::{HeartbeatTable, LoadStats};
use feisu_cluster::{NodeInfo, Topology};
use feisu_common::config::{CacheSettings, MergeTreeShape};
use feisu_common::{NodeId, SimInstant};
use feisu_core::catalog::CatalogView;
use feisu_core::leaf::ScanTask;
use feisu_core::master::job_manager::task_signature;
use feisu_core::master::Scheduler;
use feisu_core::stem::{merge_agg_partition, merge_outputs, AggShape, StemOutput};
use feisu_core::{ClusterSpec, QueryResult};
use feisu_exec::aggregate::AggTable;
use feisu_exec::batch::RecordBatch;
use feisu_exec::physical::PhysicalPlan;
use feisu_exec::reorder::{lower_with, LowerOptions};
use feisu_format::Block;
use feisu_obs::SpanNode;
use feisu_sql::analyze::analyze;
use feisu_sql::optimizer::optimize_with_trace;
use feisu_sql::parser::parse_query;
use feisu_sql::plan::build_plan;
use feisu_storage::cache::{BlockCache, CachePin, CacheStats, TieredCache};
use feisu_storage::router::StorageRouter;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a span's self time is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// The whole replay of one operation.
    Root,
    Sql,
    Lower,
    Sched,
    Reuse,
    Leaf,
    Storage,
    Format,
    Stem,
    Agg,
    Join,
    Sort,
    Ops,
    Ingest,
}

const LAYER_COUNT: usize = Layer::Ingest as usize + 1;

struct Span {
    name: &'static str,
    layer: Layer,
    op: usize,
    start: u64,
    end: u64,
    parent: Option<usize>,
    /// For a probe: the span whose hidden work it re-measures.
    debits: Option<usize>,
}

/// In-memory span recorder; spans are written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Operation index (within the pass) the next spans belong to.
    op: usize,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, layer: Layer, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            start,
            end: start,
            parent,
            debits: None,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Records one span around `f`, which receives the span's id.
    fn span<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: usize,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> T {
        let id = self.begin(name, layer, Some(parent));
        let out = f(self, id);
        self.end(id);
        out
    }

    /// Self time of every span in `range`: its duration minus its
    /// children's durations (the replay is serial, so children never
    /// overlap) minus the probes that re-measured work hidden inside it.
    fn self_times(&self, range: std::ops::Range<usize>) -> Vec<u64> {
        let base = range.start;
        let mut own: Vec<u64> = self.spans[range.clone()]
            .iter()
            .map(|s| s.end - s.start)
            .collect();
        for s in &self.spans[range] {
            for target in [s.parent, s.debits].into_iter().flatten() {
                own[target - base] = own[target - base].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\top\tlayer\tname\tstart_ns\tend_ns\tdebits\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(String::from("-"), |v| v.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{:?}\t{}\t{}\t{}\t{}",
                opt(s.parent),
                s.op,
                s.layer,
                s.name,
                s.start,
                s.end,
                opt(s.debits)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Counts of one pass's measured section. Every pass of a seed must
/// produce the same counts.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    queries: u64,
    rules_fired: u64,
    joins_reordered: u64,
    tasks: u64,
    reuse_lookups: u64,
    reuse_hits: u64,
    leaf_tasks: u64,
    leaf_rows_in: u64,
    leaf_rows_out: u64,
    leaf_skipped: u64,
    leaf_mem_served: u64,
    bytes_read: u64,
    decoded_bytes: u64,
    index_hits: u64,
    index_lookups: u64,
    index_inserts: u64,
    index_evictions: u64,
    cache_hits: u64,
    cache_mem_hits: u64,
    cache_lookups: u64,
    cache_evictions: u64,
    stem_rows_merged: u64,
    master_rows_in: u64,
    wire_leaf_stem: u64,
    wire_rack_dc: u64,
    wire_stem_master: u64,
    sim_leaf_ns: u64,
    sim_stem_ns: u64,
    sim_master_ns: u64,
    ingest_calls: u64,
    ingest_raw_bytes: u64,
    ingest_stored_bytes: u64,
    /// Per node, in node order: stored bytes of the distinct blocks its
    /// leaf read during the whole pass (the node's cache working set).
    node_read_sets: Vec<u64>,
}

/// Wall-clock sums of one pass's measured section, in nanoseconds.
#[derive(Default)]
struct Walls {
    layer: [u64; LAYER_COUNT],
    traced_total: u64,
    untraced_total: u64,
    /// Traced layer time of query operations only (excludes ingest).
    query_layers: u64,
    ingest: u64,
}

/// The replay side of a traced pass.
struct Replay<'a> {
    session: &'a Session,
    /// Where the probes read: see `shadow_router`.
    shadow: StorageRouter,
    /// Stored size of every block each node's leaf read in this pass.
    read_blocks: BTreeMap<(NodeId, String), u64>,
    topology: Topology,
    scheduler: Scheduler,
    heartbeats: HeartbeatTable,
    counts: Counts,
}

impl Replay<'_> {
    fn query(
        &mut self,
        tr: &mut Tracer,
        root: usize,
        sql: &str,
    ) -> Result<(RecordBatch, u64), String> {
        let cluster = &self.session.cluster;
        let spec = cluster.spec();
        let catalog = CatalogView(cluster.catalog());
        let now = cluster.now();
        let err = |e: feisu_common::FeisuError| e.to_string();
        let query = tr
            .span("parse_query", Layer::Sql, root, |_, _| parse_query(sql))
            .map_err(err)?;
        let resolved = tr
            .span("analyze", Layer::Sql, root, |_, _| {
                analyze(&query, &catalog)
            })
            .map_err(err)?;
        let plan = tr
            .span("build_plan", Layer::Sql, root, |_, _| build_plan(&resolved))
            .map_err(err)?;
        let opt = &spec.config.optimizer;
        let logical = if opt.enabled {
            let (logical, fires) = tr
                .span("optimize_with_trace", Layer::Sql, root, |_, _| {
                    optimize_with_trace(plan)
                })
                .map_err(err)?;
            self.counts.rules_fired += fires.iter().map(|f| u64::from(f.fires)).sum::<u64>();
            logical
        } else {
            plan
        };
        let lower_opts = LowerOptions {
            cost: &spec.cost,
            join_reorder: opt.enabled && opt.join_reorder,
            dp_limit: opt.dp_limit,
        };
        let (physical, lowered) = tr
            .span("lower_with", Layer::Lower, root, |_, _| {
                lower_with(&logical, &catalog, &lower_opts)
            })
            .map_err(err)?;
        self.counts.joins_reordered +=
            lowered.join_orders.iter().filter(|j| j.reordered).count() as u64;
        let tasks_before = self.counts.tasks;
        let batch = self.exec(tr, root, &physical, now).map_err(err)?;
        Ok((batch, self.counts.tasks - tasks_before))
    }

    /// Interprets one physical operator, as the master does.
    fn exec(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        plan: &PhysicalPlan,
        now: SimInstant,
    ) -> feisu_common::Result<RecordBatch> {
        use feisu_exec::{join, ops, sort};
        match plan {
            PhysicalPlan::DistributedScan { .. } => {
                tr.span("DistributedScan", Layer::Sched, parent, |tr, id| {
                    self.scan(tr, id, plan, now)
                })
            }
            PhysicalPlan::FinalAggregate {
                input,
                group_by,
                aggregates,
                output_schema,
            } => tr.span("FinalAggregate", Layer::Agg, parent, |tr, id| {
                let merged = self.exec(tr, id, input, now)?;
                self.counts.master_rows_in += merged.rows() as u64;
                AggTable::from_transport(group_by.clone(), aggregates.clone(), &merged)?
                    .finish(output_schema)
            }),
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggregates,
                output_schema,
            } => tr.span("HashAggregate", Layer::Agg, parent, |tr, id| {
                let batch = self.exec(tr, id, input, now)?;
                self.counts.master_rows_in += batch.rows() as u64;
                let mut agg = AggTable::new(group_by.clone(), aggregates.clone());
                agg.update(&batch)?;
                agg.finish(output_schema)
            }),
            PhysicalPlan::Filter { input, predicate } => {
                tr.span("Filter", Layer::Ops, parent, |tr, id| {
                    let batch = self.exec(tr, id, input, now)?;
                    self.counts.master_rows_in += batch.rows() as u64;
                    ops::filter(&batch, predicate)
                })
            }
            PhysicalPlan::Project {
                input,
                exprs,
                output_schema,
            } => tr.span("Project", Layer::Ops, parent, |tr, id| {
                let batch = self.exec(tr, id, input, now)?;
                self.counts.master_rows_in += batch.rows() as u64;
                ops::project(&batch, exprs, output_schema)
            }),
            PhysicalPlan::HashJoin {
                left,
                right,
                kind,
                on,
                output_schema,
            } => tr.span("HashJoin", Layer::Join, parent, |tr, id| {
                let l = self.exec(tr, id, left, now)?;
                let r = self.exec(tr, id, right, now)?;
                self.counts.master_rows_in += (l.rows() + r.rows()) as u64;
                join::join(&l, &r, *kind, on, output_schema)
            }),
            PhysicalPlan::Sort { input, keys, fetch } => {
                tr.span("Sort", Layer::Sort, parent, |tr, id| {
                    let batch = self.exec(tr, id, input, now)?;
                    self.counts.master_rows_in += batch.rows() as u64;
                    sort::sort(&batch, keys, *fetch)
                })
            }
            PhysicalPlan::Limit { input, fetch } => {
                tr.span("Limit", Layer::Ops, parent, |tr, id| {
                    let batch = self.exec(tr, id, input, now)?;
                    self.counts.master_rows_in += batch.rows() as u64;
                    ops::limit(&batch, *fetch)
                })
            }
            PhysicalPlan::Empty { output_schema } => Ok(RecordBatch::empty(output_schema.clone())),
        }
    }

    /// One distributed scan: dissect into per-block tasks, place them,
    /// reuse or run each on its leaf, and merge up the tree.
    fn scan(
        &mut self,
        tr: &mut Tracer,
        scan_span: usize,
        plan: &PhysicalPlan,
        now: SimInstant,
    ) -> feisu_common::Result<RecordBatch> {
        let PhysicalPlan::DistributedScan {
            table,
            projection,
            cnf,
            residual,
            agg_stage,
            name_map,
            output_schema,
            ..
        } = plan
        else {
            unreachable!("scan() is only called on DistributedScan");
        };
        let cluster = &self.session.cluster;
        let router = cluster.router();
        let desc = cluster.catalog().table(table)?;
        let mut tasks = Vec::new();
        let mut replicas = Vec::new();
        for block in desc.blocks() {
            replicas.push(router.replicas(&block.path)?);
            tasks.push(ScanTask {
                table: table.clone(),
                block: block.clone(),
                projection: projection.clone(),
                output_schema: output_schema.clone(),
                cnf: cnf.clone(),
                residual: residual.clone(),
                agg: agg_stage.clone(),
                name_map: name_map.clone(),
            });
        }
        self.counts.tasks += tasks.len() as u64;
        let shape = agg_stage
            .as_ref()
            .map(|s| (s.group_by.as_slice(), s.aggregates.as_slice()));
        if tasks.is_empty() {
            return match agg_stage {
                Some(s) => AggTable::new(s.group_by.clone(), s.aggregates.clone()).to_transport(),
                None => Ok(RecordBatch::empty(output_schema.clone())),
            };
        }

        let (topology, heartbeats, scheduler) =
            (&self.topology, &mut self.heartbeats, &self.scheduler);
        let assignments = tr.span("assign_all", Layer::Sched, scan_span, |_, _| {
            for n in topology.nodes() {
                heartbeats.beat(n.id, now, LoadStats::default());
            }
            scheduler.assign_all(&replicas, topology, heartbeats, now)
        })?;

        // The signature covers indexable and residual clauses alike, as
        // the engine's does.
        let cnf_display = cnf
            .clauses
            .iter()
            .map(|c| c.to_expr().to_string())
            .chain(residual.iter().map(|e| e.to_string()))
            .collect::<Vec<_>>()
            .join("&");
        let agg_display = agg_stage
            .as_ref()
            .map(|s| {
                s.aggregates
                    .iter()
                    .map(|a| a.name.clone())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default();
        let signatures: Vec<String> = tasks
            .iter()
            .map(|t| task_signature(table, t.block.id, &cnf_display, projection, &agg_display))
            .collect();
        let jobs = cluster.jobs();
        let reused: Vec<Option<(RecordBatch, bool)>> =
            tr.span("lookup_task", Layer::Reuse, scan_span, |_, _| {
                signatures
                    .iter()
                    .map(|s| jobs.lookup_task(s, now))
                    .collect()
            });
        self.counts.reuse_lookups += tasks.len() as u64;

        let use_index = cluster.spec().use_smartindex;
        let mut outputs: Vec<(NodeId, StemOutput)> = Vec::with_capacity(tasks.len());
        let mut stores = Vec::new();
        for (i, hit) in reused.into_iter().enumerate() {
            let node = assignments[i].node;
            if let Some((batch, is_agg_transport)) = hit {
                self.counts.reuse_hits += 1;
                outputs.push((
                    node,
                    StemOutput {
                        batch,
                        is_agg_transport,
                        tally: Default::default(),
                    },
                ));
                continue;
            }
            let leaf = cluster.leaf(node).ok_or_else(|| {
                feisu_common::FeisuError::NodeUnavailable(format!("{node} has no leaf server"))
            })?;
            let cred = &self.session.cred;
            let (out, leaf_span) = tr.span("execute", Layer::Leaf, scan_span, |_, id| {
                (leaf.execute(&tasks[i], router, cred, now, use_index), id)
            });
            let out = out?;
            let s = &out.stats;
            self.counts.leaf_tasks += 1;
            self.counts.leaf_rows_in += s.rows_in as u64;
            self.counts.leaf_rows_out += s.rows_out as u64;
            self.counts.leaf_skipped += s.blocks_skipped as u64;
            self.counts.leaf_mem_served += u64::from(s.served_from_memory);
            self.counts.bytes_read += s.bytes_read.as_u64();
            if !s.served_from_memory {
                let decode_predicates = s.index_built + s.scanned_predicates > 0;
                self.probe(
                    tr,
                    scan_span,
                    leaf_span,
                    &tasks[i],
                    node,
                    now,
                    s.blocks_skipped > 0,
                    decode_predicates,
                )?;
            }
            stores.push((i, out.batch.clone(), out.is_agg_transport));
            outputs.push((node, out.into()));
        }
        tr.span("store_task", Layer::Reuse, scan_span, |_, _| {
            for (i, batch, is_agg) in stores {
                jobs.store_task(signatures[i].clone(), batch, is_agg, now);
            }
        });

        tr.span("merge", Layer::Stem, scan_span, |tr, id| {
            self.merge(tr, id, outputs, shape)
        })
    }

    /// Repeats a task's storage read and block decode, charging them to
    /// storage and format instead of the leaf. The read goes through the
    /// shadow router, so it takes the path the leaf's read took:
    /// authorization, the tiered cache lookup, and on a miss the domain
    /// read and the cache admission. The decoded columns
    /// follow the leaf's late materialization: projection and residual
    /// columns always, predicate columns only when some predicate was not
    /// answered from SmartIndex.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        tr: &mut Tracer,
        scan_span: usize,
        leaf_span: usize,
        task: &ScanTask,
        node: NodeId,
        now: SimInstant,
        zone_skipped: bool,
        decode_predicates: bool,
    ) -> feisu_common::Result<()> {
        let (shadow, cred) = (&self.shadow, &self.session.cred);
        let read = tr.span("read_attributed", Layer::Storage, scan_span, |tr, id| {
            tr.spans[id].debits = Some(leaf_span);
            shadow.read_attributed(&task.block.path, node, cred, now, Some(&task.table))
        })?;
        self.read_blocks
            .insert((node, task.block.path.clone()), read.data.len() as u64);
        let mut names: Vec<String> = task.projection.clone();
        let mut canonical = Vec::new();
        if decode_predicates {
            for clause in &task.cnf.clauses {
                clause.to_expr().columns(&mut canonical);
            }
        }
        for e in &task.residual {
            e.columns(&mut canonical);
        }
        for c in canonical {
            names.push(task.name_map.get(&c).cloned().unwrap_or(c));
        }
        names.sort();
        names.dedup();
        let decoded = tr.span("deserialize_columns", Layer::Format, scan_span, |tr, id| {
            tr.spans[id].debits = Some(leaf_span);
            let meta = Block::read_meta(&read.data)?;
            if zone_skipped {
                return Ok(0);
            }
            let wanted: Vec<&str> = names
                .iter()
                .map(String::as_str)
                .filter(|n| meta.schema.index_of(n).is_some())
                .collect();
            Block::deserialize_columns(&read.data, &wanted).map(|b| b.footprint() as u64)
        })?;
        self.counts.decoded_bytes += decoded;
        Ok(())
    }

    /// Folds the task outputs up the tree as the engine's merge tree
    /// does. Row results go to stems in submission-order chunks of
    /// `leaves_per_stem`, then to the master. Aggregate transports go
    /// through the repartition exchange: rack-local stems first, then one
    /// per data center, then the master. Only the default `Topology`
    /// shape of the merge tree is followed.
    fn merge(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        outputs: Vec<(NodeId, StemOutput)>,
        shape: Option<AggShape<'_>>,
    ) -> feisu_common::Result<RecordBatch> {
        let config = &self.session.cluster.spec().config;
        let per_stem = config.leaves_per_stem.max(1);
        let master = self.topology.nodes()[0].id;
        let is_agg = outputs.iter().any(|(_, o)| o.is_agg_transport);
        let Some(shape) = shape.filter(|_| is_agg) else {
            return self.merge_rows(tr, parent, outputs, per_stem, master);
        };
        if config.merge_tree.shape != MergeTreeShape::Topology {
            return Err(feisu_common::FeisuError::Internal(
                "the replay follows the topology-shaped merge tree only".into(),
            ));
        }
        // Global aggregates carry one fused state per transport, so only
        // grouped ones are partitioned.
        let parts = if shape.0.is_empty() {
            1
        } else {
            config.merge_tree.exchange_partitions.max(1)
        };
        let keys: [fn(&NodeInfo) -> u32; 2] = [|n| n.rack, |n| n.datacenter];
        let mut level: Vec<(NodeId, Vec<RecordBatch>)> = outputs
            .into_iter()
            .map(|(n, o)| (n, vec![o.batch]))
            .collect();
        for key in keys {
            let nodes: Vec<NodeId> = level.iter().map(|(n, _)| *n).collect();
            let groups = keyed_groups(&self.topology, &nodes, per_stem, key)?;
            let mut next = Vec::with_capacity(groups.len());
            for group in groups {
                let stem = group
                    .iter()
                    .map(|&i| nodes[i])
                    .min()
                    .expect("groups are nonempty");
                let children: Vec<&[RecordBatch]> =
                    group.iter().map(|&i| level[i].1.as_slice()).collect();
                next.push((stem, self.exchange(tr, parent, shape, &children, parts)?));
            }
            level = next;
        }
        let children: Vec<&[RecordBatch]> = level.iter().map(|(_, p)| p.as_slice()).collect();
        let mut root = self.exchange(tr, parent, shape, &children, parts)?;
        if root.len() == 1 {
            return Ok(root.pop().expect("one partition"));
        }
        tr.span("concat", Layer::Stem, parent, |_, _| {
            RecordBatch::concat(&root)
        })
    }

    /// One exchange merger: the `parts` partition folds of
    /// `stem::merge_agg_partition`, one after another (the engine runs
    /// them on its execution pool).
    fn exchange(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        shape: AggShape<'_>,
        children: &[&[RecordBatch]],
        parts: usize,
    ) -> feisu_common::Result<Vec<RecordBatch>> {
        (0..parts)
            .map(|p| {
                let (batch, folded) =
                    tr.span("merge_agg_partition", Layer::Stem, parent, |_, _| {
                        merge_agg_partition(shape, children, p, parts)
                    })?;
                self.counts.stem_rows_merged += folded as u64;
                Ok(batch)
            })
            .collect()
    }

    /// Row results: submission-order chunks into stems, then the master,
    /// each a `stem::merge_outputs`.
    fn merge_rows(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        outputs: Vec<(NodeId, StemOutput)>,
        per_stem: usize,
        master: NodeId,
    ) -> feisu_common::Result<RecordBatch> {
        let mut outputs = outputs.into_iter();
        let mut stems = Vec::new();
        loop {
            let children: Vec<(NodeId, StemOutput)> = outputs.by_ref().take(per_stem).collect();
            if children.is_empty() {
                break;
            }
            let stem = children
                .iter()
                .map(|(n, _)| *n)
                .min()
                .expect("groups are nonempty");
            stems.push((stem, self.stem(tr, parent, children, stem)?));
        }
        Ok(self.stem(tr, parent, stems, master)?.batch)
    }

    fn stem(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        children: Vec<(NodeId, StemOutput)>,
        at: NodeId,
    ) -> feisu_common::Result<StemOutput> {
        let hops = self
            .topology
            .uplink_hops(children.iter().map(|(n, _)| *n), at)?;
        self.counts.stem_rows_merged += children
            .iter()
            .map(|(_, o)| o.batch.rows() as u64)
            .sum::<u64>();
        let children: Vec<StemOutput> = children.into_iter().map(|(_, o)| o).collect();
        let cost = &self.session.cluster.spec().cost;
        tr.span("merge_outputs", Layer::Stem, parent, |_, _| {
            merge_outputs(children, None, cost, hops)
        })
    }
}

/// Node indices grouped by a topology attribute of their node, as the
/// engine's merge tree groups them: keys in order of first appearance,
/// each key's members in submission order, in chunks of at most `cap`.
fn keyed_groups(
    topology: &Topology,
    nodes: &[NodeId],
    cap: usize,
    key: fn(&NodeInfo) -> u32,
) -> feisu_common::Result<Vec<Vec<usize>>> {
    let mut members: Vec<(u32, Vec<usize>)> = Vec::new();
    for (i, &n) in nodes.iter().enumerate() {
        let k = key(topology.node(n)?);
        match members.iter_mut().find(|(mk, _)| *mk == k) {
            Some((_, m)) => m.push(i),
            None => members.push((k, vec![i])),
        }
    }
    Ok(members
        .iter()
        .flat_map(|(_, m)| m.chunks(cap).map(<[usize]>::to_vec))
        .collect())
}

/// Simulated self time per layer class (leaf, stem, master) of one
/// engine query profile. Sibling spans overlap on the simulated clock
/// (leaves run in parallel), so self time subtracts the union of the
/// children's intervals.
fn sim_layers(result: &QueryResult) -> [u64; 3] {
    fn walk(n: &SpanNode, acc: &mut [u64; 3]) {
        let mut iv: Vec<(u64, u64)> = n
            .children
            .iter()
            .map(|c| (c.start.as_nanos(), c.end.as_nanos()))
            .collect();
        iv.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (s, e) in iv {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        let own = n.duration().as_nanos().saturating_sub(covered);
        let class = match n.name.as_str() {
            "leaf_task" => 0,
            "stem" => 1,
            _ => 2,
        };
        acc[class] += own;
        for c in &n.children {
            walk(c, acc);
        }
    }
    let mut acc = [0u64; 3];
    for r in &result.profile.tree.roots {
        walk(r, &mut acc);
    }
    acc
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn run(wl: &Workload, expected: &[Option<Digest>], budget: Duration) -> Report {
    let start = Instant::now();
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        op: 0,
    };
    let mut reference_spec = wl.spec.clone();
    reference_spec.config.execution_threads = 1;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors: Vec<String> = Vec::new();
    let mut first: Option<Counts> = None;
    let mut deterministic = true;
    let mut walls = Walls::default();
    let mut passes = 0u64;
    let mut first_pass_spans = 0usize;
    // As in the untraced run, a pass starts only while the budget still
    // holds one more pass of the mean length so far.
    while passes < 2 || start.elapsed() + start.elapsed() / passes as u32 <= budget {
        attempted += 1;
        match trace_pass(
            wl,
            &reference_spec,
            expected,
            &mut tracer,
            &mut walls,
            &mut errors,
        ) {
            Ok((counts, ops_failed, ops_attempted)) => {
                attempted += ops_attempted;
                failed += ops_failed;
                match &first {
                    None => first = Some(counts),
                    Some(f) => deterministic &= *f == counts,
                }
            }
            Err(e) => {
                failed += 1;
                errors.push(e);
            }
        }
        passes += 1;
        if passes == 1 {
            first_pass_spans = tracer.spans.len();
        }
        if failed > 0 {
            break;
        }
    }
    let c = first.unwrap_or_default();
    let spans_path = std::path::Path::new("perfbench/out").join(format!("spans-{}.tsv", wl.name));
    tracer.spans.truncate(first_pass_spans);
    let mut notes: Vec<String> = errors.iter().take(5).cloned().collect();
    match tracer.write_tsv(&spans_path) {
        Ok(()) => notes.push(format!("first pass spans -> {}", spans_path.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", spans_path.display())),
    }
    if !deterministic {
        notes.push("per-layer counts differ between passes of one seed".into());
    }
    notes.push(format!(
        "{passes} traced passes, {} measured queries per pass",
        c.queries
    ));
    notes.push(format!(
        "tables at pass end: {:.2} MiB raw, {:.2} MiB stored across all replicas",
        c.ingest_raw_bytes as f64 / 1048576.0,
        c.ingest_stored_bytes as f64 / 1048576.0
    ));
    if !c.node_read_sets.is_empty() {
        let kib: Vec<f64> = c
            .node_read_sets
            .iter()
            .map(|&b| b as f64 / 1024.0)
            .collect();
        notes.push(format!(
            "blocks each node's leaf read in a pass: {:.0} KiB median, {:.0} KiB max over {} nodes",
            median(&kib),
            kib.iter().copied().fold(0.0, f64::max),
            kib.len()
        ));
    }

    // Wall sums cover every pass; counts are one pass's.
    let n = (c.queries * passes).max(1) as f64;
    let us = |l: Layer| walls.layer[l as usize] as f64 / 1e3 / n;
    let master_layers = [
        Layer::Sql,
        Layer::Lower,
        Layer::Sched,
        Layer::Reuse,
        Layer::Agg,
        Layer::Join,
        Layer::Sort,
        Layer::Ops,
    ];
    let master_wall: u64 = master_layers.iter().map(|&l| walls.layer[l as usize]).sum();
    let leaf_wall: u64 = [Layer::Leaf, Layer::Storage, Layer::Format]
        .iter()
        .map(|&l| walls.layer[l as usize])
        .sum();
    let p = passes as f64;
    let per_pass = |v: u64| v as f64 * p;
    let m = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        m("sql.wall_us", "us", us(Layer::Sql)),
        m("sql.rules_fired", "count", c.rules_fired as f64),
        m("lower.wall_us", "us", us(Layer::Lower)),
        m("lower.joins_reordered", "count", c.joins_reordered as f64),
        m("sched.wall_us", "us", us(Layer::Sched)),
        m("sched.tasks", "count", c.tasks as f64),
        m(
            "reuse.hit_frac",
            "ratio",
            ratio(c.reuse_hits as f64, c.reuse_lookups as f64),
        ),
        m("leaf.wall_us", "us", us(Layer::Leaf)),
        m(
            "leaf.ns_per_row",
            "ns",
            ratio(
                walls.layer[Layer::Leaf as usize] as f64,
                per_pass(c.leaf_rows_in),
            ),
        ),
        m("leaf.rows_in", "count", c.leaf_rows_in as f64),
        m("leaf.rows_out", "count", c.leaf_rows_out as f64),
        m(
            "leaf.skip_frac",
            "ratio",
            ratio(c.leaf_skipped as f64, c.leaf_tasks as f64),
        ),
        m(
            "leaf.mem_served_frac",
            "ratio",
            ratio(c.leaf_mem_served as f64, c.leaf_tasks as f64),
        ),
        m(
            "index.hit_frac",
            "ratio",
            ratio(c.index_hits as f64, c.index_lookups as f64),
        ),
        m("index.inserts", "count", c.index_inserts as f64),
        m("index.evictions", "count", c.index_evictions as f64),
        m("storage.read_wall_us", "us", us(Layer::Storage)),
        m("storage.bytes_read", "B", c.bytes_read as f64),
        m(
            "cache.hit_frac",
            "ratio",
            ratio(c.cache_hits as f64, c.cache_lookups as f64),
        ),
        m(
            "cache.mem_hit_frac",
            "ratio",
            ratio(c.cache_mem_hits as f64, c.cache_lookups as f64),
        ),
        m("cache.evictions", "count", c.cache_evictions as f64),
        m("format.decode_wall_us", "us", us(Layer::Format)),
        m(
            "format.decode_mb_s",
            "MB/s",
            ratio(
                per_pass(c.decoded_bytes) / 1e6,
                walls.layer[Layer::Format as usize] as f64 / 1e9,
            ),
        ),
        m(
            "ingest.wall_ms",
            "ms",
            walls.ingest as f64 / 1e6 / (c.ingest_calls as f64 * p).max(1.0),
        ),
        m(
            "ingest.write_amp",
            "ratio",
            ratio(c.ingest_stored_bytes as f64, c.ingest_raw_bytes as f64),
        ),
        m("stem.wall_us", "us", us(Layer::Stem)),
        m("stem.rows_merged", "count", c.stem_rows_merged as f64),
        m("wire.leaf_stem_bytes", "B", c.wire_leaf_stem as f64),
        m("wire.rack_dc_bytes", "B", c.wire_rack_dc as f64),
        m("wire.stem_master_bytes", "B", c.wire_stem_master as f64),
        m("master.agg_wall_us", "us", us(Layer::Agg)),
        m("master.join_wall_us", "us", us(Layer::Join)),
        m("master.sort_wall_us", "us", us(Layer::Sort)),
        m("master.rows_in", "count", c.master_rows_in as f64),
        m(
            "sim.leaf_ms",
            "ms",
            c.sim_leaf_ns as f64 / 1e6 / c.queries.max(1) as f64,
        ),
        m(
            "sim.stem_ms",
            "ms",
            c.sim_stem_ns as f64 / 1e6 / c.queries.max(1) as f64,
        ),
        m(
            "sim.master_ms",
            "ms",
            c.sim_master_ns as f64 / 1e6 / c.queries.max(1) as f64,
        ),
        m(
            "clock.leaf_wall_per_sim",
            "ratio",
            ratio(leaf_wall as f64, per_pass(c.sim_leaf_ns)),
        ),
        m(
            "clock.stem_wall_per_sim",
            "ratio",
            ratio(
                walls.layer[Layer::Stem as usize] as f64,
                per_pass(c.sim_stem_ns),
            ),
        ),
        m(
            "clock.master_wall_per_sim",
            "ratio",
            ratio(master_wall as f64, per_pass(c.sim_master_ns)),
        ),
        m(
            "glue.wall_us",
            "us",
            (walls.untraced_total as f64 - walls.query_layers as f64) / 1e3 / n,
        ),
        m(
            "trace.overhead_frac",
            "ratio",
            ratio(walls.traced_total as f64, walls.untraced_total as f64) - 1.0,
        ),
    ];
    Report {
        correct: failed == 0 && deterministic,
        attempted,
        failed,
        notes,
        extra: vec![m(
            "failed_frac",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
        )],
        metrics,
    }
}

/// One traced pass. Returns its counts, failed and attempted operations.
fn trace_pass(
    wl: &Workload,
    reference_spec: &ClusterSpec,
    expected: &[Option<Digest>],
    tr: &mut Tracer,
    walls: &mut Walls,
    errors: &mut Vec<String>,
) -> Result<(Counts, u64, u64), String> {
    let mut untimed = IngestTally::default();
    let reference = Session::open(reference_spec, &wl.tables, &mut untimed)?;
    let mut loads = IngestTally::default();
    let session = Session::open(&wl.spec, &wl.tables, &mut loads)?;
    walls.ingest += loads.calls.iter().map(|d| d.as_nanos() as u64).sum::<u64>();
    let mut replay = Replay {
        session: &session,
        topology: Topology::grid(
            wl.spec.datacenters,
            wl.spec.racks_per_dc,
            wl.spec.nodes_per_rack,
        ),
        scheduler: Scheduler::new(wl.spec.scheduling),
        heartbeats: HeartbeatTable::new(
            wl.spec.config.heartbeat_interval,
            wl.spec.config.heartbeat_miss_limit,
        ),
        shadow: shadow_router(&wl.spec, session.cluster.router()),
        read_blocks: BTreeMap::new(),
        counts: Counts::default(),
    };
    for n in replay.topology.nodes() {
        replay.heartbeats.register(n.id, session.cluster.now());
    }
    // Initial loads count toward ingest; setup itself is end-to-end.
    let mut ingest_calls: u64 = wl.tables.iter().map(|t| t.chunks.len() as u64).sum();
    let (mut failed, mut attempted) = (0u64, 0u64);
    let mut qi = 0usize;
    let mut baseline = Counts::default();
    for (oi, (op, want)) in wl.ops.iter().zip(expected).enumerate() {
        attempted += 1;
        tr.op = oi;
        let measured = qi >= wl.warmup;
        if qi == wl.warmup && matches!(op, Op::Query { .. }) {
            baseline = cluster_counts(&session);
            replay.counts = Counts::default();
        }
        match op {
            Op::Append { table, columns } => {
                let name = &wl.tables[*table].name;
                let mut ignored = IngestTally::default();
                let ref_ok =
                    ignored.ingest(&reference.cluster, name, columns.clone(), &reference.cred);
                let root = tr.begin("ingest_columns", Layer::Ingest, None);
                let ok = ignored.ingest(&session.cluster, name, columns.clone(), &session.cred);
                tr.end(root);
                ingest_calls += 1;
                walls.ingest += tr.spans[root].end - tr.spans[root].start;
                if let Err(e) = ref_ok.and(ok) {
                    failed += 1;
                    errors.push(e);
                }
            }
            Op::Query { sql, ordered, .. } => {
                qi += 1;
                let (wall, r) = reference.query(sql, wl.think);
                session.cluster.advance_time(wl.think);
                let r = r.and_then(|r| check_answer(&r, *want, *ordered, sql).map(|d| (r, d)));
                let (result, want_digest) = match r {
                    Ok(v) => v,
                    Err(e) => {
                        failed += 1;
                        errors.push(e);
                        continue;
                    }
                };
                let first_span = tr.spans.len();
                let root = tr.begin("query", Layer::Root, None);
                let replayed = replay.query(tr, root, sql);
                tr.end(root);
                // Keep both clusters on one simulated clock.
                let lag = reference.cluster.now().since(session.cluster.now());
                session.cluster.advance_time(lag);
                match replayed {
                    Ok((batch, tasks))
                        if digest(&batch, *ordered) == want_digest
                            && tasks == result.stats.tasks as u64 => {}
                    Ok(_) => {
                        failed += 1;
                        errors.push(format!("replay disagrees with the engine: {sql}"));
                        continue;
                    }
                    Err(e) => {
                        failed += 1;
                        errors.push(format!("replay failed: {e}: {sql}"));
                        continue;
                    }
                }
                if !measured {
                    continue;
                }
                let c = &mut replay.counts;
                c.queries += 1;
                c.wire_leaf_stem += result.stats.wire_leaf_stem.as_u64();
                c.wire_rack_dc += result.stats.wire_rack_dc.as_u64();
                c.wire_stem_master += result.stats.wire_stem_master.as_u64();
                let [leaf, stem, master] = sim_layers(&result);
                c.sim_leaf_ns += leaf;
                c.sim_stem_ns += stem;
                c.sim_master_ns += master;
                let own = tr.self_times(first_span..tr.spans.len());
                for (s, t) in tr.spans[first_span..].iter().zip(&own) {
                    walls.layer[s.layer as usize] += t;
                    if s.layer != Layer::Root {
                        walls.query_layers += t;
                    }
                }
                walls.traced_total += tr.spans[root].end - tr.spans[root].start;
                walls.untraced_total += wall.as_nanos() as u64;
            }
        }
    }
    if let (Some(real), Some(shadow)) = (session.cluster.cache(), replay.shadow.cache()) {
        let tiers = |s: CacheStats| {
            (
                s.mem_hits,
                s.ssd_hits,
                s.misses,
                s.mem_evictions,
                s.ssd_evictions,
            )
        };
        if tiers(real.stats()) != tiers(shadow.stats()) {
            failed += 1;
            errors.push(format!(
                "the probes' cache diverged from the engine's: {:?} vs {:?}",
                real.stats(),
                shadow.stats()
            ));
        }
    }
    let end = cluster_counts(&session);
    let mut c = replay.counts;
    let mut sets: BTreeMap<NodeId, u64> = BTreeMap::new();
    for ((node, _), bytes) in &replay.read_blocks {
        *sets.entry(*node).or_default() += bytes;
    }
    c.node_read_sets = sets.into_values().collect();
    c.cache_mem_hits = end.cache_mem_hits - baseline.cache_mem_hits;
    c.index_hits = end.index_hits - baseline.index_hits;
    c.index_lookups = end.index_lookups - baseline.index_lookups;
    c.index_inserts = end.index_inserts - baseline.index_inserts;
    c.index_evictions = end.index_evictions - baseline.index_evictions;
    c.cache_hits = end.cache_hits - baseline.cache_hits;
    c.cache_lookups = end.cache_lookups - baseline.cache_lookups;
    c.cache_evictions = end.cache_evictions - baseline.cache_evictions;
    c.ingest_calls = ingest_calls;
    c.ingest_raw_bytes = end.ingest_raw_bytes;
    c.ingest_stored_bytes = end.ingest_stored_bytes;
    Ok((c, failed, attempted))
}

/// A router over the replay cluster's storage domains and authorization
/// service with a block cache of its own, built as the engine builds its
/// router. The probes read through it: it sees the same reads the leaves
/// made through the engine's router, in the same order and at the same
/// simulated times, so its cache goes through the same states, and each
/// probe takes the path its leaf's read took. `trace_pass` checks at the
/// end of a pass that both caches counted the same hits, misses and
/// evictions. It publishes no metrics, which the engine's router does.
fn shadow_router(spec: &ClusterSpec, real: &StorageRouter) -> StorageRouter {
    let cache = real.cache().map(|_| {
        let settings = if spec.config.cache.enabled {
            spec.config.cache.clone()
        } else {
            CacheSettings::legacy_single_tier()
        };
        let pins = spec
            .cache_pins
            .iter()
            .map(|p| CachePin {
                path_prefix: p.clone(),
            })
            .collect();
        Arc::new(TieredCache::new(settings, pins)) as Arc<dyn BlockCache>
    });
    // Domain 0, the local file system, takes unprefixed paths, as in
    // the engine.
    StorageRouter::new(
        real.domains().to_vec(),
        0,
        real.auth().clone(),
        cache,
        spec.cost.clone(),
    )
}

/// Cluster-wide counters read through the public API.
fn cluster_counts(session: &Session) -> Counts {
    let cluster = &session.cluster;
    let idx = cluster.index_stats();
    let cache = cluster.cache().map(|c| c.stats()).unwrap_or_default();
    let raw: u64 = cluster
        .catalog()
        .table_names()
        .iter()
        .filter_map(|t| cluster.catalog().table(t).ok())
        .flat_map(|d| d.blocks().map(|b| b.raw_size.as_u64()).collect::<Vec<_>>())
        .sum();
    Counts {
        index_hits: idx.hits,
        index_lookups: idx.hits + idx.misses,
        index_inserts: idx.inserts,
        index_evictions: idx.lru_evictions + idx.ttl_evictions,
        cache_hits: cache.hits(),
        cache_mem_hits: cache.mem_hits,
        cache_lookups: cache.hits() + cache.misses,
        cache_evictions: cache.mem_evictions + cache.ssd_evictions,
        ingest_raw_bytes: raw,
        ingest_stored_bytes: cluster
            .router()
            .domains()
            .iter()
            .map(|d| d.stored_bytes().as_u64())
            .sum(),
        ..Counts::default()
    }
}
