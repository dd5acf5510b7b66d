//! Nested-loop join reference: an independent referee for
//! `feisu_exec::join::join`.
//!
//! The oracle executor (`run_sql`) runs the engine's own join operator,
//! so it cannot catch a join bug. This reference shares nothing with it
//! but the row interpreter: every (left, right) pair is tested by
//! evaluating each ON conjunct with `eval_truth`, and the output is
//! assembled value by value through `ColumnBuilder`.
//!
//! Output order is the engine's contract: matched pairs left-major with
//! right rows ascending, then unmatched left rows (LEFT OUTER) or
//! unmatched right rows (RIGHT OUTER), each ascending.

use feisu_common::{FeisuError, Result};
use feisu_exec::batch::RecordBatch;
use feisu_format::{ColumnBuilder, Schema, Value};
use feisu_sql::ast::{Expr, JoinKind};
use feisu_sql::eval::eval_truth;

/// Joins `left` and `right` by testing every row pair against `on`.
pub fn nested_loop_join(
    left: &RecordBatch,
    right: &RecordBatch,
    kind: JoinKind,
    on: &[Expr],
    output_schema: &Schema,
) -> Result<RecordBatch> {
    if kind == JoinKind::Cross && !on.is_empty() {
        return Err(FeisuError::Execution("CROSS JOIN takes no ON".into()));
    }
    let mut matched = Vec::new();
    for l in 0..left.rows() {
        for r in 0..right.rows() {
            // Column lookups try the left row first, then the right.
            let ctx = |name: &str| -> Option<Value> {
                left.value_at(l, name).or_else(|| right.value_at(r, name))
            };
            // Every conjunct is evaluated, so an error in any of them
            // surfaces no matter what the others return.
            let mut pass = true;
            for cond in on {
                pass &= eval_truth(cond, &ctx)?.passes();
            }
            if pass {
                matched.push((l, r));
            }
        }
    }
    let mut pairs: Vec<(Option<usize>, Option<usize>)> =
        matched.iter().map(|&(l, r)| (Some(l), Some(r))).collect();
    match kind {
        JoinKind::LeftOuter => pairs.extend(
            (0..left.rows())
                .filter(|&l| !matched.iter().any(|m| m.0 == l))
                .map(|l| (Some(l), None)),
        ),
        JoinKind::RightOuter => pairs.extend(
            (0..right.rows())
                .filter(|&r| !matched.iter().any(|m| m.1 == r))
                .map(|r| (None, Some(r))),
        ),
        JoinKind::Inner | JoinKind::Cross => {}
    }
    let lcols = left.schema().len();
    let mut builders: Vec<ColumnBuilder> = output_schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::new(f.data_type))
        .collect();
    for (l, r) in pairs {
        for (c, b) in builders.iter_mut().enumerate() {
            b.push(if c < lcols {
                l.map_or(Value::Null, |i| left.column(c).value(i))
            } else {
                r.map_or(Value::Null, |i| right.column(c - lcols).value(i))
            });
        }
    }
    RecordBatch::new(
        output_schema.clone(),
        builders.into_iter().map(|b| b.finish()).collect(),
    )
}
