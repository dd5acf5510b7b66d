//! Join operators: a column-at-a-time hash equi-join (inner / left /
//! right outer) and the cross join, with residual non-equi conditions.
//!
//! The hash join binds every equi pair to one key column per side once
//! per call (a key that is not a bare column is evaluated into a column
//! first), hashes the typed key columns into one `u64` per row, and
//! builds a chained table — bucket heads plus a `next` link per row —
//! over the input with fewer rows. A probe hit is confirmed by comparing
//! the typed key columns.
//!
//! Key equality is SQL `=` ([`feisu_sql::eval::compare`]): Int64 against
//! Float64 compares as f64 with −0 = +0, NaN and NULL never match, and
//! incomparable types fail as they do in a filter.
//!
//! The output order does not depend on the side that was hashed: matched
//! pairs left-major with right rows ascending, then the unmatched left
//! rows (LEFT OUTER) or unmatched right rows (RIGHT OUTER), ascending.

use crate::batch::{BatchRow, RecordBatch};
use crate::expr::eval_predicate;
use feisu_common::hash::FxHasher;
use feisu_common::{FeisuError, Result};
use feisu_format::column::ColumnData;
use feisu_format::{Column, DataType, Schema, Value};
use feisu_index::BitVec;
use feisu_sql::ast::{BinaryOp, Expr, JoinKind};
use feisu_sql::eval::{eval, eval_truth};
use feisu_sql::exprutil::combine_conjuncts;
use std::borrow::Cow;
use std::hash::Hasher;

/// One equi-join condition split by side.
struct EquiPair {
    left: Expr,
    right: Expr,
}

/// Splits ON conditions into equi pairs (hashable) and residual
/// conditions (evaluated on candidate pairs).
fn split_conditions(
    on: &[Expr],
    left_schema: &Schema,
    right_schema: &Schema,
) -> (Vec<EquiPair>, Vec<Expr>) {
    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    for cond in on {
        if let Expr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = cond
        {
            let l_side = side_of(left, left_schema, right_schema);
            let r_side = side_of(right, left_schema, right_schema);
            match (l_side, r_side) {
                (Some(true), Some(false)) => {
                    pairs.push(EquiPair {
                        left: (**left).clone(),
                        right: (**right).clone(),
                    });
                    continue;
                }
                (Some(false), Some(true)) => {
                    pairs.push(EquiPair {
                        left: (**right).clone(),
                        right: (**left).clone(),
                    });
                    continue;
                }
                _ => {}
            }
        }
        residual.push(cond.clone());
    }
    (pairs, residual)
}

/// `Some(true)` = references only left columns, `Some(false)` = only
/// right, `None` = mixed/none.
fn side_of(e: &Expr, left: &Schema, right: &Schema) -> Option<bool> {
    let mut cols = Vec::new();
    e.columns(&mut cols);
    if cols.is_empty() {
        return None;
    }
    if cols.iter().all(|c| left.index_of(c).is_some()) {
        Some(true)
    } else if cols.iter().all(|c| right.index_of(c).is_some()) {
        Some(false)
    } else {
        None
    }
}

/// The input a hash join hashes; the other input probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSide {
    Left,
    Right,
}

impl BuildSide {
    /// The input with fewer rows, the right one on ties.
    pub fn for_rows(left_rows: usize, right_rows: usize) -> BuildSide {
        if left_rows < right_rows {
            BuildSide::Left
        } else {
            BuildSide::Right
        }
    }

    /// `(build_rows, probe_rows)` for inputs of these sizes.
    pub fn split(self, left_rows: usize, right_rows: usize) -> (usize, usize) {
        match self {
            BuildSide::Left => (left_rows, right_rows),
            BuildSide::Right => (right_rows, left_rows),
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            BuildSide::Left => "left",
            BuildSide::Right => "right",
        }
    }
}

/// Executes a join; both inputs are fully materialized (Feisu's dimension
/// tables in star queries are small by construction).
pub fn join(
    left: &RecordBatch,
    right: &RecordBatch,
    kind: JoinKind,
    on: &[Expr],
    output_schema: &Schema,
) -> Result<RecordBatch> {
    match kind {
        JoinKind::Cross => {
            if !on.is_empty() {
                return Err(FeisuError::Execution("CROSS JOIN takes no ON".into()));
            }
            let (l, r) = (left.rows(), right.rows());
            let left_idx: Vec<usize> = (0..l).flat_map(|i| std::iter::repeat_n(i, r)).collect();
            let right_idx: Vec<usize> = (0..l).flat_map(|_| 0..r).collect();
            assemble(left, right, &left_idx, &right_idx, (0, 0), output_schema)
        }
        _ => hash_join(left, right, kind, on, output_schema),
    }
}

fn hash_join(
    left: &RecordBatch,
    right: &RecordBatch,
    kind: JoinKind,
    on: &[Expr],
    output_schema: &Schema,
) -> Result<RecordBatch> {
    let (pairs, residual) = split_conditions(on, left.schema(), right.schema());
    if pairs.is_empty() {
        return Err(FeisuError::Execution(
            "join requires at least one equi condition (use CROSS JOIN otherwise)".into(),
        ));
    }
    let (mut left_idx, mut right_idx) = equi_matches(left, right, &pairs)?;
    if !residual.is_empty() && !left_idx.is_empty() {
        let keep = residual_mask(left, right, &left_idx, &right_idx, residual)?;
        let mut kept = 0;
        for i in keep.iter_ones() {
            left_idx[kept] = left_idx[i];
            right_idx[kept] = right_idx[i];
            kept += 1;
        }
        left_idx.truncate(kept);
        right_idx.truncate(kept);
    }
    let unmatched = |matched_idx: &[usize], rows: usize| -> Vec<usize> {
        let mut matched = vec![false; rows];
        for &i in matched_idx {
            matched[i] = true;
        }
        (0..rows).filter(|&i| !matched[i]).collect()
    };
    // Outer joins append their unmatched rows, null-extended on the
    // other side.
    let pads = match kind {
        JoinKind::LeftOuter => {
            let extra = unmatched(&left_idx, left.rows());
            left_idx.extend_from_slice(&extra);
            (0, extra.len())
        }
        JoinKind::RightOuter => {
            let extra = unmatched(&right_idx, right.rows());
            right_idx.extend_from_slice(&extra);
            (extra.len(), 0)
        }
        JoinKind::Inner => (0, 0),
        JoinKind::Cross => unreachable!("cross joins are not hashed"),
    };
    assemble(left, right, &left_idx, &right_idx, pads, output_schema)
}

/// Row pairs whose equi keys are all SQL-equal, as `(left, right)` index
/// vectors in left-major order with right rows ascending.
fn equi_matches(
    left: &RecordBatch,
    right: &RecordBatch,
    pairs: &[EquiPair],
) -> Result<(Vec<usize>, Vec<usize>)> {
    // With an empty input no pair exists, so no key is even evaluated.
    if left.rows() == 0 || right.rows() == 0 {
        return Ok((Vec::new(), Vec::new()));
    }
    let lcols: Vec<Cow<Column>> = pairs
        .iter()
        .map(|p| key_column(left, &p.left))
        .collect::<Result<_>>()?;
    let rcols: Vec<Cow<Column>> = pairs
        .iter()
        .map(|p| key_column(right, &p.right))
        .collect::<Result<_>>()?;
    let mut lkeys = Vec::with_capacity(pairs.len());
    let mut rkeys = Vec::with_capacity(pairs.len());
    for (l, r) in lcols.iter().zip(&rcols) {
        match bind_pair(l, r)? {
            Some((lk, rk)) => {
                lkeys.push(lk);
                rkeys.push(rk);
            }
            // One side holds only nulls for an incomparable pair.
            None => return Ok((Vec::new(), Vec::new())),
        }
    }
    let side = BuildSide::for_rows(left.rows(), right.rows());
    let (build, probe) = match side {
        BuildSide::Left => (
            KeySide::new(lkeys, &lcols, left.rows())?,
            KeySide::new(rkeys, &rcols, right.rows())?,
        ),
        BuildSide::Right => (
            KeySide::new(rkeys, &rcols, right.rows())?,
            KeySide::new(lkeys, &lcols, left.rows())?,
        ),
    };
    let table = ChainedTable::build(&build)?;
    let mut build_idx = Vec::new();
    let mut probe_idx = Vec::new();
    for p in 0..probe.rows {
        if !probe.keyable.get(p) {
            continue;
        }
        let h = probe.hashes[p];
        let mut c = table.head[table.bucket(h)];
        while c != NIL {
            let b = c as usize;
            if build.hashes[b] == h && build.keys_eq(b, &probe, p) {
                build_idx.push(b);
                probe_idx.push(p);
            }
            c = table.next[b];
        }
    }
    Ok(match side {
        BuildSide::Right => (probe_idx, build_idx),
        // Probing walked the right rows: restore left-major order.
        BuildSide::Left => left_major(&build_idx, &probe_idx, left.rows()),
    })
}

/// The key column an equi-pair side names: a bare column is borrowed, any
/// other expression is evaluated into a column of its value type.
fn key_column<'a>(batch: &'a RecordBatch, expr: &Expr) -> Result<Cow<'a, Column>> {
    if let Expr::Column(name) = expr {
        return batch
            .column_by_name(name)
            .map(Cow::Borrowed)
            .ok_or_else(|| FeisuError::Execution(format!("unknown column `{name}`")));
    }
    let values: Vec<Value> = (0..batch.rows())
        .map(|row| eval(expr, &BatchRow { batch, row }))
        .collect::<Result<_>>()?;
    // Column types fix an expression's result type; all-null keys may
    // take any type.
    let ty = values
        .iter()
        .find_map(Value::data_type)
        .unwrap_or(DataType::Int64);
    Column::from_values(ty, &values)
        .map(Cow::Owned)
        .ok_or_else(|| FeisuError::Execution(format!("join key `{expr}` has mixed types")))
}

/// One equi key normalized for hashing and comparison. Both sides of a
/// pair always hold the same variant.
enum Key<'a> {
    Int(&'a [i64]),
    /// Canonical f64: Int64 widened, −0 folded into +0. NaN is unequal to
    /// everything under `==`, so it never matches.
    Float(Vec<f64>),
    Bool(&'a [bool]),
    Utf8(&'a [String]),
}

impl Key<'_> {
    #[inline]
    fn eq_at(&self, i: usize, other: &Key, j: usize) -> bool {
        match (self, other) {
            (Key::Int(a), Key::Int(b)) => a[i] == b[j],
            (Key::Float(a), Key::Float(b)) => a[i] == b[j],
            (Key::Bool(a), Key::Bool(b)) => a[i] == b[j],
            (Key::Utf8(a), Key::Utf8(b)) => a[i] == b[j],
            _ => unreachable!("both sides of a key pair share a variant"),
        }
    }

    /// Mixes this key's value of every row into `hashes`.
    fn hash_into(&self, hashes: &mut [u64]) {
        match self {
            Key::Int(v) => mix_all(hashes, v.iter().map(|&x| x as u64)),
            Key::Float(v) => mix_all(hashes, v.iter().map(|x| x.to_bits())),
            Key::Bool(v) => mix_all(hashes, v.iter().map(|&x| x as u64)),
            Key::Utf8(v) => mix_all(
                hashes,
                v.iter().map(|s| {
                    let mut h = FxHasher::default();
                    h.write(s.as_bytes());
                    h.finish()
                }),
            ),
        }
    }
}

const HASH_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn mix_all(hashes: &mut [u64], words: impl Iterator<Item = u64>) {
    for (h, w) in hashes.iter_mut().zip(words) {
        *h = (h.rotate_left(5) ^ w).wrapping_mul(HASH_SEED);
    }
}

/// Binds one equi pair to comparable keys under SQL `=`. `None` when the
/// types are incomparable but one side has no non-null value, so no pair
/// is ever compared.
fn bind_pair<'a>(l: &'a Column, r: &'a Column) -> Result<Option<(Key<'a>, Key<'a>)>> {
    use ColumnData as D;
    Ok(Some(match (l.data(), r.data()) {
        (D::Int64(a), D::Int64(b)) => (Key::Int(a), Key::Int(b)),
        (D::Bool(a), D::Bool(b)) => (Key::Bool(a), Key::Bool(b)),
        (D::Utf8(a), D::Utf8(b)) => (Key::Utf8(a), Key::Utf8(b)),
        (D::Int64(_) | D::Float64(_), D::Int64(_) | D::Float64(_)) => {
            (Key::Float(canonical_f64(l)), Key::Float(canonical_f64(r)))
        }
        _ => {
            let first = |c: &Column| (0..c.len()).map(|i| c.value(i)).find(|v| !v.is_null());
            return match (first(l), first(r)) {
                (Some(a), Some(b)) => Err(FeisuError::Execution(format!(
                    "cannot compare {a} with {b}"
                ))),
                _ => Ok(None),
            };
        }
    }))
}

fn canonical_f64(c: &Column) -> Vec<f64> {
    match c.data() {
        ColumnData::Int64(v) => v.iter().map(|&x| x as f64).collect(),
        // Adding +0 folds −0 into +0 and keeps every other value.
        ColumnData::Float64(v) => v.iter().map(|&x| x + 0.0).collect(),
        _ => unreachable!("only numeric columns are widened"),
    }
}

/// One input's bound keys with its per-row hashes and the rows that can
/// match at all (no NULL key; a NaN key fails the typed `==` instead).
struct KeySide<'a> {
    keys: Vec<Key<'a>>,
    hashes: Vec<u64>,
    keyable: BitVec,
    rows: usize,
}

impl<'a> KeySide<'a> {
    fn new(keys: Vec<Key<'a>>, cols: &[Cow<Column>], rows: usize) -> Result<KeySide<'a>> {
        let mut keyable = BitVec::ones(rows);
        for c in cols.iter().filter(|c| c.null_count() > 0) {
            keyable.and_assign(&BitVec::from_words(c.validity().words().to_vec(), rows)?)?;
        }
        let mut hashes = vec![0u64; rows];
        for k in &keys {
            k.hash_into(&mut hashes);
        }
        Ok(KeySide {
            keys,
            hashes,
            keyable,
            rows,
        })
    }

    #[inline]
    fn keys_eq(&self, i: usize, other: &KeySide, j: usize) -> bool {
        self.keys
            .iter()
            .zip(&other.keys)
            .all(|(a, b)| a.eq_at(i, b, j))
    }
}

const NIL: u32 = u32::MAX;

/// Chained hash table over the build rows: `head[bucket]` is the first
/// row of a chain and `next[row]` the one after it.
struct ChainedTable {
    head: Vec<u32>,
    next: Vec<u32>,
    shift: u32,
}

impl ChainedTable {
    fn build(side: &KeySide) -> Result<ChainedTable> {
        if side.rows >= NIL as usize {
            return Err(FeisuError::Execution(format!(
                "hash join build side of {} rows exceeds the table's row limit",
                side.rows
            )));
        }
        let buckets = (side.rows * 2).next_power_of_two().max(2);
        let mut table = ChainedTable {
            head: vec![NIL; buckets],
            next: vec![NIL; side.rows],
            shift: 64 - buckets.trailing_zeros(),
        };
        // Inserting in descending order makes every chain ascend.
        for r in (0..side.rows).rev() {
            if side.keyable.get(r) {
                let b = table.bucket(side.hashes[r]);
                table.next[r] = table.head[b];
                table.head[b] = r as u32;
            }
        }
        Ok(table)
    }

    /// Top bits of the multiplicative hash pick the bucket.
    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }
}

/// Stable counting sort of match pairs by left row: left-major order,
/// each left row's right rows kept in their (ascending) arrival order.
fn left_major(
    left_idx: &[usize],
    right_idx: &[usize],
    left_rows: usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0usize; left_rows + 1];
    for &l in left_idx {
        start[l + 1] += 1;
    }
    for i in 0..left_rows {
        start[i + 1] += start[i];
    }
    let mut lo = vec![0; left_idx.len()];
    let mut ro = vec![0; left_idx.len()];
    for (&l, &r) in left_idx.iter().zip(right_idx) {
        lo[start[l]] = l;
        ro[start[l]] = r;
        start[l] += 1;
    }
    (lo, ro)
}

/// Evaluates the residual conditions over the candidate pairs in one
/// `eval_predicate` call. The candidate batch holds only the columns the
/// residual names; a name resolves to the left input first, then the
/// right.
fn residual_mask(
    left: &RecordBatch,
    right: &RecordBatch,
    left_idx: &[usize],
    right_idx: &[usize],
    residual: Vec<Expr>,
) -> Result<BitVec> {
    let pred = combine_conjuncts(residual).expect("residual is non-empty");
    let mut names = Vec::new();
    pred.columns(&mut names);
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for name in &names {
        let (batch, idx) = if left.schema().index_of(name).is_some() {
            (left, left_idx)
        } else {
            (right, right_idx)
        };
        // An unknown name stays out; evaluation reports it.
        if let Some(i) = batch.schema().index_of(name) {
            fields.push(batch.schema().field(i).clone());
            columns.push(batch.column(i).take(idx));
        }
    }
    if columns.is_empty() {
        // A condition without columns holds for every pair or for none.
        let pass = eval_truth(&pred, &|_: &str| None)?.passes();
        return Ok(if pass {
            BitVec::ones(left_idx.len())
        } else {
            BitVec::zeros(left_idx.len())
        });
    }
    eval_predicate(&RecordBatch::new(Schema::new(fields), columns)?, &pred)
}

/// Gathers the output: left columns at `left_idx`, right columns at
/// `right_idx`, then `pads = (left, right)` nulls appended to each side's
/// columns for the rows an outer join null-extends.
fn assemble(
    left: &RecordBatch,
    right: &RecordBatch,
    left_idx: &[usize],
    right_idx: &[usize],
    pads: (usize, usize),
    output_schema: &Schema,
) -> Result<RecordBatch> {
    let gather = |batch: &RecordBatch, idx: &[usize], pad: usize| -> Vec<Column> {
        batch
            .columns()
            .iter()
            .map(|c| {
                let mut out = c.take(idx);
                if pad > 0 {
                    out.append(&Column::nulls(c.data_type(), pad));
                }
                out
            })
            .collect()
    };
    let mut columns = gather(left, left_idx, pads.0);
    columns.extend(gather(right, right_idx, pads.1));
    RecordBatch::new(output_schema.clone(), columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::{DataType, Field};
    use feisu_sql::parser::parse_expr;

    fn left() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("t1.k", DataType::Int64, true),
            Field::new("t1.v", DataType::Utf8, false),
        ]);
        RecordBatch::new(
            schema,
            vec![
                Column::from_values(
                    DataType::Int64,
                    &[
                        Value::Int64(1),
                        Value::Int64(2),
                        Value::Null,
                        Value::Int64(4),
                    ],
                )
                .unwrap(),
                Column::from_utf8(vec!["a".into(), "b".into(), "c".into(), "d".into()]),
            ],
        )
        .unwrap()
    }

    fn right() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("t2.k", DataType::Int64, true),
            Field::new("t2.w", DataType::Int64, false),
        ]);
        RecordBatch::new(
            schema,
            vec![
                Column::from_values(
                    DataType::Int64,
                    &[
                        Value::Int64(1),
                        Value::Int64(1),
                        Value::Int64(3),
                        Value::Null,
                    ],
                )
                .unwrap(),
                Column::from_i64(vec![10, 11, 30, 99]),
            ],
        )
        .unwrap()
    }

    fn out_schema() -> Schema {
        left().schema().join(right().schema())
    }

    fn on() -> Vec<Expr> {
        vec![parse_expr("t1.k = t2.k").unwrap()]
    }

    #[test]
    fn inner_join_matches() {
        let out = join(&left(), &right(), JoinKind::Inner, &on(), &out_schema()).unwrap();
        // k=1 matches two right rows; k=2,4 no match; null never matches.
        assert_eq!(out.rows(), 2);
        let ws: Vec<Value> = (0..2).map(|i| out.value_at(i, "t2.w").unwrap()).collect();
        assert!(ws.contains(&Value::Int64(10)) && ws.contains(&Value::Int64(11)));
    }

    #[test]
    fn left_outer_extends_unmatched() {
        let out = join(&left(), &right(), JoinKind::LeftOuter, &on(), &out_schema()).unwrap();
        // 2 matches + 3 unmatched left rows (k=2, null, k=4).
        assert_eq!(out.rows(), 5);
        let null_count = (0..out.rows())
            .filter(|&i| out.value_at(i, "t2.w") == Some(Value::Null))
            .count();
        assert_eq!(null_count, 3);
    }

    #[test]
    fn right_outer_extends_unmatched() {
        let out = join(
            &left(),
            &right(),
            JoinKind::RightOuter,
            &on(),
            &out_schema(),
        )
        .unwrap();
        // 2 matches + 2 unmatched right rows (k=3, null).
        assert_eq!(out.rows(), 4);
        let null_count = (0..out.rows())
            .filter(|&i| out.value_at(i, "t1.v") == Some(Value::Null))
            .count();
        assert_eq!(null_count, 2);
    }

    #[test]
    fn residual_condition_filters_pairs() {
        let on = vec![
            parse_expr("t1.k = t2.k").unwrap(),
            parse_expr("t2.w > 10").unwrap(),
        ];
        let out = join(&left(), &right(), JoinKind::Inner, &on, &out_schema()).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.value_at(0, "t2.w"), Some(Value::Int64(11)));
    }

    #[test]
    fn build_side_is_the_smaller_input() {
        assert_eq!(BuildSide::for_rows(3, 10), BuildSide::Left);
        assert_eq!(BuildSide::for_rows(10, 3), BuildSide::Right);
        assert_eq!(BuildSide::for_rows(4, 4), BuildSide::Right);
        assert_eq!(BuildSide::Left.split(3, 10), (3, 10));
        assert_eq!(BuildSide::Right.split(3, 10), (10, 3));
    }

    #[test]
    fn computed_and_composite_keys() {
        // `t1.k + 0` is evaluated into a key column; with `t1.v` as a
        // second (Utf8) key, right row 0 (1, "b") finds no partner.
        let schema = Schema::new(vec![
            Field::new("t2.k", DataType::Int64, true),
            Field::new("t2.s", DataType::Utf8, false),
        ]);
        let r = RecordBatch::new(
            schema,
            vec![
                Column::from_i64(vec![1, 1, 2]),
                Column::from_utf8(vec!["b".into(), "a".into(), "b".into()]),
            ],
        )
        .unwrap();
        let on = vec![
            parse_expr("t1.k + 0 = t2.k").unwrap(),
            parse_expr("t2.s = t1.v").unwrap(),
        ];
        let out_schema = left().schema().join(r.schema());
        let out = join(&left(), &r, JoinKind::Inner, &on, &out_schema).unwrap();
        let pair = |k: i64, s: &str| {
            let (k, s) = (Value::Int64(k), Value::Utf8(s.into()));
            vec![k.clone(), s.clone(), k, s]
        };
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0), pair(1, "a"));
        assert_eq!(out.row(1), pair(2, "b"));
    }

    #[test]
    fn cross_join_product() {
        let out = join(&left(), &right(), JoinKind::Cross, &[], &out_schema()).unwrap();
        assert_eq!(out.rows(), 16);
    }

    #[test]
    fn non_equi_only_join_rejected() {
        let on = vec![parse_expr("t1.k > t2.k").unwrap()];
        assert!(join(&left(), &right(), JoinKind::Inner, &on, &out_schema()).is_err());
    }

    #[test]
    fn empty_inputs() {
        let l = RecordBatch::empty(left().schema().clone());
        let out = join(&l, &right(), JoinKind::Inner, &on(), &out_schema()).unwrap();
        assert_eq!(out.rows(), 0);
        let out = join(&l, &right(), JoinKind::RightOuter, &on(), &out_schema()).unwrap();
        assert_eq!(out.rows(), 4, "all right rows null-extended");
    }
}
