//! Answer checking against the single-process oracle.
//!
//! The oracle is `feisu_exec::executor::run_sql` over a `MemProvider`
//! holding the generated columns, kept in step with every append. Both
//! its answers and the engine's are reduced to digests, the engine's
//! outside the timed region. The untraced run compares them after its
//! last pass and the traced run as it goes.

use crate::workload::{Op, Workload};
use feisu_exec::batch::RecordBatch;
use feisu_exec::executor::{run_sql, MemProvider};
use feisu_format::Column;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// A fingerprint of an answer: its shape plus two independent row-hash
/// folds. Unordered answers fold commutatively (a multiset digest);
/// ORDER BY answers fold by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest {
    rows: usize,
    cols: usize,
    a: u64,
    b: u64,
}

pub fn digest(batch: &RecordBatch, ordered: bool) -> Digest {
    let (mut a, mut b) = (0u64, 0u64);
    for i in 0..batch.rows() {
        let mut h = DefaultHasher::new();
        for c in batch.columns() {
            c.value(i).hash(&mut h);
        }
        let h = h.finish();
        if ordered {
            a = a.wrapping_mul(0x100_0000_01B3).wrapping_add(h);
            b = b.rotate_left(7) ^ mix(h);
        } else {
            a = a.wrapping_add(h);
            b = b.wrapping_add(mix(h));
        }
    }
    Digest {
        rows: batch.rows(),
        cols: batch.columns().len(),
        a,
        b,
    }
}

/// SplitMix64 finalizer: decorrelates the second fold from the first.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The oracle's digest for every query of a pass, indexed like
/// `Workload::ops` (`None` for appends). Identical statements over the
/// same table contents are evaluated once.
pub fn expected_answers(wl: &Workload) -> Result<Vec<Option<Digest>>, String> {
    let mut tables: Vec<RecordBatch> = Vec::with_capacity(wl.tables.len());
    let mut provider = MemProvider::new();
    for t in &wl.tables {
        let mut columns: Vec<Column> = t.chunks[0].clone();
        for chunk in &t.chunks[1..] {
            for (c, more) in columns.iter_mut().zip(chunk) {
                c.append(more);
            }
        }
        let batch = RecordBatch::new(t.schema.clone(), columns).map_err(|e| e.to_string())?;
        provider.insert(t.name.clone(), batch.clone());
        tables.push(batch);
    }
    let mut version = 0usize;
    let mut memo: HashMap<(usize, &str), Digest> = HashMap::new();
    let mut out = Vec::with_capacity(wl.ops.len());
    for op in &wl.ops {
        match op {
            Op::Append { table, columns } => {
                let t = &mut tables[*table];
                let mut grown: Vec<Column> = t.columns().to_vec();
                for (c, more) in grown.iter_mut().zip(columns) {
                    c.append(more);
                }
                *t = RecordBatch::new(t.schema().clone(), grown).map_err(|e| e.to_string())?;
                provider.insert(wl.tables[*table].name.clone(), t.clone());
                version += 1;
                out.push(None);
            }
            Op::Query {
                oracle, ordered, ..
            } => {
                let d = match memo.get(&(version, oracle.as_str())) {
                    Some(d) => *d,
                    None => {
                        let batch = run_sql(oracle, &mut provider)
                            .map_err(|e| format!("oracle failed on `{oracle}`: {e}"))?;
                        let d = digest(&batch, *ordered);
                        memo.insert((version, oracle.as_str()), d);
                        d
                    }
                };
                out.push(Some(d));
            }
        }
    }
    Ok(out)
}
