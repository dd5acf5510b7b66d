//! Row-wise reference interpreter for expressions.
//!
//! This is the *oracle* implementation: simple, obviously-correct SQL
//! three-valued-logic evaluation over one row at a time. The vectorized
//! engine in `feisu-exec` and the SmartIndex fast path are both tested for
//! equivalence against it.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use feisu_common::{FeisuError, Result};
use feisu_format::Value;
use std::cmp::Ordering;

/// Anything that can resolve a column name to a value for the current row.
pub trait RowContext {
    fn get(&self, column: &str) -> Option<Value>;
}

impl RowContext for std::collections::HashMap<String, Value> {
    fn get(&self, column: &str) -> Option<Value> {
        std::collections::HashMap::get(self, column).cloned()
    }
}

impl<F> RowContext for F
where
    F: Fn(&str) -> Option<Value>,
{
    fn get(&self, column: &str) -> Option<Value> {
        self(column)
    }
}

/// SQL boolean: true/false/unknown(null).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    True,
    False,
    Unknown,
}

impl Truth {
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// Whether the row passes a filter (unknown rows are dropped).
    pub fn passes(self) -> bool {
        self == Truth::True
    }

    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    pub fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }
}

/// Evaluates a scalar expression against one row. Aggregates are not
/// valid here (they are handled by the aggregation operator).
pub fn eval(expr: &Expr, row: &dyn RowContext) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => row
            .get(name)
            .ok_or_else(|| FeisuError::Execution(format!("unknown column `{name}`"))),
        Expr::Unary {
            op: UnaryOp::Neg,
            operand,
        } => match eval(operand, row)? {
            Value::Null => Ok(Value::Null),
            Value::Int64(v) => Ok(Value::Int64(-v)),
            Value::Float64(v) => Ok(Value::Float64(-v)),
            other => Err(FeisuError::Execution(format!("cannot negate {other}"))),
        },
        Expr::Unary {
            op: UnaryOp::Not,
            operand,
        } => Ok(truth_to_value(eval_truth(operand, row)?.not())),
        Expr::IsNull { operand, negated } => {
            let v = eval(operand, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Binary { op, left, right } => match op {
            BinaryOp::And => Ok(truth_to_value(
                eval_truth(left, row)?.and(eval_truth(right, row)?),
            )),
            BinaryOp::Or => Ok(truth_to_value(
                eval_truth(left, row)?.or(eval_truth(right, row)?),
            )),
            BinaryOp::Plus
            | BinaryOp::Minus
            | BinaryOp::Multiply
            | BinaryOp::Divide
            | BinaryOp::Modulo => arith(*op, eval(left, row)?, eval(right, row)?),
            _ => {
                let (l, r) = (eval(left, row)?, eval(right, row)?);
                Ok(truth_to_value(compare(*op, &l, &r)?))
            }
        },
        Expr::Aggregate { .. } => Err(FeisuError::Execution(
            "aggregate function in scalar context".into(),
        )),
    }
}

/// Evaluates an expression as an SQL boolean.
pub fn eval_truth(expr: &Expr, row: &dyn RowContext) -> Result<Truth> {
    match eval(expr, row)? {
        Value::Null => Ok(Truth::Unknown),
        Value::Bool(b) => Ok(Truth::from_bool(b)),
        other => Err(FeisuError::Execution(format!(
            "expected boolean, got {other}"
        ))),
    }
}

fn truth_to_value(t: Truth) -> Value {
    match t {
        Truth::True => Value::Bool(true),
        Truth::False => Value::Bool(false),
        Truth::Unknown => Value::Null,
    }
}

/// Evaluates one comparison with SQL semantics.
pub fn compare(op: BinaryOp, left: &Value, right: &Value) -> Result<Truth> {
    if left.is_null() || right.is_null() {
        return Ok(Truth::Unknown);
    }
    if op == BinaryOp::Contains {
        return match (left, right) {
            (Value::Utf8(hay), Value::Utf8(needle)) => {
                Ok(Truth::from_bool(hay.contains(needle.as_str())))
            }
            _ => Err(FeisuError::Execution(
                "CONTAINS requires string operands".into(),
            )),
        };
    }
    let Some(ord) = left.sql_cmp(right) else {
        // Numbers that do not order (a NaN operand) compare false under
        // every operator, as in the engine's columnar fast path.
        if left.as_f64().is_some() && right.as_f64().is_some() {
            return Ok(Truth::False);
        }
        return Err(FeisuError::Execution(format!(
            "cannot compare {left} with {right}"
        )));
    };
    Ok(Truth::from_bool(match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("non-comparison op {op} in compare"),
    }))
}

fn arith(op: BinaryOp, left: Value, right: Value) -> Result<Value> {
    if left.is_null() || right.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic when both sides are ints; float otherwise.
    if let (Value::Int64(a), Value::Int64(b)) = (&left, &right) {
        let (a, b) = (*a, *b);
        return match op {
            BinaryOp::Plus => Ok(Value::Int64(a.wrapping_add(b))),
            BinaryOp::Minus => Ok(Value::Int64(a.wrapping_sub(b))),
            BinaryOp::Multiply => Ok(Value::Int64(a.wrapping_mul(b))),
            BinaryOp::Divide => {
                if b == 0 {
                    Err(FeisuError::Execution("division by zero".into()))
                } else {
                    Ok(Value::Int64(a.wrapping_div(b)))
                }
            }
            BinaryOp::Modulo => {
                if b == 0 {
                    Err(FeisuError::Execution("modulo by zero".into()))
                } else {
                    Ok(Value::Int64(a.wrapping_rem(b)))
                }
            }
            _ => unreachable!(),
        };
    }
    let (a, b) = (
        left.as_f64()
            .ok_or_else(|| FeisuError::Execution(format!("arithmetic on non-numeric {left}")))?,
        right
            .as_f64()
            .ok_or_else(|| FeisuError::Execution(format!("arithmetic on non-numeric {right}")))?,
    );
    Ok(Value::Float64(match op {
        BinaryOp::Plus => a + b,
        BinaryOp::Minus => a - b,
        BinaryOp::Multiply => a * b,
        BinaryOp::Divide => a / b,
        BinaryOp::Modulo => a % b,
        _ => unreachable!(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use std::collections::HashMap;

    fn row(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn ev(src: &str, row: &HashMap<String, Value>) -> Value {
        eval(&parse_expr(src).unwrap(), row).unwrap()
    }

    #[test]
    fn comparisons() {
        let r = row(&[("c2", Value::Int64(3))]);
        assert_eq!(ev("c2 > 0 AND c2 <= 5", &r), Value::Bool(true));
        assert_eq!(ev("c2 > 3", &r), Value::Bool(false));
        assert_eq!(ev("c2 >= 3", &r), Value::Bool(true));
        assert_eq!(ev("c2 != 3", &r), Value::Bool(false));
    }

    #[test]
    fn three_valued_logic() {
        let r = row(&[("x", Value::Null), ("y", Value::Int64(1))]);
        // NULL comparisons are unknown.
        assert_eq!(ev("x > 0", &r), Value::Null);
        // unknown AND false = false; unknown OR true = true.
        assert_eq!(ev("x > 0 AND y > 5", &r), Value::Bool(false));
        assert_eq!(ev("x > 0 OR y > 0", &r), Value::Bool(true));
        assert_eq!(ev("x > 0 OR y > 5", &r), Value::Null);
        assert_eq!(ev("NOT x > 0", &r), Value::Null);
    }

    #[test]
    fn is_null_predicates() {
        let r = row(&[("x", Value::Null), ("y", Value::Int64(1))]);
        assert_eq!(ev("x IS NULL", &r), Value::Bool(true));
        assert_eq!(ev("y IS NULL", &r), Value::Bool(false));
        assert_eq!(ev("y IS NOT NULL", &r), Value::Bool(true));
    }

    #[test]
    fn contains_operator() {
        let r = row(&[("url", Value::Utf8("https://baidu.com/s?wd=x".into()))]);
        assert_eq!(ev("url CONTAINS 'baidu'", &r), Value::Bool(true));
        assert_eq!(ev("url CONTAINS 'google'", &r), Value::Bool(false));
        // Null propagates.
        let r2 = row(&[("url", Value::Null)]);
        assert_eq!(ev("url CONTAINS 'x'", &r2), Value::Null);
    }

    #[test]
    fn contains_type_error() {
        let r = row(&[("n", Value::Int64(5))]);
        assert!(eval(&parse_expr("n CONTAINS 'x'").unwrap(), &r).is_err());
    }

    #[test]
    fn arithmetic_int_and_float() {
        let r = row(&[("a", Value::Int64(7)), ("b", Value::Float64(2.0))]);
        assert_eq!(ev("a + 1", &r), Value::Int64(8));
        assert_eq!(ev("a / 2", &r), Value::Int64(3));
        assert_eq!(ev("a % 4", &r), Value::Int64(3));
        assert_eq!(ev("a / b", &r), Value::Float64(3.5));
        assert_eq!(ev("-a", &r), Value::Int64(-7));
    }

    #[test]
    fn nan_compares_false_and_mixed_types_error() {
        let r = row(&[("f", Value::Float64(f64::NAN)), ("s", Value::from("x"))]);
        for op in ["=", "<>", "<", ">="] {
            assert_eq!(ev(&format!("f {op} f"), &r), Value::Bool(false), "{op}");
            assert_eq!(ev(&format!("f {op} 1"), &r), Value::Bool(false), "{op}");
        }
        assert_eq!(ev("-0.0 = 0.0", &r), Value::Bool(true));
        assert!(eval(&parse_expr("s = 1").unwrap(), &r).is_err());
    }

    #[test]
    fn division_by_zero_int_errors() {
        let r = row(&[("a", Value::Int64(1))]);
        assert!(eval(&parse_expr("a / 0").unwrap(), &r).is_err());
        assert!(eval(&parse_expr("a % 0").unwrap(), &r).is_err());
    }

    #[test]
    fn null_arith_propagates() {
        let r = row(&[("x", Value::Null)]);
        assert_eq!(ev("x + 1", &r), Value::Null);
        assert_eq!(ev("-x", &r), Value::Null);
    }

    #[test]
    fn unknown_column_errors() {
        let r = row(&[]);
        assert!(eval(&parse_expr("ghost > 1").unwrap(), &r).is_err());
    }

    #[test]
    fn truth_table_laws() {
        use Truth::*;
        for t in [True, False, Unknown] {
            assert_eq!(t.and(False), False);
            assert_eq!(t.or(True), True);
            assert_eq!(t.not().not(), t);
        }
        assert_eq!(Unknown.and(True), Unknown);
        assert_eq!(Unknown.or(False), Unknown);
    }

    #[test]
    fn aggregate_in_scalar_context_errors() {
        let r = row(&[]);
        assert!(eval(&parse_expr("COUNT(*)").unwrap(), &r).is_err());
    }

    #[test]
    fn paper_q11_equivalence_with_q10() {
        // Q10: c2 > 0 AND c2 <= 5  ≡  Q11: c2 > 0 AND !(c2 > 5).
        for v in -3..9 {
            let r = row(&[("c2", Value::Int64(v))]);
            assert_eq!(
                ev("c2 > 0 AND c2 <= 5", &r),
                ev("c2 > 0 AND !(c2 > 5)", &r),
                "disagree at c2={v}"
            );
        }
    }
}
