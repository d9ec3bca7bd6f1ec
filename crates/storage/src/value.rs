//! Typed scalar values and their data types.
//!
//! Values are the cells of rows. They are strictly typed: `Int(1)` and
//! `Float(1.0)` are *different* values for grouping, keying, and hashing
//! purposes (numeric coercion happens in the expression layer of
//! `svc-relalg`, not here). Equality, ordering, and hashing are total — in
//! particular floats are compared with [`f64::total_cmp`] and hashed through
//! canonical bit patterns — so values can be used as group-by and primary
//! keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer. Dates are stored as days-since-epoch integers.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string (cheaply clonable).
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "bool"),
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Str => write!(f, "str"),
        }
    }
}

/// A scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Any column may be null regardless of its declared type.
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// String value. `Arc<str>` keeps row clones cheap.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The data type of this value, or `None` for NULL.
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: integers widen to floats; other types are `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer view (floats are not narrowed).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Canonical bit pattern for a float: collapses `-0.0` to `0.0` and all
    /// NaNs to one representative, so equal-looking floats hash equally.
    pub fn canonical_f64_bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else if x == 0.0 {
            0u64
        } else {
            x.to_bits()
        }
    }

    /// A small integer identifying the variant, used for cross-type ordering
    /// and hashing.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Feed the canonical byte representation of this value to `sink`.
    /// Used by the hash in [`crate::hash`], which must not depend
    /// on Rust's unspecified default hasher.
    pub fn canonical_bytes(&self, sink: &mut impl FnMut(&[u8])) {
        sink(&[self.type_rank()]);
        match self {
            Value::Null => {}
            Value::Bool(b) => sink(&[*b as u8]),
            Value::Int(i) => sink(&i.to_le_bytes()),
            Value::Float(x) => sink(&Self::canonical_f64_bits(*x).to_le_bytes()),
            Value::Str(s) => sink(s.as_bytes()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => {
                Value::canonical_f64_bits(*a) == Value::canonical_f64_bits(*b)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.type_rank());
        match self {
            Value::Null => {}
            Value::Bool(b) => state.write_u8(*b as u8),
            Value::Int(i) => state.write_i64(*i),
            Value::Float(x) => state.write_u64(Value::canonical_f64_bits(*x)),
            Value::Str(s) => state.write(s.as_bytes()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL < Bool < Int < Float < Str, values within a type
    /// ordered naturally (floats by `total_cmp`). Cross-type numeric
    /// comparison is intentionally *not* performed here; the expression
    /// layer coerces before comparing.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn std_hash(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn strict_type_equality() {
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_eq!(Value::Int(1), Value::Int(1));
        assert_eq!(Value::str("a"), Value::from("a"));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn float_canonicalization() {
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(std_hash(&Value::Float(0.0)), std_hash(&Value::Float(-0.0)));
        assert_eq!(Value::Float(f64::NAN), Value::Float(-f64::NAN));
    }

    #[test]
    fn total_order_is_consistent() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Int(7),
            Value::Float(-1.5),
            Value::Float(2.5),
            Value::str("a"),
            Value::str("b"),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "ordering of {a} vs {b}");
            }
        }
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::Float(2.5).as_i64(), None);
    }

    #[test]
    fn canonical_bytes_distinguish_types() {
        fn bytes(v: &Value) -> Vec<u8> {
            let mut out = Vec::new();
            v.canonical_bytes(&mut |b| out.extend_from_slice(b));
            out
        }
        assert_ne!(bytes(&Value::Int(1)), bytes(&Value::Bool(true)));
        assert_ne!(bytes(&Value::Int(1)), bytes(&Value::Float(1.0)));
        assert_eq!(bytes(&Value::Float(0.0)), bytes(&Value::Float(-0.0)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }
}
