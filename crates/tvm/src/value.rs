//! Runtime values.

use crate::error::VmError;
use crate::trace::Addr;
use std::fmt;

/// A dynamically typed TraceVM value.
///
/// Every operand-stack slot, local slot and heap cell holds one `Value`.
/// References are raw byte addresses into [`crate::mem::Memory`]; `Null`
/// is the absent reference. Fresh locals and integer-typed heap cells
/// start as `Int(0)`, mirroring the JVM's definite-assignment defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit signed integer (models the JVM's int/long arithmetic).
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Heap reference: the base byte address of an object or array.
    Ref(Addr),
    /// The null reference.
    Null,
}

impl Value {
    /// Extracts an integer.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::TypeMismatch`] if the value is not `Int`.
    #[inline]
    pub fn as_int(self) -> Result<i64, VmError> {
        match self {
            Value::Int(v) => Ok(v),
            other => Err(VmError::TypeMismatch {
                expected: "int",
                found: other.kind_name(),
            }),
        }
    }

    /// Extracts a float.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::TypeMismatch`] if the value is not `Float`.
    #[inline]
    pub fn as_float(self) -> Result<f64, VmError> {
        match self {
            Value::Float(v) => Ok(v),
            other => Err(VmError::TypeMismatch {
                expected: "float",
                found: other.kind_name(),
            }),
        }
    }

    /// Extracts a non-null heap reference.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NullDeref`] on `Null` and
    /// [`VmError::TypeMismatch`] on non-reference values.
    #[inline]
    pub fn as_ref_addr(self) -> Result<Addr, VmError> {
        match self {
            Value::Ref(a) => Ok(a),
            Value::Null => Err(VmError::NullDeref),
            other => Err(VmError::TypeMismatch {
                expected: "ref",
                found: other.kind_name(),
            }),
        }
    }

    /// A short static name for the value's kind, used in error messages.
    pub fn kind_name(self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Ref(_) => "ref",
            Value::Null => "null",
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Ref(a) => write!(f, "ref@{a:#x}"),
            Value::Null => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        assert_eq!(Value::from(7).as_int().unwrap(), 7);
        assert!(Value::from(7.5).as_int().is_err());
    }

    #[test]
    fn float_roundtrip() {
        assert_eq!(Value::from(7.5).as_float().unwrap(), 7.5);
        assert!(Value::from(7).as_float().is_err());
    }

    #[test]
    fn ref_handling() {
        assert_eq!(Value::Ref(64).as_ref_addr().unwrap(), 64);
        assert!(matches!(
            Value::Null.as_ref_addr().unwrap_err(),
            VmError::NullDeref
        ));
        assert!(Value::Int(1).as_ref_addr().is_err());
    }

    #[test]
    fn display_is_nonempty() {
        for v in [Value::Int(0), Value::Float(0.0), Value::Ref(0), Value::Null] {
            assert!(!v.to_string().is_empty());
        }
    }
}
