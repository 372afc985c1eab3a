//! Error types for the numeric substrate.

use std::fmt;

/// Errors produced by numeric conversions and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NumericError {
    /// A string could not be parsed as a number.
    Parse(String),
    /// Division by zero was attempted.
    DivisionByZero,
    /// A value does not fit in the requested target representation.
    Overflow(String),
    /// A function was evaluated outside its domain (e.g. `ln` of a
    /// non-positive number).
    Domain(String),
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::Parse(s) => write!(f, "invalid numeric literal: {s}"),
            NumericError::DivisionByZero => write!(f, "division by zero"),
            NumericError::Overflow(s) => write!(f, "value does not fit: {s}"),
            NumericError::Domain(s) => write!(f, "argument outside function domain: {s}"),
        }
    }
}

impl std::error::Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let msgs = [
            NumericError::Parse("abc".into()).to_string(),
            NumericError::DivisionByZero.to_string(),
            NumericError::Overflow("x".into()).to_string(),
            NumericError::Domain("ln(-1)".into()).to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'));
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(NumericError::DivisionByZero);
        assert!(e.to_string().contains("division"));
    }
}
