//! Error type for the hardware-model crate.

use std::fmt;

/// Error returned by synthesis and analysis operations.
#[derive(Debug, Clone, PartialEq)]
pub enum HwError {
    /// A bit-width is zero or larger than the supported maximum.
    InvalidBitWidth {
        /// Description of the offending parameter.
        context: String,
    },
    /// A circuit specification is structurally inconsistent.
    InvalidSpec {
        /// Description of the inconsistency.
        context: String,
    },
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::InvalidBitWidth { context } => write!(f, "invalid bit width: {context}"),
            HwError::InvalidSpec { context } => {
                write!(f, "invalid circuit specification: {context}")
            }
        }
    }
}

impl std::error::Error for HwError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = HwError::InvalidBitWidth {
            context: "weight bits = 0".into(),
        };
        assert!(e.to_string().contains("weight bits"));
        let e = HwError::InvalidSpec {
            context: "layer 1 expects 5 inputs".into(),
        };
        assert!(e.to_string().contains("layer 1 expects 5 inputs"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<HwError>();
    }
}
