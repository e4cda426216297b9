//! Error type for the search / experiment layer.

use std::fmt;

/// Error returned by baselines, evaluation and search.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A search or experiment configuration is invalid.
    InvalidConfig {
        /// Description of the problem.
        context: String,
    },
    /// Error from the neural-network substrate.
    Nn {
        /// Forwarded description.
        context: String,
    },
    /// Error from the dataset substrate.
    Data {
        /// Forwarded description.
        context: String,
    },
    /// Error from the minimization passes.
    Minimize {
        /// Forwarded description.
        context: String,
    },
    /// Error from the hardware model.
    Hw {
        /// Forwarded description.
        context: String,
    },
    /// Error from the persistent evaluation store or one of its documents.
    Store {
        /// Description of the I/O or format problem.
        context: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { context } => write!(f, "invalid configuration: {context}"),
            CoreError::Nn { context } => write!(f, "network error: {context}"),
            CoreError::Data { context } => write!(f, "dataset error: {context}"),
            CoreError::Minimize { context } => write!(f, "minimization error: {context}"),
            CoreError::Hw { context } => write!(f, "hardware model error: {context}"),
            CoreError::Store { context } => write!(f, "persistence error: {context}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<pmlp_nn::NnError> for CoreError {
    fn from(e: pmlp_nn::NnError) -> Self {
        CoreError::Nn {
            context: e.to_string(),
        }
    }
}

impl From<pmlp_data::DataError> for CoreError {
    fn from(e: pmlp_data::DataError) -> Self {
        CoreError::Data {
            context: e.to_string(),
        }
    }
}

impl From<pmlp_minimize::MinimizeError> for CoreError {
    fn from(e: pmlp_minimize::MinimizeError) -> Self {
        CoreError::Minimize {
            context: e.to_string(),
        }
    }
}

impl From<pmlp_hw::HwError> for CoreError {
    fn from(e: pmlp_hw::HwError) -> Self {
        CoreError::Hw {
            context: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_messages() {
        let e: CoreError = pmlp_nn::NnError::InvalidConfig {
            context: "abc".into(),
        }
        .into();
        assert!(e.to_string().contains("abc"));
        let e: CoreError = pmlp_hw::HwError::InvalidBitWidth {
            context: "xyz".into(),
        }
        .into();
        assert!(e.to_string().contains("xyz"));
        let e: CoreError = pmlp_data::DataError::InvalidSpec {
            context: "spec".into(),
        }
        .into();
        assert!(e.to_string().contains("spec"));
        let e: CoreError = pmlp_minimize::MinimizeError::InvalidConfig {
            context: "cfg".into(),
        }
        .into();
        assert!(e.to_string().contains("cfg"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CoreError>();
    }
}
