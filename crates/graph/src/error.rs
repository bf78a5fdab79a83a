//! Error types for graph operations.

use std::error::Error;
use std::fmt;

/// Errors produced by graph construction and algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node id did not refer to a node of the graph it was used with.
    InvalidNode {
        /// The offending node index.
        index: usize,
        /// Number of nodes actually present.
        node_count: usize,
    },
    /// An exact algorithm was invoked on an instance larger than it supports.
    InstanceTooLarge {
        /// Human-readable name of the algorithm.
        algorithm: &'static str,
        /// Size of the instance that was passed.
        size: usize,
        /// Largest supported size.
        max: usize,
    },
    /// No path exists between the requested endpoints.
    NoPath,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidNode { index, node_count } => {
                write!(f, "node index {index} out of range ({node_count} nodes)")
            }
            GraphError::InstanceTooLarge {
                algorithm,
                size,
                max,
            } => write!(
                f,
                "instance of size {size} too large for exact algorithm {algorithm} (max {max})"
            ),
            GraphError::NoPath => write!(f, "no path between the requested endpoints"),
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            GraphError::InvalidNode {
                index: 3,
                node_count: 1,
            },
            GraphError::InstanceTooLarge {
                algorithm: "bnb_set_cover",
                size: 1000,
                max: 128,
            },
            GraphError::NoPath,
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
