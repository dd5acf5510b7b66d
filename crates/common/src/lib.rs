//! Shared foundation types for the Feisu workspace.
//!
//! This crate holds the small, dependency-free vocabulary used by every
//! other Feisu crate: error types, strongly-typed identifiers, byte/time
//! units, a deterministic random-number generator, a fast non-DoS-safe
//! hasher used for internal hash tables, and the process allocator's
//! fixed heap thresholds.

pub mod config;
pub mod error;
pub mod hash;
pub mod heap;
pub mod ids;
pub mod rng;
pub mod units;

pub use error::{FeisuError, Result};
pub use ids::{BlockId, DomainId, JobId, NodeId, QueryId, TaskId, UserId};
pub use units::{ByteSize, SimDuration, SimInstant};
