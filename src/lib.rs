//! Umbrella package hosting the workspace-level examples and integration tests.
//!
//! See the individual `rablock-*` crates for the system itself.

#![forbid(unsafe_code)]

pub use rablock;
