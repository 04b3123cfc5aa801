//! The repo's benchmark: four workloads, end-to-end metrics, and a
//! per-layer table, all measured from outside the crates through their
//! public functions. `README.md` beside this crate is the manual.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod gate;
pub mod json;
pub mod kcpq;
pub mod live;
pub mod machine;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod svc;
