//! The six invariant rules. Each exposes a `check`/`sites` entry point
//! over [`crate::model::FileModel`]s and pushes [`crate::Finding`]s.

pub mod capped;
pub mod determinism;
pub mod locks;
pub mod panics;
pub mod unused_api;
pub mod wire_cov;
