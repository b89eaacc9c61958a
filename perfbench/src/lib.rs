#![forbid(unsafe_code)]

//! `perfbench`: the repository's end-to-end benchmark, with an
//! outside-in per-layer profile. See `README.md` next to this crate.

pub mod catalog;
pub mod cli;
pub mod compare;
pub mod host;
pub mod profile;
pub mod setup;
pub mod spec;
pub mod stats;
pub mod workloads;
