//! The cmpsim benchmark: three reference jobs, their correctness checks,
//! end-to-end metrics measured with tracing off, and a separate traced
//! run that attributes host time to the workspace's crates. See
//! `README.md` in this directory for the metrics and workloads.

pub mod jobs;
pub mod layers;
pub mod out;
pub mod refclock;
