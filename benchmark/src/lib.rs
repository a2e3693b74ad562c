//! The repository benchmark: three workloads (`table1`, `crowd10k`,
//! `loopback`) measured from outside through the crates' public API.
//! Bare runs give the end-to-end metrics; traced runs attach the
//! program's metrics registry and a wall-clock span profiler and give
//! the per-layer metrics. Time metrics of the simulated workloads are
//! scaled to a reference host speed (`reference`). See `METRICS.md` for why each workload and
//! metric exists.

pub mod checks;
pub mod host;
pub mod reference;
pub mod report;
pub mod workloads;
