//! Layered job benchmark for the EFind reproduction.
//!
//! Three workloads (`q3_cache`, `q9_warm`, `q3_gray`) run as closed loops
//! of one job at a time. A timed run reports the end-to-end metrics; a
//! separate traced run attributes each job's host time to the layers it
//! passes through, from spans recorded around the benchmark's own calls
//! into each layer's public functions. See `perfbench/README.md`.

pub mod bench;
pub mod layers;
pub mod measure;
pub mod oracle;
pub mod pipeline;
pub mod trace;
pub mod workload;
