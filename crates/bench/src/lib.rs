//! # giant-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§5); see
//! `DESIGN.md` §3 for the index. This library holds the shared setup
//! (synthetic world → datasets → trained models → pipeline output) and the
//! evaluation drivers used by those binaries and by the criterion benches.

#![forbid(unsafe_code)]

pub mod experiment;
pub mod golden;
pub mod methods;
pub mod report;
pub mod truth;

pub use experiment::{Experiment, ExperimentConfig};
pub use golden::{golden_queries, serving_golden_dump};
pub use methods::{
    eval_concept_baselines, eval_event_baselines, eval_key_elements, MethodRow,
};
pub use report::{print_figure_series, print_table};
