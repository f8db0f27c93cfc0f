//! Experiment regeneration harness.
//!
//! Each `e*` function regenerates one experiment artifact (table or
//! figure) of the study as plain text — see DESIGN.md for the experiment
//! index and EXPERIMENTS.md for recorded outputs. The `regen` binary
//! prints any subset:
//!
//! ```sh
//! cargo run --release -p gwc-bench --bin regen            # everything
//! cargo run --release -p gwc-bench --bin regen e9 e10     # just two
//! ```

#![deny(unsafe_code)]

pub mod cli;
pub mod experiments;

pub use experiments::{
    all_experiments, render_experiments, run_experiment, ExperimentSpec, StudyArtifacts,
    EXPERIMENTS,
};
