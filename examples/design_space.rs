//! Design-space evaluation: how well do cluster representatives predict
//! the full population across GPU configurations?
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use gwc::core::eval::{design_sweep, evaluate_subset, random_subset_errors, stress_selection};
use gwc::core::pipeline::{Artifacts, PipelineConfig};
use gwc::stats::describe::mean;
use gwc::timing::sweep::default_design_space;
use gwc::timing::GpuConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The staged pipeline under its canonical default configuration.
    let artifacts = Artifacts::collect(&PipelineConfig::default());
    let study = artifacts.study();
    let reps = artifacts.analysis().representatives().to_vec();
    let labels = &artifacts.matrix.labels;
    println!(
        "representative subset ({} of {} kernels):",
        reps.len(),
        labels.len()
    );
    for &r in &reps {
        println!("  {}", labels[r]);
    }

    let sweep = design_sweep(study, &GpuConfig::baseline(), &default_design_space());
    let eval = evaluate_subset(&sweep, &reps);
    println!(
        "\n{:<16} {:>10} {:>10} {:>8}",
        "design point", "truth", "estimate", "error"
    );
    for (name, truth, estimate, err) in &eval.rows {
        println!(
            "{name:<16} {truth:>10.3} {estimate:>10.3} {:>7.1}%",
            100.0 * err
        );
    }
    println!(
        "\nrepresentative-subset mean error: {:.2}% (max {:.2}%)",
        100.0 * eval.mean_error(),
        100.0 * eval.max_error()
    );

    let random = random_subset_errors(&sweep, reps.len(), 20, 99);
    println!(
        "random subsets of the same size:  {:.2}% mean error over 20 draws",
        100.0 * mean(&random)
    );

    println!("\nstress workloads per functional block:");
    for sel in stress_selection(study, 3) {
        let names: Vec<&str> = sel.top.iter().map(|(n, _)| n.as_str()).collect();
        println!("  {:<28} {}", sel.block, names.join(", "));
    }
    Ok(())
}
