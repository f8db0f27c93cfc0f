//! Quickstart: build a kernel, run it on the SIMT device, characterize it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gwc::characterize::characterize_launch;
use gwc::core::pipeline::{Artifacts, PipelineConfig};
use gwc::core::study::StudyConfig;
use gwc::simt::builder::KernelBuilder;
use gwc::simt::exec::Device;
use gwc::simt::instr::Value;
use gwc::simt::launch::LaunchConfig;
use gwc::workloads::Scale;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // SAXPY: y[i] = alpha * x[i] + y[i]
    let mut b = KernelBuilder::new("saxpy");
    let alpha = b.param_f32("alpha");
    let x = b.param_u32("x");
    let y = b.param_u32("y");
    let n = b.param_u32("n");
    let i = b.global_tid_x();
    let in_range = b.lt_u32(i, n);
    b.if_(in_range, |b| {
        let xa = b.index(x, i, 4);
        let xv = b.ld_global_f32(xa);
        let ya = b.index(y, i, 4);
        let yv = b.ld_global_f32(ya);
        let r = b.mad_f32(alpha, xv, yv);
        b.st_global_f32(ya, r);
    });
    let kernel = b.build()?;

    let elems = 1 << 16;
    let mut dev = Device::new();
    let hx = dev.alloc_f32(&vec![1.0; elems]);
    let hy = dev.alloc_f32(&vec![2.0; elems]);

    let profile = characterize_launch(
        &mut dev,
        &kernel,
        &LaunchConfig::linear(elems as u32, 256),
        &[
            Value::F32(3.0),
            hx.arg(),
            hy.arg(),
            Value::U32(elems as u32),
        ],
    )?;

    // Correctness first.
    let result = dev.read_f32(&hy);
    assert!(result.iter().all(|&v| v == 5.0));
    println!("saxpy over {elems} elements: all values correct (5.0)\n");

    // The microarchitecture-independent profile.
    println!("{}", profile.render_table());
    println!(
        "executed {} warp instructions ({} thread instructions)",
        profile.stats().warp_instrs,
        profile.stats().thread_instrs
    );

    // The same staged pipeline `regen` and the benchmark drive, here at
    // Tiny scale so the demo finishes in seconds:
    // study -> matrix -> reduce -> cluster.
    println!("\nrunning the full pipeline at Tiny scale...");
    let artifacts = Artifacts::collect(&PipelineConfig {
        study: StudyConfig {
            seed: 7,
            scale: Scale::Tiny,
            verify: true,
            ..StudyConfig::default()
        },
        ..PipelineConfig::default()
    });
    println!(
        "characterized {} kernels -> {} PCs -> k = {} clusters",
        artifacts.study().records().len(),
        artifacts.space().kept(),
        artifacts.analysis().k()
    );
    Ok(())
}
