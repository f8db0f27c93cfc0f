//! Extending the study with your own workload: implement
//! [`gwc::workloads::Workload`], characterize it, and place it in the
//! fitted PC space next to the paper's population.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use gwc::core::reduce::ReducedSpace;
use gwc::core::study::{Study, StudyConfig};
use gwc::simt::builder::KernelBuilder;
use gwc::simt::exec::{BufferHandle, Device};
use gwc::simt::instr::Value;
use gwc::simt::launch::LaunchConfig;
use gwc::simt::SimtError;
use gwc::stats::distance::euclidean;
use gwc::workloads::workload::check_u32;
use gwc::workloads::{LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

/// A Collatz-iteration kernel: wildly data-dependent loop trip counts, so
/// it should land near the divergence-heavy corner of the space.
///
/// `setup` keeps what `verify` needs (here only the problem size; a
/// workload with generated inputs keeps those) and `verify` computes the
/// CPU reference, so a run served from the profile cache skips that work.
#[derive(Debug, Default)]
struct CollatzSteps {
    out: Option<BufferHandle>,
    n: u32,
}

impl Workload for CollatzSteps {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "collatz_steps",
            suite: Suite::Other,
            description: "Collatz step counts; extreme data-dependent divergence",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(256, 2048, 8192) as u32;
        let hout = device.alloc_zeroed_u32(n as usize);
        self.out = Some(hout);
        self.n = n;

        let mut b = KernelBuilder::new("collatz");
        let pout = b.param_u32("out");
        let pn = b.param_u32("n");
        let i = b.global_tid_x();
        let in_range = b.lt_u32(i, pn);
        b.if_(in_range, |b| {
            let start = b.add_u32(i, Value::U32(1));
            let v = b.var_u32(start);
            let steps = b.var_u32(Value::U32(0));
            b.while_(
                |b| b.ne_u32(v, Value::U32(1)),
                |b| {
                    let bit = b.and_u32(v, Value::U32(1));
                    let odd = b.eq_u32(bit, Value::U32(1));
                    let half = b.shr_u32(v, Value::U32(1));
                    let tripled = b.mad_u32(v, Value::U32(3), Value::U32(1));
                    let next = b.sel_u32(odd, tripled, half);
                    b.assign(v, next);
                    let ns = b.add_u32(steps, Value::U32(1));
                    b.assign(steps, ns);
                },
            );
            let oa = b.index(pout, i, 4);
            b.st_global_u32(oa, steps);
        });
        Ok(vec![LaunchSpec {
            label: "collatz".into(),
            kernel: b.build()?,
            config: LaunchConfig::linear(n, 128),
            args: vec![hout.arg(), Value::U32(n)],
        }])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let expected: Vec<u32> = (0..self.n)
            .map(|i| {
                let mut v = i as u64 + 1;
                let mut steps = 0u32;
                while v != 1 {
                    v = if v.is_multiple_of(2) {
                        v / 2
                    } else {
                        3 * v + 1
                    };
                    steps += 1;
                }
                steps
            })
            .collect();
        let got = device.read_u32(self.out.as_ref().expect("setup"));
        check_u32("collatz", &got, &expected)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = StudyConfig {
        seed: 7,
        scale: Scale::Small,
        verify: true,
        ..StudyConfig::default()
    };
    let study = Study::run(&cfg)?.without_workload("vector_add");
    let space = ReducedSpace::fit(&study.matrix(), 0.9)?;

    // Characterize the custom workload and project it into the same space.
    let records = Study::run_one(&mut CollatzSteps::default(), &cfg)?;
    let profile = &records[0].profile;
    let point = space.project(profile.values())?;
    println!(
        "collatz_steps: simd activity {:.3}, divergent branch fraction {:.3}",
        profile.get("div_simd_activity"),
        profile.get("div_branch_frac")
    );

    // Nearest neighbours among the study population.
    let mut dists: Vec<(f64, String)> = study
        .labels()
        .iter()
        .enumerate()
        .map(|(r, l)| (euclidean(space.scores().row(r), &point), l.clone()))
        .collect();
    dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    println!("\nnearest kernels in the fitted PC space:");
    for (d, label) in dists.iter().take(5) {
        println!("  {label:<40} distance {d:.3}");
    }
    Ok(())
}
