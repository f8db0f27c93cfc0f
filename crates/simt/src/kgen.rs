//! Seeded random kernel generator for the cross-backend differential
//! harness.
//!
//! `tests/backend_diff.rs` proves the scalar and SIMD engines
//! bit-identical on the 40+ registry workloads — real programs, but a
//! fixed set. This module manufactures *hundreds* of structurally
//! distinct kernels from a seed, spreading the same axes the paper's
//! AIWC-style characterization measures: branch divergence, memory
//! stride/irregularity, atomic density, barrier pressure, loop depth and
//! arithmetic mix. Every generated kernel is safe by construction —
//! guaranteed to build, terminate, and stay in bounds — so a failure in
//! the harness is always a backend divergence, never a broken input.
//!
//! # Safety invariants (what makes a generated kernel well-formed)
//!
//! * All loads index a **read-only** buffer (`src`/`fsrc`) through
//!   `rem n`, so they are in bounds and unaffected by the kernel's own
//!   writes.
//! * Global stores go only to `out[i]`/`fout[i]` where `i` is the global
//!   thread id and the buffers have exactly one slot per thread —
//!   disjoint across blocks and threads.
//! * Global atomics hit a tiny `atoms` buffer (data-dependent slot), so
//!   many lanes contend for each slot.
//! * Integer division/remainder divisors are `x | 1` — never zero.
//!   Signed division is never generated (`i32::MIN / -1` would trap).
//! * Loops are `for_range_u32` with a trip count fixed at generation
//!   time; there is no data-dependent backedge, so termination is
//!   structural.
//! * Barriers only appear at the structural top level (never under a
//!   divergent `if_`), so they cannot deadlock or trip the
//!   barrier-divergence check.
//! * Accumulators are mutated with `assign` (a masked move), so a
//!   divergent region updates only its active lanes — inactive lanes
//!   keep the old value, exactly like hand-written divergent code.
//!
//! The generator deliberately emits three adjacent µop shapes common in
//! registry kernels — a compare directly before each structured
//! `if_` branch, mul→add chains through a temporary, and load→convert —
//! so the differential suite holds the two engines to them on every
//! seed, not just on registry kernels that happen to contain them.

use crate::builder::KernelBuilder;
use crate::exec::{BufferHandle, Device};
use crate::instr::{Reg, Value};
use crate::kernel::Kernel;
use crate::launch::LaunchConfig;
use crate::SimtError;

/// Slots in the global atomic scratch buffer.
pub const ATOM_SLOTS: u32 = 16;
/// Slots in the shared-memory scratch used by barrier rounds.
pub const SHARED_SLOTS: u32 = 32;

/// A tiny deterministic RNG (splitmix64): one `u64` of state, full
/// 64-bit avalanche per draw. Not cryptographic — just stable across
/// platforms and good enough to decorrelate the generator's choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next 32-bit draw.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        assert!(n > 0, "Rng::below(0)");
        (self.next_u64() % n as u64) as u32
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u32) -> bool {
        self.below(100) < percent
    }
}

/// The generator's tuning axes — one knob per characterization axis the
/// differential harness wants spread. [`KgenKnobs::from_seed`] derives a
/// point in this space from a single seed; tests that want a specific
/// corner (e.g. maximum divergence, zero atomics) can set fields
/// directly.
#[derive(Debug, Clone)]
pub struct KgenKnobs {
    /// Seed for the instruction-selection stream (also names the kernel).
    pub seed: u64,
    /// Number of generated body regions (straight-line op clusters).
    pub ops: u32,
    /// Percent chance a region is wrapped in a data-dependent `if_`.
    pub divergence: u32,
    /// Maximum trip count of generated loops (0 = no loops).
    pub loop_iters: u32,
    /// Stride multiplier folded into load indices (1 = unit stride).
    pub stride: u32,
    /// Percent chance a region is a global atomic.
    pub atomic_density: u32,
    /// Percent chance of a shared-memory + barrier round between regions.
    pub barrier_density: u32,
    /// Grid size in blocks.
    pub blocks: u32,
    /// Threads per block (deliberately includes non-multiples of 32, so
    /// tail warps with partial live masks are always in play).
    pub threads_per_block: u32,
}

impl KgenKnobs {
    /// Spreads a seed across the knob space. Nearby seeds land on very
    /// different points (each axis draws from its own splitmix stream).
    pub fn from_seed(seed: u64) -> Self {
        let mut r = Rng::new(seed ^ 0xa076_1d64_78bd_642f);
        // Small thread counts keep a single generated kernel cheap while
        // still covering multi-warp blocks and partial tail warps.
        const TPB: [u32; 8] = [32, 48, 64, 96, 128, 160, 200, 256];
        Self {
            seed,
            ops: 4 + r.below(14),
            divergence: r.below(70),
            loop_iters: r.below(6),
            stride: 1 + r.below(7),
            atomic_density: r.below(25),
            barrier_density: r.below(30),
            blocks: 1 + r.below(4),
            threads_per_block: TPB[r.below(TPB.len() as u32) as usize],
        }
    }

    /// Total threads = one output slot per thread.
    pub fn total_threads(&self) -> u32 {
        self.blocks * self.threads_per_block
    }
}

/// A generated kernel plus everything needed to launch it.
#[derive(Debug)]
pub struct GeneratedKernel {
    /// The built, validated kernel.
    pub kernel: Kernel,
    /// Launch geometry (1-D, from the knobs).
    pub config: LaunchConfig,
    /// The knob point it was generated from.
    pub knobs: KgenKnobs,
}

/// Buffer handles for one allocation of a generated kernel's arguments.
#[derive(Debug)]
pub struct KgenArgs {
    /// Launch arguments, in kernel parameter order.
    pub args: Vec<Value>,
    /// Per-thread `u32` output buffer.
    pub out: BufferHandle,
    /// Per-thread `f32` output buffer.
    pub fout: BufferHandle,
    /// Global atomic scratch ([`ATOM_SLOTS`] slots).
    pub atoms: BufferHandle,
}

impl GeneratedKernel {
    /// Allocates and deterministically initializes the kernel's buffers
    /// on `dev`. Input data is a pure function of the seed, so two
    /// devices given the same generated kernel start bit-identical.
    pub fn alloc_args(&self, dev: &mut Device) -> KgenArgs {
        let n = self.knobs.total_threads();
        let mut r = Rng::new(self.knobs.seed ^ 0x53_4741_5247_454e); // data stream
        let src: Vec<u32> = (0..n).map(|_| r.next_u32()).collect();
        // Small positive floats: keeps f32 chains numerically busy
        // without instantly saturating to inf.
        let fsrc: Vec<f32> = (0..n).map(|_| (r.below(4096) as f32) / 256.0).collect();
        let src = dev.alloc_u32(&src);
        let fsrc = dev.alloc_f32(&fsrc);
        let out = dev.alloc_zeroed_u32(n as usize);
        let fout = dev.alloc_zeroed_f32(n as usize);
        let atoms = dev.alloc_zeroed_u32(ATOM_SLOTS as usize);
        KgenArgs {
            args: vec![
                src.arg(),
                fsrc.arg(),
                out.arg(),
                fout.arg(),
                atoms.arg(),
                Value::U32(n),
            ],
            out,
            fout,
            atoms,
        }
    }
}

/// One straight-line op cluster, planned before emission (the plan holds
/// every random choice, so emission itself is deterministic and can run
/// inside builder closures without threading the RNG through them).
#[derive(Debug, Clone, Copy)]
enum Region {
    /// `t = acc * m; acc = t + a` — a mul whose product feeds the
    /// adjacent add.
    MulAddPair { m: u32, a: u32 },
    /// `v = ld src[(acc * stride + i) % n]; facc += f32(v)` — a load
    /// feeding the adjacent convert, behind a strided, data-dependent
    /// gather.
    LdCvt,
    /// `x = ld fsrc[(acc + salt) % n]; facc = facc <op> x`.
    F32Load { salt: u32, op: u32 },
    /// `facc = facc <op> imm`.
    F32Arith { imm_bits: u32, op: u32 },
    /// `acc = acc <bitop> imm`.
    U32Mix { imm: u32, op: u32 },
    /// `acc += imm / (acc | 1)` or `acc = acc % (imm | 1)`.
    DivRem { imm: u32, rem: bool },
    /// `p = acc < t; acc = p ? acc ^ imm : acc`.
    Sel { t: u32, imm: u32 },
    /// SFU unary on `facc` (abs first, so sqrt/log see non-negatives
    /// often enough to produce finite values).
    Sfu { op: u32 },
    /// `y = i32(facc) <op> imm; acc += u32(y)`.
    I32Arith { imm: i32, op: u32 },
    /// `atoms[acc % ATOM_SLOTS] += 1` (global atomic).
    Atomic,
}

/// A top-level program item: a (possibly divergent) region, a bounded
/// loop over regions, or a shared-memory + barrier round.
#[derive(Debug, Clone)]
enum TopItem {
    /// `diverge`: wrap in `if (acc & 31) < t` (None = straight-line).
    Region { r: Region, diverge: Option<u32> },
    /// `for j in 0..iters { acc += j; <body> }`.
    Loop { iters: u32, body: Vec<Region> },
    /// `sh[tid % S] = acc; bar; acc += sh[(tid+1) % S]; bar`.
    SharedRound,
}

fn plan_region(r: &mut Rng, knobs: &KgenKnobs) -> Region {
    if r.chance(knobs.atomic_density) {
        return Region::Atomic;
    }
    match r.below(9) {
        0 => Region::MulAddPair {
            m: r.next_u32() | 1,
            a: r.next_u32(),
        },
        1 => Region::LdCvt,
        2 => Region::F32Load {
            salt: r.next_u32(),
            op: r.below(4),
        },
        3 => Region::F32Arith {
            imm_bits: ((1.0 + r.below(512) as f32 / 128.0) * if r.chance(30) { -1.0 } else { 1.0 })
                .to_bits(),
            op: r.below(4),
        },
        4 => Region::U32Mix {
            imm: r.next_u32(),
            op: r.below(7),
        },
        5 => Region::DivRem {
            imm: r.next_u32(),
            rem: r.chance(50),
        },
        6 => Region::Sel {
            t: r.next_u32(),
            imm: r.next_u32(),
        },
        7 => Region::Sfu { op: r.below(5) },
        _ => Region::I32Arith {
            imm: r.next_u32() as i32 % 10_000,
            op: r.below(4),
        },
    }
}

fn plan(knobs: &KgenKnobs) -> Vec<TopItem> {
    let mut r = Rng::new(knobs.seed);
    let mut items = Vec::new();
    let mut ops_left = knobs.ops;
    while ops_left > 0 {
        if r.chance(knobs.barrier_density) {
            items.push(TopItem::SharedRound);
            ops_left = ops_left.saturating_sub(1);
            continue;
        }
        if knobs.loop_iters > 0 && r.chance(20) {
            let body_len = (1 + r.below(3)).min(ops_left);
            let body = (0..body_len).map(|_| plan_region(&mut r, knobs)).collect();
            items.push(TopItem::Loop {
                iters: 1 + r.below(knobs.loop_iters),
                body,
            });
            ops_left -= body_len;
            continue;
        }
        let diverge = r.chance(knobs.divergence).then(|| 1 + r.below(31));
        items.push(TopItem::Region {
            r: plan_region(&mut r, knobs),
            diverge,
        });
        ops_left -= 1;
    }
    items
}

/// Kernel-body state threaded through emission: the parameters and the
/// two accumulator variables every region reads and `assign`s.
struct Emit {
    src: crate::instr::Operand,
    fsrc: crate::instr::Operand,
    atoms: crate::instr::Operand,
    n: crate::instr::Operand,
    i: Reg,
    acc: Reg,
    facc: Reg,
    stride: u32,
}

fn emit_region(b: &mut KernelBuilder, e: &Emit, r: Region) {
    match r {
        Region::MulAddPair { m, a } => {
            let t = b.mul_u32(e.acc, Value::U32(m));
            let s = b.add_u32(t, Value::U32(a));
            b.assign(e.acc, s);
        }
        Region::LdCvt => {
            let t = b.mad_u32(e.acc, Value::U32(e.stride), e.i);
            let idx = b.rem_u32(t, e.n);
            let addr = b.index(e.src, idx, 4);
            let v = b.ld_global_u32(addr);
            let f = b.to_f32(v);
            let s = b.add_f32(e.facc, f);
            b.assign(e.facc, s);
        }
        Region::F32Load { salt, op } => {
            let t = b.add_u32(e.acc, Value::U32(salt));
            let idx = b.rem_u32(t, e.n);
            let addr = b.index(e.fsrc, idx, 4);
            let x = b.ld_global_f32(addr);
            let s = match op {
                0 => b.add_f32(e.facc, x),
                1 => b.sub_f32(e.facc, x),
                2 => b.min_f32(e.facc, x),
                _ => b.max_f32(e.facc, x),
            };
            b.assign(e.facc, s);
        }
        Region::F32Arith { imm_bits, op } => {
            let imm = Value::F32(f32::from_bits(imm_bits));
            let s = match op {
                0 => b.add_f32(e.facc, imm),
                1 => b.sub_f32(e.facc, imm),
                2 => b.mul_f32(e.facc, imm),
                _ => b.div_f32(e.facc, imm),
            };
            b.assign(e.facc, s);
        }
        Region::U32Mix { imm, op } => {
            let s = match op {
                0 => b.xor_u32(e.acc, Value::U32(imm)),
                1 => b.and_u32(e.acc, Value::U32(imm | 0xffff)),
                2 => b.or_u32(e.acc, Value::U32(imm & 0xffff)),
                3 => b.add_u32(e.acc, Value::U32(imm)),
                4 => b.sub_u32(e.acc, Value::U32(imm)),
                5 => b.shl_u32(e.acc, Value::U32(imm & 7)),
                _ => b.shr_u32(e.acc, Value::U32(imm & 7)),
            };
            b.assign(e.acc, s);
        }
        Region::DivRem { imm, rem } => {
            let s = if rem {
                b.rem_u32(e.acc, Value::U32(imm | 1))
            } else {
                let d = b.or_u32(e.acc, Value::U32(1));
                let q = b.div_u32(Value::U32(imm), d);
                b.add_u32(e.acc, q)
            };
            b.assign(e.acc, s);
        }
        Region::Sel { t, imm } => {
            let p = b.lt_u32(e.acc, Value::U32(t));
            let alt = b.xor_u32(e.acc, Value::U32(imm));
            let s = b.sel_u32(p, alt, e.acc);
            b.assign(e.acc, s);
        }
        Region::Sfu { op } => {
            let s = match op {
                0 => {
                    let a = b.abs_f32(e.facc);
                    b.sqrt_f32(a)
                }
                1 => b.sin_f32(e.facc),
                2 => b.cos_f32(e.facc),
                3 => {
                    let a = b.abs_f32(e.facc);
                    let a1 = b.add_f32(a, Value::F32(1.0));
                    b.log2_f32(a1)
                }
                _ => {
                    let a = b.abs_f32(e.facc);
                    let a1 = b.add_f32(a, Value::F32(0.5));
                    b.rsqrt_f32(a1)
                }
            };
            b.assign(e.facc, s);
        }
        Region::I32Arith { imm, op } => {
            let x = b.to_i32(e.facc);
            let y = match op {
                0 => b.add_i32(x, Value::I32(imm)),
                1 => b.sub_i32(x, Value::I32(imm)),
                2 => b.min_i32(x, Value::I32(imm)),
                _ => b.max_i32(x, Value::I32(imm)),
            };
            let u = b.to_u32(y);
            let s = b.add_u32(e.acc, u);
            b.assign(e.acc, s);
        }
        Region::Atomic => {
            let slot = b.rem_u32(e.acc, Value::U32(ATOM_SLOTS));
            let addr = b.index(e.atoms, slot, 4);
            b.atomic_add_global_u32(addr, Value::U32(1));
        }
    }
}

/// Generates the kernel at a knob point. Infallible for any knob values
/// (the builder output is valid by construction); the `Result` only
/// surfaces internal builder invariant violations.
///
/// # Errors
///
/// Propagates [`KernelBuilder::build`] validation errors (none are
/// expected from this generator; a failure is a generator bug).
pub fn generate(knobs: KgenKnobs) -> Result<GeneratedKernel, SimtError> {
    let items = plan(&knobs);
    let uses_shared = items.iter().any(|i| matches!(i, TopItem::SharedRound));

    let mut b = KernelBuilder::new(format!("kgen_{:016x}", knobs.seed));
    let src = b.param_u32("src");
    let fsrc = b.param_u32("fsrc");
    let out = b.param_u32("out");
    let fout = b.param_u32("fout");
    let atoms = b.param_u32("atoms");
    let n = b.param_u32("n");
    let sh = uses_shared.then(|| b.alloc_shared(SHARED_SLOTS * 4));

    let i = b.global_tid_x();
    let acc = b.var_u32(i);
    let seed_mix = b.xor_u32(acc, Value::U32(knobs.seed as u32));
    b.assign(acc, seed_mix);
    let fi = b.to_f32(i);
    let facc = b.var_f32(fi);
    let e = Emit {
        src,
        fsrc,
        atoms,
        n,
        i,
        acc,
        facc,
        stride: knobs.stride,
    };

    for item in &items {
        match item {
            TopItem::Region { r, diverge } => match diverge {
                None => emit_region(&mut b, &e, *r),
                Some(t) => {
                    // `(acc & 31) < t` — a lane-varying predicate, and the
                    // cmp lands directly before the structured-if branch.
                    let masked = b.and_u32(e.acc, Value::U32(31));
                    let p = b.lt_u32(masked, Value::U32(*t));
                    let r = *r;
                    b.if_(p, |b| emit_region(b, &e, r));
                }
            },
            TopItem::Loop { iters, body } => {
                b.for_range_u32(Value::U32(0), Value::U32(*iters), 1, |b, j| {
                    let s = b.add_u32(e.acc, j);
                    b.assign(e.acc, s);
                    for r in body {
                        emit_region(b, &e, *r);
                    }
                });
            }
            TopItem::SharedRound => {
                let sh = sh.expect("planned shared round allocates shared");
                let tid = b.var_u32(b.tid_x());
                let slot = b.rem_u32(tid, Value::U32(SHARED_SLOTS));
                let a0 = b.index(sh, slot, 4);
                b.st_shared_u32(a0, e.acc);
                b.barrier();
                let t1 = b.add_u32(tid, Value::U32(1));
                let slot1 = b.rem_u32(t1, Value::U32(SHARED_SLOTS));
                let a1 = b.index(sh, slot1, 4);
                let v = b.ld_shared_u32(a1);
                let s = b.add_u32(e.acc, v);
                b.assign(e.acc, s);
                b.barrier();
            }
        }
    }

    // Every thread commits both accumulators to its private slot, so
    // the whole computation is observable in the memory image.
    let oa = b.index(out, i, 4);
    b.st_global_u32(oa, acc);
    let fa = b.index(fout, i, 4);
    b.st_global_f32(fa, facc);

    Ok(GeneratedKernel {
        kernel: b.build()?,
        config: LaunchConfig::new(knobs.blocks, knobs.threads_per_block),
        knobs,
    })
}

/// [`generate`] at the knob point [`KgenKnobs::from_seed`] derives.
pub fn generate_seeded(seed: u64) -> Result<GeneratedKernel, SimtError> {
    generate(KgenKnobs::from_seed(seed))
}

/// Knob point for an adversarial cache-thrashing partner kernel, used
/// by the pairwise-interference harness as a co-resident aggressor that
/// no curated registry pair can match: every region is a strided,
/// data-dependent gather (`Region::LdCvt`-heavy mix via zero
/// divergence/atomic/barrier densities), the stride is a large prime so
/// consecutive loads land in different 128-byte lines, and looped
/// regions re-walk the whole footprint, widening the victim's reuse
/// distances as far as the shared timeline allows.
///
/// `atomic_density` is zero by construction: the thrasher stays free of
/// global atomics, so it can co-schedule against any partner.
pub fn thrash_knobs(seed: u64) -> KgenKnobs {
    KgenKnobs {
        seed,
        ops: 12,
        divergence: 0,
        loop_iters: 5,
        stride: 97,
        atomic_density: 0,
        barrier_density: 0,
        blocks: 8,
        threads_per_block: 256,
    }
}

/// Generates the seeded cache-thrashing partner kernel
/// ([`thrash_knobs`]).
///
/// # Errors
///
/// Propagates kernel-build errors (none are expected: generated kernels
/// are safe by construction).
pub fn generate_thrasher(seed: u64) -> Result<GeneratedKernel, SimtError> {
    generate(thrash_knobs(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_seeded(42).unwrap();
        let b = generate_seeded(42).unwrap();
        assert_eq!(a.kernel.content_hash(), b.kernel.content_hash());
        assert_eq!(a.config, b.config);
        let c = generate_seeded(43).unwrap();
        assert_ne!(a.kernel.content_hash(), c.kernel.content_hash());
    }

    #[test]
    fn generated_kernels_build_and_run() {
        for seed in 0..32 {
            let g = generate_seeded(seed).unwrap();
            let mut dev = Device::with_backend(BackendKind::Simd);
            let args = g.alloc_args(&mut dev);
            let stats = dev
                .launch(&g.kernel, &g.config, &args.args)
                .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            assert!(stats.thread_instrs > 0, "seed {seed} executed nothing");
            // Every thread stored to its private slot.
            let out = dev.read_u32(&args.out);
            assert_eq!(out.len(), g.knobs.total_threads() as usize);
        }
    }

    #[test]
    fn knob_axes_are_spread() {
        let mut divergent = 0;
        let mut with_atomics = 0;
        let mut with_barriers = 0;
        for seed in 0..64 {
            let g = generate_seeded(seed).unwrap();
            let k = &g.knobs;
            if k.divergence > 30 {
                divergent += 1;
            }
            if k.atomic_density > 10 {
                with_atomics += 1;
            }
            if k.barrier_density > 15 {
                with_barriers += 1;
            }
        }
        assert!(divergent > 5, "divergence axis collapsed: {divergent}");
        assert!(with_atomics > 5, "atomic axis collapsed: {with_atomics}");
        assert!(with_barriers > 5, "barrier axis collapsed: {with_barriers}");
    }

    #[test]
    fn thrasher_is_atomic_free_deterministic_and_runs() {
        let g = generate_thrasher(7).unwrap();
        assert_eq!(
            g.knobs.atomic_density, 0,
            "thrasher must stay free of global atomics"
        );
        let again = generate_thrasher(7).unwrap();
        assert_eq!(g.kernel.content_hash(), again.kernel.content_hash());
        assert_ne!(
            g.kernel.content_hash(),
            generate_thrasher(8).unwrap().kernel.content_hash()
        );
        let mut dev = Device::with_backend(BackendKind::Simd);
        let args = g.alloc_args(&mut dev);
        let stats = dev.launch(&g.kernel, &g.config, &args.args).unwrap();
        // The whole point is memory pressure: a wide-strided gather per
        // region over a multi-KiB footprint.
        assert!(stats.thread_instrs > 0);
        assert_eq!(stats.blocks, 8);
    }
}
