//! The 32-lane warp engine ([`crate::backend::SimdBackend`]).
//!
//! The scalar reference steps one lane at a time through a tag-free but
//! still lane-serial `match`. This engine executes each µop **once for
//! the whole warp**: operands are materialized into `[u32; 32]` value
//! vectors, the opcode `match` happens once per µop (not per lane), and
//! the 32-element loops are plain indexed array code the autovectorizer
//! lowers to real SIMD. Results are committed under the active mask —
//! every lane is computed, only active lanes are written, and a full
//! mask is a plain copy:
//!
//! ```text
//! dst[i] = if mask & (1 << i) != 0 { result[i] } else { dst[i] }
//! ```
//!
//! # Bit-identity discipline
//!
//! The differential harness (`tests/backend_diff.rs`) holds this engine
//! to *total* equivalence with the scalar loop — same observer events in
//! the same order, same register/memory effects, same stats, same errors
//! at the same pc. The rules that make that hold:
//!
//! * Computing an IEEE op on an inactive lane's garbage input is safe:
//!   the result is deterministic bitwise and the commit discards it.
//! * Integer div/rem keep the scalar per-lane checked path: the scalar
//!   loop faults at the *first* active zero-divisor lane after writing
//!   earlier lanes, and this engine does the same.
//! * Loads, stores and atomics vectorize address generation and operand
//!   reads only; every bounds check, read and write runs per lane in
//!   ascending lane order exactly like the scalar engine (atomics
//!   serialize, fault order is per-lane), with the memory space resolved
//!   once per access. A load commits its gathered lanes once, after the
//!   last read: a faulting load returns the first bad lane's error and
//!   commits nothing, where the scalar engine has written the lanes
//!   before it. That difference is unobservable — a failed launch's
//!   registers live in its scratch and are dropped with it.
//! * Special registers cost at most two divisions per warp: `TidX`/`TidY`
//!   divide the warp's first thread once and step lane by lane, `CtaId*`
//!   divide once and splat — the values of [`LaunchCtx::eval`]'s per-lane
//!   formulas.
//! * `addr_buf` entries are written for active lanes only — inactive
//!   lanes keep stale values, matching the scalar engine's documented
//!   [`MemEvent`] contract.

use crate::decode::{self, BinKind, Src, UnKind, Uop};
use crate::exec::{advance, branch, lanes, read4, write4, write_reg, LaunchCtx, Warp};
use crate::instr::{CmpOp, Space, SpecialReg, Type};
use crate::trace::{AccessKind, BranchEvent, InstrEvent, MemEvent, TraceObserver};
use crate::{SimtError, WARP_SIZE};

/// One value per warp lane.
type Vals = [u32; WARP_SIZE];

/// The 32 lanes of register `r`.
#[inline]
fn reg(warp: &Warp, r: u16) -> &Vals {
    let o = r as usize * WARP_SIZE;
    warp.regs[o..o + WARP_SIZE].try_into().expect("32 lanes")
}

/// Writes `v` into `dst` under `mask` in select form: active lanes take
/// the new value, inactive keep the old. A full mask is a plain copy.
#[inline]
fn blend(dst: &mut Vals, mask: u32, v: &Vals) {
    if mask == u32::MAX {
        *dst = *v;
    } else {
        for (i, d) in dst.iter_mut().enumerate() {
            *d = if mask & (1 << i) != 0 { v[i] } else { *d };
        }
    }
}

/// Commits a result vector to register `r` under the active mask.
#[inline]
fn commit(warp: &mut Warp, r: u16, mask: u32, v: &Vals) {
    let o = r as usize * WARP_SIZE;
    let dst = (&mut warp.regs[o..o + WARP_SIZE])
        .try_into()
        .expect("32 lanes");
    blend(dst, mask, v);
}

/// Materializes operand `s` for the whole warp. Registers copy their
/// lanes; immediates, params and launch dimensions splat; the block
/// index costs one division and the thread index two ([`tid`]).
#[inline]
fn eval32(ctx: &LaunchCtx<'_>, warp: &Warp, block: u32, s: Src) -> Vals {
    let c = ctx.config;
    match s {
        Src::Reg(r) => *reg(warp, r),
        Src::Imm(bits) => [bits; WARP_SIZE],
        Src::Param(i) => [ctx.params[i as usize]; WARP_SIZE],
        Src::Sreg(SpecialReg::TidX) => tid(c.block_x, warp.base_thread).0,
        Src::Sreg(SpecialReg::TidY) => tid(c.block_x, warp.base_thread).1,
        Src::Sreg(SpecialReg::NTidX) => [c.block_x; WARP_SIZE],
        Src::Sreg(SpecialReg::NTidY) => [c.block_y; WARP_SIZE],
        Src::Sreg(SpecialReg::CtaIdX) => [block % c.grid_x; WARP_SIZE],
        Src::Sreg(SpecialReg::CtaIdY) => [block / c.grid_x; WARP_SIZE],
        Src::Sreg(SpecialReg::NCtaIdX) => [c.grid_x; WARP_SIZE],
        Src::Sreg(SpecialReg::NCtaIdY) => [c.grid_y; WARP_SIZE],
        Src::Sreg(SpecialReg::LaneId) => std::array::from_fn(|i| i as u32),
    }
}

/// The `(x, y)` thread coordinates of the warp's 32 lanes in a block
/// `block_x` threads wide: one division pair for the first thread, then
/// a step per lane — `thread % block_x` and `thread / block_x` for
/// `thread = base_thread + lane`.
#[inline]
fn tid(block_x: u32, base_thread: u32) -> (Vals, Vals) {
    let (mut x, mut y) = (base_thread % block_x, base_thread / block_x);
    let (mut xs, mut ys) = ([0; WARP_SIZE], [0; WARP_SIZE]);
    for (xs, ys) in xs.iter_mut().zip(&mut ys) {
        (*xs, *ys) = (x, y);
        x += 1;
        if x == block_x {
            (x, y) = (0, y + 1);
        }
    }
    (xs, ys)
}

#[inline]
fn map2(a: &Vals, b: &Vals, f: impl Fn(u32, u32) -> u32) -> Vals {
    std::array::from_fn(|i| f(a[i], b[i]))
}

#[inline]
fn i2(a: &Vals, b: &Vals, f: impl Fn(i32, i32) -> i32) -> Vals {
    std::array::from_fn(|i| f(a[i] as i32, b[i] as i32) as u32)
}

#[inline]
fn f2(a: &Vals, b: &Vals, f: impl Fn(f32, f32) -> f32) -> Vals {
    std::array::from_fn(|i| f(f32::from_bits(a[i]), f32::from_bits(b[i])).to_bits())
}

#[inline]
fn f1(a: &Vals, f: impl Fn(f32) -> f32) -> Vals {
    std::array::from_fn(|i| f(f32::from_bits(a[i])).to_bits())
}

/// 32-lane [`BinKind::eval`]; div/rem are excluded (they keep the scalar
/// checked path — see the module docs).
#[inline]
fn bin(kind: BinKind, a: &Vals, b: &Vals) -> Vals {
    use BinKind::*;
    match kind {
        AddU32 => map2(a, b, u32::wrapping_add),
        SubU32 => map2(a, b, u32::wrapping_sub),
        MulU32 => map2(a, b, u32::wrapping_mul),
        MinU32 => map2(a, b, u32::min),
        MaxU32 => map2(a, b, u32::max),
        AndU32 | AndI32 | AndPred => map2(a, b, |x, y| x & y),
        OrU32 | OrI32 | OrPred => map2(a, b, |x, y| x | y),
        XorU32 | XorI32 | XorPred => map2(a, b, |x, y| x ^ y),
        ShlU32 => map2(a, b, u32::wrapping_shl),
        ShrU32 => map2(a, b, u32::wrapping_shr),
        AddI32 => i2(a, b, i32::wrapping_add),
        SubI32 => i2(a, b, i32::wrapping_sub),
        MulI32 => i2(a, b, i32::wrapping_mul),
        MinI32 => i2(a, b, i32::min),
        MaxI32 => i2(a, b, i32::max),
        ShlI32 => std::array::from_fn(|i| (a[i] as i32).wrapping_shl(b[i]) as u32),
        ShrI32 => std::array::from_fn(|i| (a[i] as i32).wrapping_shr(b[i]) as u32),
        AddF32 => f2(a, b, |x, y| x + y),
        SubF32 => f2(a, b, |x, y| x - y),
        MulF32 => f2(a, b, |x, y| x * y),
        DivF32 => f2(a, b, |x, y| x / y),
        MinF32 => f2(a, b, f32::min),
        MaxF32 => f2(a, b, f32::max),
        DivU32 | RemU32 | DivI32 | RemI32 => {
            unreachable!("checked div/rem take the per-lane scalar path")
        }
    }
}

/// 32-lane [`UnKind::eval`].
#[inline]
fn un(kind: UnKind, a: &Vals) -> Vals {
    use UnKind::*;
    match kind {
        NegI32 => std::array::from_fn(|i| (a[i] as i32).wrapping_neg() as u32),
        NegF32 => f1(a, |x| -x),
        AbsI32 => std::array::from_fn(|i| (a[i] as i32).wrapping_abs() as u32),
        AbsF32 => f1(a, f32::abs),
        NotInt => a.map(|x| !x),
        NotPred => a.map(|x| x ^ 1),
        SqrtF32 => f1(a, f32::sqrt),
        RsqrtF32 => f1(a, |x| 1.0 / x.sqrt()),
        Exp2F32 => f1(a, f32::exp2),
        Log2F32 => f1(a, f32::log2),
        SinF32 => f1(a, f32::sin),
        CosF32 => f1(a, f32::cos),
        RecipF32 => f1(a, |x| 1.0 / x),
    }
}

/// 32-lane [`decode::eval_cmp`]. Rust's comparison operators agree with
/// the ordering-based reference bit for bit, including every NaN case
/// (`Ne` true, everything else false).
#[inline]
fn cmp(op: CmpOp, ty: Type, a: &Vals, b: &Vals) -> Vals {
    #[inline]
    fn c<T: PartialOrd>(op: CmpOp, x: T, y: T) -> u32 {
        (match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }) as u32
    }
    match ty {
        Type::U32 => std::array::from_fn(|i| c(op, a[i], b[i])),
        Type::I32 => std::array::from_fn(|i| c(op, a[i] as i32, b[i] as i32)),
        Type::F32 => std::array::from_fn(|i| c(op, f32::from_bits(a[i]), f32::from_bits(b[i]))),
        Type::Pred => unreachable!("validated: no predicate comparisons"),
    }
}

/// 32-lane [`decode::eval_mad`].
#[inline]
fn mad(ty: Type, a: &Vals, b: &Vals, c: &Vals) -> Vals {
    match ty {
        Type::U32 => std::array::from_fn(|i| a[i].wrapping_mul(b[i]).wrapping_add(c[i])),
        Type::I32 => std::array::from_fn(|i| {
            (a[i] as i32)
                .wrapping_mul(b[i] as i32)
                .wrapping_add(c[i] as i32) as u32
        }),
        Type::F32 => std::array::from_fn(|i| {
            f32::from_bits(a[i])
                .mul_add(f32::from_bits(b[i]), f32::from_bits(c[i]))
                .to_bits()
        }),
        Type::Pred => unreachable!("validated: no predicate mad"),
    }
}

/// Address generation for the whole warp: active lanes of `out` get
/// `base + offset`, inactive lanes keep their stale values (the scalar
/// engine's exact policy — [`MemEvent::addrs`] entries are only valid
/// under the active mask).
#[inline]
fn gather_addrs(
    ctx: &LaunchCtx<'_>,
    warp: &Warp,
    block: u32,
    mask: u32,
    base: Src,
    offset: i32,
    out: &mut Vals,
) {
    let addrs = eval32(ctx, warp, block, base).map(|b| b.wrapping_add_signed(offset));
    blend(out, mask, &addrs);
}

/// Reads each active lane's word through `read(lane, addr)` in ascending
/// lane order; the first fault ends the access with its error.
#[inline]
fn load(
    mask: u32,
    addrs: &Vals,
    read: impl Fn(usize, u32) -> Result<[u8; 4], SimtError>,
) -> Result<Vals, SimtError> {
    let mut v = [0; WARP_SIZE];
    for lane in lanes(mask) {
        v[lane] = u32::from_le_bytes(read(lane, addrs[lane])?);
    }
    Ok(v)
}

/// Writes each active lane's value through `write(lane, addr, bytes)` in
/// ascending lane order; the first fault ends the access with its error,
/// after the earlier lanes' writes landed.
#[inline]
fn store(
    mask: u32,
    addrs: &Vals,
    v: &Vals,
    mut write: impl FnMut(usize, u32, [u8; 4]) -> Result<(), SimtError>,
) -> Result<(), SimtError> {
    for lane in lanes(mask) {
        write(lane, addrs[lane], v[lane].to_le_bytes())?;
    }
    Ok(())
}

/// Runs one warp until it exits or reaches a barrier — the SIMD engine's
/// main loop. Structure mirrors [`LaunchCtx::run_warp_scalar`] step for
/// step; only the per-µop execution bodies differ.
pub(crate) fn run_warp_simd<O: TraceObserver + ?Sized>(
    ctx: &mut LaunchCtx<'_>,
    block: u32,
    warp: &mut Warp,
    shared: &mut [u8],
    local: &mut [u8],
    observer: &mut O,
) -> Result<(), SimtError> {
    let dec = ctx.dec;
    let exit_pc = dec.len();
    let uops = dec.uops();
    let mut addr_buf = [0u32; WARP_SIZE];
    // A lane's slot of the block's per-thread local-memory array.
    let (lb, t0) = (ctx.kernel.local_bytes() as usize, warp.base_thread as usize);
    let slot = |lane: usize| (t0 + lane) * lb..(t0 + lane + 1) * lb;

    loop {
        let Some(top) = warp.stack.last().copied() else {
            return Ok(());
        };
        if top.mask == 0 || top.pc == top.rpc || top.pc >= exit_pc {
            warp.stack.pop();
            continue;
        }
        ctx.stats.warp_instrs += 1;
        if ctx.stats.warp_instrs > ctx.budget {
            return Err(SimtError::InstructionBudgetExceeded { budget: ctx.budget });
        }
        let pc = top.pc;
        let mask = top.mask;
        ctx.stats.thread_instrs += mask.count_ones() as u64;
        if let Some(exec) = ctx.exec.as_deref_mut() {
            exec.bump(pc, dec.class(pc), mask);
        }

        observer.on_instr(&InstrEvent {
            block,
            warp: warp.id,
            pc,
            class: dec.class(pc),
            active: mask,
            live: warp.live,
            dst: dec.dst(pc),
            srcs: dec.srcs(pc),
        });

        match uops[pc] {
            Uop::Bin { kind, dst, a, b } => {
                let va = eval32(ctx, warp, block, a);
                let vb = eval32(ctx, warp, block, b);
                if matches!(
                    kind,
                    BinKind::DivU32 | BinKind::RemU32 | BinKind::DivI32 | BinKind::RemI32
                ) {
                    // Checked ops stay lane-serial, as in the scalar loop.
                    for lane in lanes(mask) {
                        let r = kind
                            .eval(va[lane], vb[lane])
                            .ok_or(SimtError::DivideByZero { pc })?;
                        write_reg(warp, dst, lane, r);
                    }
                } else {
                    commit(warp, dst, mask, &bin(kind, &va, &vb));
                }
                advance(warp);
            }
            Uop::Un { kind, dst, a } => {
                let va = eval32(ctx, warp, block, a);
                commit(warp, dst, mask, &un(kind, &va));
                advance(warp);
            }
            Uop::Mad { ty, dst, a, b, c } => {
                let va = eval32(ctx, warp, block, a);
                let vb = eval32(ctx, warp, block, b);
                let vc = eval32(ctx, warp, block, c);
                commit(warp, dst, mask, &mad(ty, &va, &vb, &vc));
                advance(warp);
            }
            Uop::Cmp { op, ty, dst, a, b } => {
                let va = eval32(ctx, warp, block, a);
                let vb = eval32(ctx, warp, block, b);
                commit(warp, dst, mask, &cmp(op, ty, &va, &vb));
                advance(warp);
            }
            Uop::Sel { dst, pred, a, b } => {
                let va = eval32(ctx, warp, block, a);
                let vb = eval32(ctx, warp, block, b);
                let p = reg(warp, pred);
                let r: Vals = std::array::from_fn(|i| if p[i] != 0 { va[i] } else { vb[i] });
                commit(warp, dst, mask, &r);
                advance(warp);
            }
            Uop::Mov { dst, src } => {
                let v = eval32(ctx, warp, block, src);
                commit(warp, dst, mask, &v);
                advance(warp);
            }
            Uop::Cvt { from, to, dst, src } => {
                let v = eval32(ctx, warp, block, src).map(|v| decode::convert(v, from, to));
                commit(warp, dst, mask, &v);
                advance(warp);
            }
            Uop::Ld {
                dst,
                space,
                base,
                offset,
            } => {
                gather_addrs(ctx, warp, block, mask, base, offset, &mut addr_buf);
                observer.on_mem(&MemEvent {
                    block,
                    warp: warp.id,
                    pc,
                    space,
                    kind: AccessKind::Load,
                    bytes: 4,
                    active: mask,
                    addrs: &addr_buf,
                });
                let addrs = &addr_buf;
                let v = match space {
                    Space::Global => load(mask, addrs, |_, a| read4(ctx.global, a, pc, "global")),
                    Space::Shared => load(mask, addrs, |_, a| read4(shared, a, pc, "shared")),
                    Space::Const => load(mask, addrs, |_, a| read4(ctx.const_mem, a, pc, "const")),
                    Space::Local => {
                        load(mask, addrs, |l, a| read4(&local[slot(l)], a, pc, "local"))
                    }
                }?;
                commit(warp, dst, mask, &v);
                advance(warp);
            }
            Uop::St {
                space,
                base,
                offset,
                src,
            } => {
                gather_addrs(ctx, warp, block, mask, base, offset, &mut addr_buf);
                observer.on_mem(&MemEvent {
                    block,
                    warp: warp.id,
                    pc,
                    space,
                    kind: AccessKind::Store,
                    bytes: 4,
                    active: mask,
                    addrs: &addr_buf,
                });
                let (addrs, v) = (&addr_buf, eval32(ctx, warp, block, src));
                match space {
                    Space::Global => store(mask, addrs, &v, |_, a, d| {
                        write4(ctx.global, a, d, pc, "global")
                    }),
                    Space::Shared => store(mask, addrs, &v, |_, a, d| {
                        write4(shared, a, d, pc, "shared")
                    }),
                    Space::Local => store(mask, addrs, &v, |l, a, d| {
                        write4(&mut local[slot(l)], a, d, pc, "local")
                    }),
                    Space::Const => Err(SimtError::OutOfBounds {
                        pc,
                        space: "const",
                        addr: addrs[mask.trailing_zeros() as usize] as u64,
                        size: 0,
                    }),
                }?;
                advance(warp);
            }
            Uop::Atom {
                kind,
                dst,
                space,
                base,
                offset,
                src,
                compare,
            } => {
                gather_addrs(ctx, warp, block, mask, base, offset, &mut addr_buf);
                observer.on_mem(&MemEvent {
                    block,
                    warp: warp.id,
                    pc,
                    space,
                    kind: AccessKind::Atomic,
                    bytes: 4,
                    active: mask,
                    addrs: &addr_buf,
                });
                let operand = eval32(ctx, warp, block, src);
                let cmp_v = compare.map(|c| eval32(ctx, warp, block, c));
                // Atomics serialize per lane by definition; identical to
                // the scalar loop.
                for lane in lanes(mask) {
                    let a = addr_buf[lane];
                    let old = match space {
                        Space::Global => u32::from_le_bytes(read4(ctx.global, a, pc, "global")?),
                        Space::Shared => u32::from_le_bytes(read4(shared, a, pc, "shared")?),
                        _ => unreachable!("atomics validated to global/shared"),
                    };
                    if let Some(new) =
                        kind.apply(old, operand[lane], cmp_v.as_ref().map(|c| c[lane]))
                    {
                        let data = new.to_le_bytes();
                        match space {
                            Space::Global => write4(ctx.global, a, data, pc, "global")?,
                            Space::Shared => write4(shared, a, data, pc, "shared")?,
                            _ => unreachable!("atomics validated to global/shared"),
                        }
                    }
                    if let Some(d) = dst {
                        write_reg(warp, d, lane, old);
                    }
                }
                advance(warp);
            }
            Uop::Bar => {
                if mask != warp.live || warp.stack.len() != 1 {
                    return Err(SimtError::BarrierDivergence { pc });
                }
                advance(warp);
                warp.at_barrier = true;
                return Ok(());
            }
            Uop::Jump { target } => {
                warp.stack.last_mut().expect("non-empty").pc = target as usize;
            }
            Uop::Branch {
                target,
                reg: r,
                negate,
                rpc,
            } => {
                let mut taken = 0u32;
                for (i, &p) in reg(warp, r).iter().enumerate() {
                    taken |= (((p != 0) != negate) as u32) << i;
                }
                taken &= mask;
                observer.on_branch(&BranchEvent {
                    block,
                    warp: warp.id,
                    pc,
                    active: mask,
                    taken,
                });
                branch(warp, pc, mask, taken, target, rpc);
            }
            Uop::Ret => {
                let exiting = mask;
                warp.live &= !exiting;
                for e in &mut warp.stack {
                    e.mask &= !exiting;
                }
            }
        }
    }
}
