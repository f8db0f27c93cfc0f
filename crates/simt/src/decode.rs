//! The predecoded µop stream the interpreter executes.
//!
//! [`Kernel`] IR is built for validation and analysis: operands carry
//! tagged [`Value`](crate::instr::Value) immediates, destination/source register queries walk
//! the instruction enum, and every opcode's operand types are re-derived
//! at run time from the register declarations. None of that belongs in
//! the warp inner loop, so [`DecodedKernel::decode`] lowers the IR once
//! into a flat, cache-friendly form:
//!
//! * operand slots ([`Src`]) with immediates pre-converted to their raw
//!   32-bit image ([`Value::to_bits`](crate::instr::Value::to_bits)), so register banks, memory and
//!   immediates all speak the same untyped-u32 language;
//! * opcodes monomorphized over their statically validated operand types
//!   ([`BinKind`], [`UnKind`], [`AtomKind`]), eliminating the per-lane
//!   tag dispatch the tagged-union evaluator needed;
//! * per-pc side tables (class, destination, flattened source-register
//!   lists) computed once instead of per launch;
//! * branch reconvergence pcs resolved into the µop itself.
//!
//! The decoded form is cached on the kernel (`Kernel::decoded`) behind an
//! `Arc`, so repeated launches — E12 re-runs a kernel per configuration
//! sweep point — and forked devices all share one decode.
//!
//! Everything here is a pure re-encoding: the raw evaluators in this
//! module mirror the tagged [`Value`](crate::instr::Value) semantics bit for bit (predicates
//! only ever hold 0/1 by construction, floats round-trip through
//! `to_bits`/`from_bits` exactly), which is what keeps the golden
//! snapshot and determinism suites byte-identical across the decoded and
//! source representations.

use crate::instr::{
    AtomOp, BinOp, CmpOp, Instr, InstrClass, Operand, Reg, Space, SpecialReg, Type, UnOp,
};
use crate::kernel::Kernel;

/// A decoded operand slot. Immediates are stored as raw bits; parameters
/// stay indirect (they vary per launch, the decode is per kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Virtual register id.
    Reg(u16),
    /// Immediate, pre-converted with
    /// [`Value::to_bits`](crate::instr::Value::to_bits).
    Imm(u32),
    /// Kernel parameter index (resolved against the launch arguments).
    Param(u16),
    /// Special (coordinate) register, computed per lane.
    Sreg(SpecialReg),
}

/// [`BinOp`] monomorphized over its validated operand type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names are `<op><type>`; the group doc says it all
pub enum BinKind {
    AddU32,
    SubU32,
    MulU32,
    DivU32,
    RemU32,
    MinU32,
    MaxU32,
    AndU32,
    OrU32,
    XorU32,
    ShlU32,
    ShrU32,
    AddI32,
    SubI32,
    MulI32,
    DivI32,
    RemI32,
    MinI32,
    MaxI32,
    AndI32,
    OrI32,
    XorI32,
    ShlI32,
    ShrI32,
    AddF32,
    SubF32,
    MulF32,
    DivF32,
    MinF32,
    MaxF32,
    AndPred,
    OrPred,
    XorPred,
}

impl BinKind {
    fn of(op: BinOp, ty: Type) -> BinKind {
        use BinKind::*;
        match (ty, op) {
            (Type::U32, BinOp::Add) => AddU32,
            (Type::U32, BinOp::Sub) => SubU32,
            (Type::U32, BinOp::Mul) => MulU32,
            (Type::U32, BinOp::Div) => DivU32,
            (Type::U32, BinOp::Rem) => RemU32,
            (Type::U32, BinOp::Min) => MinU32,
            (Type::U32, BinOp::Max) => MaxU32,
            (Type::U32, BinOp::And) => AndU32,
            (Type::U32, BinOp::Or) => OrU32,
            (Type::U32, BinOp::Xor) => XorU32,
            (Type::U32, BinOp::Shl) => ShlU32,
            (Type::U32, BinOp::Shr) => ShrU32,
            (Type::I32, BinOp::Add) => AddI32,
            (Type::I32, BinOp::Sub) => SubI32,
            (Type::I32, BinOp::Mul) => MulI32,
            (Type::I32, BinOp::Div) => DivI32,
            (Type::I32, BinOp::Rem) => RemI32,
            (Type::I32, BinOp::Min) => MinI32,
            (Type::I32, BinOp::Max) => MaxI32,
            (Type::I32, BinOp::And) => AndI32,
            (Type::I32, BinOp::Or) => OrI32,
            (Type::I32, BinOp::Xor) => XorI32,
            (Type::I32, BinOp::Shl) => ShlI32,
            (Type::I32, BinOp::Shr) => ShrI32,
            (Type::F32, BinOp::Add) => AddF32,
            (Type::F32, BinOp::Sub) => SubF32,
            (Type::F32, BinOp::Mul) => MulF32,
            (Type::F32, BinOp::Div) => DivF32,
            (Type::F32, BinOp::Min) => MinF32,
            (Type::F32, BinOp::Max) => MaxF32,
            (Type::Pred, BinOp::And) => AndPred,
            (Type::Pred, BinOp::Or) => OrPred,
            (Type::Pred, BinOp::Xor) => XorPred,
            _ => unreachable!("validated: no {op:?} on {ty}"),
        }
    }

    /// Evaluates on raw bits; `None` only for integer division/remainder
    /// by zero. Bit-identical to the tagged `Value` evaluator.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> Option<u32> {
        use BinKind::*;
        Some(match self {
            AddU32 => a.wrapping_add(b),
            SubU32 => a.wrapping_sub(b),
            MulU32 => a.wrapping_mul(b),
            DivU32 => a.checked_div(b)?,
            RemU32 => a.checked_rem(b)?,
            MinU32 => a.min(b),
            MaxU32 => a.max(b),
            AndU32 | AndI32 => a & b,
            OrU32 | OrI32 => a | b,
            XorU32 | XorI32 => a ^ b,
            ShlU32 => a.wrapping_shl(b),
            ShrU32 => a.wrapping_shr(b),
            AddI32 => (a as i32).wrapping_add(b as i32) as u32,
            SubI32 => (a as i32).wrapping_sub(b as i32) as u32,
            MulI32 => (a as i32).wrapping_mul(b as i32) as u32,
            DivI32 => (a as i32).checked_div(b as i32)? as u32,
            RemI32 => (a as i32).checked_rem(b as i32)? as u32,
            MinI32 => (a as i32).min(b as i32) as u32,
            MaxI32 => (a as i32).max(b as i32) as u32,
            ShlI32 => (a as i32).wrapping_shl(b) as u32,
            ShrI32 => (a as i32).wrapping_shr(b) as u32,
            AddF32 => (f32::from_bits(a) + f32::from_bits(b)).to_bits(),
            SubF32 => (f32::from_bits(a) - f32::from_bits(b)).to_bits(),
            MulF32 => (f32::from_bits(a) * f32::from_bits(b)).to_bits(),
            DivF32 => (f32::from_bits(a) / f32::from_bits(b)).to_bits(),
            MinF32 => f32::from_bits(a).min(f32::from_bits(b)).to_bits(),
            MaxF32 => f32::from_bits(a).max(f32::from_bits(b)).to_bits(),
            // Predicate registers only ever hold 0/1.
            AndPred => a & b,
            OrPred => a | b,
            XorPred => a ^ b,
        })
    }
}

/// [`UnOp`] monomorphized over its validated operand type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names are `<op><type>`; the group doc says it all
pub enum UnKind {
    NegI32,
    NegF32,
    AbsI32,
    AbsF32,
    /// Bitwise not; `u32` and `i32` share one raw form.
    NotInt,
    NotPred,
    SqrtF32,
    RsqrtF32,
    Exp2F32,
    Log2F32,
    SinF32,
    CosF32,
    RecipF32,
}

impl UnKind {
    fn of(op: UnOp, ty: Type) -> UnKind {
        use UnKind::*;
        match (op, ty) {
            (UnOp::Neg, Type::I32) => NegI32,
            (UnOp::Neg, Type::F32) => NegF32,
            (UnOp::Abs, Type::I32) => AbsI32,
            (UnOp::Abs, Type::F32) => AbsF32,
            (UnOp::Not, Type::U32 | Type::I32) => NotInt,
            (UnOp::Not, Type::Pred) => NotPred,
            (UnOp::Sqrt, Type::F32) => SqrtF32,
            (UnOp::Rsqrt, Type::F32) => RsqrtF32,
            (UnOp::Exp2, Type::F32) => Exp2F32,
            (UnOp::Log2, Type::F32) => Log2F32,
            (UnOp::Sin, Type::F32) => SinF32,
            (UnOp::Cos, Type::F32) => CosF32,
            (UnOp::Recip, Type::F32) => RecipF32,
            _ => unreachable!("validated: no {op:?} on {ty}"),
        }
    }

    /// Evaluates on raw bits; bit-identical to the tagged evaluator.
    #[inline]
    pub fn eval(self, a: u32) -> u32 {
        use UnKind::*;
        match self {
            NegI32 => (a as i32).wrapping_neg() as u32,
            NegF32 => (-f32::from_bits(a)).to_bits(),
            AbsI32 => (a as i32).wrapping_abs() as u32,
            AbsF32 => f32::from_bits(a).abs().to_bits(),
            NotInt => !a,
            // Predicate registers only ever hold 0/1.
            NotPred => a ^ 1,
            SqrtF32 => f32::from_bits(a).sqrt().to_bits(),
            RsqrtF32 => (1.0 / f32::from_bits(a).sqrt()).to_bits(),
            Exp2F32 => f32::from_bits(a).exp2().to_bits(),
            Log2F32 => f32::from_bits(a).log2().to_bits(),
            SinF32 => f32::from_bits(a).sin().to_bits(),
            CosF32 => f32::from_bits(a).cos().to_bits(),
            RecipF32 => (1.0 / f32::from_bits(a)).to_bits(),
        }
    }
}

/// [`AtomOp`] monomorphized over its validated operand type. `Exch` and
/// `Cas` are type-independent on raw bits (CAS is integer-only by
/// validation, and integer equality is raw equality).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names are `<op><type>`; the group doc says it all
pub enum AtomKind {
    AddU32,
    AddI32,
    AddF32,
    MinU32,
    MinI32,
    MinF32,
    MaxU32,
    MaxI32,
    MaxF32,
    Exch,
    Cas,
}

impl AtomKind {
    fn of(op: AtomOp, ty: Type) -> AtomKind {
        use AtomKind::*;
        match (op, ty) {
            (AtomOp::Add, Type::U32) => AddU32,
            (AtomOp::Add, Type::I32) => AddI32,
            (AtomOp::Add, Type::F32) => AddF32,
            (AtomOp::Min, Type::U32) => MinU32,
            (AtomOp::Min, Type::I32) => MinI32,
            (AtomOp::Min, Type::F32) => MinF32,
            (AtomOp::Max, Type::U32) => MaxU32,
            (AtomOp::Max, Type::I32) => MaxI32,
            (AtomOp::Max, Type::F32) => MaxF32,
            (AtomOp::Exch, _) => Exch,
            (AtomOp::Cas, _) => Cas,
            _ => unreachable!("validated: no {op:?} on {ty}"),
        }
    }

    /// Computes the new memory value; `None` means "no write" (failed
    /// CAS). Bit-identical to the tagged evaluator.
    #[inline]
    pub fn apply(self, old: u32, operand: u32, compare: Option<u32>) -> Option<u32> {
        use AtomKind::*;
        Some(match self {
            AddU32 => old.wrapping_add(operand),
            AddI32 => (old as i32).wrapping_add(operand as i32) as u32,
            AddF32 => (f32::from_bits(old) + f32::from_bits(operand)).to_bits(),
            MinU32 => old.min(operand),
            MinI32 => (old as i32).min(operand as i32) as u32,
            MinF32 => f32::from_bits(old).min(f32::from_bits(operand)).to_bits(),
            MaxU32 => old.max(operand),
            MaxI32 => (old as i32).max(operand as i32) as u32,
            MaxF32 => f32::from_bits(old).max(f32::from_bits(operand)).to_bits(),
            Exch => operand,
            Cas => {
                if old == compare.expect("validated: CAS has compare") {
                    operand
                } else {
                    return None;
                }
            }
        })
    }
}

/// Compares raw bits under a statically known operand type; bit-identical
/// to the tagged evaluator (including `Ne` being true for NaN).
#[inline]
pub fn eval_cmp(op: CmpOp, ty: Type, a: u32, b: u32) -> bool {
    use std::cmp::Ordering;
    let ord = match ty {
        Type::U32 => a.partial_cmp(&b),
        Type::I32 => (a as i32).partial_cmp(&(b as i32)),
        Type::F32 => f32::from_bits(a).partial_cmp(&f32::from_bits(b)),
        Type::Pred => unreachable!("validated: no predicate comparisons"),
    };
    match (op, ord) {
        (CmpOp::Eq, Some(Ordering::Equal)) => true,
        (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
        (CmpOp::Ne, None) => true, // NaN != NaN
        (CmpOp::Lt, Some(Ordering::Less)) => true,
        (CmpOp::Le, Some(o)) => o != Ordering::Greater,
        (CmpOp::Gt, Some(Ordering::Greater)) => true,
        (CmpOp::Ge, Some(o)) => o != Ordering::Less,
        _ => false,
    }
}

/// Numeric conversion on raw bits under statically known source and
/// destination types; bit-identical to the tagged evaluator.
#[inline]
pub fn convert(bits: u32, from: Type, to: Type) -> u32 {
    let as_f64 = match from {
        Type::U32 => bits as f64,
        Type::I32 => (bits as i32) as f64,
        Type::F32 => f32::from_bits(bits) as f64,
        Type::Pred => unreachable!("validated: no predicate conversions"),
    };
    match to {
        Type::F32 => (as_f64 as f32).to_bits(),
        Type::U32 => as_f64.max(0.0).min(u32::MAX as f64) as u32,
        Type::I32 => (as_f64.clamp(i32::MIN as f64, i32::MAX as f64) as i32) as u32,
        Type::Pred => unreachable!("validated: no predicate conversions"),
    }
}

/// Multiply-add on raw bits (`a * b + c`, wrapping for integers,
/// `mul_add` for floats).
#[inline]
pub fn eval_mad(ty: Type, a: u32, b: u32, c: u32) -> u32 {
    match ty {
        Type::U32 => a.wrapping_mul(b).wrapping_add(c),
        Type::I32 => (a as i32).wrapping_mul(b as i32).wrapping_add(c as i32) as u32,
        Type::F32 => f32::from_bits(a)
            .mul_add(f32::from_bits(b), f32::from_bits(c))
            .to_bits(),
        Type::Pred => unreachable!("validated: no predicate mad"),
    }
}

/// One decoded µop. Register ids are the raw `u16` of [`Reg`]; branch
/// targets and reconvergence pcs are instruction indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Uop {
    /// `dst = a <kind> b`.
    Bin {
        /// Typed opcode.
        kind: BinKind,
        /// Destination register id.
        dst: u16,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
    },
    /// `dst = <kind> a`.
    Un {
        /// Typed opcode.
        kind: UnKind,
        /// Destination register id.
        dst: u16,
        /// Operand.
        a: Src,
    },
    /// `dst = a * b + c` at type `ty`.
    Mad {
        /// Common operand/destination type.
        ty: Type,
        /// Destination register id.
        dst: u16,
        /// Multiplicand.
        a: Src,
        /// Multiplier.
        b: Src,
        /// Addend.
        c: Src,
    },
    /// `dst(pred) = a <op> b` at operand type `ty`.
    Cmp {
        /// Comparison opcode.
        op: CmpOp,
        /// Statically validated operand type.
        ty: Type,
        /// Destination predicate register id.
        dst: u16,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
    },
    /// `dst = pred ? a : b`.
    Sel {
        /// Destination register id.
        dst: u16,
        /// Predicate register id.
        pred: u16,
        /// Value when the predicate is true.
        a: Src,
        /// Value when the predicate is false.
        b: Src,
    },
    /// Register move / immediate load.
    Mov {
        /// Destination register id.
        dst: u16,
        /// Source operand.
        src: Src,
    },
    /// Numeric conversion `from → to`.
    Cvt {
        /// Statically validated source type.
        from: Type,
        /// Destination register's declared type.
        to: Type,
        /// Destination register id.
        dst: u16,
        /// Source operand.
        src: Src,
    },
    /// 4-byte load.
    Ld {
        /// Destination register id.
        dst: u16,
        /// Memory space.
        space: Space,
        /// Address base operand.
        base: Src,
        /// Constant byte offset.
        offset: i32,
    },
    /// 4-byte store.
    St {
        /// Memory space.
        space: Space,
        /// Address base operand.
        base: Src,
        /// Constant byte offset.
        offset: i32,
        /// Value to store.
        src: Src,
    },
    /// Atomic read-modify-write.
    Atom {
        /// Typed opcode.
        kind: AtomKind,
        /// Optional destination for the previous value.
        dst: Option<u16>,
        /// Memory space (global or shared, validated).
        space: Space,
        /// Address base operand.
        base: Src,
        /// Constant byte offset.
        offset: i32,
        /// Operand value.
        src: Src,
        /// Compare value (CAS only).
        compare: Option<Src>,
    },
    /// Block-wide barrier.
    Bar,
    /// Unconditional jump.
    Jump {
        /// Destination pc.
        target: u32,
    },
    /// Conditional branch with its reconvergence pc pre-resolved.
    Branch {
        /// Destination pc.
        target: u32,
        /// Predicate register id.
        reg: u16,
        /// Taken when the predicate is false.
        negate: bool,
        /// Immediate post-dominator pc (`instrs().len()` = kernel exit).
        rpc: u32,
    },
    /// Per-lane kernel exit.
    Ret,
}

/// A kernel lowered to the flat µop form, plus the per-pc side tables
/// (class / destination / source registers) the trace observers need.
#[derive(Debug)]
pub struct DecodedKernel {
    uops: Vec<Uop>,
    classes: Vec<InstrClass>,
    dsts: Vec<Option<Reg>>,
    /// Flattened source-register lists; `src_ranges[pc]` indexes into it.
    src_pool: Vec<Reg>,
    src_ranges: Vec<(u32, u32)>,
}

impl DecodedKernel {
    /// Lowers a validated kernel. Pure function of the kernel; use
    /// `Kernel::decoded` to get the cached copy instead of re-decoding.
    pub fn decode(kernel: &Kernel) -> DecodedKernel {
        let operand_ty = |op: &Operand| -> Type {
            match op {
                Operand::Reg(r) => kernel.reg_type(*r),
                Operand::Imm(v) => v.ty(),
                Operand::Sreg(_) => Type::U32,
                Operand::Param(i) => kernel.params()[*i as usize].ty,
            }
        };
        let src_of = |op: &Operand| -> Src {
            match op {
                Operand::Reg(r) => Src::Reg(r.0),
                Operand::Imm(v) => Src::Imm(v.to_bits()),
                Operand::Sreg(s) => Src::Sreg(*s),
                Operand::Param(i) => Src::Param(*i),
            }
        };

        let n = kernel.instrs().len();
        let mut uops = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        let mut dsts = Vec::with_capacity(n);
        let mut src_pool = Vec::new();
        let mut src_ranges = Vec::with_capacity(n);

        for (pc, ins) in kernel.instrs().iter().enumerate() {
            let dst = ins.dst_reg();
            classes.push(ins.class(dst.map(|r| kernel.reg_type(r))));
            dsts.push(dst);
            let srcs = ins.src_regs();
            src_ranges.push((src_pool.len() as u32, srcs.len() as u32));
            src_pool.extend(srcs);

            uops.push(match ins {
                Instr::Bin { op, dst, a, b } => Uop::Bin {
                    kind: BinKind::of(*op, kernel.reg_type(*dst)),
                    dst: dst.0,
                    a: src_of(a),
                    b: src_of(b),
                },
                Instr::Un { op, dst, a } => Uop::Un {
                    kind: UnKind::of(*op, kernel.reg_type(*dst)),
                    dst: dst.0,
                    a: src_of(a),
                },
                Instr::Mad { dst, a, b, c } => Uop::Mad {
                    ty: kernel.reg_type(*dst),
                    dst: dst.0,
                    a: src_of(a),
                    b: src_of(b),
                    c: src_of(c),
                },
                Instr::Cmp { op, dst, a, b } => Uop::Cmp {
                    op: *op,
                    ty: operand_ty(a),
                    dst: dst.0,
                    a: src_of(a),
                    b: src_of(b),
                },
                Instr::Sel { dst, pred, a, b } => Uop::Sel {
                    dst: dst.0,
                    pred: pred.0,
                    a: src_of(a),
                    b: src_of(b),
                },
                Instr::Mov { dst, src } => Uop::Mov {
                    dst: dst.0,
                    src: src_of(src),
                },
                Instr::Cvt { dst, src } => Uop::Cvt {
                    from: operand_ty(src),
                    to: kernel.reg_type(*dst),
                    dst: dst.0,
                    src: src_of(src),
                },
                Instr::Ld { dst, space, addr } => Uop::Ld {
                    dst: dst.0,
                    space: *space,
                    base: src_of(&addr.base),
                    offset: addr.offset,
                },
                Instr::St { space, addr, src } => Uop::St {
                    space: *space,
                    base: src_of(&addr.base),
                    offset: addr.offset,
                    src: src_of(src),
                },
                Instr::Atom {
                    op,
                    dst,
                    space,
                    addr,
                    src,
                    compare,
                } => Uop::Atom {
                    kind: AtomKind::of(*op, operand_ty(src)),
                    dst: dst.map(|r| r.0),
                    space: *space,
                    base: src_of(&addr.base),
                    offset: addr.offset,
                    src: src_of(src),
                    compare: compare.as_ref().map(src_of),
                },
                Instr::Bar => Uop::Bar,
                Instr::Bra { target, cond } => match cond {
                    None => Uop::Jump {
                        target: *target as u32,
                    },
                    Some(c) => Uop::Branch {
                        target: *target as u32,
                        reg: c.reg.0,
                        negate: c.negate,
                        rpc: kernel
                            .reconvergence_pc(pc)
                            .expect("validated branch has reconvergence")
                            as u32,
                    },
                },
                Instr::Ret => Uop::Ret,
            });
        }

        DecodedKernel {
            uops,
            classes,
            dsts,
            src_pool,
            src_ranges,
        }
    }

    /// Number of µops (equals the source instruction count).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the kernel body is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// The flat µop stream.
    pub fn uops(&self) -> &[Uop] {
        &self.uops
    }

    /// Dynamic classification of the instruction at `pc`.
    pub fn class(&self, pc: usize) -> InstrClass {
        self.classes[pc]
    }

    /// Destination register of the instruction at `pc`, if any.
    pub fn dst(&self, pc: usize) -> Option<Reg> {
        self.dsts[pc]
    }

    /// Register operands read by the instruction at `pc`.
    pub fn srcs(&self, pc: usize) -> &[Reg] {
        let (start, len) = self.src_ranges[pc];
        &self.src_pool[start as usize..(start + len) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Value;

    fn bits(v: Value) -> u32 {
        v.to_bits()
    }

    #[test]
    fn bin_matches_tagged_semantics() {
        // Integer add wraps, i32 ops sign-extend, f32 round-trips bits.
        assert_eq!(BinKind::AddU32.eval(u32::MAX, 1), Some(0));
        assert_eq!(
            BinKind::ShrI32.eval(bits(Value::I32(-8)), 1),
            Some(bits(Value::I32(-4)))
        );
        assert_eq!(BinKind::ShrU32.eval(0x8000_0000, 1), Some(0x4000_0000));
        assert_eq!(
            BinKind::MinI32.eval(bits(Value::I32(-2)), bits(Value::I32(1))),
            Some(bits(Value::I32(-2)))
        );
        assert_eq!(BinKind::MinU32.eval(bits(Value::I32(-2)), 1), Some(1));
        assert_eq!(
            BinKind::AddF32.eval(bits(Value::F32(1.5)), bits(Value::F32(0.25))),
            Some(bits(Value::F32(1.75)))
        );
        assert_eq!(BinKind::DivU32.eval(7, 0), None);
        assert_eq!(BinKind::RemI32.eval(7, 0), None);
        assert_eq!(
            BinKind::DivF32.eval(bits(Value::F32(1.0)), 0),
            Some(bits(Value::F32(f32::INFINITY)))
        );
        assert_eq!(BinKind::AndPred.eval(1, 0), Some(0));
        assert_eq!(BinKind::XorPred.eval(1, 1), Some(0));
    }

    #[test]
    fn un_matches_tagged_semantics() {
        assert_eq!(
            UnKind::NegI32.eval(bits(Value::I32(5))),
            bits(Value::I32(-5))
        );
        assert_eq!(
            UnKind::NegF32.eval(bits(Value::F32(0.0))),
            bits(Value::F32(-0.0))
        );
        assert_eq!(UnKind::NotInt.eval(0), u32::MAX);
        assert_eq!(UnKind::NotPred.eval(1), 0);
        assert_eq!(UnKind::NotPred.eval(0), 1);
        assert_eq!(
            UnKind::SqrtF32.eval(bits(Value::F32(4.0))),
            bits(Value::F32(2.0))
        );
        assert_eq!(
            UnKind::RecipF32.eval(bits(Value::F32(0.0))),
            bits(Value::F32(f32::INFINITY))
        );
    }

    #[test]
    fn cmp_matches_tagged_semantics() {
        let nan = bits(Value::F32(f32::NAN));
        assert!(eval_cmp(CmpOp::Ne, Type::F32, nan, nan));
        assert!(!eval_cmp(CmpOp::Eq, Type::F32, nan, nan));
        assert!(!eval_cmp(CmpOp::Le, Type::F32, nan, nan));
        assert!(eval_cmp(CmpOp::Lt, Type::I32, bits(Value::I32(-1)), 0));
        assert!(!eval_cmp(CmpOp::Lt, Type::U32, bits(Value::I32(-1)), 0));
        assert!(eval_cmp(CmpOp::Ge, Type::U32, 3, 3));
    }

    #[test]
    fn convert_matches_tagged_semantics() {
        // f32 → u32 clamps at zero; f32 → i32 clamps at the i32 range.
        assert_eq!(convert(bits(Value::F32(-3.5)), Type::F32, Type::U32), 0);
        assert_eq!(
            convert(bits(Value::F32(-3.5)), Type::F32, Type::I32),
            bits(Value::I32(-3))
        );
        assert_eq!(
            convert(bits(Value::F32(1e20)), Type::F32, Type::I32),
            bits(Value::I32(i32::MAX))
        );
        assert_eq!(
            convert(bits(Value::I32(-1)), Type::I32, Type::F32),
            bits(Value::F32(-1.0))
        );
        assert_eq!(
            convert(bits(Value::U32(u32::MAX)), Type::U32, Type::F32),
            bits(Value::F32(u32::MAX as f32))
        );
    }

    #[test]
    fn atomics_match_tagged_semantics() {
        assert_eq!(AtomKind::AddU32.apply(u32::MAX, 2, None), Some(1));
        assert_eq!(
            AtomKind::MinI32.apply(bits(Value::I32(-4)), 3, None),
            Some(bits(Value::I32(-4)))
        );
        assert_eq!(
            AtomKind::MaxF32.apply(bits(Value::F32(1.0)), bits(Value::F32(2.0)), None),
            Some(bits(Value::F32(2.0)))
        );
        assert_eq!(AtomKind::Exch.apply(7, 9, None), Some(9));
        assert_eq!(AtomKind::Cas.apply(7, 9, Some(7)), Some(9));
        assert_eq!(AtomKind::Cas.apply(7, 9, Some(8)), None);
    }

    #[test]
    fn mad_matches_tagged_semantics() {
        assert_eq!(eval_mad(Type::U32, 3, 4, 5), 17);
        assert_eq!(
            eval_mad(Type::I32, bits(Value::I32(-3)), 4, 5),
            bits(Value::I32(-7))
        );
        assert_eq!(
            eval_mad(
                Type::F32,
                bits(Value::F32(2.0)),
                bits(Value::F32(3.0)),
                bits(Value::F32(1.0))
            ),
            bits(Value::F32(7.0))
        );
    }
}
