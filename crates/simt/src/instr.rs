//! The kernel IR: values, registers, operands and instructions.
//!
//! The IR is a flat instruction list with labels resolved to instruction
//! indices ("pcs"). It is deliberately PTX-flavoured: typed virtual
//! registers, predicate registers for comparisons, explicit memory spaces,
//! and a conditional branch as the only control-flow primitive (plus
//! per-lane `Ret`). Structured control flow is provided by the
//! [`crate::builder`] DSL, which lowers to these branches.

use std::fmt;

/// Scalar types carried by registers and immediates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 32-bit signed integer.
    I32,
    /// 32-bit unsigned integer (also used for byte addresses).
    U32,
    /// 32-bit IEEE float.
    F32,
    /// 1-bit predicate.
    Pred,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::I32 => write!(f, "i32"),
            Type::U32 => write!(f, "u32"),
            Type::F32 => write!(f, "f32"),
            Type::Pred => write!(f, "pred"),
        }
    }
}

/// A runtime scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 32-bit signed integer.
    I32(i32),
    /// 32-bit unsigned integer.
    U32(u32),
    /// 32-bit IEEE float.
    F32(f32),
    /// Predicate.
    Pred(bool),
}

impl Value {
    /// The type of this value.
    pub fn ty(&self) -> Type {
        match self {
            Value::I32(_) => Type::I32,
            Value::U32(_) => Type::U32,
            Value::F32(_) => Type::F32,
            Value::Pred(_) => Type::Pred,
        }
    }

    /// Zero value of a type.
    pub fn zero(ty: Type) -> Value {
        match ty {
            Type::I32 => Value::I32(0),
            Type::U32 => Value::U32(0),
            Type::F32 => Value::F32(0.0),
            Type::Pred => Value::Pred(false),
        }
    }

    /// Unwraps a `U32`.
    ///
    /// # Panics
    ///
    /// Panics if the value has another type.
    pub fn as_u32(&self) -> u32 {
        match self {
            Value::U32(v) => *v,
            other => panic!("expected u32, found {other:?}"),
        }
    }

    /// Unwraps an `I32`.
    ///
    /// # Panics
    ///
    /// Panics if the value has another type.
    pub fn as_i32(&self) -> i32 {
        match self {
            Value::I32(v) => *v,
            other => panic!("expected i32, found {other:?}"),
        }
    }

    /// Unwraps an `F32`.
    ///
    /// # Panics
    ///
    /// Panics if the value has another type.
    pub fn as_f32(&self) -> f32 {
        match self {
            Value::F32(v) => *v,
            other => panic!("expected f32, found {other:?}"),
        }
    }

    /// Unwraps a `Pred`.
    ///
    /// # Panics
    ///
    /// Panics if the value has another type.
    pub fn as_pred(&self) -> bool {
        match self {
            Value::Pred(v) => *v,
            other => panic!("expected pred, found {other:?}"),
        }
    }

    /// The raw 32-bit representation of this value: integers and floats
    /// keep their bit pattern, predicates encode as 0/1. This is exactly
    /// the little-endian image a store writes to memory, and the format
    /// the interpreter's register banks hold (see [`crate::decode`]).
    pub fn to_bits(self) -> u32 {
        match self {
            Value::U32(x) => x,
            Value::I32(x) => x as u32,
            Value::F32(x) => x.to_bits(),
            Value::Pred(x) => x as u32,
        }
    }

    /// Reconstructs a value of type `ty` from its raw bits (inverse of
    /// [`Value::to_bits`]; any non-zero bit pattern decodes to a true
    /// predicate, matching what a 4-byte load would produce).
    pub fn from_bits(bits: u32, ty: Type) -> Value {
        match ty {
            Type::U32 => Value::U32(bits),
            Type::I32 => Value::I32(bits as i32),
            Type::F32 => Value::F32(f32::from_bits(bits)),
            Type::Pred => Value::Pred(bits != 0),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I32(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U32(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F32(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Pred(v)
    }
}

/// A virtual register id (dense, per kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Read-only special registers exposing the thread's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// Thread index within the block, x component.
    TidX,
    /// Thread index within the block, y component.
    TidY,
    /// Block dimension, x component.
    NTidX,
    /// Block dimension, y component.
    NTidY,
    /// Block index within the grid, x component.
    CtaIdX,
    /// Block index within the grid, y component.
    CtaIdY,
    /// Grid dimension, x component.
    NCtaIdX,
    /// Grid dimension, y component.
    NCtaIdY,
    /// Lane index within the warp (0..32).
    LaneId,
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A virtual register.
    Reg(Reg),
    /// An immediate value.
    Imm(Value),
    /// A special (coordinate) register; type `u32`.
    Sreg(SpecialReg),
    /// A kernel parameter (uniform across the grid).
    Param(u16),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}
impl From<Value> for Operand {
    fn from(v: Value) -> Self {
        Operand::Imm(v)
    }
}
impl From<SpecialReg> for Operand {
    fn from(s: SpecialReg) -> Self {
        Operand::Sreg(s)
    }
}

/// Two-operand arithmetic/logic opcodes. Integer opcodes work on both
/// `i32` and `u32`; float opcodes on `f32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (wrapping for integers).
    Add,
    /// Subtraction (wrapping for integers).
    Sub,
    /// Multiplication (wrapping for integers).
    Mul,
    /// Division. Integer division by zero is a runtime error.
    Div,
    /// Remainder (integers only).
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise and (integers) / logical and (predicates).
    And,
    /// Bitwise or (integers) / logical or (predicates).
    Or,
    /// Bitwise xor (integers) / logical xor (predicates).
    Xor,
    /// Shift left (integers; shift count taken mod 32).
    Shl,
    /// Shift right (logical for u32, arithmetic for i32).
    Shr,
}

/// One-operand opcodes. The transcendental group executes on the GPU's
/// special function unit (SFU) and is classified accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Bitwise not (integers) / logical not (predicates).
    Not,
    /// Square root (f32, SFU).
    Sqrt,
    /// Reciprocal square root (f32, SFU).
    Rsqrt,
    /// Base-2 exponential (f32, SFU).
    Exp2,
    /// Base-2 logarithm (f32, SFU).
    Log2,
    /// Sine (f32, SFU).
    Sin,
    /// Cosine (f32, SFU).
    Cos,
    /// Reciprocal (f32, SFU).
    Recip,
}

impl UnOp {
    /// Whether this opcode executes on the special function unit.
    pub fn is_sfu(&self) -> bool {
        matches!(
            self,
            UnOp::Sqrt
                | UnOp::Rsqrt
                | UnOp::Exp2
                | UnOp::Log2
                | UnOp::Sin
                | UnOp::Cos
                | UnOp::Recip
        )
    }
}

/// Comparison opcodes; result is a predicate register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Atomic read-modify-write opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomOp {
    /// Atomic add.
    Add,
    /// Atomic minimum.
    Min,
    /// Atomic maximum.
    Max,
    /// Atomic exchange.
    Exch,
    /// Atomic compare-and-swap (`compare` operand in [`Instr::Atom`]).
    Cas,
}

/// Memory spaces addressable by loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device-wide global memory.
    Global,
    /// Per-block scratchpad (CUDA `__shared__`).
    Shared,
    /// Per-thread local memory (spills, private arrays).
    Local,
    /// Device-wide read-only constant memory.
    Const,
}

impl Space {
    /// Lower-case name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Space::Global => "global",
            Space::Shared => "shared",
            Space::Local => "local",
            Space::Const => "const",
        }
    }
}

/// A byte address expression: `base + offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Addr {
    /// Base operand; must be `u32`-typed.
    pub base: Operand,
    /// Constant byte offset added to the base.
    pub offset: i32,
}

impl Addr {
    /// Address equal to the base operand with no displacement.
    pub fn base(base: impl Into<Operand>) -> Self {
        Self {
            base: base.into(),
            offset: 0,
        }
    }
}

/// Branch predicate: branch taken when `reg == !negate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchCond {
    /// Predicate register.
    pub reg: Reg,
    /// If true the branch is taken when the predicate is false.
    pub negate: bool,
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = a <op> b`.
    Bin {
        /// Opcode.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = <op> a`.
    Un {
        /// Opcode.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand.
        a: Operand,
    },
    /// Multiply-add, one rounding for `f32`: `dst = a * b + c`.
    Mad {
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// `dst(pred) = a <cmp> b`.
    Cmp {
        /// Comparison opcode.
        op: CmpOp,
        /// Destination predicate register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = pred ? a : b`.
    Sel {
        /// Destination register.
        dst: Reg,
        /// Predicate register.
        pred: Reg,
        /// Value when the predicate is true.
        a: Operand,
        /// Value when the predicate is false.
        b: Operand,
    },
    /// Register move / immediate load.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Numeric conversion into the destination register's type.
    Cvt {
        /// Destination register (its declared type selects the conversion).
        dst: Reg,
        /// Source operand (i32/u32/f32).
        src: Operand,
    },
    /// Load from memory into a register. Access width is 4 bytes.
    Ld {
        /// Destination register.
        dst: Reg,
        /// Memory space.
        space: Space,
        /// Byte address.
        addr: Addr,
    },
    /// Store a register/immediate to memory. Access width is 4 bytes.
    St {
        /// Memory space.
        space: Space,
        /// Byte address.
        addr: Addr,
        /// Value to store.
        src: Operand,
    },
    /// Atomic read-modify-write. `dst` (optional) receives the old value.
    Atom {
        /// Atomic opcode.
        op: AtomOp,
        /// Optional destination for the previous value.
        dst: Option<Reg>,
        /// Memory space (global or shared).
        space: Space,
        /// Byte address.
        addr: Addr,
        /// Operand value.
        src: Operand,
        /// Compare value (CAS only).
        compare: Option<Operand>,
    },
    /// Block-wide barrier (`__syncthreads`).
    Bar,
    /// Branch to `target` (an instruction index after label resolution),
    /// optionally predicated per lane.
    Bra {
        /// Destination pc.
        target: usize,
        /// Per-lane condition; `None` is an unconditional jump.
        cond: Option<BranchCond>,
    },
    /// Per-lane kernel exit.
    Ret,
}

/// Coarse dynamic classification used by the characterization metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Integer ALU (arith/logic/compare on integers, address math).
    IntAlu,
    /// Floating-point ALU.
    FpAlu,
    /// Special function unit (transcendentals).
    Sfu,
    /// Global memory load/store.
    MemGlobal,
    /// Shared memory load/store.
    MemShared,
    /// Local memory load/store.
    MemLocal,
    /// Constant memory load.
    MemConst,
    /// Control flow (branches, ret).
    Ctrl,
    /// Barrier synchronization.
    Sync,
    /// Atomic operation.
    Atomic,
    /// Data movement / conversion / select.
    Move,
}

impl InstrClass {
    /// All classes, in a stable order (used for mix histograms).
    pub const ALL: [InstrClass; 11] = [
        InstrClass::IntAlu,
        InstrClass::FpAlu,
        InstrClass::Sfu,
        InstrClass::MemGlobal,
        InstrClass::MemShared,
        InstrClass::MemLocal,
        InstrClass::MemConst,
        InstrClass::Ctrl,
        InstrClass::Sync,
        InstrClass::Atomic,
        InstrClass::Move,
    ];

    /// Short lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            InstrClass::IntAlu => "int_alu",
            InstrClass::FpAlu => "fp_alu",
            InstrClass::Sfu => "sfu",
            InstrClass::MemGlobal => "mem_global",
            InstrClass::MemShared => "mem_shared",
            InstrClass::MemLocal => "mem_local",
            InstrClass::MemConst => "mem_const",
            InstrClass::Ctrl => "ctrl",
            InstrClass::Sync => "sync",
            InstrClass::Atomic => "atomic",
            InstrClass::Move => "move",
        }
    }
}

impl Instr {
    /// Classifies this instruction for mix statistics. `dst_ty` is the
    /// declared type of the destination register when one exists (used to
    /// split integer from floating-point ALU work).
    pub fn class(&self, dst_ty: Option<Type>) -> InstrClass {
        match self {
            Instr::Bin { .. } | Instr::Mad { .. } => match dst_ty {
                Some(Type::F32) => InstrClass::FpAlu,
                _ => InstrClass::IntAlu,
            },
            Instr::Un { op, .. } => {
                if op.is_sfu() {
                    InstrClass::Sfu
                } else {
                    match dst_ty {
                        Some(Type::F32) => InstrClass::FpAlu,
                        _ => InstrClass::IntAlu,
                    }
                }
            }
            // Comparisons write predicates; classify them as integer ALU
            // work regardless of operand type, as a set-predicate unit would.
            Instr::Cmp { .. } => InstrClass::IntAlu,
            Instr::Sel { .. } | Instr::Mov { .. } | Instr::Cvt { .. } => InstrClass::Move,
            Instr::Ld { space, .. } | Instr::St { space, .. } => match space {
                Space::Global => InstrClass::MemGlobal,
                Space::Shared => InstrClass::MemShared,
                Space::Local => InstrClass::MemLocal,
                Space::Const => InstrClass::MemConst,
            },
            Instr::Atom { .. } => InstrClass::Atomic,
            Instr::Bar => InstrClass::Sync,
            Instr::Bra { .. } | Instr::Ret => InstrClass::Ctrl,
        }
    }

    /// Register operands read by this instruction (for dataflow/ILP).
    pub fn src_regs(&self) -> Vec<Reg> {
        fn reg_of(op: &Operand, out: &mut Vec<Reg>) {
            if let Operand::Reg(r) = op {
                out.push(*r);
            }
        }
        let mut out = Vec::with_capacity(3);
        match self {
            Instr::Bin { a, b, .. } | Instr::Cmp { a, b, .. } => {
                reg_of(a, &mut out);
                reg_of(b, &mut out);
            }
            Instr::Un { a, .. } | Instr::Mov { src: a, .. } | Instr::Cvt { src: a, .. } => {
                reg_of(a, &mut out);
            }
            Instr::Mad { a, b, c, .. } => {
                reg_of(a, &mut out);
                reg_of(b, &mut out);
                reg_of(c, &mut out);
            }
            Instr::Sel { pred, a, b, .. } => {
                out.push(*pred);
                reg_of(a, &mut out);
                reg_of(b, &mut out);
            }
            Instr::Ld { addr, .. } => reg_of(&addr.base, &mut out),
            Instr::St { addr, src, .. } => {
                reg_of(&addr.base, &mut out);
                reg_of(src, &mut out);
            }
            Instr::Atom {
                addr, src, compare, ..
            } => {
                reg_of(&addr.base, &mut out);
                reg_of(src, &mut out);
                if let Some(c) = compare {
                    reg_of(c, &mut out);
                }
            }
            Instr::Bra { cond, .. } => {
                if let Some(c) = cond {
                    out.push(c.reg);
                }
            }
            Instr::Bar | Instr::Ret => {}
        }
        out
    }

    /// Destination register written by this instruction, if any.
    pub fn dst_reg(&self) -> Option<Reg> {
        match self {
            Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Mad { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::Sel { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Cvt { dst, .. }
            | Instr::Ld { dst, .. } => Some(*dst),
            Instr::Atom { dst, .. } => *dst,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_types() {
        assert_eq!(Value::I32(-1).ty(), Type::I32);
        assert_eq!(Value::U32(1).ty(), Type::U32);
        assert_eq!(Value::F32(0.5).ty(), Type::F32);
        assert_eq!(Value::Pred(true).ty(), Type::Pred);
    }

    #[test]
    fn value_zero_matches_type() {
        for ty in [Type::I32, Type::U32, Type::F32, Type::Pred] {
            assert_eq!(Value::zero(ty).ty(), ty);
        }
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::U32(7).as_u32(), 7);
        assert_eq!(Value::I32(-7).as_i32(), -7);
        assert_eq!(Value::F32(1.5).as_f32(), 1.5);
        assert!(Value::Pred(true).as_pred());
    }

    #[test]
    #[should_panic(expected = "expected u32")]
    fn wrong_accessor_panics() {
        Value::F32(1.0).as_u32();
    }

    #[test]
    fn bits_round_trip() {
        let cases = [
            Value::U32(0xdead_beef),
            Value::I32(-7),
            Value::F32(-0.0),
            Value::F32(f32::NAN),
            Value::Pred(true),
            Value::Pred(false),
        ];
        for v in cases {
            let back = Value::from_bits(v.to_bits(), v.ty());
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
            assert_eq!(back.ty(), v.ty());
        }
        assert_eq!(Value::F32(1.5).to_bits(), 1.5f32.to_bits());
        assert_eq!(Value::from_bits(2, Type::Pred), Value::Pred(true));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i32), Value::I32(3));
        assert_eq!(Value::from(3u32), Value::U32(3));
        assert_eq!(Value::from(3.0f32), Value::F32(3.0));
        assert_eq!(Value::from(true), Value::Pred(true));
        assert_eq!(Operand::from(Reg(2)), Operand::Reg(Reg(2)));
    }

    #[test]
    fn classification() {
        let add_f = Instr::Bin {
            op: BinOp::Add,
            dst: Reg(0),
            a: Operand::Imm(Value::F32(1.0)),
            b: Operand::Imm(Value::F32(2.0)),
        };
        assert_eq!(add_f.class(Some(Type::F32)), InstrClass::FpAlu);
        assert_eq!(add_f.class(Some(Type::U32)), InstrClass::IntAlu);

        let sqrt = Instr::Un {
            op: UnOp::Sqrt,
            dst: Reg(0),
            a: Operand::Reg(Reg(1)),
        };
        assert_eq!(sqrt.class(Some(Type::F32)), InstrClass::Sfu);

        let ld = Instr::Ld {
            dst: Reg(0),
            space: Space::Shared,
            addr: Addr::base(Reg(1)),
        };
        assert_eq!(ld.class(Some(Type::F32)), InstrClass::MemShared);
        assert_eq!(Instr::Bar.class(None), InstrClass::Sync);
        assert_eq!(Instr::Ret.class(None), InstrClass::Ctrl);
    }

    #[test]
    fn src_and_dst_regs() {
        let mad = Instr::Mad {
            dst: Reg(3),
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(Value::F32(2.0)),
            c: Operand::Reg(Reg(1)),
        };
        assert_eq!(mad.src_regs(), vec![Reg(0), Reg(1)]);
        assert_eq!(mad.dst_reg(), Some(Reg(3)));

        let st = Instr::St {
            space: Space::Global,
            addr: Addr::base(Reg(5)),
            src: Operand::Reg(Reg(6)),
        };
        assert_eq!(st.src_regs(), vec![Reg(5), Reg(6)]);
        assert_eq!(st.dst_reg(), None);

        let bra = Instr::Bra {
            target: 0,
            cond: Some(BranchCond {
                reg: Reg(9),
                negate: true,
            }),
        };
        assert_eq!(bra.src_regs(), vec![Reg(9)]);
    }

    #[test]
    fn sfu_list() {
        assert!(UnOp::Sqrt.is_sfu());
        assert!(UnOp::Sin.is_sfu());
        assert!(!UnOp::Neg.is_sfu());
        assert!(!UnOp::Not.is_sfu());
    }

    #[test]
    fn class_names_unique() {
        let mut names: Vec<&str> = InstrClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), InstrClass::ALL.len());
    }
}
