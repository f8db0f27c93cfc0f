//! An ergonomic DSL for constructing kernels.
//!
//! [`KernelBuilder`] keeps per-register type information, allocates virtual
//! registers on demand, and lowers structured control flow (`if_`,
//! `while_`, `for_range_u32`) to plain conditional branches — exactly the
//! form the SIMT executor diverges and reconverges on. Workloads are
//! written against this builder, never against raw [`Instr`] lists.
//!
//! # Example
//!
//! ```
//! use gwc_simt::builder::KernelBuilder;
//!
//! # fn main() -> Result<(), gwc_simt::SimtError> {
//! let mut b = KernelBuilder::new("saxpy");
//! let alpha = b.param_f32("alpha");
//! let x = b.param_u32("x");
//! let y = b.param_u32("y");
//! let n = b.param_u32("n");
//! let i = b.global_tid_x();
//! let p = b.lt_u32(i, n);
//! b.if_(p, |b| {
//!     let xa = b.index(x, i, 4);
//!     let xv = b.ld_global_f32(xa);
//!     let ya = b.index(y, i, 4);
//!     let yv = b.ld_global_f32(ya);
//!     let r = b.mad_f32(alpha, xv, yv);
//!     b.st_global_f32(ya, r);
//! });
//! let kernel = b.build()?;
//! assert_eq!(kernel.name(), "saxpy");
//! # Ok(())
//! # }
//! ```

use crate::instr::{
    Addr, AtomOp, BinOp, BranchCond, CmpOp, Instr, Operand, Reg, Space, SpecialReg, Type, UnOp,
    Value,
};
use crate::kernel::{Kernel, ParamDecl};
use crate::SimtError;

/// An unresolved branch target allocated by [`KernelBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Builds a [`Kernel`] incrementally. See the [module docs](self) for an
/// example.
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    instrs: Vec<Instr>,
    reg_types: Vec<Type>,
    params: Vec<ParamDecl>,
    labels: Vec<Option<usize>>,
    /// Instruction indices whose `Bra.target` holds a label id to patch.
    patches: Vec<usize>,
    shared_bytes: u32,
    local_bytes: u32,
}

macro_rules! bin_method {
    ($(#[$doc:meta])* $name:ident, $op:expr, $ty:expr) => {
        $(#[$doc])*
        pub fn $name(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
            let dst = self.reg($ty);
            self.instrs.push(Instr::Bin {
                op: $op,
                dst,
                a: a.into(),
                b: b.into(),
            });
            dst
        }
    };
}

macro_rules! un_method {
    ($(#[$doc:meta])* $name:ident, $op:expr, $ty:expr) => {
        $(#[$doc])*
        pub fn $name(&mut self, a: impl Into<Operand>) -> Reg {
            let dst = self.reg($ty);
            self.instrs.push(Instr::Un {
                op: $op,
                dst,
                a: a.into(),
            });
            dst
        }
    };
}

macro_rules! cmp_method {
    ($(#[$doc:meta])* $name:ident, $op:expr) => {
        $(#[$doc])*
        pub fn $name(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
            let dst = self.reg(Type::Pred);
            self.instrs.push(Instr::Cmp {
                op: $op,
                dst,
                a: a.into(),
                b: b.into(),
            });
            dst
        }
    };
}

macro_rules! ld_method {
    ($(#[$doc:meta])* $name:ident, $space:expr, $ty:expr) => {
        $(#[$doc])*
        pub fn $name(&mut self, addr: Addr) -> Reg {
            let dst = self.reg($ty);
            self.instrs.push(Instr::Ld {
                dst,
                space: $space,
                addr,
            });
            dst
        }
    };
}

macro_rules! st_method {
    ($(#[$doc:meta])* $name:ident, $space:expr) => {
        $(#[$doc])*
        pub fn $name(&mut self, addr: Addr, src: impl Into<Operand>) {
            self.instrs.push(Instr::St {
                space: $space,
                addr,
                src: src.into(),
            });
        }
    };
}

impl KernelBuilder {
    /// Starts a new kernel named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            instrs: Vec::new(),
            reg_types: Vec::new(),
            params: Vec::new(),
            labels: Vec::new(),
            patches: Vec::new(),
            shared_bytes: 0,
            local_bytes: 0,
        }
    }

    /// Allocates a fresh virtual register of type `ty`.
    pub fn reg(&mut self, ty: Type) -> Reg {
        let id = self.reg_types.len();
        assert!(id <= u16::MAX as usize, "register file exhausted");
        self.reg_types.push(ty);
        Reg(id as u16)
    }

    fn param(&mut self, name: &str, ty: Type) -> Operand {
        let idx = self.params.len();
        assert!(idx <= u16::MAX as usize, "parameter list exhausted");
        self.params.push(ParamDecl {
            name: name.to_owned(),
            ty,
        });
        Operand::Param(idx as u16)
    }

    /// Declares a `u32` kernel parameter (pointers are `u32` byte addresses).
    pub fn param_u32(&mut self, name: &str) -> Operand {
        self.param(name, Type::U32)
    }

    /// Declares an `i32` kernel parameter.
    pub fn param_i32(&mut self, name: &str) -> Operand {
        self.param(name, Type::I32)
    }

    /// Declares an `f32` kernel parameter.
    pub fn param_f32(&mut self, name: &str) -> Operand {
        self.param(name, Type::F32)
    }

    /// Reserves `bytes` of per-block shared memory and returns its base
    /// byte address (16-byte aligned) as an immediate operand.
    pub fn alloc_shared(&mut self, bytes: u32) -> Operand {
        let base = (self.shared_bytes + 15) & !15;
        self.shared_bytes = base + bytes;
        Operand::Imm(Value::U32(base))
    }

    /// Reserves `bytes` of per-thread local memory and returns its base
    /// byte address (16-byte aligned) as an immediate operand.
    pub fn alloc_local(&mut self, bytes: u32) -> Operand {
        let base = (self.local_bytes + 15) & !15;
        self.local_bytes = base + bytes;
        Operand::Imm(Value::U32(base))
    }

    // --- special registers --------------------------------------------------

    /// Thread index within the block (x).
    pub fn tid_x(&self) -> Operand {
        Operand::Sreg(SpecialReg::TidX)
    }
    /// Thread index within the block (y).
    pub fn tid_y(&self) -> Operand {
        Operand::Sreg(SpecialReg::TidY)
    }
    /// Block size (x).
    pub fn ntid_x(&self) -> Operand {
        Operand::Sreg(SpecialReg::NTidX)
    }
    /// Block size (y).
    pub fn ntid_y(&self) -> Operand {
        Operand::Sreg(SpecialReg::NTidY)
    }
    /// Block index (x).
    pub fn ctaid_x(&self) -> Operand {
        Operand::Sreg(SpecialReg::CtaIdX)
    }
    /// Block index (y).
    pub fn ctaid_y(&self) -> Operand {
        Operand::Sreg(SpecialReg::CtaIdY)
    }
    /// Grid size in blocks (x).
    pub fn nctaid_x(&self) -> Operand {
        Operand::Sreg(SpecialReg::NCtaIdX)
    }
    /// Grid size in blocks (y).
    pub fn nctaid_y(&self) -> Operand {
        Operand::Sreg(SpecialReg::NCtaIdY)
    }
    /// Lane index within the warp.
    pub fn lane_id(&self) -> Operand {
        Operand::Sreg(SpecialReg::LaneId)
    }

    /// Computes the global thread index in x:
    /// `ctaid.x * ntid.x + tid.x`.
    pub fn global_tid_x(&mut self) -> Reg {
        let dst = self.reg(Type::U32);
        self.instrs.push(Instr::Mad {
            dst,
            a: self.ctaid_x(),
            b: self.ntid_x(),
            c: self.tid_x(),
        });
        dst
    }

    /// Computes the global thread index in y:
    /// `ctaid.y * ntid.y + tid.y`.
    pub fn global_tid_y(&mut self) -> Reg {
        let dst = self.reg(Type::U32);
        self.instrs.push(Instr::Mad {
            dst,
            a: self.ctaid_y(),
            b: self.ntid_y(),
            c: self.tid_y(),
        });
        dst
    }

    // --- arithmetic ---------------------------------------------------------

    bin_method!(
        #[doc = "`u32` wrapping addition."]
        add_u32,
        BinOp::Add,
        Type::U32
    );
    bin_method!(
        #[doc = "`u32` wrapping subtraction."]
        sub_u32,
        BinOp::Sub,
        Type::U32
    );
    bin_method!(
        #[doc = "`u32` wrapping multiplication."]
        mul_u32,
        BinOp::Mul,
        Type::U32
    );
    bin_method!(
        #[doc = "`u32` division (runtime error on zero divisor)."]
        div_u32,
        BinOp::Div,
        Type::U32
    );
    bin_method!(
        #[doc = "`u32` remainder (runtime error on zero divisor)."]
        rem_u32,
        BinOp::Rem,
        Type::U32
    );
    bin_method!(
        #[doc = "`u32` minimum."]
        min_u32,
        BinOp::Min,
        Type::U32
    );
    bin_method!(
        #[doc = "`u32` maximum."]
        max_u32,
        BinOp::Max,
        Type::U32
    );
    bin_method!(
        #[doc = "Bitwise and."]
        and_u32,
        BinOp::And,
        Type::U32
    );
    bin_method!(
        #[doc = "Bitwise or."]
        or_u32,
        BinOp::Or,
        Type::U32
    );
    bin_method!(
        #[doc = "Bitwise xor."]
        xor_u32,
        BinOp::Xor,
        Type::U32
    );
    bin_method!(
        #[doc = "Left shift (count mod 32)."]
        shl_u32,
        BinOp::Shl,
        Type::U32
    );
    bin_method!(
        #[doc = "Logical right shift (count mod 32)."]
        shr_u32,
        BinOp::Shr,
        Type::U32
    );

    bin_method!(
        #[doc = "`i32` wrapping addition."]
        add_i32,
        BinOp::Add,
        Type::I32
    );
    bin_method!(
        #[doc = "`i32` wrapping subtraction."]
        sub_i32,
        BinOp::Sub,
        Type::I32
    );
    bin_method!(
        #[doc = "`i32` wrapping multiplication."]
        mul_i32,
        BinOp::Mul,
        Type::I32
    );
    bin_method!(
        #[doc = "`i32` division (runtime error on zero divisor)."]
        div_i32,
        BinOp::Div,
        Type::I32
    );
    bin_method!(
        #[doc = "`i32` remainder (runtime error on zero divisor)."]
        rem_i32,
        BinOp::Rem,
        Type::I32
    );
    bin_method!(
        #[doc = "`i32` minimum."]
        min_i32,
        BinOp::Min,
        Type::I32
    );
    bin_method!(
        #[doc = "`i32` maximum."]
        max_i32,
        BinOp::Max,
        Type::I32
    );
    bin_method!(
        #[doc = "`i32` arithmetic right shift."]
        shr_i32,
        BinOp::Shr,
        Type::I32
    );

    bin_method!(
        #[doc = "`f32` addition."]
        add_f32,
        BinOp::Add,
        Type::F32
    );
    bin_method!(
        #[doc = "`f32` subtraction."]
        sub_f32,
        BinOp::Sub,
        Type::F32
    );
    bin_method!(
        #[doc = "`f32` multiplication."]
        mul_f32,
        BinOp::Mul,
        Type::F32
    );
    bin_method!(
        #[doc = "`f32` division (IEEE semantics)."]
        div_f32,
        BinOp::Div,
        Type::F32
    );
    bin_method!(
        #[doc = "`f32` minimum."]
        min_f32,
        BinOp::Min,
        Type::F32
    );
    bin_method!(
        #[doc = "`f32` maximum."]
        max_f32,
        BinOp::Max,
        Type::F32
    );

    bin_method!(
        #[doc = "Predicate logical and."]
        and_pred,
        BinOp::And,
        Type::Pred
    );
    bin_method!(
        #[doc = "Predicate logical or."]
        or_pred,
        BinOp::Or,
        Type::Pred
    );

    un_method!(
        #[doc = "`i32` negation."]
        neg_i32,
        UnOp::Neg,
        Type::I32
    );
    un_method!(
        #[doc = "`f32` negation."]
        neg_f32,
        UnOp::Neg,
        Type::F32
    );
    un_method!(
        #[doc = "`i32` absolute value."]
        abs_i32,
        UnOp::Abs,
        Type::I32
    );
    un_method!(
        #[doc = "`f32` absolute value."]
        abs_f32,
        UnOp::Abs,
        Type::F32
    );
    un_method!(
        #[doc = "Bitwise not."]
        not_u32,
        UnOp::Not,
        Type::U32
    );
    un_method!(
        #[doc = "Predicate logical not."]
        not_pred,
        UnOp::Not,
        Type::Pred
    );
    un_method!(
        #[doc = "Square root (SFU)."]
        sqrt_f32,
        UnOp::Sqrt,
        Type::F32
    );
    un_method!(
        #[doc = "Reciprocal square root (SFU)."]
        rsqrt_f32,
        UnOp::Rsqrt,
        Type::F32
    );
    un_method!(
        #[doc = "Base-2 exponential (SFU)."]
        exp2_f32,
        UnOp::Exp2,
        Type::F32
    );
    un_method!(
        #[doc = "Base-2 logarithm (SFU)."]
        log2_f32,
        UnOp::Log2,
        Type::F32
    );
    un_method!(
        #[doc = "Sine (SFU)."]
        sin_f32,
        UnOp::Sin,
        Type::F32
    );
    un_method!(
        #[doc = "Cosine (SFU)."]
        cos_f32,
        UnOp::Cos,
        Type::F32
    );
    un_method!(
        #[doc = "Reciprocal (SFU)."]
        recip_f32,
        UnOp::Recip,
        Type::F32
    );

    /// `u32` multiply-add (wrapping): `a * b + c`.
    pub fn mad_u32(
        &mut self,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> Reg {
        let dst = self.reg(Type::U32);
        self.instrs.push(Instr::Mad {
            dst,
            a: a.into(),
            b: b.into(),
            c: c.into(),
        });
        dst
    }

    /// `f32` multiply-add, rounded once: `a * b + c`.
    pub fn mad_f32(
        &mut self,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> Reg {
        let dst = self.reg(Type::F32);
        self.instrs.push(Instr::Mad {
            dst,
            a: a.into(),
            b: b.into(),
            c: c.into(),
        });
        dst
    }

    // --- comparisons ----------------------------------------------------------

    cmp_method!(
        #[doc = "`a == b` (any numeric type)."]
        eq_u32,
        CmpOp::Eq
    );
    cmp_method!(
        #[doc = "`a != b` (any numeric type)."]
        ne_u32,
        CmpOp::Ne
    );
    cmp_method!(
        #[doc = "`a < b`."]
        lt_u32,
        CmpOp::Lt
    );
    cmp_method!(
        #[doc = "`a <= b`."]
        le_u32,
        CmpOp::Le
    );
    cmp_method!(
        #[doc = "`a > b`."]
        gt_u32,
        CmpOp::Gt
    );
    cmp_method!(
        #[doc = "`a >= b`."]
        ge_u32,
        CmpOp::Ge
    );

    /// `a < b` on `f32` operands (alias of the generic comparison; the
    /// comparison opcode is untyped, the operands decide).
    pub fn lt_f32(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.lt_u32(a, b)
    }
    /// `a > b` on `f32` operands.
    pub fn gt_f32(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.gt_u32(a, b)
    }
    /// `a < b` on `i32` operands.
    pub fn lt_i32(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.lt_u32(a, b)
    }
    /// `a >= b` on `f32` operands.
    pub fn ge_f32(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.ge_u32(a, b)
    }

    // --- moves, selects, conversions -----------------------------------------

    /// Declares a mutable variable of the operand's type, initialized to
    /// `init`. Returns the register, which can be reassigned with
    /// [`KernelBuilder::assign`].
    pub fn var(&mut self, ty: Type, init: impl Into<Operand>) -> Reg {
        let dst = self.reg(ty);
        self.instrs.push(Instr::Mov {
            dst,
            src: init.into(),
        });
        dst
    }

    /// Declares a mutable `u32` variable.
    pub fn var_u32(&mut self, init: impl Into<Operand>) -> Reg {
        self.var(Type::U32, init)
    }

    /// Declares a mutable `i32` variable.
    pub fn var_i32(&mut self, init: impl Into<Operand>) -> Reg {
        self.var(Type::I32, init)
    }

    /// Declares a mutable `f32` variable.
    pub fn var_f32(&mut self, init: impl Into<Operand>) -> Reg {
        self.var(Type::F32, init)
    }

    /// Reassigns an existing register.
    pub fn assign(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.instrs.push(Instr::Mov {
            dst,
            src: src.into(),
        });
    }

    /// `pred ? a : b` producing a `u32`.
    pub fn sel_u32(&mut self, pred: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.sel(Type::U32, pred, a, b)
    }

    /// `pred ? a : b` producing an `i32`.
    pub fn sel_i32(&mut self, pred: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.sel(Type::I32, pred, a, b)
    }

    /// `pred ? a : b` producing an `f32`.
    pub fn sel_f32(&mut self, pred: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.sel(Type::F32, pred, a, b)
    }

    fn sel(&mut self, ty: Type, pred: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.reg(ty);
        self.instrs.push(Instr::Sel {
            dst,
            pred,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Converts a numeric operand to `f32`.
    pub fn to_f32(&mut self, src: impl Into<Operand>) -> Reg {
        self.cvt(Type::F32, src)
    }

    /// Converts a numeric operand to `u32` (float conversion truncates and
    /// saturates at 0).
    pub fn to_u32(&mut self, src: impl Into<Operand>) -> Reg {
        self.cvt(Type::U32, src)
    }

    /// Converts a numeric operand to `i32` (float conversion truncates).
    pub fn to_i32(&mut self, src: impl Into<Operand>) -> Reg {
        self.cvt(Type::I32, src)
    }

    fn cvt(&mut self, ty: Type, src: impl Into<Operand>) -> Reg {
        let dst = self.reg(ty);
        self.instrs.push(Instr::Cvt {
            dst,
            src: src.into(),
        });
        dst
    }

    // --- memory ---------------------------------------------------------------

    /// Computes a byte address `base + index * scale` (emits one `u32` MAD)
    /// and returns it as an [`Addr`].
    pub fn index(&mut self, base: impl Into<Operand>, idx: impl Into<Operand>, scale: u32) -> Addr {
        let r = self.mad_u32(idx, Value::U32(scale), base);
        Addr::base(r)
    }

    /// An address `base + offset` with no emitted instructions.
    pub fn offset(&self, base: impl Into<Operand>, offset: i32) -> Addr {
        Addr {
            base: base.into(),
            offset,
        }
    }

    ld_method!(
        #[doc = "Load `f32` from global memory."]
        ld_global_f32,
        Space::Global,
        Type::F32
    );
    ld_method!(
        #[doc = "Load `u32` from global memory."]
        ld_global_u32,
        Space::Global,
        Type::U32
    );
    ld_method!(
        #[doc = "Load `i32` from global memory."]
        ld_global_i32,
        Space::Global,
        Type::I32
    );
    ld_method!(
        #[doc = "Load `f32` from shared memory."]
        ld_shared_f32,
        Space::Shared,
        Type::F32
    );
    ld_method!(
        #[doc = "Load `u32` from shared memory."]
        ld_shared_u32,
        Space::Shared,
        Type::U32
    );
    ld_method!(
        #[doc = "Load `i32` from shared memory."]
        ld_shared_i32,
        Space::Shared,
        Type::I32
    );
    ld_method!(
        #[doc = "Load `f32` from per-thread local memory."]
        ld_local_f32,
        Space::Local,
        Type::F32
    );
    ld_method!(
        #[doc = "Load `u32` from per-thread local memory."]
        ld_local_u32,
        Space::Local,
        Type::U32
    );
    ld_method!(
        #[doc = "Load `f32` from constant memory."]
        ld_const_f32,
        Space::Const,
        Type::F32
    );
    ld_method!(
        #[doc = "Load `u32` from constant memory."]
        ld_const_u32,
        Space::Const,
        Type::U32
    );

    st_method!(
        #[doc = "Store to global memory."]
        st_global_f32,
        Space::Global
    );
    st_method!(
        #[doc = "Store to global memory."]
        st_global_u32,
        Space::Global
    );
    st_method!(
        #[doc = "Store to global memory."]
        st_global_i32,
        Space::Global
    );
    st_method!(
        #[doc = "Store to shared memory."]
        st_shared_f32,
        Space::Shared
    );
    st_method!(
        #[doc = "Store to shared memory."]
        st_shared_u32,
        Space::Shared
    );
    st_method!(
        #[doc = "Store to per-thread local memory."]
        st_local_f32,
        Space::Local
    );
    st_method!(
        #[doc = "Store to per-thread local memory."]
        st_local_u32,
        Space::Local
    );

    fn atom(
        &mut self,
        op: AtomOp,
        space: Space,
        ty: Type,
        addr: Addr,
        src: impl Into<Operand>,
        compare: Option<Operand>,
    ) -> Reg {
        let dst = self.reg(ty);
        self.instrs.push(Instr::Atom {
            op,
            dst: Some(dst),
            space,
            addr,
            src: src.into(),
            compare,
        });
        dst
    }

    /// Global `u32` atomic add; returns the previous value.
    pub fn atomic_add_global_u32(&mut self, addr: Addr, src: impl Into<Operand>) -> Reg {
        self.atom(AtomOp::Add, Space::Global, Type::U32, addr, src, None)
    }

    /// Global `f32` atomic add; returns the previous value.
    pub fn atomic_add_global_f32(&mut self, addr: Addr, src: impl Into<Operand>) -> Reg {
        self.atom(AtomOp::Add, Space::Global, Type::F32, addr, src, None)
    }

    /// Shared `u32` atomic add; returns the previous value.
    pub fn atomic_add_shared_u32(&mut self, addr: Addr, src: impl Into<Operand>) -> Reg {
        self.atom(AtomOp::Add, Space::Shared, Type::U32, addr, src, None)
    }

    /// Global `u32` atomic min; returns the previous value.
    pub fn atomic_min_global_u32(&mut self, addr: Addr, src: impl Into<Operand>) -> Reg {
        self.atom(AtomOp::Min, Space::Global, Type::U32, addr, src, None)
    }

    /// Global `u32` atomic max; returns the previous value.
    pub fn atomic_max_global_u32(&mut self, addr: Addr, src: impl Into<Operand>) -> Reg {
        self.atom(AtomOp::Max, Space::Global, Type::U32, addr, src, None)
    }

    /// Global `u32` atomic exchange; returns the previous value.
    pub fn atomic_exch_global_u32(&mut self, addr: Addr, src: impl Into<Operand>) -> Reg {
        self.atom(AtomOp::Exch, Space::Global, Type::U32, addr, src, None)
    }

    /// Global `u32` compare-and-swap; returns the previous value.
    pub fn atomic_cas_global_u32(
        &mut self,
        addr: Addr,
        compare: impl Into<Operand>,
        src: impl Into<Operand>,
    ) -> Reg {
        self.atom(
            AtomOp::Cas,
            Space::Global,
            Type::U32,
            addr,
            src,
            Some(compare.into()),
        )
    }

    // --- control flow -----------------------------------------------------------

    /// Block-wide barrier (`__syncthreads`). Must only execute with the
    /// whole block converged.
    pub fn barrier(&mut self) {
        self.instrs.push(Instr::Bar);
    }

    /// Per-lane kernel exit.
    pub fn ret(&mut self) {
        self.instrs.push(Instr::Ret);
    }

    /// Allocates an unplaced label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Places `label` at the current instruction position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already placed.
    pub fn place(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label placed twice");
        self.labels[label.0] = Some(self.instrs.len());
    }

    /// Unconditional jump to `label`.
    pub fn bra(&mut self, label: Label) {
        self.patches.push(self.instrs.len());
        self.instrs.push(Instr::Bra {
            target: label.0,
            cond: None,
        });
    }

    /// Branch to `label` when `pred` is true (per lane).
    pub fn bra_if(&mut self, pred: Reg, label: Label) {
        self.patches.push(self.instrs.len());
        self.instrs.push(Instr::Bra {
            target: label.0,
            cond: Some(BranchCond {
                reg: pred,
                negate: false,
            }),
        });
    }

    /// Branch to `label` when `pred` is false (per lane).
    pub fn bra_ifnot(&mut self, pred: Reg, label: Label) {
        self.patches.push(self.instrs.len());
        self.instrs.push(Instr::Bra {
            target: label.0,
            cond: Some(BranchCond {
                reg: pred,
                negate: true,
            }),
        });
    }

    /// Structured `if (pred) { body }`.
    pub fn if_(&mut self, pred: Reg, body: impl FnOnce(&mut Self)) {
        let end = self.label();
        self.bra_ifnot(pred, end);
        body(self);
        self.place(end);
    }

    /// Structured `if (!pred) { body }`.
    pub fn if_not(&mut self, pred: Reg, body: impl FnOnce(&mut Self)) {
        let end = self.label();
        self.bra_if(pred, end);
        body(self);
        self.place(end);
    }

    /// Structured `if (pred) { then } else { otherwise }`.
    pub fn if_else(
        &mut self,
        pred: Reg,
        then: impl FnOnce(&mut Self),
        otherwise: impl FnOnce(&mut Self),
    ) {
        let else_l = self.label();
        let end = self.label();
        self.bra_ifnot(pred, else_l);
        then(self);
        self.bra(end);
        self.place(else_l);
        otherwise(self);
        self.place(end);
    }

    /// Structured `while (cond()) { body }`. The condition closure emits
    /// code evaluating the predicate each iteration.
    pub fn while_(&mut self, cond: impl Fn(&mut Self) -> Reg, body: impl FnOnce(&mut Self)) {
        let head = self.label();
        let end = self.label();
        self.place(head);
        let p = cond(self);
        self.bra_ifnot(p, end);
        body(self);
        self.bra(head);
        self.place(end);
    }

    /// Structured counted loop:
    /// `for (u32 i = start; i < end; i += step) { body(i) }`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn for_range_u32(
        &mut self,
        start: impl Into<Operand>,
        end: impl Into<Operand>,
        step: u32,
        body: impl FnOnce(&mut Self, Reg),
    ) {
        assert!(step != 0, "loop step must be non-zero");
        let end_op = end.into();
        let i = self.var_u32(start);
        let head = self.label();
        let out = self.label();
        self.place(head);
        let p = self.lt_u32(i, end_op);
        self.bra_ifnot(p, out);
        body(self, i);
        let next = self.add_u32(i, Value::U32(step));
        self.assign(i, next);
        self.bra(head);
        self.place(out);
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Resolves labels, validates the IR and produces a [`Kernel`].
    ///
    /// # Errors
    ///
    /// * [`SimtError::UndefinedLabel`] if a referenced label was never
    ///   placed.
    /// * Any validation error from [`Kernel::finalize`].
    pub fn build(mut self) -> Result<Kernel, SimtError> {
        for &pc in &self.patches {
            let Instr::Bra { target, .. } = &mut self.instrs[pc] else {
                unreachable!("patch list only holds branches");
            };
            let label_id = *target;
            match self.labels.get(label_id).copied().flatten() {
                Some(resolved) => *target = resolved,
                None => return Err(SimtError::UndefinedLabel { label: label_id }),
            }
        }
        Kernel::finalize(
            self.name,
            self.instrs,
            self.reg_types,
            self.params,
            self.shared_bytes,
            self.local_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_build() {
        let b = KernelBuilder::new("empty");
        let k = b.build().unwrap();
        assert!(k.instrs().is_empty());
        assert_eq!(k.name(), "empty");
    }

    #[test]
    fn unplaced_label_rejected() {
        let mut b = KernelBuilder::new("bad");
        let l = b.label();
        b.bra(l);
        assert!(matches!(
            b.build(),
            Err(SimtError::UndefinedLabel { label: 0 })
        ));
    }

    #[test]
    fn if_lowering_shape() {
        let mut b = KernelBuilder::new("t");
        let p = b.lt_u32(Value::U32(1), Value::U32(2));
        b.if_(p, |b| {
            b.var_u32(Value::U32(7));
        });
        let k = b.build().unwrap();
        // cmp, bra(cond, negated), mov
        assert_eq!(k.instrs().len(), 3);
        match &k.instrs()[1] {
            Instr::Bra { target, cond } => {
                assert_eq!(*target, 3);
                assert!(cond.unwrap().negate);
            }
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn if_else_lowering_targets() {
        let mut b = KernelBuilder::new("t");
        let p = b.lt_u32(Value::U32(1), Value::U32(2));
        b.if_else(
            p,
            |b| {
                b.var_u32(Value::U32(1));
            },
            |b| {
                b.var_u32(Value::U32(2));
            },
        );
        let k = b.build().unwrap();
        // 0 cmp, 1 cbra->4, 2 mov, 3 bra->5, 4 mov
        assert_eq!(k.instrs().len(), 5);
        assert!(matches!(k.instrs()[1], Instr::Bra { target: 4, .. }));
        assert!(
            matches!(
                k.instrs()[3],
                Instr::Bra {
                    target: 5,
                    cond: None
                }
            ),
            "{:?}",
            k.instrs()[3]
        );
        assert_eq!(k.reconvergence_pc(1), Some(5));
    }

    #[test]
    fn while_loop_reconverges_after_loop() {
        let mut b = KernelBuilder::new("t");
        let i = b.var_u32(Value::U32(0));
        b.while_(
            |b| b.lt_u32(i, Value::U32(10)),
            |b| {
                let next = b.add_u32(i, Value::U32(1));
                b.assign(i, next);
            },
        );
        b.var_u32(Value::U32(0)); // after-loop instruction
        let k = b.build().unwrap();
        // Find the conditional branch; reconvergence must be after the
        // unconditional back-edge.
        let (pc, _) = k
            .instrs()
            .iter()
            .enumerate()
            .find(|(_, i)| matches!(i, Instr::Bra { cond: Some(_), .. }))
            .unwrap();
        let rpc = k.reconvergence_pc(pc).unwrap();
        assert!(matches!(k.instrs()[rpc], Instr::Mov { .. }));
        assert_eq!(rpc, k.instrs().len() - 1);
    }

    #[test]
    fn for_range_counts_registers() {
        let mut b = KernelBuilder::new("t");
        b.for_range_u32(Value::U32(0), Value::U32(4), 1, |b, i| {
            b.add_u32(i, Value::U32(5));
        });
        let k = b.build().unwrap();
        assert!(k.reg_count() >= 3, "loop var, pred, body, increment");
    }

    #[test]
    #[should_panic(expected = "step must be non-zero")]
    fn for_range_zero_step_panics() {
        let mut b = KernelBuilder::new("t");
        b.for_range_u32(Value::U32(0), Value::U32(4), 0, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn double_place_panics() {
        let mut b = KernelBuilder::new("t");
        let l = b.label();
        b.place(l);
        b.place(l);
    }

    #[test]
    fn shared_alloc_is_aligned_and_accumulates() {
        let mut b = KernelBuilder::new("t");
        let a = b.alloc_shared(10);
        let c = b.alloc_shared(4);
        assert_eq!(a, Operand::Imm(Value::U32(0)));
        assert_eq!(c, Operand::Imm(Value::U32(16)));
        let k = b.build().unwrap();
        assert_eq!(k.shared_bytes(), 20);
    }

    #[test]
    fn param_types_recorded() {
        let mut b = KernelBuilder::new("t");
        b.param_u32("ptr");
        b.param_f32("alpha");
        b.param_i32("count");
        let k = b.build().unwrap();
        assert_eq!(k.params().len(), 3);
        assert_eq!(k.params()[1].name, "alpha");
        assert_eq!(k.params()[1].ty, Type::F32);
    }

    #[test]
    fn index_emits_mad() {
        let mut b = KernelBuilder::new("t");
        let p = b.param_u32("p");
        let i = b.var_u32(Value::U32(3));
        let addr = b.index(p, i, 4);
        let v = b.ld_global_f32(addr);
        let _ = v;
        let k = b.build().unwrap();
        assert!(k.instrs().iter().any(|i| matches!(i, Instr::Mad { .. })));
    }
}
