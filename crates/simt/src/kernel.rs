//! Finalized, validated kernels.

use std::sync::{Arc, OnceLock};

use crate::cfg::Cfg;
use crate::decode::DecodedKernel;
use crate::instr::{AtomOp, BinOp, Instr, Operand, Reg, Space, Type, UnOp, Value};
use crate::SimtError;

/// A declared kernel parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Parameter name (diagnostics only).
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

/// A validated kernel: instructions, register/parameter declarations, and
/// the branch-reconvergence table.
///
/// Construct kernels with [`crate::builder::KernelBuilder`]; `Kernel`
/// itself guarantees (via [`Kernel::finalize`]) that execution cannot hit
/// malformed instructions.
///
/// Cloning is cheap: every clone shares one immutable body behind an
/// `Arc`, so the lazily computed decode ([`Kernel::decoded`]) and content
/// hash ([`Kernel::content_hash`]) are paid once per built kernel, however
/// many launch specs hold a copy.
#[derive(Debug, Clone)]
pub struct Kernel {
    body: Arc<Body>,
}

#[derive(Debug)]
struct Body {
    name: String,
    instrs: Vec<Instr>,
    reg_types: Vec<Type>,
    params: Vec<ParamDecl>,
    shared_bytes: u32,
    local_bytes: u32,
    reconv: Vec<Option<usize>>,
    /// Lazily decoded µop stream ([`crate::decode`]), shared by every
    /// launch of this kernel and every clone of it.
    decoded: OnceLock<Arc<DecodedKernel>>,
    /// Memoized [`Kernel::content_hash`].
    content_hash: OnceLock<u64>,
}

impl Kernel {
    /// Validates raw IR and computes the reconvergence table.
    ///
    /// # Errors
    ///
    /// Returns a [`SimtError`] describing the first malformed instruction:
    /// bad register/parameter/label references, type mismatches, or control
    /// flow with no path to the kernel exit.
    pub fn finalize(
        name: impl Into<String>,
        instrs: Vec<Instr>,
        reg_types: Vec<Type>,
        params: Vec<ParamDecl>,
        shared_bytes: u32,
        local_bytes: u32,
    ) -> Result<Self, SimtError> {
        let v = Validator {
            instrs: &instrs,
            reg_types: &reg_types,
            params: &params,
        };
        v.validate()?;
        let cfg = Cfg::build(&instrs);
        let reconv = cfg.reconvergence_table(&instrs)?;
        Ok(Self {
            body: Arc::new(Body {
                name: name.into(),
                instrs,
                reg_types,
                params,
                shared_bytes,
                local_bytes,
                reconv,
                decoded: OnceLock::new(),
                content_hash: OnceLock::new(),
            }),
        })
    }

    /// The predecoded µop stream, decoding on first use and cached for
    /// every later launch and every clone. Thread-safe: devices launching
    /// the kernel from several threads share a single decode.
    pub fn decoded(&self) -> &Arc<DecodedKernel> {
        self.body
            .decoded
            .get_or_init(|| Arc::new(DecodedKernel::decode(self)))
    }

    /// Whether the decode cache is populated (for tests and diagnostics;
    /// execution uses [`Kernel::decoded`], which fills it).
    pub fn decode_cached(&self) -> bool {
        self.body.decoded.get().is_some()
    }

    /// A stable content hash of this kernel's validated IR, fed from its
    /// canonical predecoded form: the µop stream plus the per-pc
    /// class/dst/srcs side tables ([`crate::decode`]), the register and
    /// parameter declarations, and the static memory sizes. Two kernels
    /// hash equal iff they execute identically, and the hash is stable
    /// across runs and processes — the profile cache builds its
    /// fingerprints on it. Computed on first use and memoized for every
    /// clone.
    pub fn content_hash(&self) -> u64 {
        *self.body.content_hash.get_or_init(|| self.hash_content())
    }

    fn hash_content(&self) -> u64 {
        use crate::hash::{Fnv1a, HashWriter};
        use std::fmt::Write as _;

        let b = &*self.body;
        let d = self.decoded();
        let mut h = Fnv1a::new();
        h.write_str(&b.name);
        h.write_u32(b.shared_bytes);
        h.write_u32(b.local_bytes);
        h.write_u64(b.reg_types.len() as u64);
        {
            let mut w = HashWriter(&mut h);
            for t in &b.reg_types {
                let _ = write!(w, "{t:?},");
            }
            for p in &b.params {
                let _ = write!(w, "{}:{:?},", p.name, p.ty);
            }
            // The canonical form: every µop with its side-table entries.
            // Debug renderings are exhaustive over the µop encoding, so
            // any change to the decoded form re-keys the cache.
            let _ = write!(w, ";{}", d.len());
            for (pc, uop) in d.uops().iter().enumerate() {
                let _ = write!(
                    w,
                    "|{uop:?}{:?}{:?}{:?}",
                    d.class(pc),
                    d.dst(pc),
                    d.srcs(pc)
                );
            }
        }
        h.finish()
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.body.name
    }

    /// The instruction list.
    pub fn instrs(&self) -> &[Instr] {
        &self.body.instrs
    }

    /// Number of virtual registers per thread.
    pub fn reg_count(&self) -> usize {
        self.body.reg_types.len()
    }

    /// Declared type of register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn reg_type(&self, r: Reg) -> Type {
        self.body.reg_types[r.0 as usize]
    }

    /// Declared parameters.
    pub fn params(&self) -> &[ParamDecl] {
        &self.body.params
    }

    /// Static shared memory per block, in bytes.
    pub fn shared_bytes(&self) -> u32 {
        self.body.shared_bytes
    }

    /// Local (per-thread private) memory, in bytes.
    pub fn local_bytes(&self) -> u32 {
        self.body.local_bytes
    }

    /// Reconvergence pc for the conditional branch at `pc`
    /// (`instrs().len()` means the kernel exit). `None` for non-branches
    /// and unconditional branches.
    pub fn reconvergence_pc(&self, pc: usize) -> Option<usize> {
        self.body.reconv.get(pc).copied().flatten()
    }

    /// Checks launch arguments against the parameter declarations.
    ///
    /// # Errors
    ///
    /// Returns [`SimtError::BadLaunchArgs`] on count or type mismatch.
    pub fn check_args(&self, args: &[Value]) -> Result<(), SimtError> {
        if args.len() != self.body.params.len() {
            return Err(SimtError::BadLaunchArgs {
                detail: format!(
                    "kernel `{}` takes {} arguments, got {}",
                    self.body.name,
                    self.body.params.len(),
                    args.len()
                ),
            });
        }
        for (i, (arg, decl)) in args.iter().zip(&self.body.params).enumerate() {
            if arg.ty() != decl.ty {
                return Err(SimtError::BadLaunchArgs {
                    detail: format!(
                        "argument {i} (`{}`): expected {}, got {}",
                        decl.name,
                        decl.ty,
                        arg.ty()
                    ),
                });
            }
        }
        Ok(())
    }
}

struct Validator<'a> {
    instrs: &'a [Instr],
    reg_types: &'a [Type],
    params: &'a [ParamDecl],
}

impl Validator<'_> {
    fn validate(&self) -> Result<(), SimtError> {
        for (pc, ins) in self.instrs.iter().enumerate() {
            self.validate_instr(pc, ins)?;
        }
        Ok(())
    }

    fn reg_ty(&self, pc: usize, r: Reg) -> Result<Type, SimtError> {
        self.reg_types
            .get(r.0 as usize)
            .copied()
            .ok_or(SimtError::BadRegister {
                pc,
                reg: r.0 as usize,
            })
    }

    fn operand_ty(&self, pc: usize, op: &Operand) -> Result<Type, SimtError> {
        match op {
            Operand::Reg(r) => self.reg_ty(pc, *r),
            Operand::Imm(v) => Ok(v.ty()),
            Operand::Sreg(_) => Ok(Type::U32),
            Operand::Param(i) => {
                self.params
                    .get(*i as usize)
                    .map(|p| p.ty)
                    .ok_or(SimtError::BadParam {
                        pc,
                        param: *i as usize,
                    })
            }
        }
    }

    fn expect(&self, pc: usize, found: Type, expected: Type) -> Result<(), SimtError> {
        if found == expected {
            Ok(())
        } else {
            Err(SimtError::TypeMismatch {
                pc,
                expected,
                found,
            })
        }
    }

    fn expect_numeric(&self, pc: usize, ty: Type) -> Result<(), SimtError> {
        if ty == Type::Pred {
            // Report "expected f32" loosely; any numeric type would do.
            Err(SimtError::TypeMismatch {
                pc,
                expected: Type::F32,
                found: Type::Pred,
            })
        } else {
            Ok(())
        }
    }

    fn validate_addr(&self, pc: usize, addr: &crate::instr::Addr) -> Result<(), SimtError> {
        let t = self.operand_ty(pc, &addr.base)?;
        self.expect(pc, t, Type::U32)
    }

    fn validate_instr(&self, pc: usize, ins: &Instr) -> Result<(), SimtError> {
        match ins {
            Instr::Bin { op, dst, a, b } => {
                let td = self.reg_ty(pc, *dst)?;
                let ta = self.operand_ty(pc, a)?;
                let tb = self.operand_ty(pc, b)?;
                self.expect(pc, ta, td)?;
                self.expect(pc, tb, td)?;
                match op {
                    BinOp::And | BinOp::Or | BinOp::Xor => {
                        // Integers and predicates.
                        if td == Type::F32 {
                            return Err(SimtError::TypeMismatch {
                                pc,
                                expected: Type::U32,
                                found: Type::F32,
                            });
                        }
                    }
                    BinOp::Shl | BinOp::Shr | BinOp::Rem => {
                        if td == Type::F32 || td == Type::Pred {
                            return Err(SimtError::TypeMismatch {
                                pc,
                                expected: Type::U32,
                                found: td,
                            });
                        }
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max => {
                        self.expect_numeric(pc, td)?;
                    }
                }
                Ok(())
            }
            Instr::Un { op, dst, a } => {
                let td = self.reg_ty(pc, *dst)?;
                let ta = self.operand_ty(pc, a)?;
                self.expect(pc, ta, td)?;
                match op {
                    UnOp::Not => {
                        if td == Type::F32 {
                            return Err(SimtError::TypeMismatch {
                                pc,
                                expected: Type::U32,
                                found: Type::F32,
                            });
                        }
                        Ok(())
                    }
                    UnOp::Neg | UnOp::Abs => {
                        if td == Type::I32 || td == Type::F32 {
                            Ok(())
                        } else {
                            Err(SimtError::TypeMismatch {
                                pc,
                                expected: Type::I32,
                                found: td,
                            })
                        }
                    }
                    _ => self.expect(pc, td, Type::F32),
                }
            }
            Instr::Mad { dst, a, b, c } => {
                let td = self.reg_ty(pc, *dst)?;
                self.expect_numeric(pc, td)?;
                for op in [a, b, c] {
                    let t = self.operand_ty(pc, op)?;
                    self.expect(pc, t, td)?;
                }
                Ok(())
            }
            Instr::Cmp { dst, a, b, .. } => {
                let td = self.reg_ty(pc, *dst)?;
                self.expect(pc, td, Type::Pred)?;
                let ta = self.operand_ty(pc, a)?;
                let tb = self.operand_ty(pc, b)?;
                self.expect_numeric(pc, ta)?;
                self.expect(pc, tb, ta)
            }
            Instr::Sel { dst, pred, a, b } => {
                let tp = self.reg_ty(pc, *pred)?;
                self.expect(pc, tp, Type::Pred)?;
                let td = self.reg_ty(pc, *dst)?;
                let ta = self.operand_ty(pc, a)?;
                let tb = self.operand_ty(pc, b)?;
                self.expect(pc, ta, td)?;
                self.expect(pc, tb, td)
            }
            Instr::Mov { dst, src } => {
                let td = self.reg_ty(pc, *dst)?;
                let ts = self.operand_ty(pc, src)?;
                self.expect(pc, ts, td)
            }
            Instr::Cvt { dst, src } => {
                let td = self.reg_ty(pc, *dst)?;
                let ts = self.operand_ty(pc, src)?;
                self.expect_numeric(pc, td)?;
                self.expect_numeric(pc, ts)
            }
            Instr::Ld { dst, addr, .. } => {
                let td = self.reg_ty(pc, *dst)?;
                self.expect_numeric(pc, td)?;
                self.validate_addr(pc, addr)
            }
            Instr::St { addr, src, .. } => {
                let ts = self.operand_ty(pc, src)?;
                self.expect_numeric(pc, ts)?;
                self.validate_addr(pc, addr)
            }
            Instr::Atom {
                op,
                dst,
                space,
                addr,
                src,
                compare,
            } => {
                if !matches!(space, Space::Global | Space::Shared) {
                    return Err(SimtError::TypeMismatch {
                        pc,
                        expected: Type::U32,
                        found: Type::U32,
                    });
                }
                self.validate_addr(pc, addr)?;
                let ts = self.operand_ty(pc, src)?;
                self.expect_numeric(pc, ts)?;
                if let Some(d) = dst {
                    let td = self.reg_ty(pc, *d)?;
                    self.expect(pc, td, ts)?;
                }
                match op {
                    AtomOp::Cas => {
                        let c = compare.as_ref().ok_or(SimtError::BadLaunchArgs {
                            detail: format!("atom.cas at pc {pc} missing compare operand"),
                        })?;
                        let tc = self.operand_ty(pc, c)?;
                        self.expect(pc, tc, ts)?;
                        if ts == Type::F32 {
                            return Err(SimtError::TypeMismatch {
                                pc,
                                expected: Type::U32,
                                found: Type::F32,
                            });
                        }
                        Ok(())
                    }
                    _ => Ok(()),
                }
            }
            Instr::Bar | Instr::Ret => Ok(()),
            Instr::Bra { target, cond } => {
                if *target > self.instrs.len() {
                    return Err(SimtError::UndefinedLabel { label: *target });
                }
                if let Some(c) = cond {
                    let t = self.reg_ty(pc, c.reg)?;
                    self.expect(pc, t, Type::Pred)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Addr, BranchCond, CmpOp, Operand};

    fn finalize(instrs: Vec<Instr>, reg_types: Vec<Type>) -> Result<Kernel, SimtError> {
        Kernel::finalize("t", instrs, reg_types, vec![], 0, 0)
    }

    #[test]
    fn empty_kernel_is_valid() {
        let k = finalize(vec![], vec![]).unwrap();
        assert_eq!(k.instrs().len(), 0);
        assert_eq!(k.reg_count(), 0);
    }

    #[test]
    fn type_mismatch_in_bin() {
        let instrs = vec![Instr::Bin {
            op: BinOp::Add,
            dst: Reg(0),
            a: Operand::Imm(Value::F32(1.0)),
            b: Operand::Imm(Value::U32(1)),
        }];
        let err = finalize(instrs, vec![Type::F32]).unwrap_err();
        assert!(matches!(err, SimtError::TypeMismatch { pc: 0, .. }));
    }

    #[test]
    fn shift_on_float_rejected() {
        let instrs = vec![Instr::Bin {
            op: BinOp::Shl,
            dst: Reg(0),
            a: Operand::Imm(Value::F32(1.0)),
            b: Operand::Imm(Value::F32(1.0)),
        }];
        assert!(finalize(instrs, vec![Type::F32]).is_err());
    }

    #[test]
    fn sfu_requires_f32() {
        let instrs = vec![Instr::Un {
            op: UnOp::Sqrt,
            dst: Reg(0),
            a: Operand::Imm(Value::U32(4)),
        }];
        assert!(finalize(instrs, vec![Type::U32]).is_err());
    }

    #[test]
    fn bad_register_reported() {
        let instrs = vec![Instr::Mov {
            dst: Reg(5),
            src: Operand::Imm(Value::U32(0)),
        }];
        assert_eq!(
            finalize(instrs, vec![Type::U32]).unwrap_err(),
            SimtError::BadRegister { pc: 0, reg: 5 }
        );
    }

    #[test]
    fn bad_param_reported() {
        let instrs = vec![Instr::Mov {
            dst: Reg(0),
            src: Operand::Param(2),
        }];
        assert_eq!(
            finalize(instrs, vec![Type::U32]).unwrap_err(),
            SimtError::BadParam { pc: 0, param: 2 }
        );
    }

    #[test]
    fn branch_target_out_of_range() {
        let instrs = vec![Instr::Bra {
            target: 5,
            cond: None,
        }];
        assert!(matches!(
            finalize(instrs, vec![]).unwrap_err(),
            SimtError::UndefinedLabel { label: 5 }
        ));
    }

    #[test]
    fn branch_cond_must_be_pred() {
        let instrs = vec![Instr::Bra {
            target: 1,
            cond: Some(BranchCond {
                reg: Reg(0),
                negate: false,
            }),
        }];
        assert!(finalize(instrs, vec![Type::U32]).is_err());
    }

    #[test]
    fn cmp_writes_pred() {
        let instrs = vec![Instr::Cmp {
            op: CmpOp::Lt,
            dst: Reg(0),
            a: Operand::Imm(Value::U32(1)),
            b: Operand::Imm(Value::U32(2)),
        }];
        assert!(finalize(instrs.clone(), vec![Type::U32]).is_err());
        assert!(finalize(instrs, vec![Type::Pred]).is_ok());
    }

    #[test]
    fn ld_addr_must_be_u32() {
        let instrs = vec![Instr::Ld {
            dst: Reg(0),
            space: Space::Global,
            addr: Addr::base(Value::F32(0.0)),
        }];
        assert!(finalize(instrs, vec![Type::F32]).is_err());
    }

    #[test]
    fn atomic_cas_needs_compare_and_int() {
        let no_compare = vec![Instr::Atom {
            op: AtomOp::Cas,
            dst: None,
            space: Space::Global,
            addr: Addr::base(Value::U32(0)),
            src: Operand::Imm(Value::U32(1)),
            compare: None,
        }];
        assert!(finalize(no_compare, vec![]).is_err());

        let f32_cas = vec![Instr::Atom {
            op: AtomOp::Cas,
            dst: None,
            space: Space::Global,
            addr: Addr::base(Value::U32(0)),
            src: Operand::Imm(Value::F32(1.0)),
            compare: Some(Operand::Imm(Value::F32(0.0))),
        }];
        assert!(finalize(f32_cas, vec![]).is_err());
    }

    #[test]
    fn check_args_validates_count_and_types() {
        let k = Kernel::finalize(
            "t",
            vec![],
            vec![],
            vec![ParamDecl {
                name: "n".into(),
                ty: Type::U32,
            }],
            0,
            0,
        )
        .unwrap();
        assert!(k.check_args(&[Value::U32(4)]).is_ok());
        assert!(k.check_args(&[]).is_err());
        assert!(k.check_args(&[Value::F32(1.0)]).is_err());
        assert!(k.check_args(&[Value::U32(1), Value::U32(2)]).is_err());
    }

    #[test]
    fn content_hash_is_stable_and_discriminates() {
        let build = |imm: u32| {
            let instrs = vec![Instr::Mov {
                dst: Reg(0),
                src: Operand::Imm(Value::U32(imm)),
            }];
            finalize(instrs, vec![Type::U32]).unwrap()
        };
        // Independently built identical kernels agree...
        assert_eq!(build(7).content_hash(), build(7).content_hash());
        // ...and a one-immediate change re-keys.
        assert_ne!(build(7).content_hash(), build(8).content_hash());
        // Static memory sizes are part of the content.
        let a = Kernel::finalize("t", vec![], vec![], vec![], 0, 0).unwrap();
        let b = Kernel::finalize("t", vec![], vec![], vec![], 128, 0).unwrap();
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn reconvergence_exposed() {
        // Guard: 0 cbra->2, 1 mov, 2 mov.
        let instrs = vec![
            Instr::Bra {
                target: 2,
                cond: Some(BranchCond {
                    reg: Reg(0),
                    negate: false,
                }),
            },
            Instr::Mov {
                dst: Reg(1),
                src: Operand::Imm(Value::U32(0)),
            },
            Instr::Mov {
                dst: Reg(1),
                src: Operand::Imm(Value::U32(1)),
            },
        ];
        let k = finalize(instrs, vec![Type::Pred, Type::U32]).unwrap();
        assert_eq!(k.reconvergence_pc(0), Some(2));
        assert_eq!(k.reconvergence_pc(1), None);
    }
}
