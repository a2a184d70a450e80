//! Instructions and their functional semantics.

use crate::op::{OpClass, Opcode, Special};
use crate::reg::{Reg, WARP_WIDTH};
use crate::value::LaneVec;
use std::fmt;

/// One static SIMT instruction: an opcode, an optional destination register,
/// and up to three source registers.
///
/// ```
/// use regless_isa::{Instruction, Opcode, Reg};
/// let add = Instruction::new(Opcode::IAdd, Some(Reg(2)), vec![Reg(0), Reg(1)]);
/// assert_eq!(add.dst(), Some(Reg(2)));
/// assert_eq!(add.srcs(), &[Reg(0), Reg(1)]);
/// assert_eq!(add.to_string(), "r2 = iadd r0, r1");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Instruction {
    op: Opcode,
    dst: Option<Reg>,
    srcs: Vec<Reg>,
}

impl Instruction {
    /// Create an instruction.
    ///
    /// # Panics
    ///
    /// Panics if more than three sources are supplied, or if the operand
    /// shape does not fit the opcode (e.g. a destination on a store or a
    /// terminator).
    pub fn new(op: Opcode, dst: Option<Reg>, srcs: Vec<Reg>) -> Self {
        assert!(srcs.len() <= 3, "at most 3 source operands");
        let insn = Instruction { op, dst, srcs };
        insn.assert_shape();
        insn
    }

    fn assert_shape(&self) {
        use Opcode::*;
        let (want_dst, want_srcs): (bool, usize) = match self.op {
            IAdd | ISub | IMul | And | Or | Xor | Shl | Shr | FAdd | FMul | SetLt | SetEq => {
                (true, 2)
            }
            IMad | FFma => (true, 3),
            Sfu | Mov | LdGlobal | LdShared => (true, 1),
            MovImm(_) | ReadSpecial(_) => (true, 0),
            StGlobal | StShared => (false, 2),
            Bra { .. } => (false, 1),
            Jmp { .. } | Exit | Bar => (false, 0),
        };
        assert_eq!(
            self.dst.is_some(),
            want_dst,
            "{:?}: destination presence mismatch",
            self.op
        );
        assert_eq!(
            self.srcs.len(),
            want_srcs,
            "{:?}: source count mismatch",
            self.op
        );
    }

    /// The opcode.
    #[inline]
    pub fn op(&self) -> Opcode {
        self.op
    }

    /// The destination register, if the instruction writes one.
    #[inline]
    pub fn dst(&self) -> Option<Reg> {
        self.dst
    }

    /// The source registers, in operand order.
    #[inline]
    pub fn srcs(&self) -> &[Reg] {
        &self.srcs
    }

    /// The functional-unit class (see [`Opcode::class`]).
    #[inline]
    pub fn class(&self) -> OpClass {
        self.op.class()
    }

    /// Whether this instruction is a global-memory load, the opcode class
    /// whose latency forces region splits in the RegLess compiler.
    #[inline]
    pub fn is_global_load(&self) -> bool {
        matches!(self.op, Opcode::LdGlobal)
    }

    /// Whether this instruction is a basic-block terminator.
    #[inline]
    pub fn is_terminator(&self) -> bool {
        self.op.is_terminator()
    }

    /// Evaluate the instruction's ALU semantics for one warp.
    ///
    /// `srcs` must hold the current values of [`Instruction::srcs`] in order.
    /// Memory operations are *not* evaluated here (the simulator models them
    /// against its memory hierarchy); this returns `None` for them and for
    /// instructions with no destination.
    ///
    /// # Panics
    ///
    /// Panics if `srcs.len()` does not match the instruction's source count.
    pub fn evaluate(&self, srcs: &[LaneVec], warp_index: usize) -> Option<LaneVec> {
        assert_eq!(srcs.len(), self.srcs.len(), "operand count mismatch");
        self.evaluate_with(|i| &srcs[i], warp_index)
    }

    /// [`Instruction::evaluate`] reading each source straight from a
    /// warp's register array `regs` (indexed by [`Reg::index`]), with no
    /// copy of the operand values.
    ///
    /// # Panics
    ///
    /// Panics if a source register is out of range for `regs`.
    #[inline]
    pub fn evaluate_regs(&self, regs: &[LaneVec], warp_index: usize) -> Option<LaneVec> {
        self.evaluate_with(|i| &regs[self.srcs[i].index()], warp_index)
    }

    /// The ALU semantics over source operand `i` as `src(i)`.
    #[inline]
    fn evaluate_with<'a>(
        &self,
        src: impl Fn(usize) -> &'a LaneVec,
        warp_index: usize,
    ) -> Option<LaneVec> {
        use Opcode::*;
        let v = match self.op {
            IAdd => src(0).zip_map(src(1), u32::wrapping_add),
            ISub => src(0).zip_map(src(1), u32::wrapping_sub),
            IMul => src(0).zip_map(src(1), u32::wrapping_mul),
            IMad => src(0)
                .zip_map(src(1), u32::wrapping_mul)
                .zip_map(src(2), u32::wrapping_add),
            And => src(0).zip_map(src(1), |a, b| a & b),
            Or => src(0).zip_map(src(1), |a, b| a | b),
            Xor => src(0).zip_map(src(1), |a, b| a ^ b),
            Shl => src(0).zip_map(src(1), |a, b| a.wrapping_shl(b & 31)),
            Shr => src(0).zip_map(src(1), |a, b| a.wrapping_shr(b & 31)),
            // Floating-point ops are modelled as integer mixes: the timing
            // and operand traffic are what the evaluation measures, not IEEE
            // semantics. The mixes keep values deterministic and data-
            // dependent so compressibility is realistic.
            FAdd => src(0).zip_map(src(1), |a, b| a.wrapping_add(b).rotate_left(1)),
            FMul => src(0).zip_map(src(1), |a, b| a.wrapping_mul(b | 1).rotate_left(3)),
            FFma => src(0)
                .zip_map(src(1), |a, b| a.wrapping_mul(b | 1))
                .zip_map(src(2), |a, b| a.wrapping_add(b).rotate_left(1)),
            Sfu => src(0).map(|a| (a ^ 0x9e37_79b9).wrapping_mul(0x85eb_ca6b).rotate_left(13)),
            MovImm(imm) => LaneVec::splat(imm),
            Mov => *src(0),
            ReadSpecial(Special::ThreadIdx) => LaneVec::stride((warp_index * WARP_WIDTH) as u32, 1),
            ReadSpecial(Special::WarpIdx) => LaneVec::splat(warp_index as u32),
            ReadSpecial(Special::LaneIdx) => LaneVec::stride(0, 1),
            SetLt => src(0).zip_map(src(1), |a, b| u32::from(a < b)),
            SetEq => src(0).zip_map(src(1), |a, b| u32::from(a == b)),
            LdGlobal | StGlobal | LdShared | StShared | Bra { .. } | Jmp { .. } | Exit | Bar => {
                return None
            }
        };
        Some(v)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(d) = self.dst {
            write!(f, "{d} = {}", self.op)?;
        } else {
            write!(f, "{}", self.op)?;
        }
        for (i, s) in self.srcs.iter().enumerate() {
            if i == 0 {
                write!(f, " {s}")?;
            } else {
                write!(f, ", {s}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(d: u16, a: u16, b: u16) -> Instruction {
        Instruction::new(Opcode::IAdd, Some(Reg(d)), vec![Reg(a), Reg(b)])
    }

    #[test]
    fn evaluate_iadd() {
        let insn = add(2, 0, 1);
        let out = insn
            .evaluate(&[LaneVec::splat(3), LaneVec::stride(0, 1)], 0)
            .unwrap();
        assert_eq!(out.lane(0), 3);
        assert_eq!(out.lane(10), 13);
    }

    #[test]
    fn evaluate_thread_idx_depends_on_warp() {
        let insn = Instruction::new(
            Opcode::ReadSpecial(Special::ThreadIdx),
            Some(Reg(0)),
            vec![],
        );
        let w0 = insn.evaluate(&[], 0).unwrap();
        let w2 = insn.evaluate(&[], 2).unwrap();
        assert_eq!(w0.lane(0), 0);
        assert_eq!(w2.lane(0), 64);
        assert_eq!(w2.lane(31), 95);
    }

    #[test]
    fn memory_ops_have_no_alu_result() {
        let ld = Instruction::new(Opcode::LdGlobal, Some(Reg(1)), vec![Reg(0)]);
        assert!(ld.evaluate(&[LaneVec::zero()], 0).is_none());
        assert!(ld.is_global_load());
    }

    #[test]
    fn setlt_produces_condition_bits() {
        let insn = Instruction::new(Opcode::SetLt, Some(Reg(2)), vec![Reg(0), Reg(1)]);
        let out = insn
            .evaluate(&[LaneVec::stride(0, 1), LaneVec::splat(4)], 0)
            .unwrap();
        assert_eq!(out.nonzero_bits(), 0b1111);
    }

    /// One instruction of every opcode, over registers 0..=3 (sources)
    /// and 4 (destination).
    fn one_of_each_opcode() -> Vec<Instruction> {
        use crate::block::BlockId;
        let (d, r) = (Some(Reg(4)), |i: u16| Reg(i));
        let two = || vec![r(0), r(1)];
        let three = || vec![r(0), r(1), r(2)];
        vec![
            Instruction::new(Opcode::IAdd, d, two()),
            Instruction::new(Opcode::ISub, d, two()),
            Instruction::new(Opcode::IMul, d, two()),
            Instruction::new(Opcode::IMad, d, three()),
            Instruction::new(Opcode::And, d, two()),
            Instruction::new(Opcode::Or, d, two()),
            Instruction::new(Opcode::Xor, d, two()),
            Instruction::new(Opcode::Shl, d, two()),
            Instruction::new(Opcode::Shr, d, two()),
            Instruction::new(Opcode::FAdd, d, two()),
            Instruction::new(Opcode::FMul, d, two()),
            Instruction::new(Opcode::FFma, d, three()),
            Instruction::new(Opcode::Sfu, d, vec![r(3)]),
            Instruction::new(Opcode::MovImm(0xdead_beef), d, vec![]),
            Instruction::new(Opcode::Mov, d, vec![r(2)]),
            Instruction::new(Opcode::ReadSpecial(Special::ThreadIdx), d, vec![]),
            Instruction::new(Opcode::ReadSpecial(Special::WarpIdx), d, vec![]),
            Instruction::new(Opcode::ReadSpecial(Special::LaneIdx), d, vec![]),
            Instruction::new(Opcode::SetLt, d, vec![r(1), r(0)]),
            Instruction::new(Opcode::SetEq, d, vec![r(3), r(3)]),
            Instruction::new(Opcode::LdGlobal, d, vec![r(0)]),
            Instruction::new(Opcode::LdShared, d, vec![r(1)]),
            Instruction::new(Opcode::StGlobal, None, two()),
            Instruction::new(Opcode::StShared, None, two()),
            Instruction::new(
                Opcode::Bra {
                    taken: BlockId(1),
                    not_taken: BlockId(2),
                },
                None,
                vec![r(2)],
            ),
            Instruction::new(Opcode::Jmp { target: BlockId(1) }, None, vec![]),
            Instruction::new(Opcode::Exit, None, vec![]),
            Instruction::new(Opcode::Bar, None, vec![]),
        ]
    }

    #[test]
    fn evaluate_regs_matches_evaluate_for_every_opcode() {
        let regs = [
            LaneVec::stride(0xffff_fff0, 7),
            LaneVec::stride(3, 0x1001),
            LaneVec::splat(0x8000_0001),
            LaneVec::stride(31, u32::MAX),
            LaneVec::splat(99),
        ];
        let insns = one_of_each_opcode();
        for insn in &insns {
            let srcs: Vec<LaneVec> = insn.srcs().iter().map(|s| regs[s.index()]).collect();
            for warp_index in [0, 5] {
                assert_eq!(
                    insn.evaluate_regs(&regs, warp_index),
                    insn.evaluate(&srcs, warp_index),
                    "{insn}"
                );
            }
        }
        // Every opcode is covered: a new one must be added above.
        let kinds: std::collections::HashSet<_> = insns
            .iter()
            .map(|i| std::mem::discriminant(&i.op()))
            .collect();
        assert_eq!(kinds.len(), 26);
    }

    #[test]
    #[should_panic(expected = "source count mismatch")]
    fn wrong_operand_count_panics() {
        Instruction::new(Opcode::IAdd, Some(Reg(0)), vec![Reg(1)]);
    }

    #[test]
    #[should_panic(expected = "destination presence mismatch")]
    fn store_with_destination_panics() {
        Instruction::new(Opcode::StGlobal, Some(Reg(0)), vec![Reg(1), Reg(2)]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(add(3, 1, 2).to_string(), "r3 = iadd r1, r2");
        let st = Instruction::new(Opcode::StGlobal, None, vec![Reg(0), Reg(1)]);
        assert_eq!(st.to_string(), "stglobal r0, r1");
    }
}
