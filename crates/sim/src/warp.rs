//! Per-warp architectural and control state, including the SIMT
//! reconvergence stack.

use crate::config::Cycle;
use regless_isa::{BlockId, InsnRef, Kernel, LaneMask, LaneVec, Opcode, Reg};

/// One entry of the SIMT reconvergence stack.
#[derive(Clone, Copy, Debug)]
pub struct StackEntry {
    /// Next instruction for this entry's lanes.
    pub pc: InsnRef,
    /// Lanes executing under this entry.
    pub mask: LaneMask,
    /// Block at which this entry pops and merges into the one below
    /// (the immediate postdominator of the diverging branch).
    pub reconv: Option<BlockId>,
}

/// Why a warp cannot issue right now.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WarpBlock {
    /// Ready to issue.
    Ready,
    /// Finished the kernel.
    Finished,
    /// Waiting at a barrier.
    Barrier,
    /// An operand (or the destination) has a pending write.
    Scoreboard,
}

/// The scoreboard: the set of registers with writes in flight, kept as a
/// flat bitmap sized to the kernel's register count. The per-issue checks
/// (`contains` on every source and the destination) are the hottest reads
/// in the SM loop, so the set lives in one or two words instead of a
/// `HashSet`'s heap nodes. Set semantics are preserved exactly: inserting
/// an already-pending register is a no-op, matching the scoreboard's
/// merge-on-double-write behaviour.
#[derive(Clone, Debug, Default)]
pub struct PendingSet {
    bits: Vec<u64>,
}

impl PendingSet {
    /// An empty scoreboard covering `num_regs` registers.
    pub fn with_regs(num_regs: usize) -> Self {
        PendingSet {
            bits: vec![0; num_regs.div_ceil(64)],
        }
    }

    /// Mark `reg` pending; returns whether it was newly inserted.
    pub fn insert(&mut self, reg: Reg) -> bool {
        let (word, bit) = (reg.index() / 64, reg.index() % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let was = self.bits[word] & (1 << bit) != 0;
        self.bits[word] |= 1 << bit;
        !was
    }

    /// Clear `reg`; returns whether it was present.
    pub fn remove(&mut self, reg: &Reg) -> bool {
        let (word, bit) = (reg.index() / 64, reg.index() % 64);
        match self.bits.get_mut(word) {
            Some(w) => {
                let was = *w & (1 << bit) != 0;
                *w &= !(1 << bit);
                was
            }
            None => false,
        }
    }

    /// Whether `reg` has a write in flight.
    pub fn contains(&self, reg: &Reg) -> bool {
        let (word, bit) = (reg.index() / 64, reg.index() % 64);
        self.bits.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Whether no writes are in flight.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Drop every pending mark.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }
}

/// Architectural + control state of one warp.
#[derive(Clone, Debug)]
pub struct WarpState {
    /// SIMT stack; the top entry is the executing one.
    pub stack: Vec<StackEntry>,
    /// Current register values (functional state).
    pub regs: Vec<LaneVec>,
    /// Registers with writes in flight.
    pub pending: PendingSet,
    /// Waiting at a barrier.
    pub at_barrier: bool,
    /// Dynamic instructions issued by this warp.
    pub insns_issued: u64,
    /// Cycle the warp finished, if it has.
    pub finished_at: Option<Cycle>,
}

impl WarpState {
    /// A warp at the kernel entry with every lane active.
    pub fn new(kernel: &Kernel) -> Self {
        WarpState {
            stack: vec![StackEntry {
                pc: InsnRef {
                    block: kernel.entry(),
                    idx: 0,
                },
                mask: LaneMask::all(),
                reconv: None,
            }],
            regs: vec![LaneVec::zero(); kernel.num_regs() as usize],
            pending: PendingSet::with_regs(kernel.num_regs() as usize),
            at_barrier: false,
            insns_issued: 0,
            finished_at: None,
        }
    }

    /// Whether the warp has exited.
    pub fn finished(&self) -> bool {
        self.stack.is_empty()
    }

    /// The next instruction to issue, if any.
    pub fn pc(&self) -> Option<InsnRef> {
        self.stack.last().map(|e| e.pc)
    }

    /// The active lane mask.
    pub fn mask(&self) -> LaneMask {
        self.stack.last().map_or(LaneMask::none(), |e| e.mask)
    }

    /// Issue readiness, checking the scoreboard against the instruction at
    /// the current PC.
    pub fn block_reason(&self, kernel: &Kernel) -> WarpBlock {
        if self.finished() {
            return WarpBlock::Finished;
        }
        if self.at_barrier {
            return WarpBlock::Barrier;
        }
        let insn = kernel.insn(self.pc().expect("not finished"));
        let hazard = insn.srcs().iter().any(|s| self.pending.contains(s))
            || insn.dst().is_some_and(|d| self.pending.contains(&d));
        if hazard {
            WarpBlock::Scoreboard
        } else {
            WarpBlock::Ready
        }
    }

    /// Advance control state past the instruction at the top-of-stack PC.
    ///
    /// `taken_bits` is the branch condition bitmap (ignored for non-
    /// branches); `ipdom` supplies reconvergence blocks for divergent
    /// branches. Returns the lanes that executed.
    ///
    /// # Panics
    ///
    /// Panics if the warp already finished.
    pub fn advance(
        &mut self,
        kernel: &Kernel,
        taken_bits: u32,
        ipdom: impl Fn(BlockId) -> Option<BlockId>,
    ) -> LaneMask {
        let top = *self.stack.last().expect("warp not finished");
        let insn = kernel.insn(top.pc);
        let executed = top.mask;
        match insn.op() {
            Opcode::Jmp { target } => {
                self.jump_to(target);
            }
            Opcode::Exit => {
                self.stack.pop();
            }
            Opcode::Bra { taken, not_taken } => {
                let (t, nt) = top.mask.split(taken_bits);
                if nt.is_empty() {
                    self.jump_to(taken);
                } else if t.is_empty() {
                    self.jump_to(not_taken);
                } else {
                    let reconv = ipdom(top.pc.block);
                    let e = self.stack.last_mut().expect("top exists");
                    match reconv {
                        Some(r) => {
                            // The current entry waits at the reconvergence
                            // point with the full mask; the two sides run
                            // above it.
                            e.pc = InsnRef { block: r, idx: 0 };
                            self.stack.push(StackEntry {
                                pc: InsnRef {
                                    block: not_taken,
                                    idx: 0,
                                },
                                mask: nt,
                                reconv: Some(r),
                            });
                            self.stack.push(StackEntry {
                                pc: InsnRef {
                                    block: taken,
                                    idx: 0,
                                },
                                mask: t,
                                reconv: Some(r),
                            });
                        }
                        None => {
                            // No common reconvergence (a side exits): the
                            // sides run to completion independently.
                            self.stack.pop();
                            self.stack.push(StackEntry {
                                pc: InsnRef {
                                    block: not_taken,
                                    idx: 0,
                                },
                                mask: nt,
                                reconv: top.reconv,
                            });
                            self.stack.push(StackEntry {
                                pc: InsnRef {
                                    block: taken,
                                    idx: 0,
                                },
                                mask: t,
                                reconv: top.reconv,
                            });
                        }
                    }
                }
            }
            _ => {
                let e = self.stack.last_mut().expect("top exists");
                e.pc.idx += 1;
            }
        }
        self.merge_at_reconvergence();
        executed
    }

    fn jump_to(&mut self, target: BlockId) {
        let e = self.stack.last_mut().expect("top exists");
        e.pc = InsnRef {
            block: target,
            idx: 0,
        };
    }

    /// Pop entries that have arrived at their reconvergence block.
    fn merge_at_reconvergence(&mut self) {
        while let Some(top) = self.stack.last() {
            match top.reconv {
                Some(r) if top.pc.block == r && top.pc.idx == 0 => {
                    self.stack.pop();
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Cycle;
    use regless_compiler::DomInfo;
    use regless_isa::{Kernel, KernelBuilder, Reg};

    fn run_to_completion(kernel: &Kernel) -> (u64, Vec<(InsnRef, LaneMask)>) {
        let dom = DomInfo::compute(kernel);
        let mut w = WarpState::new(kernel);
        let mut trace = Vec::new();
        let mut steps = 0u64;
        while !w.finished() {
            let pc = w.pc().unwrap();
            let insn = kernel.insn(pc);
            // Evaluate branch conditions functionally.
            let taken_bits = if let Opcode::Bra { .. } = insn.op() {
                w.regs[insn.srcs()[0].index()].nonzero_bits()
            } else {
                0
            };
            if let Some(v) = insn.evaluate(
                &insn
                    .srcs()
                    .iter()
                    .map(|s| w.regs[s.index()])
                    .collect::<Vec<_>>(),
                0,
            ) {
                let d = insn.dst().unwrap();
                w.regs[d.index()] = v;
            }
            let mask = w.advance(kernel, taken_bits, |b| dom.immediate_postdominator(b));
            trace.push((pc, mask));
            steps += 1;
            assert!(steps < 10_000, "runaway warp");
        }
        (steps, trace)
    }

    #[test]
    fn straight_line_executes_all() {
        let mut b = KernelBuilder::new("s");
        let x = b.movi(1);
        let _ = b.iadd(x, x);
        b.exit();
        let k = b.finish().unwrap();
        let (steps, trace) = run_to_completion(&k);
        assert_eq!(steps, 3);
        assert!(trace.iter().all(|&(_, m)| m.is_full()));
    }

    #[test]
    fn uniform_branch_takes_one_side() {
        let mut b = KernelBuilder::new("u");
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.movi(1); // uniformly true
        b.bra(c, t, e);
        b.select(t);
        b.jmp(j);
        b.select(e);
        b.jmp(j);
        b.select(j);
        b.exit();
        let k = b.finish().unwrap();
        let (_, trace) = run_to_completion(&k);
        assert!(trace.iter().any(|&(pc, _)| pc.block == t));
        assert!(!trace.iter().any(|&(pc, _)| pc.block == e));
    }

    #[test]
    fn divergent_branch_executes_both_sides_and_reconverges() {
        let mut b = KernelBuilder::new("d");
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let lane = b.lane_idx();
        let eight = b.movi(8);
        let c = b.setlt(lane, eight); // lanes 0..8 take the branch
        b.bra(c, t, e);
        b.select(t);
        b.jmp(j);
        b.select(e);
        b.jmp(j);
        b.select(j);
        let _ = b.iadd(lane, lane);
        b.exit();
        let k = b.finish().unwrap();
        let (_, trace) = run_to_completion(&k);
        let t_mask = trace.iter().find(|&&(pc, _)| pc.block == t).unwrap().1;
        let e_mask = trace.iter().find(|&&(pc, _)| pc.block == e).unwrap().1;
        assert_eq!(t_mask.count(), 8);
        assert_eq!(e_mask.count(), 24);
        assert!(t_mask.intersect(e_mask).is_empty());
        // At the join, the full mask is restored.
        let j_mask = trace.iter().find(|&&(pc, _)| pc.block == j).unwrap().1;
        assert!(j_mask.is_full());
    }

    #[test]
    fn divergent_loop_trip_counts() {
        // Lanes loop `lane_idx % 4 + 1` times.
        let mut b = KernelBuilder::new("dl");
        let body = b.new_block();
        let done = b.new_block();
        let lane = b.lane_idx();
        let three = b.movi(3);
        let trip = b.and(lane, three);
        let i = b.movi(0);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(i, Opcode::IAdd, vec![i, one]);
        let c = b.setlt(i, trip);
        b.bra(c, body, done);
        b.select(done);
        b.exit();
        let k = b.finish().unwrap();
        let (_, trace) = run_to_completion(&k);
        // The loop body executes 4 times (the max trip count + 1 iterations
        // pattern: i=0..trip means trip iterations; max trip = 3).
        let body_execs: Vec<LaneMask> = trace
            .iter()
            .filter(|&&(pc, _)| pc.block == body && pc.idx == 0)
            .map(|&(_, m)| m)
            .collect();
        assert_eq!(body_execs.len(), 3);
        // First iteration: all lanes. Later iterations: progressively fewer.
        assert!(body_execs[0].is_full());
        assert!(body_execs[1].count() < 32);
        assert!(body_execs[1].count() > body_execs[2].count());
        let _c: Cycle = 0;
    }

    #[test]
    fn scoreboard_blocks_dependent_issue() {
        let mut b = KernelBuilder::new("sb");
        let x = b.movi(1);
        let _ = b.iadd(x, x);
        b.exit();
        let k = b.finish().unwrap();
        let mut w = WarpState::new(&k);
        // Issue the movi and leave its write pending.
        w.advance(&k, 0, |_| None);
        w.pending.insert(Reg(0));
        assert_eq!(w.block_reason(&k), WarpBlock::Scoreboard);
        w.pending.clear();
        assert_eq!(w.block_reason(&k), WarpBlock::Ready);
        // A pending destination blocks too (WAW): the SM reads a retiring
        // write's value from the register file, so no later write to the
        // same register may issue before it lands.
        let dst = k.insn(w.pc().unwrap()).dst().unwrap();
        assert_ne!(dst, Reg(0), "the iadd writes a fresh register");
        w.pending.insert(dst);
        assert_eq!(w.block_reason(&k), WarpBlock::Scoreboard);
        w.pending.clear();
        assert_eq!(w.block_reason(&k), WarpBlock::Ready);
    }

    #[test]
    fn barrier_blocks() {
        let mut b = KernelBuilder::new("bar");
        b.bar();
        b.exit();
        let k = b.finish().unwrap();
        let mut w = WarpState::new(&k);
        w.at_barrier = true;
        assert_eq!(w.block_reason(&k), WarpBlock::Barrier);
    }
}
