//! Register-lifetime annotations (paper §4.3–4.4, Figure 6).
//!
//! The compiler tells the hardware when register values die so that neither
//! the OSU nor the L1 retains dead data:
//!
//! * **erase** — last use of an *interior* register: its OSU line is freed
//!   immediately.
//! * **evict** — last use *within the region* of an input/output register:
//!   the line becomes *eligible* for eviction (it is not forced out).
//! * **invalidating preload** — a preload that is the last read of the
//!   incoming value (carried on [`crate::Preload::invalidate`]).
//! * **cache invalidate** — at a region start that postdominates all
//!   definitions and death points of a cross-region register, the register's
//!   L1 copy is deleted.

use crate::dom::DomInfo;
use crate::liveness::Liveness;
use crate::region::{Region, RegionId};
use crate::regset::RegSet;
use regless_isa::{BlockId, InsnRef, Kernel, Reg};
use std::collections::HashMap;

/// How a source operand's last use within a region is handled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LastUse {
    /// Interior register: free the OSU line outright.
    Erase,
    /// Input/output register: the line becomes eligible for eviction.
    Evict,
}

/// Annotations attached to one instruction.
#[derive(Clone, Debug, Default)]
pub struct InsnNotes {
    /// Source registers for which this instruction is the last access in
    /// its region, with the action to take after the read.
    pub last_uses: Vec<(Reg, LastUse)>,
    /// The write is the region's last access of the destination and the
    /// destination is an output: mark the line dirty and evictable as soon
    /// as the value is written back (§5.2.2).
    pub evict_on_write: bool,
    /// The write is the region's last access of an interior destination
    /// (a dead store): the line can be freed on writeback.
    pub erase_on_write: bool,
}

impl InsnNotes {
    fn is_default(&self) -> bool {
        self.last_uses.is_empty() && !self.evict_on_write && !self.erase_on_write
    }
}

/// All lifetime annotations for one compiled kernel.
#[derive(Clone, Debug)]
pub struct Annotations {
    /// Per instruction, `notes[block][insn_idx]` (the compiler's region
    /// index layout); unannotated instructions hold the default.
    notes: Vec<Vec<InsnNotes>>,
    /// Per region: registers whose L1 copies are invalidated when the
    /// region starts.
    cache_invalidates: Vec<Vec<Reg>>,
}

impl Annotations {
    /// Notes for one instruction, if any.
    pub fn notes(&self, at: InsnRef) -> Option<&InsnNotes> {
        let note = &self.notes[at.block.index()][at.idx];
        (!note.is_default()).then_some(note)
    }

    /// Registers invalidated in the L1 when `region` begins.
    pub fn cache_invalidates(&self, region: RegionId) -> &[Reg] {
        &self.cache_invalidates[region.index()]
    }

    /// Total number of annotated instructions (used in tests and stats).
    pub fn annotated_insns(&self) -> usize {
        self.notes
            .iter()
            .flatten()
            .filter(|n| !n.is_default())
            .count()
    }
}

/// Compute all annotations for the kernel's regions.
pub fn annotate(
    kernel: &Kernel,
    dom: &DomInfo,
    liveness: &Liveness,
    regions: &[Region],
) -> Annotations {
    let mut notes: Vec<Vec<InsnNotes>> = kernel
        .blocks()
        .iter()
        .map(|b| vec![InsnNotes::default(); b.len()])
        .collect();
    for region in regions {
        annotate_region(kernel, liveness, region, &mut notes);
    }
    let cache_invalidates = place_cache_invalidates(kernel, dom, liveness, regions);
    Annotations {
        notes,
        cache_invalidates,
    }
}

/// Mark last uses within one region by a backward sweep.
///
/// The action at a register's last access is decided by *liveness*, not by
/// the input/interior classification alone: a staged value that is dead on
/// every path (an interior temporary, or an input whose incoming value dies
/// here) is **erased** — keeping it would eventually spill a dead value to
/// the L1. Only values still live past the access become **evictable**.
fn annotate_region(
    kernel: &Kernel,
    liveness: &Liveness,
    region: &Region,
    notes: &mut [Vec<InsnNotes>],
) {
    let insns = kernel.block(region.block()).insns();
    let mut accessed_later = RegSet::new(kernel.num_regs() as usize);
    for idx in (region.start()..region.end()).rev() {
        let insn = &insns[idx];
        let at = InsnRef {
            block: region.block(),
            idx,
        };
        let mut note = InsnNotes::default();
        let safe_dead = |r| {
            !liveness.live_after(at).contains(r)
                && !liveness.live_on_divergent_sibling(region.block(), r)
        };
        if let Some(d) = insn.dst() {
            if !accessed_later.contains(d) {
                if safe_dead(d) {
                    note.erase_on_write = true; // dead store
                } else if region.outputs().contains(d) {
                    note.evict_on_write = true;
                }
            }
            accessed_later.insert(d);
        }
        for &s in insn.srcs() {
            // Reading and rewriting the same register in one instruction
            // keeps the line busy: the write, not the read, is the last
            // access, and it was handled above.
            if !accessed_later.contains(s) && insn.dst() != Some(s) {
                let kind = if safe_dead(s) {
                    LastUse::Erase
                } else {
                    LastUse::Evict
                };
                note.last_uses.push((s, kind));
            }
            accessed_later.insert(s);
        }
        notes[at.block.index()][idx] = note;
    }
}

/// Place cache invalidations for cross-region registers at the nearest
/// block postdominating every definition and death point where the register
/// is no longer live (paper §4.4; the approach of Jeon et al. extended with
/// divergence-aware liveness).
fn place_cache_invalidates(
    kernel: &Kernel,
    dom: &DomInfo,
    liveness: &Liveness,
    regions: &[Region],
) -> Vec<Vec<Reg>> {
    let mut out = vec![Vec::new(); regions.len()];
    // Only registers that may ever reach the L1 need cache invalidation.
    let mut cross = RegSet::new(kernel.num_regs() as usize);
    for r in regions {
        cross.union_with(r.inputs());
        cross.union_with(r.outputs());
    }
    // First region of each block, for attaching the annotation.
    let mut first_region_of_block: HashMap<BlockId, RegionId> = HashMap::new();
    for r in regions {
        first_region_of_block
            .entry(r.block())
            .and_modify(|cur| {
                if r.start() == 0 {
                    *cur = r.id();
                }
            })
            .or_insert(r.id());
    }

    for reg in cross.iter() {
        // A death at a last use is already handled by the erase/evict and
        // invalidating-preload annotations; the cache-invalidate fallback
        // is only needed when control flow kills the value (a death edge:
        // live out of a block but dead into one of its successors).
        let mut anchor_blocks: Vec<BlockId> = Vec::new();
        let mut has_death_edge = false;
        for block in kernel.blocks() {
            // Definition blocks.
            if block.insns().iter().any(|i| i.dst() == Some(reg)) {
                anchor_blocks.push(block.id());
            }
            for succ in block.successors() {
                if liveness.live_out(block.id()).contains(reg)
                    && !liveness.live_in(succ).contains(reg)
                {
                    anchor_blocks.push(succ);
                    has_death_edge = true;
                }
            }
        }
        if !has_death_edge || anchor_blocks.is_empty() {
            continue;
        }
        // Common postdominators of all anchors form a chain; pick the
        // nearest one where the register is dead on entry.
        let mut candidates: Vec<BlockId> = (0..kernel.num_blocks() as u32)
            .map(BlockId)
            .filter(|&p| anchor_blocks.iter().all(|&a| dom.postdominates(p, a)))
            .filter(|&p| !liveness.live_in(p).contains(reg))
            .collect();
        candidates.retain(|&c| !anchor_blocks.contains(&c) || !liveness.live_in(c).contains(reg));
        let nearest = candidates
            .iter()
            .copied()
            .find(|&c| candidates.iter().all(|&o| dom.postdominates(o, c)));
        if let Some(block) = nearest {
            if let Some(&rid) = first_region_of_block.get(&block) {
                out[rid.index()].push(reg);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{create_regions, RegionConfig};
    use regless_isa::KernelBuilder;

    struct Compiled {
        kernel: Kernel,
        regions: Vec<Region>,
        ann: Annotations,
    }

    fn compile(kernel: Kernel) -> Compiled {
        let dom = DomInfo::compute(&kernel);
        let liveness = Liveness::compute(&kernel, &dom);
        let regions = create_regions(&kernel, &liveness, &RegionConfig::default());
        let ann = annotate(&kernel, &dom, &liveness, &regions);
        Compiled {
            kernel,
            regions,
            ann,
        }
    }

    #[test]
    fn interior_last_use_is_erase() {
        let mut b = KernelBuilder::new("erase");
        let x = b.movi(1);
        let y = b.movi(2);
        let z = b.iadd(x, y); // last use of x and y
        b.st_global(z, z); // last use of z
        b.exit();
        let c = compile(b.finish().unwrap());
        assert_eq!(c.regions.len(), 1);
        let add_at = InsnRef {
            block: BlockId(0),
            idx: 2,
        };
        let note = c.ann.notes(add_at).expect("iadd has last uses");
        assert_eq!(note.last_uses.len(), 2);
        assert!(note.last_uses.iter().all(|&(_, k)| k == LastUse::Erase));
    }

    #[test]
    fn input_last_use_is_evict() {
        let mut b = KernelBuilder::new("evict");
        let next = b.new_block();
        let last = b.new_block();
        let x = b.movi(1);
        b.jmp(next);
        b.select(next);
        let y = b.iadd(x, x); // x used here AND later: not last use overall
        b.st_global(y, y);
        b.jmp(last);
        b.select(last);
        let z = b.imul(x, x);
        b.st_global(z, z);
        b.exit();
        let c = compile(b.finish().unwrap());
        // In the middle block, x is an input; its last use there is Evict.
        let mid_region = c.regions.iter().find(|r| r.block() == next).unwrap();
        assert!(mid_region.inputs().contains(x));
        let add_at = InsnRef {
            block: next,
            idx: 0,
        };
        let note = c.ann.notes(add_at).expect("last use of x in region");
        assert!(note.last_uses.contains(&(x, LastUse::Evict)));
        let _ = &c.kernel;
    }

    #[test]
    fn output_written_last_marks_evict_on_write() {
        let mut b = KernelBuilder::new("eow");
        let next = b.new_block();
        let x = b.movi(1);
        let y = b.iadd(x, x); // y is an output (used in next block); write is last access
        b.jmp(next);
        b.select(next);
        b.st_global(y, y);
        b.exit();
        let c = compile(b.finish().unwrap());
        let def_at = InsnRef {
            block: BlockId(0),
            idx: 1,
        };
        let note = c.ann.notes(def_at).expect("output def annotated");
        assert!(note.evict_on_write);
        assert!(!note.erase_on_write);
    }

    #[test]
    fn dead_store_marks_erase_on_write() {
        let mut b = KernelBuilder::new("dead");
        let x = b.movi(1);
        let _unused = b.iadd(x, x);
        b.exit();
        let c = compile(b.finish().unwrap());
        let def_at = InsnRef {
            block: BlockId(0),
            idx: 1,
        };
        let note = c.ann.notes(def_at).expect("dead store annotated");
        assert!(note.erase_on_write);
    }

    #[test]
    fn read_modify_write_not_double_marked() {
        let mut b = KernelBuilder::new("rmw");
        let x = b.movi(1);
        b.emit_to(x, regless_isa::Opcode::IAdd, vec![x, x]); // x = x + x, then dead
        b.exit();
        let c = compile(b.finish().unwrap());
        let at = InsnRef {
            block: BlockId(0),
            idx: 1,
        };
        let note = c.ann.notes(at).expect("rmw annotated");
        // The write is the last access; the read must not erase first.
        assert!(note.erase_on_write);
        assert!(note.last_uses.is_empty());
    }

    /// A register defined before a loop and only used on the taken side
    /// gets a cache invalidation at the loop exit's postdominator.
    #[test]
    fn cache_invalidate_after_control_death() {
        let mut b = KernelBuilder::new("ctl");
        let used = b.new_block();
        let done = b.new_block();
        let x = b.movi(42); // cross-region candidate
        let c = b.thread_idx();
        b.bra(c, used, done);
        b.select(used);
        let y = b.iadd(x, x);
        b.st_global(y, y);
        b.jmp(done);
        b.select(done);
        b.exit();
        let comp = compile(b.finish().unwrap());
        // x dies on the edge bb0 -> done (not-taken path); `done`
        // postdominates the def and the death, and x is dead there.
        let invals: Vec<(RegionId, Reg)> = comp
            .regions
            .iter()
            .flat_map(|r| {
                comp.ann
                    .cache_invalidates(r.id())
                    .iter()
                    .map(move |&reg| (r.id(), reg))
            })
            .collect();
        assert!(
            invals
                .iter()
                .any(|&(rid, reg)| { reg == x && comp.regions[rid.index()].block() == done }),
            "expected invalidation of {x} at {done}, got {invals:?}"
        );
    }

    #[test]
    fn no_invalidates_for_pure_interior_kernel() {
        let mut b = KernelBuilder::new("pure");
        let x = b.movi(1);
        let y = b.iadd(x, x);
        b.st_global(y, y);
        b.exit();
        let c = compile(b.finish().unwrap());
        for r in &c.regions {
            assert!(c.ann.cache_invalidates(r.id()).is_empty());
        }
    }
}

#[cfg(test)]
mod divergence_death_tests {
    use super::*;
    use crate::region::{create_regions, RegionConfig};
    use regless_isa::KernelBuilder;

    /// Regression: a value whose last (static) use is on one side of a
    /// divergent diamond must NOT be erased or invalidating-read there —
    /// the sibling path's lanes execute afterwards and still need it.
    /// (Caught by the staged-operand oracle on `kernels/divergent_abs.asm`.)
    #[test]
    fn sibling_path_uses_block_erase_and_invalidation() {
        let mut b = KernelBuilder::new("abs");
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let x = b.thread_idx();
        let y = b.ld_global(x);
        let c = b.setlt(x, y);
        let r = b.fresh();
        b.bra(c, t, e);
        b.select(t);
        b.emit_to(r, regless_isa::Opcode::ISub, vec![y, x]); // reads x,y on taken side
        b.jmp(j);
        b.select(e);
        b.emit_to(r, regless_isa::Opcode::ISub, vec![x, y]); // and on the other side
        b.jmp(j);
        b.select(j);
        b.st_global(r, x);
        b.exit();
        let kernel = b.finish().unwrap();
        let dom = DomInfo::compute(&kernel);
        let liveness = Liveness::compute(&kernel, &dom);
        // x and y are live into each diamond side's sibling.
        assert!(liveness.live_on_divergent_sibling(t, x));
        assert!(liveness.live_on_divergent_sibling(t, y));
        assert!(liveness.live_on_divergent_sibling(e, y));
        // No reads in the diamond sides may be Erase, and no preloads there
        // may be invalidating.
        let regions = create_regions(&kernel, &liveness, &RegionConfig::default());
        let ann = annotate(&kernel, &dom, &liveness, &regions);
        for region in regions.iter().filter(|r| r.block() == t || r.block() == e) {
            for p in region.preloads() {
                assert!(
                    !p.invalidate,
                    "{:?} must not invalidate {} under divergence",
                    region.id(),
                    p.reg
                );
            }
            for idx in region.start()..region.end() {
                if let Some(notes) = ann.notes(InsnRef {
                    block: region.block(),
                    idx,
                }) {
                    for &(reg, kind) in &notes.last_uses {
                        assert_eq!(kind, LastUse::Evict, "{reg} erased on a divergent side");
                    }
                }
            }
        }
        // At the join, the divergence has reconverged: deaths are safe again.
        assert!(!liveness.live_on_divergent_sibling(j, x));
    }
}
