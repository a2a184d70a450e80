//! Hand-written microbenchmarks.
//!
//! Unlike the profile-generated Rodinia stand-ins, these kernels are built
//! instruction by instruction to isolate one architectural behaviour each:
//! streaming bandwidth, dependent-load latency (pointer chasing), shared-
//! memory tiling with barriers, reduction trees, and maximal divergence.
//! They are used by the extension studies and as sharp-edged test inputs.

use regless_isa::{Kernel, KernelBuilder, Opcode, Reg};

/// Pure streaming: load, add, store, repeat — one long-latency access per
/// three instructions, fully coalesced.
pub fn streaming(trips: u32) -> Kernel {
    let mut b = KernelBuilder::new("micro_streaming");
    let body = b.new_block();
    let done = b.new_block();
    let tid = b.thread_idx();
    let four = b.movi(4);
    let mut_addr = b.imul(tid, four);
    let stride = b.movi(0x1000);
    let i = b.movi(0);
    let n = b.movi(trips);
    let acc = b.movi(0);
    b.jmp(body);
    b.select(body);
    let v = b.ld_global(mut_addr);
    b.emit_to(acc, Opcode::IAdd, vec![acc, v]);
    b.st_global(acc, mut_addr);
    b.emit_to(mut_addr, Opcode::IAdd, vec![mut_addr, stride]);
    let one = b.movi(1);
    b.emit_to(i, Opcode::IAdd, vec![i, one]);
    let c = b.setlt(i, n);
    b.bra(c, body, done);
    b.select(done);
    b.exit();
    b.finish().expect("valid kernel")
}

/// Pointer chasing: each load's address depends on the previous load's
/// value — zero memory-level parallelism, the worst case for latency
/// hiding and the best case for RegLess's load/use region splitting.
pub fn pointer_chase(trips: u32) -> Kernel {
    let mut b = KernelBuilder::new("micro_pointer_chase");
    let body = b.new_block();
    let done = b.new_block();
    let tid = b.thread_idx();
    let mask = b.movi(0x3f_ffff);
    let ptr = b.and(tid, mask);
    let i = b.movi(0);
    let n = b.movi(trips);
    b.jmp(body);
    b.select(body);
    let next = b.ld_global(ptr);
    let bounded = b.and(next, mask);
    b.emit_to(ptr, Opcode::Mov, vec![bounded]);
    let one = b.movi(1);
    b.emit_to(i, Opcode::IAdd, vec![i, one]);
    let c = b.setlt(i, n);
    b.bra(c, body, done);
    b.select(done);
    b.st_global(ptr, ptr);
    b.exit();
    b.finish().expect("valid kernel")
}

/// Shared-memory tile: load a tile, barrier, compute over it, barrier,
/// store — the bulk-synchronous pattern of pathfinder/nw/lud.
pub fn shared_tile(trips: u32) -> Kernel {
    let mut b = KernelBuilder::new("micro_shared_tile");
    let body = b.new_block();
    let done = b.new_block();
    let tid = b.thread_idx();
    let four = b.movi(4);
    let addr = b.imul(tid, four);
    let i = b.movi(0);
    let n = b.movi(trips);
    let acc = b.movi(0);
    b.jmp(body);
    b.select(body);
    let v = b.ld_global(addr);
    b.st_shared(v, tid);
    b.bar();
    let left = b.ld_shared(tid);
    let right = b.ld_shared(acc);
    let s = b.iadd(left, right);
    b.emit_to(acc, Opcode::IAdd, vec![acc, s]);
    b.bar();
    b.st_global(acc, addr);
    let one = b.movi(1);
    b.emit_to(i, Opcode::IAdd, vec![i, one]);
    let c = b.setlt(i, n);
    b.bra(c, body, done);
    b.select(done);
    b.exit();
    b.finish().expect("valid kernel")
}

/// A register-resident reduction tree: log-depth pairwise sums over 16
/// values — maximal short-lived interior registers, zero memory traffic in
/// the inner expression.
pub fn reduction_tree() -> Kernel {
    let mut b = KernelBuilder::new("micro_reduction_tree");
    let tid = b.thread_idx();
    let mut level: Vec<Reg> = (0..16)
        .map(|k| {
            let c = b.movi(0x10 + k);
            b.iadd(tid, c)
        })
        .collect();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| b.iadd(pair[0], pair[1]))
            .collect();
    }
    b.st_global(level[0], tid);
    b.exit();
    b.finish().expect("valid kernel")
}

/// Per-lane divergence: a data-dependent diamond nested inside a loop, with
/// effectively random masks — the stress case for soft definitions and the
/// SIMT stack.
pub fn divergence_storm(trips: u32) -> Kernel {
    let mut b = KernelBuilder::new("micro_divergence_storm");
    let head = b.new_block();
    let t_bb = b.new_block();
    let e_bb = b.new_block();
    let tail = b.new_block();
    let done = b.new_block();
    let tid = b.thread_idx();
    let mask = b.movi(0x3f_ffff);
    let i = b.movi(0);
    let n = b.movi(trips);
    let acc = b.movi(0);
    b.jmp(head);
    b.select(head);
    let seed = b.iadd(tid, i);
    let h = b.sfu(seed);
    let addr = b.and(h, mask);
    let v = b.ld_global(addr);
    let one = b.movi(1);
    let bit = b.and(v, one);
    b.bra(bit, t_bb, e_bb);
    b.select(t_bb);
    let x = b.iadd(v, tid);
    b.emit_to(acc, Opcode::IAdd, vec![acc, x]);
    b.jmp(tail);
    b.select(e_bb);
    let y = b.xor(v, tid);
    b.emit_to(acc, Opcode::IAdd, vec![acc, y]);
    b.jmp(tail);
    b.select(tail);
    b.emit_to(i, Opcode::IAdd, vec![i, one]);
    let c = b.setlt(i, n);
    b.bra(c, head, done);
    b.select(done);
    b.st_global(acc, addr);
    b.exit();
    b.finish().expect("valid kernel")
}

/// Nested divergence: a diamond inside each arm of a diamond, two levels
/// of SIMT-stack pressure with values crossing every reconvergence point.
pub fn nested_divergence() -> Kernel {
    let mut b = KernelBuilder::new("micro_nested_divergence");
    let outer_t = b.new_block();
    let outer_e = b.new_block();
    let inner_t = b.new_block();
    let inner_e = b.new_block();
    let inner_j = b.new_block();
    let outer_j = b.new_block();
    let lane = b.lane_idx();
    let acc = b.movi(0);
    let half = b.movi(16);
    let c0 = b.setlt(lane, half);
    b.bra(c0, outer_t, outer_e);
    // Outer taken arm contains its own diamond.
    b.select(outer_t);
    let quarter = b.movi(8);
    let c1 = b.setlt(lane, quarter);
    b.bra(c1, inner_t, inner_e);
    b.select(inner_t);
    let x = b.iadd(lane, half);
    b.emit_to(acc, Opcode::IAdd, vec![acc, x]);
    b.jmp(inner_j);
    b.select(inner_e);
    let y = b.imul(lane, quarter);
    b.emit_to(acc, Opcode::IAdd, vec![acc, y]);
    b.jmp(inner_j);
    b.select(inner_j);
    let z = b.iadd(acc, lane);
    b.emit_to(acc, Opcode::Mov, vec![z]);
    b.jmp(outer_j);
    // Outer not-taken arm.
    b.select(outer_e);
    let w = b.xor(lane, half);
    b.emit_to(acc, Opcode::IAdd, vec![acc, w]);
    b.jmp(outer_j);
    b.select(outer_j);
    b.st_global(acc, lane);
    b.exit();
    b.finish().expect("valid kernel")
}

/// Kernel names of [`all`], in order.
pub const NAMES: [&str; 6] = [
    "micro_streaming",
    "micro_pointer_chase",
    "micro_shared_tile",
    "micro_reduction_tree",
    "micro_divergence_storm",
    "micro_nested_divergence",
];

/// One microbenchmark at its default size, by kernel name (one of
/// [`NAMES`]); `None` for an unknown name. Builds only that kernel.
pub fn kernel(name: &str) -> Option<Kernel> {
    Some(match name {
        "micro_streaming" => streaming(24),
        "micro_pointer_chase" => pointer_chase(16),
        "micro_shared_tile" => shared_tile(16),
        "micro_reduction_tree" => reduction_tree(),
        "micro_divergence_storm" => divergence_storm(16),
        "micro_nested_divergence" => nested_divergence(),
        _ => return None,
    })
}

/// All microbenchmarks at default sizes, in [`NAMES`] order.
pub fn all() -> Vec<Kernel> {
    NAMES
        .iter()
        .map(|n| kernel(n).expect("NAMES lists known kernels"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_compiler::{compile, RegionConfig};

    #[test]
    fn names_match_the_built_kernels() {
        let kernels = all();
        let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
        assert_eq!(names, NAMES);
        assert!(kernel("micro_nope").is_none());
    }

    #[test]
    fn all_micro_kernels_compile() {
        for k in all() {
            let c = compile(&k, &RegionConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            assert!(!c.regions().is_empty());
        }
    }

    #[test]
    fn pointer_chase_splits_every_load_from_its_use() {
        let k = pointer_chase(8);
        let c = compile(&k, &RegionConfig::default()).unwrap();
        // The dependent chain forces the load and its use apart.
        for r in c.regions() {
            let insns = &k.block(r.block()).insns()[r.start()..r.end()];
            for (i, insn) in insns.iter().enumerate() {
                if insn.is_global_load() {
                    let d = insn.dst().unwrap();
                    assert!(!insns[i + 1..].iter().any(|u| u.srcs().contains(&d)));
                }
            }
        }
    }

    #[test]
    fn reduction_tree_is_single_region_of_interiors() {
        let k = reduction_tree();
        let c = compile(
            &k,
            &RegionConfig {
                max_regs_per_region: 64,
                ..RegionConfig::default()
            },
        )
        .unwrap();
        assert_eq!(c.regions().len(), 1);
        let r = &c.regions()[0];
        assert!(r.inputs().is_empty(), "everything is produced in-region");
        assert!(r.interior().len() >= 30, "tree temporaries are interior");
    }

    #[test]
    fn divergence_storm_has_soft_definitions() {
        let k = divergence_storm(4);
        let c = compile(&k, &RegionConfig::default()).unwrap();
        assert!(
            c.liveness().soft_defs().count() > 0,
            "divergent accumulator writes must be soft"
        );
    }

    #[test]
    fn shared_tile_barriers_end_regions() {
        let k = shared_tile(4);
        let c = compile(&k, &RegionConfig::default()).unwrap();
        for r in c.regions() {
            let insns = &k.block(r.block()).insns()[r.start()..r.end()];
            for (i, insn) in insns.iter().enumerate() {
                if matches!(insn.op(), regless_isa::Opcode::Bar) {
                    assert_eq!(i, insns.len() - 1);
                }
            }
        }
    }
}
