//! Differential fuzzing: random well-formed kernels are run under the full
//! RegLess machine and checked bit-for-bit against the functional
//! interpreter. This hunts for interactions the hand-written tests missed —
//! divergence × draining × compression × capacity pressure.

use proptest::prelude::*;
use regless::bench::{Attach, DesignKind};
use regless::core::RegLessConfig;
use regless::isa::{Kernel, KernelBuilder, Opcode, Reg};
use regless::sim::{interpret, GpuConfig};

fn gpu() -> GpuConfig {
    GpuConfig {
        num_sms: 1,
        warps_per_sm: 8,
        warps_per_block: 4,
        ..GpuConfig::gtx980()
    }
}

/// Build a random but always-terminating kernel: a bounded loop whose body
/// is driven by the op stream, with an optional data-dependent diamond.
fn build_kernel(ops: &[u8], trips: u32, diamond: bool) -> Kernel {
    let mut b = KernelBuilder::new("fuzz");
    let head = b.new_block();
    let done = b.new_block();
    let tid = b.thread_idx();
    let mask = b.movi(0x3f_ffff);
    let i = b.movi(0);
    let n = b.movi(trips);
    let acc = b.movi(0);
    b.jmp(head);
    b.select(head);
    let mut live: Vec<Reg> = vec![acc, tid, i];
    for (k, &op) in ops.iter().enumerate() {
        let a = live[k % live.len()];
        let c = live[(k * 7 + 1) % live.len()];
        let r = match op % 8 {
            0 => b.iadd(a, c),
            1 => b.imul(a, c),
            2 => b.xor(a, c),
            3 => b.sfu(a),
            4 => {
                let addr = b.and(a, mask);
                b.ld_global(addr)
            }
            5 => b.ffma(a, c, a),
            6 => b.setlt(a, c),
            _ => b.movi(k as u32),
        };
        live.push(r);
        if live.len() > 7 {
            live.remove(1);
        }
    }
    if diamond {
        let t_bb = b.new_block();
        let e_bb = b.new_block();
        let j_bb = b.new_block();
        let one = b.movi(1);
        let v = *live.last().expect("nonempty");
        let bit = b.and(v, one);
        b.bra(bit, t_bb, e_bb);
        b.select(t_bb);
        let x = b.iadd(v, tid);
        b.emit_to(acc, Opcode::IAdd, vec![acc, x]);
        b.jmp(j_bb);
        b.select(e_bb);
        let y = b.xor(v, tid);
        b.emit_to(acc, Opcode::IAdd, vec![acc, y]);
        b.jmp(j_bb);
        b.select(j_bb);
    } else {
        let v = *live.last().expect("nonempty");
        b.emit_to(acc, Opcode::IAdd, vec![acc, v]);
    }
    let one = b.movi(1);
    b.emit_to(i, Opcode::IAdd, vec![i, one]);
    let c = b.setlt(i, n);
    b.bra(c, head, done);
    b.select(done);
    let out = b.and(acc, mask);
    b.st_global(acc, out);
    b.exit();
    b.finish().expect("fuzz kernels are valid by construction")
}

proptest! {
    // Each case runs a full machine; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn regless_matches_interpreter_on_random_kernels(
        ops in proptest::collection::vec(any::<u8>(), 3..24),
        trips in 1u32..8,
        diamond: bool,
        capacity in prop_oneof![Just(256usize), Just(512)],
    ) {
        let kernel = build_kernel(&ops, trips, diamond);
        let report = DesignKind::RegLess(RegLessConfig::with_capacity(capacity))
            .execute(&kernel, gpu(), &Attach::default())
            .expect("terminates");
        prop_assert_eq!(
            report.total().staging_mismatches,
            0,
            "OSU served a stale operand"
        );
        for w in 0..gpu().warps_per_sm {
            let reference = interpret(&kernel, w, 5_000_000).expect("interp terminates");
            prop_assert_eq!(report.warp_insns[0][w], reference.insns, "warp {} insns", w);
            for (r, (got, want)) in
                report.final_regs[0][w].iter().zip(&reference.regs).enumerate()
            {
                prop_assert_eq!(got, want, "warp {} r{} diverged", w, r);
            }
        }
    }
}
