//! Micro-benches of the RegLess hardware components — the compressor's
//! pattern matchers and the OSU's allocation path — measured with the
//! in-tree timing harness (the build environment cannot fetch criterion).

use regless_bench::timing::bench;
use regless_core::{Compressed, Compressor, Osu};
use regless_isa::{LaneVec, Reg};
use std::hint::black_box;

fn main() {
    let stride = LaneVec::stride(100, 1);
    let mut random = LaneVec::zero();
    for i in 0..32 {
        random.set_lane(i, (i as u32).wrapping_mul(0x9e37_79b9));
    }
    bench("compressor/match_stride", || {
        Compressed::try_compress(black_box(&stride))
    });
    bench("compressor/match_incompressible", || {
        Compressed::try_compress(black_box(&random))
    });
    {
        let mut comp = Compressor::new(12, 64, true);
        bench("compressor/store_load_roundtrip", || {
            comp.store(3, Reg(7), black_box(&stride));
            comp.load(3, Reg(7))
        });
    }
    {
        let mut osu = Osu::new(16, 64);
        let v = LaneVec::splat(1);
        bench("osu/write_erase_cycle", || {
            for w in 0..8usize {
                osu.write(w, Reg(5), black_box(v));
                osu.erase(w, Reg(5));
            }
        });
    }
    {
        let mut osu = Osu::new(4, 64);
        let v = LaneVec::splat(2);
        bench("osu/churn_with_eviction", || {
            for w in 0..16usize {
                osu.write(w, Reg((w % 8) as u16), black_box(v));
                osu.release(w, Reg((w % 8) as u16));
            }
        });
    }
}
