//! The simulator's structured-event vocabulary and its bridge onto the
//! `regless-telemetry` recording subsystem.
//!
//! The pipeline and the operand backends describe what happened with the
//! typed [`TraceEvent`] enum; [`emit`] translates each occurrence into the
//! generic track/span/instant model of [`regless_telemetry`]. Warp tracks
//! carry the region lifecycle as three back-to-back spans —
//! `preload` (admission → activation), `active` (activation → drain
//! start), and `drain` (drain start → release) — with issues, writebacks,
//! and staged preloads as instants; shared structures (OSU, compressor,
//! scheduler) get their own tracks. Recording is off unless a recorder is
//! attached (see [`crate::Machine::attach_telemetry`]) and costs nothing
//! when disabled.

use crate::config::Cycle;
use crate::stats::PreloadSource;
use regless_isa::{InsnRef, Reg};
use regless_telemetry::{Event, EvictionReason, Structure, Track};

/// One traced event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A real instruction issued.
    Issue {
        /// Issuing warp (SM-local).
        warp: usize,
        /// Static location of the instruction.
        pc: InsnRef,
    },
    /// A destination register's value landed.
    Writeback {
        /// Owning warp.
        warp: usize,
        /// The written register.
        reg: Reg,
    },
    /// A thread block's barrier released.
    BarrierRelease {
        /// Index of the thread block (warps / warps_per_block).
        block: usize,
    },
    /// A warp exited the kernel.
    WarpFinish {
        /// The finished warp.
        warp: usize,
    },
    /// RegLess: a warp was admitted and began preloading a region.
    RegionPreload {
        /// The warp.
        warp: usize,
        /// Region index being staged.
        region: u32,
    },
    /// RegLess: a warp's region became active (all operands staged).
    RegionActivate {
        /// The warp.
        warp: usize,
        /// The active region.
        region: u32,
    },
    /// RegLess: a warp's region began draining (last instruction issued,
    /// the warp left the region, or the warp finished).
    RegionDrain {
        /// The warp.
        warp: usize,
    },
    /// RegLess: a warp finished draining and released its allocation.
    RegionRelease {
        /// The warp.
        warp: usize,
    },
    /// RegLess: one preload was satisfied.
    Preload {
        /// The warp.
        warp: usize,
        /// The staged register.
        reg: Reg,
        /// Where the value came from.
        source: PreloadSource,
    },
    /// RegLess: an OSU line left active residency — drained, reclaimed
    /// dead, dropped clean, or spilled dirty (the closed
    /// [`EvictionReason`] taxonomy).
    OsuEvict {
        /// Owning warp of the evicted line.
        warp: usize,
        /// The evicted register.
        reg: Reg,
        /// Which of the four causes evicted it.
        reason: EvictionReason,
    },
    /// RegLess: the compressor handled a displaced line.
    CompressorStore {
        /// Owning warp of the line.
        warp: usize,
        /// The register.
        reg: Reg,
        /// Whether a pattern matched (false = spilled uncompressed).
        compressed: bool,
    },
}

impl PreloadSource {
    /// Short label for telemetry args.
    pub fn label(self) -> &'static str {
        match self {
            PreloadSource::Osu => "osu",
            PreloadSource::Compressor => "compressor",
            PreloadSource::L1 => "l1",
            PreloadSource::L2OrDram => "l2-dram",
        }
    }
}

/// Translate one [`TraceEvent`] into telemetry events.
///
/// Region lifecycle transitions close the previous span and open the next
/// on the warp's track, so an exported Chrome trace shows the
/// preload/active/drain phases as contiguous slices.
pub(crate) fn emit(rec: &mut regless_telemetry::MemoryRecorder, cycle: Cycle, ev: &TraceEvent) {
    match *ev {
        TraceEvent::Issue { warp, pc } => {
            rec.record(Event::instant(cycle, Track::warp(warp), "issue").arg("pc", pc.to_string()));
        }
        TraceEvent::Writeback { warp, reg } => {
            rec.record(
                Event::instant(cycle, Track::warp(warp), "writeback").arg("reg", reg.to_string()),
            );
        }
        TraceEvent::BarrierRelease { block } => {
            rec.record(
                Event::instant(
                    cycle,
                    Track::structure(Structure::Scheduler),
                    "barrier_release",
                )
                .arg("block", block),
            );
        }
        TraceEvent::WarpFinish { warp } => {
            rec.record(Event::instant(cycle, Track::warp(warp), "finish"));
        }
        TraceEvent::RegionPreload { warp, region } => {
            rec.record(Event::begin(cycle, Track::warp(warp), "preload").arg("region", region));
        }
        TraceEvent::RegionActivate { warp, region } => {
            rec.record(Event::end(cycle, Track::warp(warp), "preload"));
            rec.record(Event::begin(cycle, Track::warp(warp), "active").arg("region", region));
        }
        TraceEvent::RegionDrain { warp } => {
            rec.record(Event::end(cycle, Track::warp(warp), "active"));
            rec.record(Event::begin(cycle, Track::warp(warp), "drain"));
        }
        TraceEvent::RegionRelease { warp } => {
            rec.record(Event::end(cycle, Track::warp(warp), "drain"));
        }
        TraceEvent::Preload { warp, reg, source } => {
            rec.record(
                Event::instant(cycle, Track::warp(warp), "stage")
                    .arg("reg", reg.to_string())
                    .arg("source", source.label()),
            );
        }
        TraceEvent::OsuEvict { warp, reg, reason } => {
            rec.record(
                Event::instant(cycle, Track::structure(Structure::Osu), "evict")
                    .arg("warp", warp)
                    .arg("reg", reg.to_string())
                    .arg("reason", reason.name()),
            );
        }
        TraceEvent::CompressorStore {
            warp,
            reg,
            compressed,
        } => {
            rec.record(
                Event::instant(cycle, Track::structure(Structure::Compressor), "store")
                    .arg("warp", warp)
                    .arg("reg", reg.to_string())
                    .arg("compressed", compressed),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_telemetry::{Lane, MemoryRecorder, Phase};

    #[test]
    fn lifecycle_maps_to_contiguous_spans() {
        let mut rec = MemoryRecorder::new(64);
        emit(
            &mut rec,
            5,
            &TraceEvent::RegionPreload { warp: 1, region: 0 },
        );
        emit(
            &mut rec,
            8,
            &TraceEvent::RegionActivate { warp: 1, region: 0 },
        );
        emit(&mut rec, 20, &TraceEvent::RegionDrain { warp: 1 });
        emit(&mut rec, 23, &TraceEvent::RegionRelease { warp: 1 });
        let events = rec.events();
        assert_eq!(events.len(), 6);
        // Begin/end counts balance on the warp track.
        let begins = events.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends = events.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins, 3);
        assert_eq!(ends, 3);
        assert!(events
            .iter()
            .all(|e| e.track.lane == Lane::Warp(1) && e.ts >= 5 && e.ts <= 23));
    }

    #[test]
    fn structure_events_land_on_structure_tracks() {
        let mut rec = MemoryRecorder::new(64);
        emit(
            &mut rec,
            1,
            &TraceEvent::OsuEvict {
                warp: 0,
                reg: Reg(3),
                reason: EvictionReason::CompressorSpill,
            },
        );
        emit(
            &mut rec,
            2,
            &TraceEvent::CompressorStore {
                warp: 0,
                reg: Reg(3),
                compressed: true,
            },
        );
        emit(&mut rec, 3, &TraceEvent::BarrierRelease { block: 0 });
        let lanes: Vec<Lane> = rec.events().iter().map(|e| e.track.lane).collect();
        assert_eq!(
            lanes,
            vec![
                Lane::Structure(Structure::Osu),
                Lane::Structure(Structure::Compressor),
                Lane::Structure(Structure::Scheduler),
            ]
        );
    }

    #[test]
    fn preload_sources_have_stable_labels() {
        assert_eq!(PreloadSource::Osu.label(), "osu");
        assert_eq!(PreloadSource::L2OrDram.label(), "l2-dram");
    }
}
