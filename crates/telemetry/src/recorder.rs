//! The recording core: the buffering [`MemoryRecorder`] and the merged
//! [`Telemetry`] container the exporters consume.

use crate::event::{Event, Lane, Track, Ts};
use crate::hist::Log2Histogram;
use std::collections::BTreeMap;

/// An in-memory sink with a bounded event buffer (events past capacity are
/// counted but dropped, like the old `TraceBuffer`) and unbounded histogram
/// and series tables. Recording is on by being attached: the simulator
/// holds an `Option<Box<MemoryRecorder>>` and every site branches on it.
///
/// ```
/// use regless_telemetry::{Event, MemoryRecorder, Track};
/// let mut r = MemoryRecorder::new(1).with_group(0);
/// r.record(Event::instant(3, Track::warp(0), "issue"));
/// r.record(Event::instant(4, Track::warp(1), "issue")); // dropped: full
/// r.observe("lat", 17);
/// let t = r.into_telemetry();
/// assert_eq!(t.events.len(), 1);
/// assert_eq!(t.dropped, 1);
/// assert_eq!(t.histograms["lat"].count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MemoryRecorder {
    group: u16,
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
    hists: BTreeMap<&'static str, Log2Histogram>,
    series: BTreeMap<&'static str, Vec<(Ts, f64)>>,
}

impl MemoryRecorder {
    /// A recorder buffering up to `capacity` events.
    pub fn new(capacity: usize) -> Self {
        MemoryRecorder {
            group: 0,
            events: Vec::new(),
            capacity,
            dropped: 0,
            hists: BTreeMap::new(),
            series: BTreeMap::new(),
        }
    }

    /// Stamp every recorded event with track group `group` (the SM index).
    #[must_use]
    pub fn with_group(mut self, group: u16) -> Self {
        self.group = group;
        self
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events dropped so far because the buffer was at capacity (also
    /// carried into [`Telemetry::dropped`]).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Record one structured event, stamped with this recorder's group.
    pub fn record(&mut self, mut event: Event) {
        if self.events.len() < self.capacity {
            event.track.group = self.group;
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Record one value into a named log2 histogram.
    pub fn observe(&mut self, hist: &'static str, value: u64) {
        self.hists.entry(hist).or_default().record(value);
    }

    /// Append one point to a named time series.
    pub fn sample(&mut self, series: &'static str, ts: Ts, value: f64) {
        self.series.entry(series).or_default().push((ts, value));
    }

    /// Convert into the merged-container form the exporters consume.
    pub fn into_telemetry(self) -> Telemetry {
        Telemetry {
            events: self.events,
            dropped: self.dropped,
            counters: BTreeMap::new(),
            histograms: self
                .hists
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            series: self
                .series
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// Everything one run recorded, merged across SMs: the raw event stream
/// plus counter/histogram/series tables. Produced by
/// [`MemoryRecorder::into_telemetry`] and consumed by the exporters.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Structured events in recording order (group-stamped per SM).
    pub events: Vec<Event>,
    /// Events dropped past the buffer capacity.
    pub dropped: u64,
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Log2 histograms by name.
    pub histograms: BTreeMap<String, Log2Histogram>,
    /// Time series by name, as `(ts, value)` points.
    pub series: BTreeMap<String, Vec<(Ts, f64)>>,
}

impl Telemetry {
    /// An empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold another SM's telemetry into this one: events concatenate,
    /// counters sum, histograms merge, series concatenate and re-sort.
    pub fn merge(&mut self, other: Telemetry) {
        self.events.extend(other.events);
        self.dropped += other.dropped;
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.histograms {
            self.histograms.entry(k).or_default().merge(&v);
        }
        for (k, v) in other.series {
            let s = self.series.entry(k).or_default();
            s.extend(v);
            s.sort_by_key(|&(ts, _)| ts);
        }
    }

    /// Add to a named counter (used to fold externally kept statistics —
    /// e.g. the simulator's `SmStats` — into the exported view).
    pub fn add_counter(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Render one track's events as a plain-text timeline (the migration
    /// target of the old `TraceBuffer::warp_timeline`).
    pub fn timeline(&self, group: u16, lane: Lane) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            if e.track != (Track { group, lane }) {
                continue;
            }
            let marker = match e.phase {
                crate::Phase::Begin => "+",
                crate::Phase::End => "-",
                crate::Phase::Instant => " ",
            };
            let _ = write!(out, "{:>8}  {marker} {}", e.ts, e.name);
            for (k, v) in &e.args {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Structure;

    #[test]
    fn recorder_stamps_group_and_bounds_events() {
        let mut r = MemoryRecorder::new(2).with_group(7);
        for i in 0..5u64 {
            r.record(Event::instant(i, Track::warp(0), "e"));
        }
        let t = r.into_telemetry();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 3);
        assert!(t.events.iter().all(|e| e.track.group == 7));
    }

    #[test]
    fn zero_capacity_recorder_drops_everything_without_panicking() {
        let mut r = MemoryRecorder::new(0);
        for i in 0..100u64 {
            r.record(Event::instant(i, Track::warp(0), "e"));
        }
        // Non-event channels are unbounded and unaffected by capacity.
        r.observe("h", 2);
        assert_eq!(r.events().len(), 0);
        assert_eq!(r.dropped(), 100);
        let mut t = r.into_telemetry();
        t.add_counter("c", 1);
        assert!(t.events.is_empty());
        assert_eq!(t.dropped, 100);
        assert_eq!(t.counters["c"], 1);
    }

    #[test]
    fn drop_count_is_observable_while_recording() {
        let mut r = MemoryRecorder::new(3);
        for i in 0..3u64 {
            r.record(Event::instant(i, Track::warp(0), "e"));
        }
        assert_eq!(r.dropped(), 0, "within capacity nothing drops");
        r.record(Event::instant(3, Track::warp(0), "e"));
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.events().len(), 3, "capacity bound holds");
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = MemoryRecorder::new(8).with_group(0);
        a.observe("lat", 4);
        let mut b = MemoryRecorder::new(8).with_group(1);
        b.observe("lat", 400);
        b.sample("occ", 100, 3.0);
        let mut t = a.into_telemetry();
        t.add_counter("insns", 10);
        let mut tb = b.into_telemetry();
        tb.add_counter("insns", 5);
        t.merge(tb);
        assert_eq!(t.counters["insns"], 15);
        assert_eq!(t.histograms["lat"].count(), 2);
        assert_eq!(t.series["occ"].len(), 1);
    }

    #[test]
    fn timeline_filters_by_track() {
        let mut r = MemoryRecorder::new(16);
        r.record(Event::begin(5, Track::warp(1), "preload").arg("region", 0u32));
        r.record(Event::end(6, Track::warp(1), "preload"));
        r.record(Event::instant(6, Track::warp(2), "issue"));
        r.record(Event::instant(7, Track::structure(Structure::Osu), "evict"));
        let t = r.into_telemetry();
        let tl = t.timeline(0, Lane::Warp(1));
        assert!(tl.contains("+ preload region=0"));
        assert!(tl.contains("- preload"));
        assert_eq!(tl.lines().count(), 2, "other tracks excluded");
    }
}
