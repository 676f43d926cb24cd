//! Cycle-attribution performance counters and trace export.
//!
//! The paper's entire evaluation is clock cycles (Tables 1–2, Figs. 9–11),
//! but a bare total says nothing about *where* those cycles go. This module
//! is the observability layer for every timing model in the workspace: a
//! zero-overhead-when-disabled [`TraceSink`] collects [`Span`]s (what each
//! hardware unit did, and when), and [`attribute_timeline`] folds them into
//! a [`PerfCounters`] breakdown in the style of the RISC-V `mcycle` /
//! `mhpmcounter` CSRs.
//!
//! The attribution is an *accounting*, not an estimate: every cycle of a
//! job's wall-clock timeline `0..total` is assigned to exactly one
//! [`Stage`] (the highest-priority unit active that cycle, [`Stage::Idle`]
//! when nothing is), so the per-stage cycles always sum exactly to the
//! job's total cycles. Overlapping work (e.g. a DMA read shadowed by an
//! Aligner's compute phase) is resolved by the stage priority order — the
//! breakdown answers "what was the device's critical occupation this
//! cycle", which is the quantity hot-path optimisation needs.
//!
//! Spans are also exported as Chrome `trace_event` JSON (one track per
//! hardware module, one complete event per pipeline phase) for
//! `chrome://tracing` / Perfetto, with one simulated cycle mapped to one
//! microsecond of trace timebase.

use crate::clock::Cycle;

/// A hardware stage a simulated cycle can be attributed to.
///
/// The discriminant is the attribution priority: when several stages are
/// active in the same cycle, the one with the *lowest* discriminant wins.
/// Datapath work (compute/extend) outranks control, control outranks data
/// movement, and data movement outranks waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Aligner frame-column computation (Eq. 3 batches).
    Compute = 0,
    /// Aligner extend phase (base comparison).
    Extend = 1,
    /// Per-score loop overhead (the Aligner's control FSM).
    ScoreLoop = 2,
    /// Extractor record decode (2-bit packing, validation).
    Extract = 3,
    /// Device FSM control work (job refusal/abort handling).
    Ctrl = 4,
    /// Result drain to memory (NBT records / backtrace stream).
    DmaOut = 5,
    /// Input records moving over the bus into the device.
    DmaIn = 6,
    /// Waiting for the shared AXI-Full port grant (queueing).
    BusWait = 7,
    /// Input FIFO stuck/stalled (show-ahead output not valid).
    FifoStall = 8,
    /// No unit active.
    Idle = 9,
}

impl Stage {
    /// Number of stages (array sizing).
    pub const COUNT: usize = 10;

    /// All stages, in priority order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Compute,
        Stage::Extend,
        Stage::ScoreLoop,
        Stage::Extract,
        Stage::Ctrl,
        Stage::DmaOut,
        Stage::DmaIn,
        Stage::BusWait,
        Stage::FifoStall,
        Stage::Idle,
    ];

    /// Short lowercase name (used in reports and trace events).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Compute => "compute",
            Stage::Extend => "extend",
            Stage::ScoreLoop => "score-loop",
            Stage::Extract => "extract",
            Stage::Ctrl => "ctrl",
            Stage::DmaOut => "dma-out",
            Stage::DmaIn => "dma-in",
            Stage::BusWait => "bus-wait",
            Stage::FifoStall => "fifo-stall",
            Stage::Idle => "idle",
        }
    }
}

/// Trace track identifiers: one per hardware module.
pub mod track {
    /// The shared AXI-Full memory port.
    pub const BUS: u16 = 0;
    /// The input FIFO.
    pub const FIFO: u16 = 1;
    /// Device FSM + Extractor.
    pub const DEVICE: u16 = 2;
    /// First Aligner; Aligner `w` is `ALIGNER0 + w`.
    pub const ALIGNER0: u16 = 3;
    /// Track-ID stride between SoC lanes: lane `l`'s module tracks are
    /// `l * LANE_STRIDE + base`. Lane 0 keeps the bare module IDs, so
    /// single-device traces are unchanged.
    pub const LANE_STRIDE: u16 = 64;

    /// The track ID of module track `base` on lane `lane`.
    pub fn on_lane(base: u16, lane: usize) -> u16 {
        debug_assert!(base < LANE_STRIDE);
        lane as u16 * LANE_STRIDE + base
    }

    /// Human-readable track name.
    pub fn name(t: u16) -> String {
        let module = |base: u16| match base {
            BUS => "axi-bus".to_string(),
            FIFO => "input-fifo".to_string(),
            DEVICE => "device".to_string(),
            n => format!("aligner-{}", n - ALIGNER0),
        };
        if t < LANE_STRIDE {
            module(t)
        } else {
            format!("lane{}/{}", t / LANE_STRIDE, module(t % LANE_STRIDE))
        }
    }
}

/// One recorded interval of hardware activity: `[start, end)` on `track`,
/// attributed to `stage`. `id` carries the pair/job identifier for trace
/// labelling (0 when not applicable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the unit was doing.
    pub stage: Stage,
    /// Which hardware module (see [`track`]).
    pub track: u16,
    /// First cycle of the activity.
    pub start: Cycle,
    /// One past the last cycle of the activity.
    pub end: Cycle,
    /// Pair/alignment ID for labelling, 0 if none.
    pub id: u32,
}

/// A span collector that is free when disabled: `record` is a branch and
/// nothing else, and no memory is allocated until the first recorded span.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    /// Recording on?
    pub enabled: bool,
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl TraceSink {
    /// A sink in the given state.
    pub fn new(enabled: bool) -> Self {
        TraceSink {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Record `[start, end)` on `track` as `stage`. No-op when disabled or
    /// the interval is empty.
    #[inline]
    pub fn record(&mut self, stage: Stage, track: u16, start: Cycle, end: Cycle, id: u32) {
        if !self.enabled || start >= end {
            return;
        }
        self.spans.push(Span {
            stage,
            track,
            start,
            end,
            id,
        });
    }

    /// Move all recorded spans out (e.g. to merge per-module sinks).
    pub fn drain_into(&mut self, out: &mut Vec<Span>) {
        out.append(&mut self.spans);
    }
}

/// Per-stage cycle counters (the `mhpmcounter` bank of the model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    cycles: [Cycle; Stage::COUNT],
}

impl PerfCounters {
    /// Cycles attributed to a stage.
    pub fn get(&self, stage: Stage) -> Cycle {
        self.cycles[stage as usize]
    }

    /// Add cycles to a stage.
    pub fn add(&mut self, stage: Stage, cycles: Cycle) {
        self.cycles[stage as usize] += cycles;
    }

    /// Sum over all stages. For a timeline attribution this equals the
    /// job's total cycles exactly.
    pub fn total(&self) -> Cycle {
        self.cycles.iter().sum()
    }

    /// Iterate `(stage, cycles)` in priority order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, Cycle)> + '_ {
        Stage::ALL.iter().map(|&s| (s, self.get(s)))
    }

    /// Cycles the device was doing anything at all (total minus idle).
    pub fn busy(&self) -> Cycle {
        self.total() - self.get(Stage::Idle)
    }
}

/// Attribute every cycle of `0..total` to exactly one stage: the
/// highest-priority stage with an active span, or [`Stage::Idle`] when none
/// is active. Spans are clipped to `[0, total)`.
///
/// The result satisfies `counters.total() == total` unconditionally — the
/// attribution is exhaustive and non-overlapping by construction.
pub fn attribute_timeline(spans: &[Span], total: Cycle) -> PerfCounters {
    attribute_window(spans, 0, total)
}

/// Attribute every cycle of `from..to` to exactly one stage. Spans are
/// clipped to the window; the result satisfies
/// `counters.total() == to - from` unconditionally. Used for jobs whose
/// timeline does not begin at cycle 0 (lanes of a batch run).
pub fn attribute_window(spans: &[Span], from: Cycle, to: Cycle) -> PerfCounters {
    let mut counters = PerfCounters::default();
    if from >= to {
        return counters;
    }
    // Boundary sweep: +1/-1 events per stage, O(n log n) in span count.
    let mut events: Vec<(Cycle, usize, i32)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        let start = s.start.clamp(from, to);
        let end = s.end.clamp(from, to);
        if start >= end {
            continue;
        }
        events.push((start, s.stage as usize, 1));
        events.push((end, s.stage as usize, -1));
    }
    events.sort_unstable();

    let mut active = [0i32; Stage::COUNT];
    let mut pos: Cycle = from;
    let mut i = 0;
    while i < events.len() {
        let at = events[i].0;
        if at > pos {
            counters.add(current_stage(&active), at - pos);
            pos = at;
        }
        while i < events.len() && events[i].0 == at {
            active[events[i].1] += events[i].2;
            i += 1;
        }
    }
    if pos < to {
        counters.add(current_stage(&active), to - pos);
    }
    counters
}

/// The highest-priority stage with an active span, or Idle.
fn current_stage(active: &[i32; Stage::COUNT]) -> Stage {
    for &stage in &Stage::ALL {
        if active[stage as usize] > 0 {
            return stage;
        }
    }
    Stage::Idle
}

/// The perf record of one completed (or aborted/refused) job: the timeline
/// attribution plus the raw spans it was derived from.
#[derive(Debug, Clone, Default)]
pub struct JobPerf {
    /// Exhaustive per-stage attribution of `0..total`.
    pub counters: PerfCounters,
    /// Every recorded span (all modules, merged).
    pub spans: Vec<Span>,
    /// The job's total cycles (== `counters.total()`).
    pub total: Cycle,
}

impl JobPerf {
    /// Build from merged spans for a job whose timeline is `[from, to)`
    /// (a lane of a batch run that starts mid-batch): counters cover
    /// exactly that window, so `total == to - from`, while the spans keep
    /// their absolute cycle stamps for trace export.
    pub fn from_spans_window(spans: Vec<Span>, from: Cycle, to: Cycle) -> Self {
        let counters = attribute_window(&spans, from, to);
        JobPerf {
            counters,
            spans,
            total: to.saturating_sub(from),
        }
    }

    /// Render the spans as Chrome `trace_event` JSON for
    /// `chrome://tracing` / Perfetto. One trace track per hardware module;
    /// one simulated cycle is mapped to one microsecond of trace time.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: &str, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(s);
        };
        // Track (thread) name metadata, smallest track id first.
        let mut tracks: Vec<u16> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in &tracks {
            push(
                &format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{t},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    track::name(*t)
                ),
                &mut first,
            );
        }
        for s in &self.spans {
            push(
                &format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
                     \"ts\":{},\"dur\":{},\"args\":{{\"id\":{}}}}}",
                    s.track,
                    s.stage.name(),
                    track::name(s.track),
                    s.start,
                    s.end - s.start,
                    s.id
                ),
                &mut first,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, start: Cycle, end: Cycle) -> Span {
        Span {
            stage,
            track: 0,
            start,
            end,
            id: 0,
        }
    }

    #[test]
    fn empty_timeline_is_all_idle() {
        let c = attribute_timeline(&[], 100);
        assert_eq!(c.get(Stage::Idle), 100);
        assert_eq!(c.total(), 100);
        assert_eq!(c.busy(), 0);
    }

    #[test]
    fn disjoint_spans_attribute_exactly() {
        let spans = [span(Stage::DmaIn, 0, 10), span(Stage::Compute, 10, 30)];
        let c = attribute_timeline(&spans, 40);
        assert_eq!(c.get(Stage::DmaIn), 10);
        assert_eq!(c.get(Stage::Compute), 20);
        assert_eq!(c.get(Stage::Idle), 10);
        assert_eq!(c.total(), 40);
    }

    #[test]
    fn overlap_resolved_by_priority() {
        // Compute (priority 0) shadows a concurrent DMA read entirely.
        let spans = [span(Stage::DmaIn, 5, 25), span(Stage::Compute, 0, 20)];
        let c = attribute_timeline(&spans, 25);
        assert_eq!(c.get(Stage::Compute), 20);
        assert_eq!(c.get(Stage::DmaIn), 5, "only the unshadowed tail");
        assert_eq!(c.total(), 25);
    }

    #[test]
    fn spans_clipped_to_total() {
        let spans = [span(Stage::Extend, 90, 200)];
        let c = attribute_timeline(&spans, 100);
        assert_eq!(c.get(Stage::Extend), 10);
        assert_eq!(c.total(), 100);
    }

    #[test]
    fn nested_same_stage_spans_count_once() {
        let spans = [span(Stage::Extend, 0, 30), span(Stage::Extend, 10, 20)];
        let c = attribute_timeline(&spans, 30);
        assert_eq!(c.get(Stage::Extend), 30);
        assert_eq!(c.total(), 30);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::new(false);
        sink.record(Stage::Compute, track::BUS, 0, 10, 1);
        assert!(sink.spans.is_empty());
        let mut sink = TraceSink::new(true);
        sink.record(Stage::Compute, track::BUS, 0, 10, 1);
        sink.record(Stage::Compute, track::BUS, 10, 10, 1); // empty: dropped
        assert_eq!(sink.spans.len(), 1);
    }

    #[test]
    fn chrome_trace_shape() {
        let perf = JobPerf::from_spans_window(
            vec![
                Span {
                    stage: Stage::DmaIn,
                    track: track::BUS,
                    start: 0,
                    end: 10,
                    id: 7,
                },
                Span {
                    stage: Stage::Compute,
                    track: track::ALIGNER0,
                    start: 10,
                    end: 30,
                    id: 7,
                },
            ],
            0,
            30,
        );
        let json = perf.chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"axi-bus\""));
        assert!(json.contains("\"name\":\"aligner-0\""));
        assert!(json.contains("\"name\":\"compute\""));
        assert!(json.contains("\"ts\":10"));
        assert!(json.contains("\"dur\":20"));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn window_attribution_covers_exactly_the_window() {
        let spans = [
            span(Stage::DmaIn, 0, 30),
            span(Stage::Compute, 40, 60),
            span(Stage::Extend, 90, 200),
        ];
        let c = attribute_window(&spans, 20, 100);
        assert_eq!(c.get(Stage::DmaIn), 10, "clipped to the window start");
        assert_eq!(c.get(Stage::Compute), 20);
        assert_eq!(c.get(Stage::Extend), 10, "clipped to the window end");
        assert_eq!(c.get(Stage::Idle), 40);
        assert_eq!(c.total(), 80);
        // Empty or inverted windows attribute nothing.
        assert_eq!(attribute_window(&spans, 50, 50).total(), 0);
        assert_eq!(attribute_window(&spans, 60, 50).total(), 0);
    }

    #[test]
    fn lane_tracks_namespace_the_modules() {
        assert_eq!(track::on_lane(track::BUS, 0), track::BUS);
        assert_eq!(track::on_lane(track::ALIGNER0 + 1, 0), track::ALIGNER0 + 1);
        assert_eq!(track::name(track::on_lane(track::BUS, 2)), "lane2/axi-bus");
        assert_eq!(
            track::name(track::on_lane(track::ALIGNER0, 1)),
            "lane1/aligner-0"
        );
        assert_eq!(track::name(track::DEVICE), "device", "lane 0 unchanged");
    }

    #[test]
    fn stage_names_distinct() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }
}
