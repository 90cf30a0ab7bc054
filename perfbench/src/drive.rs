//! Drives one streaming session through `Engine::stream_push` /
//! `stream_report`, closed loop (saturating, fixed-size batches) or open
//! loop (frames due at a fixed offered rate, on their compressed trace
//! times or evenly spaced in trace order), with control-plane events at
//! fixed frame indices.

use crate::frames::FrameArena;
use crate::trace::Tracer;
use splidt_core::engine::{BatchReport, Engine};
use splidt_dataplane::pipeline::WaveStats;
use splidt_dataplane::Digest;
use std::hint::black_box;
use std::time::Instant;

/// A control-plane event, run before the frame at its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ctl {
    /// Drift alarm: the tap forgets what it observed.
    DriftAlarm,
    /// Train a model from the tap and stage it.
    TrainStage,
    /// Re-stage the live model.
    Restage,
    /// Swap the staged model in.
    Swap,
}

/// How a session is offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Saturating: the next batch follows the previous one's return.
    Closed,
    /// Open loop: frames due on their trace time, compressed so the
    /// session averages this many frames per second.
    Trace(f64),
    /// Open loop: frames due in trace order, evenly spaced at this many
    /// frames per second.
    Even(f64),
}

/// What one session produced.
#[derive(Default)]
pub struct Session {
    /// Every drained digest, in drain order.
    pub digests: Vec<Digest>,
    /// Frames offered.
    pub frames: u64,
    /// Packets the engine reported.
    pub packets: u64,
    /// Malformed frames (`stream_push` returned false).
    pub malformed: u64,
    /// Packets that hit the resubmit safety limit.
    pub resubmit_limited: u64,
    /// `(wall ns, packets, process CPU ns)` of every ingest call (push
    /// loop + report).
    pub batches: Vec<(u64, u64, u64)>,
    /// ns `swap_staged` blocked ingest, per swap.
    pub swap_ns: Vec<u64>,
    /// `(ts of the last frame before, ts of the first frame after)` per
    /// swap.
    pub swaps: Vec<(u64, u64)>,
    /// ns spent in `DigestTap::train` per training.
    pub train_ns: Vec<u64>,
    /// Open loop: per frame, ns from due time to the return of the ingest
    /// call that processed it.
    pub lat_ns: Vec<u32>,
    /// Open loop: per ingest call, ns the generator ran late for its
    /// first frame (spin overshoot, or how far behind it already was).
    pub lag_ns: Vec<u64>,
}

/// Runs `frames[range]` through `engine` (already reset, tap attached if
/// the events need one) in batches of at most `batch`. With the tracer
/// on, each batch's report is split into its flush and digest-drain
/// calls so both get a span.
pub fn run(
    engine: &mut Engine,
    frames: &FrameArena,
    range: std::ops::Range<usize>,
    batch: usize,
    load: Load,
    events: &[(usize, Ctl)],
    tracer: &mut Tracer,
) -> Session {
    let (lo, n) = (range.start, range.end);
    let mut s = Session { frames: (n - lo) as u64, ..Default::default() };
    let t0 = frames.get(lo).1;
    let span_us = (frames.get(n - 1).1 - t0).max(1);
    let ns_per_us = match load {
        Load::Closed => 0.0,
        Load::Trace(rate) | Load::Even(rate) => {
            s.lat_ns.reserve(n - lo);
            (n - lo) as f64 / rate * 1e9 / span_us as f64
        }
    };
    let due = |k: usize| match load {
        Load::Even(rate) => ((k - lo) as f64 * 1e9 / rate) as u64,
        _ => ((frames.get(k).1 - t0) as f64 * ns_per_us) as u64,
    };
    let start = Instant::now();
    let mut ev = events.iter().take_while(|e| e.0 < lo).count();
    let mut i = lo;
    while i < n {
        while ev < events.len() && events[ev].0 == i {
            control(engine, events[ev].1, frames, i, &mut s, tracer);
            ev += 1;
        }
        let stop = events.get(ev).map_or(n, |e| e.0.min(n));
        let mut hi = (i + batch).min(stop);
        if !matches!(load, Load::Closed) {
            let mut now = start.elapsed().as_nanos() as u64;
            while now < due(i) {
                std::hint::spin_loop();
                now = start.elapsed().as_nanos() as u64;
            }
            s.lag_ns.push(now - due(i));
            hi = i + 1;
            while hi < stop && hi - i < batch && due(hi) <= now {
                hi += 1;
            }
        }
        let b0 = Instant::now();
        let c0 = crate::sys::process_cpu_ns();
        let push = tracer.enter("engine.push");
        let mut stats = WaveStats::default();
        for k in i..hi {
            let (frame, ts) = frames.get(k);
            if !engine.stream_push(black_box(frame), ts, &mut stats) {
                s.malformed += 1;
            }
        }
        tracer.exit(push);
        let report = if tracer.enabled() {
            tracer.span("pipeline.flush", || engine.stream_flush(&mut stats));
            let digests = tracer.span("engine.drain", || engine.drain_digests());
            BatchReport {
                packets: stats.packets,
                resubmit_limited: stats.resubmit_limited,
                digests,
                ..Default::default()
            }
        } else {
            engine.stream_report(stats, 0)
        };
        let ns = b0.elapsed().as_nanos() as u64;
        let cpu = crate::sys::process_cpu_ns() - c0;
        if !matches!(load, Load::Closed) {
            let end = start.elapsed().as_nanos() as u64;
            s.lat_ns.extend((i..hi).map(|k| (end - due(k)).min(u32::MAX as u64) as u32));
        }
        s.batches.push((ns, report.packets, cpu));
        s.packets += report.packets;
        s.resubmit_limited += report.resubmit_limited;
        s.digests.extend(report.digests);
        i = hi;
    }
    s
}

fn control(
    engine: &mut Engine,
    ctl: Ctl,
    frames: &FrameArena,
    i: usize,
    s: &mut Session,
    tracer: &mut Tracer,
) {
    match ctl {
        Ctl::DriftAlarm => engine.tap_mut().expect("tap attached").reset_observations(),
        Ctl::TrainStage => {
            let t = Instant::now();
            let model = tracer.span("stream.train", || {
                engine.tap_mut().expect("tap attached").train().expect("tap trains")
            });
            s.train_ns.push(t.elapsed().as_nanos() as u64);
            tracer.span("compile.stage", || engine.stage_model(model).expect("model stages"));
        }
        Ctl::Restage => {
            let model = engine.model().clone();
            tracer.span("compile.stage", || engine.stage_model(model).expect("model stages"));
        }
        Ctl::Swap => {
            let t = Instant::now();
            tracer.span("engine.swap", || engine.swap_staged().expect("staged model swaps"));
            s.swap_ns.push(t.elapsed().as_nanos() as u64);
            s.swaps.push((frames.get(i.saturating_sub(1)).1, frames.get(i).1));
        }
    }
}

/// `(packets per second, process CPU ns per packet)` of every run of
/// `seg` consecutive ingest calls.
pub fn segments(batches: &[(u64, u64, u64)], seg: usize) -> Vec<(f64, f64)> {
    batches
        .chunks(seg)
        .filter(|c| c.len() == seg)
        .map(|c| {
            let (ns, pk, cpu) =
                c.iter().fold((0u64, 0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
            let pk = pk.max(1) as f64;
            (pk * 1e9 / ns.max(1) as f64, cpu as f64 / pk)
        })
        .collect()
}
