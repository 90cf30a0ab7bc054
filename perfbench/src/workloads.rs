//! The three workloads: set-up, measured passes, oracle checks, metrics.

use crate::drive::{self, Ctl, Load, Session};
use crate::fixtures::{self as fx, Traffic};
use crate::frames::{timeline, FrameArena};
use crate::layers;
use crate::oracle::{self, Schedule};
use crate::source::{PacedSource, SourceLog};
use crate::stats::{median, quantile};
use crate::sys;
use crate::trace::Tracer;
use splidt_core::engine::Engine;
use splidt_core::stream::{DigestTap, StreamingTrainer, StreamingTrainerParams};
use splidt_core::PartitionedTree;
use splidt_net::{run_ingress, IngressConfig};
use std::time::{Duration, Instant};

/// Set-ups per run: at least [`SETUP_MIN`], more while less than
/// [`SETUP_SECONDS`] has been spent, at most [`SETUP_MAX`]; `setup_s` is
/// their median, so cheap set-ups get more samples.
pub const SETUP_MIN: usize = 5;
/// See [`SETUP_MIN`].
pub const SETUP_SECONDS: f64 = 3.0;
/// See [`SETUP_MIN`].
pub const SETUP_MAX: usize = 15;
/// Frames per ingest call in closed-loop sessions.
pub const BATCH: usize = 256;
/// Ingest calls per throughput sample.
pub const SEGMENT: usize = 64;
/// Consecutive open-loop frames per latency sample.
pub const LAT_CHUNK: usize = 25_000;

/// `scaled`: swaps per pass, at fixed fifths of the schedule.
pub const SCALED_SWAPS: usize = 4;
/// `scaled`: frames between re-staging the model and swapping it in.
pub const SCALED_STAGE_LEAD: usize = 50_000;
/// `scaled`: frames of the open-loop slice (the schedule's first ones).
pub const SCALED_OPEN_FRAMES: usize = 100_000;
/// `scaled`: open-loop offered rate (frames/s), under a fifth of the
/// closed-loop rate even at the trace's burst peaks, so latency reads
/// service time rather than a queue whose length swings with the host's
/// speed.
pub const SCALED_OPEN_RATE: f64 = 80_000.0;
/// `churn`: open-loop offered rate (frames/s) over the drifted part of
/// the schedule, where training and swaps run on the ingest thread.
/// Frames are evenly spaced in trace order: the churn trace's own bursts
/// (packets sharing a microsecond after lifetime scaling) made p90 swing
/// by a quarter between runs, evenly spaced arrivals by a tenth.
pub const CHURN_OPEN_RATE: f64 = 100_000.0;
/// `serve`: offered rate (frames/s) of the in-process open-loop session
/// behind its `lat_*`, evenly spaced like `churn`'s.
pub const SERVE_OPEN_RATE: f64 = 100_000.0;
/// `churn`: swaps per session (one retrained model, two refreshes).
pub const CHURN_SWAPS: u64 = 3;
/// `serve`: offered rate (frames/s).
pub const SERVE_RATE: f64 = 100_000.0;
/// `serve`: SPSC ring slots, about 160 ms of frames at [`SERVE_RATE`]. A
/// receiver that wakes late hands over every frame then due in one burst;
/// a 41 ms ring overflowed on one such wake-up in about eighty runs.
pub const SERVE_RING: usize = 16_384;
/// `serve`: swaps measured on the shard engine after each session.
pub const SERVE_SWAPS: usize = 8;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds (whole passes; at least one).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check on non-failed operations held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metrics.
    pub metrics: Vec<Metric>,
    /// Diagnostic JSON lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Self { correct: true, ..Default::default() }
    }

    fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("{{\"check_failed\": \"{what}\"}}"));
        }
    }

    fn tally(&mut self, out: &oracle::Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Set-up phase times of the last set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Flow generation (ns).
    pub generate_ns: u64,
    /// Model training (ns).
    pub fit_ns: u64,
    /// Engine build, compile included (ns).
    pub build_ns: u64,
    /// Frame serialization (ns).
    pub serialize_ns: u64,
}

/// What a set-up produced.
pub struct Prep<E> {
    /// The trained model.
    pub model: PartitionedTree,
    /// Flows and start times.
    pub traffic: Traffic,
    /// Fixed flows leading the schedule (churn), else 0.
    pub fixed: usize,
    /// The built engine.
    pub engine: E,
    /// Pre-built frames, timeline order.
    pub frames: FrameArena,
    /// Phase times.
    pub times: SetupTimes,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs a full set-up: generation, training, engine build (compile) and
/// frame serialization, each in a span.
fn setup<E>(
    tracer: &mut Tracer,
    max_pkts: usize,
    gen: impl Fn() -> (Traffic, usize),
    build: impl Fn(&PartitionedTree) -> E,
) -> Prep<E> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let (traffic, fixed) = tracer.span("flow.generate", &gen);
    times.generate_ns = ns_since(t);
    let t = Instant::now();
    let model = tracer.span("train.fit", || fx::train_model(max_pkts));
    times.fit_ns = ns_since(t);
    let t = Instant::now();
    let engine = tracer.span("engine.build", || build(&model));
    times.build_ns = ns_since(t);
    let t = Instant::now();
    let frames = tracer.span("flow.serialize", || {
        FrameArena::build(&traffic.flows, &timeline(&traffic.flows, &traffic.starts))
    });
    times.serialize_ns = ns_since(t);
    Prep { model, traffic, fixed, engine, frames, times }
}

/// Sets up repeatedly (once when traced) and keeps the last; returns the
/// median set-up time.
fn setup_repeated<E>(
    tracer: &mut Tracer,
    max_pkts: usize,
    gen: impl Fn() -> (Traffic, usize),
    build: impl Fn(&PartitionedTree) -> E,
) -> (Prep<E>, f64) {
    let (min, max) = if tracer.enabled() { (1, 1) } else { (SETUP_MIN, SETUP_MAX) };
    let mut secs: Vec<f64> = Vec::with_capacity(max);
    let mut last = None;
    while secs.len() < min || (secs.len() < max && secs.iter().sum::<f64>() < SETUP_SECONDS) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(tracer, max_pkts, &gen, &build));
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&mut secs))
}

/// Aggregates of the measured passes.
#[derive(Default)]
struct Acc {
    rates: Vec<f64>,
    lat_p50_ns: Vec<f64>,
    lat_p90_ns: Vec<f64>,
    lat_samples: usize,
    swap_ns: Vec<f64>,
    cpu_per_pkt: Vec<f64>,
    f1: Vec<f64>,
    classified: Vec<f64>,
    ttd_ms: Vec<f64>,
    passes: u64,
}

impl Acc {
    fn closed(&mut self, s: &Session) {
        for (rate, cpu) in drive::segments(&s.batches, SEGMENT) {
            self.rates.push(rate);
            self.cpu_per_pkt.push(cpu);
        }
        self.swap_ns.extend(s.swap_ns.iter().map(|&v| v as f64));
    }

    /// Latency quantiles are taken per run of [`LAT_CHUNK`] consecutive
    /// frames and reported as their median, so a host stall, which hits
    /// consecutive frames, moves one chunk and not the run's figure.
    fn latency(&mut self, lat_ns: &[u32]) {
        self.lat_samples += lat_ns.len();
        for chunk in lat_ns.chunks(LAT_CHUNK).filter(|c| c.len() * 2 >= LAT_CHUNK) {
            let mut v: Vec<f64> = chunk.iter().map(|&x| x as f64).collect();
            self.lat_p50_ns.push(quantile(&mut v, 0.5));
            self.lat_p90_ns.push(quantile(&mut v, 0.9));
        }
    }

    fn open(&mut self, s: &Session) {
        self.latency(&s.lat_ns);
    }

    fn verdicts(&mut self, sched: &Schedule, out: &oracle::Outcome, n_classes: usize) {
        self.f1.push(oracle::f1_of(sched, out, n_classes, |_, _| true));
        self.classified.push(out.decided.iter().filter(|d| d.is_some()).count() as f64);
        self.ttd_ms.push(median(&mut oracle::ttd_us(sched, out)) / 1e3);
    }

    fn emit(mut self, r: &mut Report, setup_s: f64) {
        r.notes.push(format!(
            "{{\"passes\": {}, \"pps_samples\": {}, \"lat_samples\": {}, \"lat_chunks\": {}, \
             \"swap_samples\": {}}}",
            self.passes,
            self.rates.len(),
            self.lat_samples,
            self.lat_p50_ns.len(),
            self.swap_ns.len()
        ));
        r.metric("pps", median(&mut self.rates), "packets/s");
        r.metric("lat_p50_us", median(&mut self.lat_p50_ns) / 1e3, "us");
        r.metric("lat_p90_us", median(&mut self.lat_p90_ns) / 1e3, "us");
        r.metric("ttd_p50_ms", median(&mut self.ttd_ms), "ms");
        r.metric("f1", median(&mut self.f1), "ratio");
        r.metric("classified_flows", median(&mut self.classified), "flows");
        r.metric("swap_pause_us", median(&mut self.swap_ns) / 1e3, "us");
        r.metric("cpu_ns_per_pkt", median(&mut self.cpu_per_pkt), "ns/packet");
        r.metric("setup_s", setup_s, "s");
        r.metric("mem_peak_mb", crate::alloc::peak_bytes() as f64 / (1 << 20) as f64, "MiB");
    }
}

/// Runs `name`, or `None` for an unknown workload.
pub fn run(name: &str, args: Args) -> Option<Report> {
    match name {
        "scaled" => Some(scaled(args)),
        "churn" => Some(churn(args)),
        "serve" => Some(serve(args)),
        _ => None,
    }
}

fn deadline(args: Args) -> Instant {
    Instant::now() + Duration::from_secs_f64(args.seconds)
}

// ------------------------------------------------------------- scaled

fn scaled(args: Args) -> Report {
    let mut r = Report::new();
    let mut tracer = Tracer::new(args.trace);
    let (prep, setup_s) = setup_repeated(
        &mut tracer,
        fx::SCALED_PKTS,
        || (fx::scaled_traffic(args.seed), 0),
        fx::scaled_engine,
    );
    let Prep { model, traffic, mut engine, frames, times, .. } = prep;
    let n = frames.len();
    let flows = &traffic.flows;
    let sched = Schedule::new(flows, &traffic.starts, fx::SCALED_SLOTS, &vec![false; flows.len()]);
    // Every swap re-installs the same model: one epoch for the whole pass.
    let epochs = [sched.epoch(None, &model, flows)];
    let mut events = Vec::new();
    for q in 1..=SCALED_SWAPS {
        let at = n * q / (SCALED_SWAPS + 1);
        events.push((at - SCALED_STAGE_LEAD, Ctl::Restage));
        events.push((at, Ctl::Swap));
    }
    let check = |r: &mut Report, engine: &mut Engine, s: &Session| {
        let out = sched.check(&oracle::verdicts(&s.digests, engine.io()), &epochs, true);
        r.tally(&out);
        let m = engine.meters();
        r.require(
            m.packets == s.frames && s.malformed == 0,
            "scaled: packets served == frames offered",
        );
        r.require(engine.swaps() == SCALED_SWAPS as u64, "scaled: swap count");
        r.require(s.resubmit_limited == 0, "scaled: no packet hits the resubmit limit");
        out
    };
    // Run once, after the figures are taken: the replay's own register
    // arena must not count towards `mem_peak_mb`.
    let per_flow_bound = |r: &mut Report, engine: &Engine| {
        let p = model.n_partitions() as u32;
        let resubmits =
            oracle::resubmits_per_flow(engine.program(), &engine.io().fields, &frames, flows.len());
        let worst = resubmits.iter().copied().max().unwrap_or(0);
        r.notes.push(format!("{{\"scaled_max_resubmits_per_flow\": {worst}, \"p\": {p}}}"));
        r.require(worst < p, "scaled: resubmissions per flow <= p - 1");
    };
    if args.trace {
        let ctx = layers::Ctx {
            name: "scaled",
            seed: args.seed,
            model: &model,
            flows,
            frames: &frames,
            times,
            events: &events,
            open: Some((0..SCALED_OPEN_FRAMES.min(n), Load::Trace(SCALED_OPEN_RATE), false)),
        };
        layers::run(&ctx, &mut engine, &mut tracer, &mut r, &|_| {}, &mut |r, e, s| {
            check(r, e, s);
        });
        per_flow_bound(&mut r, &engine);
        return r;
    }
    let mut acc = Acc::default();
    let end = deadline(args);
    loop {
        engine.reset();
        let s = drive::run(&mut engine, &frames, 0..n, BATCH, Load::Closed, &events, &mut tracer);
        let out = check(&mut r, &mut engine, &s);
        acc.closed(&s);
        acc.verdicts(&sched, &out, model.n_classes);
        engine.reset();
        let o = drive::run(
            &mut engine,
            &frames,
            0..SCALED_OPEN_FRAMES.min(n),
            BATCH,
            Load::Trace(SCALED_OPEN_RATE),
            &[],
            &mut tracer,
        );
        acc.open(&o);
        acc.passes += 1;
        if Instant::now() >= end {
            break;
        }
    }
    acc.emit(&mut r, setup_s);
    per_flow_bound(&mut r, &engine);
    r
}

// -------------------------------------------------------------- churn

/// A tap over a fresh streaming trainer with every schedule flow
/// registered (a reset engine forgets its tap's registrations).
fn fresh_tap(model: &PartitionedTree, flows: &[splidt_flow::FlowTrace]) -> DigestTap {
    let trainer = StreamingTrainer::new(
        model.config.clone(),
        model.n_classes,
        &StreamingTrainerParams::default(),
    );
    let mut tap = DigestTap::new(trainer);
    for f in flows {
        tap.register_flow(f);
    }
    tap
}

/// The first frame of flow `flow` or any later-starting flow.
fn first_frame_of(frames: &FrameArena, flow: usize) -> usize {
    (0..frames.len()).find(|&k| frames.frame_ref(k).flow as usize >= flow).expect("flow exists")
}

fn churn(args: Args) -> Report {
    let mut r = Report::new();
    let mut tracer = Tracer::new(args.trace);
    let (prep, setup_s) =
        setup_repeated(&mut tracer, usize::MAX, || fx::churn_traffic(args.seed), fx::churn_engine);
    let Prep { model, traffic, fixed, mut engine, frames, times } = prep;
    let n = frames.len();
    let flows = &traffic.flows;
    let counts: Vec<bool> = (0..flows.len()).map(|i| i < fixed).collect();
    let sched = Schedule::new(flows, &traffic.starts, fx::CHURN_SLOTS, &counts);
    let e0 = sched.epoch(None, &model, flows);
    let at = |k: usize| first_frame_of(&frames, fixed + k);
    let mut events = vec![
        (at(0), Ctl::DriftAlarm),
        (at(fx::CHURN_TRAIN_AT), Ctl::TrainStage),
        (at(fx::CHURN_SWAP_AT), Ctl::Swap),
    ];
    for (stage, swap) in fx::CHURN_REFRESH {
        events.push((at(stage), Ctl::Restage));
        events.push((at(swap), Ctl::Swap));
    }
    let check = |r: &mut Report, engine: &mut Engine, s: &Session| {
        let epochs = [e0.clone(), sched.epoch(s.swaps.first().copied(), engine.model(), flows)];
        let out = sched.check(&oracle::verdicts(&s.digests, engine.io()), &epochs, false);
        r.tally(&out);
        r.require(engine.lifecycle().reconciles(), "churn: lifecycle reconciles");
        r.require(engine.swaps() == CHURN_SWAPS, "churn: swap count");
        r.require(engine.meters().packets == s.frames, "churn: packets served == frames offered");
        r.require(s.resubmit_limited == 0, "churn: no packet hits the resubmit limit");
        let (last_before, first_after) = s.swaps.first().copied().unwrap_or((0, 0));
        let degraded =
            oracle::f1_of(&sched, &out, model.n_classes, |i, ts| i >= fixed && ts < first_after);
        let recovered = oracle::f1_of(&sched, &out, model.n_classes, |i, _| {
            i >= fixed && sched.flows[i].first_ts > last_before
        });
        r.require(recovered > degraded, "churn: F1 after the swap exceeds the degraded window");
        r.notes.push(format!(
            "{{\"churn_session\": {{\"f1_degraded\": {degraded:.4}, \"f1_recovered\": {recovered:.4}, \
             \"fault_failed\": {}, \"fault_left_out\": {}, \"wrong\": {}, \"double\": {}, \
             \"unowned\": {}, \"straddling\": {}}}}}",
            out.fault_failed, out.fault_left_out, out.wrong, out.double, out.unowned, out.straddling
        ));
        out
    };
    if args.trace {
        let ctx = layers::Ctx {
            name: "churn",
            seed: args.seed,
            model: &model,
            flows,
            frames: &frames,
            times,
            events: &events,
            open: Some((at(0)..n, Load::Even(CHURN_OPEN_RATE), true)),
        };
        layers::run(
            &ctx,
            &mut engine,
            &mut tracer,
            &mut r,
            &|e: &mut Engine| {
                *e = fx::churn_engine(&model);
                e.attach_tap(fresh_tap(&model, flows));
            },
            &mut |r, e, s| {
                check(r, e, s);
            },
        );
        return r;
    }
    let mut acc = Acc::default();
    let end = deadline(args);
    loop {
        for (range, load) in [(0..n, Load::Closed), (at(0)..n, Load::Even(CHURN_OPEN_RATE))] {
            // A reset keeps the swapped-in program; every session starts
            // from the trained model.
            engine = fx::churn_engine(&model);
            engine.attach_tap(fresh_tap(&model, flows));
            let s = drive::run(&mut engine, &frames, range, BATCH, load, &events, &mut tracer);
            let out = check(&mut r, &mut engine, &s);
            match load {
                Load::Closed => {
                    acc.closed(&s);
                    acc.verdicts(&sched, &out, model.n_classes);
                }
                _ => acc.open(&s),
            }
        }
        acc.passes += 1;
        if Instant::now() >= end {
            break;
        }
    }
    acc.emit(&mut r, setup_s);
    r
}

// -------------------------------------------------------------- serve

fn serve(args: Args) -> Report {
    let mut r = Report::new();
    let mut tracer = Tracer::new(args.trace);
    // The sharded engine serves through run_ingress; the single engine of
    // the same configuration carries the in-process open-loop session.
    let (prep, setup_s) = setup_repeated(
        &mut tracer,
        usize::MAX,
        || (fx::serve_traffic(args.seed), 0),
        |m| (fx::serve_engine(m), fx::serve_single_engine(m)),
    );
    let Prep { model, traffic, engine: (mut engine, mut single), frames, times, .. } = prep;
    let n = frames.len();
    let flows = &traffic.flows;
    let sched = Schedule::new(flows, &traffic.starts, fx::SERVE_SLOTS, &vec![false; flows.len()]);
    let epochs = [sched.epoch(None, &model, flows)];
    let check = |r: &mut Report, e: &mut Engine, s: &Session| {
        let out = sched.check(&oracle::verdicts(&s.digests, e.io()), &epochs, true);
        r.tally(&out);
        r.require(e.meters().packets == s.frames, "serve: packets served == frames offered");
        r.require(s.resubmit_limited == 0, "serve: no packet hits the resubmit limit");
    };
    let cfg =
        IngressConfig { ring_capacity: SERVE_RING, max_frame: 2048, batch: BATCH, recv_burst: 32 };
    let mut acc = Acc::default();
    let (mut recv_cpu, mut cons_cpu) = (Vec::new(), Vec::new());
    // Receive-side latency quantiles per session (a diagnostic line).
    let (mut recv_p50, mut recv_p90) = (Vec::new(), Vec::new());
    let end = deadline(args);
    loop {
        engine.reset();
        let mut log = SourceLog::default();
        let (cpu0, main0) = (sys::process_cpu_ns(), sys::thread_cpu_ns());
        let t = Instant::now();
        let outcome =
            run_ingress(&mut engine, PacedSource::new(&frames, 0, n, SERVE_RATE, &mut log), &cfg)
                .expect("in-memory source cannot fail");
        let wall = t.elapsed().as_secs_f64();
        let cpu = sys::process_cpu_ns() - cpu0;
        let main = sys::thread_cpu_ns() - main0;
        let st = &outcome.stats;
        let consumed: u64 = st.shards.iter().map(|s| s.consumed).sum();
        let drops = st.dropped_ring_full + st.dropped_malformed;
        r.require(st.reconciles(), "serve: ingress reconciles");
        r.require(log.offered == n as u64, "serve: every frame offered");
        r.require(outcome.batch.resubmit_limited == 0, "serve: no packet hits the resubmit limit");
        r.attempted += n as u64;
        r.failed += drops;
        let io = engine.engines()[0].io().clone();
        let out = sched.check(&oracle::verdicts(&outcome.batch.digests, &io), &epochs, true);
        r.tally(&out);
        acc.verdicts(&sched, &out, model.n_classes);
        acc.rates.push(consumed as f64 / wall);
        acc.cpu_per_pkt.push(cpu as f64 / consumed.max(1) as f64);
        let mut lat: Vec<f64> = log.lat_ns.iter().map(|&v| v as f64).collect();
        recv_p50.push(quantile(&mut lat, 0.5));
        recv_p90.push(quantile(&mut lat, 0.9));
        recv_cpu.push(log.receiver_cpu_ns as f64 / consumed.max(1) as f64);
        cons_cpu
            .push(cpu.saturating_sub(log.receiver_cpu_ns + main) as f64 / consumed.max(1) as f64);
        // run_ingress borrows the engine for the whole session, so the
        // serving configuration's swap pause is measured between sessions.
        let shard = &mut engine.engines_mut()[0];
        for _ in 0..SERVE_SWAPS {
            shard.stage_model(model.clone()).expect("model stages");
            std::thread::sleep(Duration::from_millis(30));
            let t = Instant::now();
            shard.swap_staged().expect("staged model swaps");
            acc.swap_ns.push(ns_since(t) as f64);
        }
        acc.passes += 1;
        if args.trace {
            break;
        }
        // Per-packet latency past the ring is not observable from outside
        // run_ingress: lat_* come from the same frames and configuration
        // through the in-process streaming session.
        single.reset();
        let o = drive::run(
            &mut single,
            &frames,
            0..n,
            BATCH,
            Load::Even(SERVE_OPEN_RATE),
            &[],
            &mut tracer,
        );
        check(&mut r, &mut single, &o);
        acc.open(&o);
        if Instant::now() >= end {
            break;
        }
    }
    r.notes.push(format!(
        "{{\"serve_receive_lat_us\": {{\"p50\": {:.3}, \"p90\": {:.3}, \"sessions\": {}}}}}",
        median(&mut recv_p50) / 1e3,
        median(&mut recv_p90) / 1e3,
        recv_p90.len()
    ));
    if args.trace {
        let ctx = layers::Ctx {
            name: "serve",
            seed: args.seed,
            model: &model,
            flows,
            frames: &frames,
            times,
            events: &[],
            open: Some((0..n, Load::Even(SERVE_OPEN_RATE), true)),
        };
        layers::run(&ctx, &mut single, &mut tracer, &mut r, &|_| {}, &mut |r, e, s| check(r, e, s));
        layers::replace(&mut r, "net.receiver_cpu_ns_per_pkt", median(&mut recv_cpu));
        layers::replace(&mut r, "net.consumer_cpu_ns_per_pkt", median(&mut cons_cpu));
        return r;
    }
    acc.emit(&mut r, setup_s);
    r
}
