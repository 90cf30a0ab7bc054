//! The traced run: per-layer metrics, each from the benchmark's own calls
//! into one layer's public functions on the workload's own inputs, plus
//! the span ledger of a traced streaming session.

use crate::drive::{self, Ctl, Load, Session};
use crate::frames::FrameArena;
use crate::source::{PacedSource, SourceLog};
use crate::stats::{median, quantile};
use crate::trace::{self_time_by_name, Tracer};
use crate::workloads::{Report, SetupTimes, BATCH, SERVE_RING};
use splidt_core::compile::{compile_with, CompileOptions};
use splidt_core::engine::{Engine, EngineBuilder};
use splidt_core::runtime::canonical_flow_fp;
use splidt_core::stream::{DigestTap, StreamingTrainer, StreamingTrainerParams};
use splidt_core::PartitionedTree;
use splidt_dataplane::hash::{canonical_order, flow_index};
use splidt_dataplane::pipeline::{Pipeline, WaveStats};
use splidt_dataplane::{parse_into, peek_flow_tuple, MatchIndex, MatchKind};
use splidt_flow::FlowTrace;
use splidt_net::{ring, run_ingress, FrameBurst, FrameSource, IngressConfig, ReplaySource};
use std::hint::black_box;
use std::time::Instant;

/// Frames the direct layer loops run over (the schedule's first ones).
const LAYER_FRAMES: usize = 200_000;
/// Flows registered with the tap for `stream.*`.
const TAP_FLOWS: usize = 20_000;
/// Frames and offered rate of the ingress session behind `net.*_cpu_*`.
const NET_FRAMES: usize = 100_000;
const NET_RATE: f64 = 100_000.0;

/// A workload's inputs as the traced run needs them.
pub struct Ctx<'a> {
    /// Workload name (for the span file).
    pub name: &'static str,
    /// Workload seed (for the span file).
    pub seed: u64,
    /// The model.
    pub model: &'a PartitionedTree,
    /// Schedule flows.
    pub flows: &'a [FlowTrace],
    /// Pre-built frames.
    pub frames: &'a FrameArena,
    /// Set-up phase times.
    pub times: SetupTimes,
    /// Control events of a closed-loop pass.
    pub events: &'a [(usize, Ctl)],
    /// Open-loop slice and load, if the workload has one, and whether the
    /// workload's untraced passes check that session.
    pub open: Option<(std::ops::Range<usize>, Load, bool)>,
}

/// The engine's compile options, read back from its compiled IO.
pub fn options_of(engine: &Engine) -> CompileOptions {
    let io = engine.io();
    CompileOptions {
        flow_slots: io.flow_slots,
        idle_timeout_us: io.idle_timeout_us,
        policy: io.policy.clone(),
    }
}

/// Overwrites a metric already in the report.
pub fn replace(r: &mut Report, name: &str, value: f64) {
    if let Some(m) = r.metrics.iter_mut().find(|m| m.name == name) {
        m.value = value;
    }
}

fn per(ns: u64, n: usize) -> f64 {
    ns as f64 / n.max(1) as f64
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// Runs every layer measurement. `prepare` readies a reset engine for a
/// session (attaches a tap where the workload has one); `check` runs the
/// workload's oracle on each whole session.
pub fn run(
    ctx: &Ctx,
    engine: &mut Engine,
    tracer: &mut Tracer,
    r: &mut Report,
    prepare: &dyn Fn(&mut Engine),
    check: &mut dyn FnMut(&mut Report, &mut Engine, &Session),
) {
    let frames = ctx.frames;
    let n = frames.len();

    // A warm-up session first, so neither measured session pays for
    // first-touch page faults of a fresh register arena.
    let mut off = Tracer::new(false);
    engine.reset();
    prepare(engine);
    drive::run(engine, frames, 0..n, BATCH, Load::Closed, ctx.events, &mut off);

    // Untraced session: the end-to-end ns/packet the ledger is held to.
    engine.reset();
    prepare(engine);
    let s = drive::run(engine, frames, 0..n, BATCH, Load::Closed, ctx.events, &mut off);
    check(r, engine, &s);
    let packets = s.packets.max(1);
    let e2e_ns = s.batches.iter().map(|b| b.0).sum::<u64>() as f64 / packets as f64;
    let meters = engine.meters().clone();
    let suppressed = engine.slot_pressure().total as f64 / packets as f64;

    // Traced session: one span per ingest call, flush and drain. Its
    // verdicts are those of the untraced one; only the first is checked,
    // so a traced run attempts the same operations as an untraced pass.
    engine.reset();
    prepare(engine);
    let root = tracer.enter("session");
    let st = drive::run(engine, frames, 0..n, BATCH, Load::Closed, ctx.events, tracer);
    tracer.exit(root);
    let traced_ns = st.batches.iter().map(|b| b.0).sum::<u64>() as f64 / st.packets.max(1) as f64;
    let by = self_time_by_name(tracer.spans());
    let self_of = |k: &str| by.get(k).map_or(0, |v| v.0);
    let ledger = ["engine.push", "pipeline.flush", "engine.drain"];
    let layer_sum = ledger.iter().map(|k| self_of(k)).sum::<u64>() as f64 / packets as f64;
    let (drain_ns, drains) = by.get("engine.drain").copied().unwrap_or((0, 1));

    // Open-loop session, checked where an untraced pass checks it: how
    // late the generator ran.
    let mut lag = Vec::new();
    if let Some((range, load, checked)) = ctx.open.clone() {
        engine.reset();
        prepare(engine);
        let o = drive::run(engine, frames, range, BATCH, load, ctx.events, &mut off);
        if checked {
            check(r, engine, &o);
        }
        lag = o.lag_ns.iter().map(|&v| v as f64).collect();
    }

    let m = n.min(LAYER_FRAMES);
    let io = engine.io().clone();
    let program = engine.program().clone();

    // parser
    let peek_ns = tracer.span("parser.peek", || {
        timed(|| {
            for k in 0..m {
                let t = peek_flow_tuple(frames.get(k).0).expect("workload frames parse");
                let (a, b, c, d) = canonical_order(t.src_ip, t.dst_ip, t.sport, t.dport);
                black_box(flow_index(a, b, c, d, t.proto, io.flow_slots));
            }
        })
        .1
    });
    let mut phv = program.layout().new_phv();
    let parse_ns = tracer.span("parser.parse", || {
        timed(|| {
            for k in 0..m {
                parse_into(frames.get(k).0, program.layout(), &io.fields, &mut phv)
                    .expect("workload frames parse");
                black_box(&phv);
            }
        })
        .1
    });

    // index: every compiled table, keyed from the workload's parsed frames.
    let mut kind_ns = [(0u64, 0u64); 3];
    tracer.span("index.lookup", || {
        let keyed = m.min(20_000);
        for table in program.tables() {
            let idx = MatchIndex::build(table);
            let mut scratch = vec![0u64; 64];
            let mut keys = Vec::with_capacity(keyed * table.spec().key.len());
            for k in 0..keyed {
                parse_into(frames.get(k).0, program.layout(), &io.fields, &mut phv)
                    .expect("workload frames parse");
                keys.extend(table.spec().key.iter().map(|&f| phv.get(f)));
            }
            let w = table.spec().key.len().max(1);
            let (_, ns) = timed(|| {
                for key in keys.chunks(w) {
                    black_box(idx.lookup(black_box(key), &mut scratch));
                }
            });
            let slot = match table.spec().kind {
                MatchKind::Exact => 0,
                MatchKind::Range => 1,
                MatchKind::Ternary => 2,
            };
            kind_ns[slot].0 += ns;
            kind_ns[slot].1 += (keys.len() / w) as u64;
        }
    });

    // pipeline: the engine's program in a bare Pipeline at its burst.
    let pipe_ns = tracer.span("pipeline.wave", || {
        let mut pipe = Pipeline::new(program.clone());
        pipe.set_burst(engine.burst(), io.flow_slots);
        let mut stats = WaveStats::default();
        timed(|| {
            for lo in (0..n).step_by(BATCH) {
                for k in lo..(lo + BATCH).min(n) {
                    let (f, ts) = frames.get(k);
                    let _ = pipe.wave_push(black_box(f), ts, &io.fields, &mut stats);
                }
                pipe.wave_flush(&io.fields, &mut stats);
                pipe.clear_digests();
            }
        })
        .1
    });
    let pipe_per_pkt = per(pipe_ns, n);

    // stream: the digest tap's observe and train on this workload's flows.
    let (observe_ns, train_ns, observed) = tracer.span("stream.tap", || {
        let trainer = StreamingTrainer::new(
            ctx.model.config.clone(),
            ctx.model.n_classes,
            &StreamingTrainerParams::default(),
        );
        let mut tap = DigestTap::new(trainer);
        let flows = &ctx.flows[..ctx.flows.len().min(TAP_FLOWS)];
        for f in flows {
            tap.register_flow(f);
        }
        let fps: Vec<u64> = flows.iter().map(canonical_flow_fp).collect();
        let (_, observe_ns) = timed(|| {
            for &fp in &fps {
                tap.observe_fp(black_box(fp));
            }
        });
        let (_, train_ns) = timed(|| black_box(tap.train().expect("tap trains")));
        (observe_ns, train_ns, fps.len())
    });

    // Where the session itself retrains (churn), that training on the
    // ingest thread is the one that matters; elsewhere, the direct call.
    let mut session_train: Vec<f64> = s.train_ns.iter().map(|&v| v as f64 / 1e6).collect();
    let train_ms =
        if session_train.is_empty() { train_ns as f64 / 1e6 } else { median(&mut session_train) };

    // net: replay source, SPSC ring, and a paced ingress session.
    let net_m = m.min(NET_FRAMES);
    let source_ns = tracer.span("net.source", || {
        let mut src = ReplaySource::new(frames.to_vec(0, net_m));
        let mut burst = FrameBurst::new(32, 2048);
        timed(|| while src.next_burst(&mut burst).expect("replay cannot fail") {}).1
    });
    let ring_ns = tracer.span("net.ring", || {
        let (mut tx, mut rx) = ring(1024, 2048);
        timed(|| {
            for lo in (0..net_m).step_by(512) {
                let hi = (lo + 512).min(net_m);
                for k in lo..hi {
                    let (f, ts) = frames.get(k);
                    tx.try_push(f, ts).expect("ring drained every chunk");
                }
                for i in 0..hi - lo {
                    black_box(rx.peek(i));
                }
                rx.advance(hi - lo);
            }
        })
        .1
    });
    let (recv_cpu, cons_cpu) = tracer.span("net.ingress", || {
        let opts = options_of(engine);
        let mut sharded = EngineBuilder::new(ctx.model)
            .flow_slots(opts.flow_slots)
            .idle_timeout_us(opts.idle_timeout_us)
            .lifecycle_policy(opts.policy)
            .build_sharded(1)
            .expect("workload engine compiles");
        let mut log = SourceLog::default();
        let cfg = IngressConfig {
            ring_capacity: SERVE_RING,
            max_frame: 2048,
            batch: BATCH,
            recv_burst: 32,
        };
        let (cpu0, main0) = (crate::sys::process_cpu_ns(), crate::sys::thread_cpu_ns());
        let out =
            run_ingress(&mut sharded, PacedSource::new(frames, 0, net_m, NET_RATE, &mut log), &cfg)
                .expect("in-memory source cannot fail");
        let cpu = crate::sys::process_cpu_ns() - cpu0;
        let main = crate::sys::thread_cpu_ns() - main0;
        let consumed = out.stats.shards.iter().map(|s| s.consumed).sum::<u64>().max(1);
        (
            log.receiver_cpu_ns as f64 / consumed as f64,
            cpu.saturating_sub(log.receiver_cpu_ns + main) as f64 / consumed as f64,
        )
    });

    // compile: the workload's options, median of three.
    let opts = options_of(engine);
    let mut compile_ms: Vec<f64> = (0..3)
        .map(|_| {
            tracer.span("compile.compile_with", || {
                let (c, ns) = timed(|| compile_with(ctx.model, &opts).expect("model compiles"));
                black_box(c);
                ns as f64 / 1e6
            })
        })
        .collect();
    let entries: usize = program.tables().iter().map(|t| t.entries().len()).sum();
    let banks = engine.pipeline_registers().banks();
    let stride: usize = banks.iter().map(|b| b.desc().stride_bytes).sum();
    let arena: usize = banks.iter().map(|b| b.desc().arena_bytes()).sum();

    let flows_n = ctx.flows.len().max(1) as f64;
    let kind = |i: usize| kind_ns[i].0 as f64 / kind_ns[i].1.max(1) as f64;
    let overhead_pct = (traced_ns - e2e_ns) / e2e_ns * 100.0;
    let gap_pct = (layer_sum - e2e_ns) / e2e_ns * 100.0;
    let metrics: [(&'static str, f64, &'static str); 27] = [
        ("flow.generate_ms", ctx.times.generate_ns as f64 / 1e6, "ms"),
        ("flow.serialize_ns_per_frame", per(ctx.times.serialize_ns, n), "ns/frame"),
        ("train.fit_ms", ctx.times.fit_ns as f64 / 1e6, "ms"),
        ("compile.ms", median(&mut compile_ms), "ms"),
        ("compile.entries", entries as f64, "count"),
        ("register.bytes_per_flow", stride as f64, "bytes/flow"),
        ("register.arena_mib", arena as f64 / (1 << 20) as f64, "MiB"),
        ("parser.peek_ns", per(peek_ns, m), "ns/frame"),
        ("parser.parse_ns", per(parse_ns, m), "ns/frame"),
        ("index.exact_ns", kind(0), "ns/lookup"),
        ("index.range_ns", kind(1), "ns/lookup"),
        ("index.ternary_ns", kind(2), "ns/lookup"),
        ("pipeline.ns_per_pkt", pipe_per_pkt, "ns/packet"),
        (
            "pipeline.passes_per_pkt",
            meters.passes as f64 / meters.packets.max(1) as f64,
            "passes/packet",
        ),
        ("pipeline.resubmits_per_flow", meters.resubmissions as f64 / flows_n, "resubmits/flow"),
        ("engine.overhead_ns_per_pkt", e2e_ns - pipe_per_pkt, "ns/packet"),
        ("engine.drain_us", drain_ns as f64 / drains.max(1) as f64 / 1e3, "us/batch"),
        ("lifecycle.suppressed_per_pkt", suppressed, "packets/packet"),
        ("stream.observe_ns", per(observe_ns, observed), "ns/digest"),
        ("stream.train_ms", train_ms, "ms"),
        ("net.source_ns_per_frame", per(source_ns, net_m), "ns/frame"),
        ("net.ring_ns_per_frame", per(ring_ns, net_m), "ns/frame"),
        ("net.receiver_cpu_ns_per_pkt", recv_cpu, "ns/packet"),
        ("net.consumer_cpu_ns_per_pkt", cons_cpu, "ns/packet"),
        ("loadgen.lag_us_p90", quantile(&mut lag, 0.9) / 1e3, "us"),
        ("trace.overhead_pct", overhead_pct, "%"),
        ("trace.layer_gap_pct", gap_pct.abs(), "%"),
    ];
    for (name, value, unit) in metrics {
        r.metrics.push(crate::workloads::Metric { name, value, unit });
    }
    r.notes.push(format!(
        "{{\"ledger\": {{\"e2e_untraced_ns_per_pkt\": {e2e_ns:.1}, \"traced_ns_per_pkt\": {traced_ns:.1}, \
         \"layer_self_sum_ns_per_pkt\": {layer_sum:.1}, \"gap_pct\": {gap_pct:.2}, \
         \"tracing_overhead_pct\": {overhead_pct:.2}, \"spans\": {}}}}}",
        tracer.spans().len()
    ));
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{}.jsonl",
        ctx.name, ctx.seed
    ));
    match tracer.write(&path, ctx.name) {
        Ok(()) => r.notes.push(format!("{{\"spans_written\": \"{}\"}}", path.display())),
        Err(e) => r.notes.push(format!("{{\"spans_not_written\": \"{e}\"}}")),
    }
}
