//! Workload inputs, made from the seed: flows, arrival times and engine
//! configurations. The model is trained on a fixed training draw so the
//! churn workload's fixed fault probe sees the same model on every seed.

use splidt_core::engine::{Engine, EngineBuilder, ShardedEngine};
use splidt_core::runtime::canonical_flow_index;
use splidt_core::{train_partitioned, LifecyclePolicy, PartitionedTree, SplidtConfig};
use splidt_flow::{
    catalog, churn, generate, select_flows, stratified_split, windowed_dataset, ChurnConfig,
    DatasetId, DriftProfile, FlowTrace,
};

/// Dataset every workload draws from.
pub const DATASET: DatasetId = DatasetId::D2;
/// Training draw of the model (fixed; see the module docs).
pub const TRAIN_SEED: u64 = 7;
/// Flows in the training draw.
pub const TRAIN_FLOWS: usize = 220;

/// `scaled`: distinct flows offered.
pub const SCALED_FLOWS: usize = 200_000;
/// `scaled`: generated traces; each is replayed under several 5-tuples.
pub const SCALED_TRACES: usize = 25_000;
/// `scaled`: 5-tuple variants per trace (one more than needed, so the
/// flows kept after dropping slot collisions still number `SCALED_FLOWS`).
pub const SCALED_VARIANTS: usize = 9;
/// `scaled`: packets kept per trace (its first ones; the wire flow size
/// says the same, so the truncated trace is a whole, shorter flow).
pub const SCALED_PKTS: usize = 8;
/// `scaled`: register slots (2^21, a 128 MiB flow-state arena).
pub const SCALED_SLOTS: usize = 1 << 21;
/// `scaled`: gap between flow arrivals (µs).
pub const SCALED_GAP_US: u64 = 2;

/// `churn`: the fixed fault-probe schedule's seed (the churn fixture).
pub const CHURN_FIXED_SEED: u64 = 11;
/// `churn`: flows of the fixed schedule.
pub const CHURN_FIXED_FLOWS: usize = 4096;
/// `churn`: drifted flows drawn from the seed, after the fixed ones.
pub const CHURN_DRIFT_FLOWS: usize = 2048;
/// `churn`: register slots.
pub const CHURN_SLOTS: usize = 256;
/// `churn`: idle timeout (µs).
pub const CHURN_IDLE_US: u64 = 100_000;
/// `churn`: pinned class and its timeout (µs).
pub const CHURN_PINNED_CLASS: u16 = 3;
/// `churn`: pinned-lane timeout (µs).
pub const CHURN_PINNED_US: u64 = 150_000;
/// `churn`: quiet gap between the fixed and the drifted schedule (µs),
/// longer than every timeout so the two never share a live lane.
pub const CHURN_GAP_US: u64 = 400_000;
/// `churn`: drifted-flow indices at which the tap's model is trained and
/// staged, swapped in, and then re-staged and swapped twice more.
pub const CHURN_TRAIN_AT: usize = 1024;
/// See [`CHURN_TRAIN_AT`].
pub const CHURN_SWAP_AT: usize = 1280;
/// `(stage, swap)` drifted-flow indices of the two refresh swaps.
pub const CHURN_REFRESH: [(usize, usize); 2] = [(1536, 1664), (1792, 1920)];

/// `serve`: flows offered.
pub const SERVE_FLOWS: usize = 6_000;
/// `serve`: packets kept per trace at most.
pub const SERVE_MAX_PKTS: usize = 40;
/// `serve`: register slots of the one shard.
pub const SERVE_SLOTS: usize = 1 << 16;
/// `serve`: gap between flow arrivals (µs).
pub const SERVE_GAP_US: u64 = 400;

/// Trains the workloads' model on the fixed training draw, every flow cut
/// to its first `max_pkts` packets (`usize::MAX` keeps whole flows).
pub fn train_model(max_pkts: usize) -> PartitionedTree {
    let mut train = generate(DATASET, TRAIN_FLOWS, TRAIN_SEED);
    for f in &mut train {
        f.packets.truncate(max_pkts);
    }
    let (tr, _) = stratified_split(&train, 0.6, 2);
    let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
    let wd = windowed_dataset(&select_flows(&train, &tr), 3, 4);
    train_partitioned(&wd, &cfg, &catalog().hardware_eligible())
}

/// Flows and their start times.
pub struct Traffic {
    /// The flows.
    pub flows: Vec<FlowTrace>,
    /// Absolute start of each flow (µs).
    pub starts: Vec<u64>,
}

fn scale_lifetime(f: &mut FlowTrace, scale: f64) {
    for p in &mut f.packets {
        p.ts_us = (p.ts_us as f64 * scale).round() as u64;
    }
}

/// Keeps candidates in order, dropping any whose slot is taken, until
/// `want` flows are kept.
fn first_distinct_slots(
    candidates: impl Iterator<Item = FlowTrace>,
    slots: usize,
    want: usize,
) -> Vec<FlowTrace> {
    let mut taken = vec![false; slots];
    let mut out = Vec::with_capacity(want);
    for f in candidates {
        let s = canonical_flow_index(&f, slots);
        if !taken[s] {
            taken[s] = true;
            out.push(f);
            if out.len() == want {
                break;
            }
        }
    }
    assert_eq!(out.len(), want, "enough candidates for {want} slot-distinct flows");
    out
}

/// `scaled` traffic: [`SCALED_FLOWS`] slot-distinct flows, arriving
/// every [`SCALED_GAP_US`].
pub fn scaled_traffic(seed: u64) -> Traffic {
    let traces = generate(DATASET, SCALED_TRACES, seed);
    let candidates = (0..SCALED_TRACES * SCALED_VARIANTS).map(|k| {
        let (v, t) = (k % SCALED_VARIANTS, k / SCALED_VARIANTS);
        let mut f = traces[t].clone();
        f.packets.truncate(SCALED_PKTS);
        f.tuple.src_ip = 0x0a00_0000 | ((v as u32) << 16) | (t as u32 & 0xFFFF);
        f
    });
    let flows = first_distinct_slots(candidates, SCALED_SLOTS, SCALED_FLOWS);
    let starts = (0..flows.len() as u64).map(|k| 1_000 + k * SCALED_GAP_US).collect();
    Traffic { flows, starts }
}

/// `churn` traffic: the fixed churn fixture (seed 11, no drift) followed,
/// after a quiet gap, by [`CHURN_DRIFT_FLOWS`] drifted flows drawn from
/// `seed`. Returns the traffic and the number of fixed flows.
pub fn churn_traffic(seed: u64) -> (Traffic, usize) {
    let cfg = |flows, seed, drift_at| ChurnConfig {
        flows,
        mean_arrival_gap_us: 500,
        lifetime_scale: 0.05,
        syn_open_frac: 0.95,
        rst_close_frac: 0.25,
        drift_at,
        drift_profile: DriftProfile::default(),
        seed,
    };
    let fixed = churn(DATASET, &cfg(CHURN_FIXED_FLOWS, CHURN_FIXED_SEED, None));
    let drifted = churn(DATASET, &cfg(CHURN_DRIFT_FLOWS, seed, Some(0)));
    let offset = fixed.span_us() + CHURN_GAP_US;
    let mut flows = fixed.flows;
    let mut starts = fixed.starts;
    for (mut f, s) in drifted.flows.into_iter().zip(drifted.starts) {
        // Own address block, so no drifted flow shares a 5-tuple with a
        // fixed one.
        f.tuple.src_ip = 0x0b00_0000 | (f.tuple.src_ip & 0x00FF_FFFF);
        flows.push(f);
        starts.push(offset + s);
    }
    (Traffic { flows, starts }, CHURN_FIXED_FLOWS)
}

/// `serve` traffic: [`SERVE_FLOWS`] slot-distinct flows of at most
/// [`SERVE_MAX_PKTS`] packets, arriving every [`SERVE_GAP_US`].
pub fn serve_traffic(seed: u64) -> Traffic {
    let candidates = generate(DATASET, SERVE_FLOWS * 5 / 4, seed).into_iter().map(|mut f| {
        f.packets.truncate(SERVE_MAX_PKTS);
        scale_lifetime(&mut f, 0.05);
        f
    });
    let flows = first_distinct_slots(candidates, SERVE_SLOTS, SERVE_FLOWS);
    let starts = (0..flows.len() as u64).map(|k| 1_000 + k * SERVE_GAP_US).collect();
    Traffic { flows, starts }
}

/// The `scaled` engine: 2^21 slots, flow-agnostic policy, default burst.
pub fn scaled_engine(model: &PartitionedTree) -> Engine {
    EngineBuilder::new(model).flow_slots(SCALED_SLOTS).build().expect("scaled engine compiles")
}

/// The `churn` engine: 256 slots, TCP-aware policy with class 3 pinned.
pub fn churn_engine(model: &PartitionedTree) -> Engine {
    EngineBuilder::new(model)
        .flow_slots(CHURN_SLOTS)
        .idle_timeout_us(CHURN_IDLE_US)
        .lifecycle_policy(
            LifecyclePolicy::tcp().pin_class(CHURN_PINNED_CLASS).pinned_timeout_us(CHURN_PINNED_US),
        )
        .build()
        .expect("churn engine compiles")
}

/// The `serve` engine: one shard of [`SERVE_SLOTS`] slots.
pub fn serve_engine(model: &PartitionedTree) -> ShardedEngine {
    EngineBuilder::new(model)
        .flow_slots(SERVE_SLOTS)
        .build_sharded(1)
        .expect("serve engine compiles")
}

/// The `serve` configuration as one in-process engine (for `serve`'s
/// open-loop latency session and its traced run).
pub fn serve_single_engine(model: &PartitionedTree) -> Engine {
    EngineBuilder::new(model).flow_slots(SERVE_SLOTS).build().expect("serve engine compiles")
}
