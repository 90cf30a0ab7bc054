//! Correctness oracles computed apart from the data plane.
//!
//! Software inference is `PartitionedTree::predict` over
//! `extract_windows` of the generator's flow trace. Verdict digests are
//! mapped back to schedule flows by (canonical slot, fingerprint) and
//! checked: at most one verdict per flow, every verdict owned by a flow,
//! the verdict class equal to the software class of the model that was
//! live for the flow's whole life, and — where the workload promises it —
//! a verdict for every flow.

use crate::frames::FrameArena;
use splidt_core::compile::CompiledIo;
use splidt_core::runtime::{canonical_flow_fp, canonical_flow_index};
use splidt_core::PartitionedTree;
use splidt_dataplane::{Digest, Pipeline, Program, StandardFields};
use splidt_flow::{catalog, extract_window, extract_windows, window_bounds, FlowTrace};
use std::collections::HashMap;

const SYN: u8 = 0x02;
const ACK: u8 = 0x10;

/// The software class of `flow` under `model`.
pub fn software_class(model: &PartitionedTree, flow: &FlowTrace) -> u16 {
    model.predict(&extract_windows(flow, model.n_partitions(), catalog())).class
}

/// The software class of `flow` as the data plane sees it when admitted
/// one packet late, at its second packet: windows keep the length the
/// wire's flow-size shim gives (`window_bounds` of the whole flow) but
/// count from the admitting packet.
pub fn late_admitted_class(model: &PartitionedTree, flow: &FlowTrace) -> u16 {
    let n = flow.packets.len();
    let windows: Vec<Vec<f32>> = window_bounds(n, model.n_partitions())
        .into_iter()
        .map(|(a, b)| ((a + 1).min(n), (b + 1).min(n)))
        .filter(|(a, b)| a < b)
        .map(|(a, b)| extract_window(flow, &flow.packets[a..b], catalog()))
        .collect();
    model.predict(&windows).class
}

/// Software classes of every flow.
pub fn software_classes(model: &PartitionedTree, flows: &[FlowTrace]) -> Vec<u16> {
    flows.iter().map(|f| software_class(model, f)).collect()
}

/// One verdict digest, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Canonical register slot.
    pub slot: u64,
    /// Ownership-lane fingerprint.
    pub fp: u64,
    /// Verdict class.
    pub class: u16,
    /// Trace timestamp of the deciding packet (µs).
    pub ts_us: u64,
}

/// Decodes digests with the compiled digest layout.
pub fn verdicts(digests: &[Digest], io: &CompiledIo) -> Vec<Verdict> {
    digests
        .iter()
        .map(|d| Verdict {
            slot: d.values[io.digest_flow_idx],
            fp: d.values[io.digest_fp],
            class: d.values[io.digest_class] as u16,
            ts_us: d.ts_us,
        })
        .collect()
}

/// What the oracle knows of one schedule flow.
#[derive(Debug, Clone)]
pub struct OracleFlow {
    /// Generator label.
    pub label: u16,
    /// Absolute trace time of the first packet (µs).
    pub first_ts: u64,
    /// Absolute trace time of the last packet (µs).
    pub last_ts: u64,
    /// Canonical slot.
    pub slot: u64,
    /// Canonical fingerprint.
    pub fp: u64,
    /// Whether the known SYN-ACK fault can reach the flow: it opens SYN
    /// then SYN-ACK, and its SYN arrives while an earlier flow on its slot
    /// is still live.
    pub fault_candidate: bool,
    /// Whether a verdict corrupted by the known SYN-ACK fault counts as a
    /// failed operation (fixed inputs) or is left out (seeded inputs).
    pub fault_counts: bool,
}

/// The schedule as the oracle sees it.
pub struct Schedule {
    /// Per flow, in schedule order.
    pub flows: Vec<OracleFlow>,
    by_key: HashMap<(u64, u64), usize>,
}

/// A model epoch: the swap that began it and the software class of every
/// flow under its model.
#[derive(Clone)]
pub struct Epoch {
    /// `(ts of the last frame before the swap, ts of the first frame
    /// after it)`; `None` for the model live at session start.
    pub swap: Option<(u64, u64)>,
    /// Software class per flow.
    pub expected: Vec<u16>,
    /// Software class of each fault candidate admitted at its SYN-ACK
    /// ([`late_admitted_class`]): the verdict the known SYN-ACK fault
    /// produces.
    pub truncated: Vec<Option<u16>>,
}

/// The result of checking one session.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Flows checked (the schedule's flow count).
    pub attempted: u64,
    /// Failed operations: wrong, doubled, lost and unowned verdicts, plus
    /// fault-corrupted verdicts of flows whose faults count.
    pub failed: u64,
    /// Verdicts that differ from software inference, fault ones excluded.
    pub wrong: u64,
    /// Flows decided more than once.
    pub double: u64,
    /// Flows that should have been decided but were not.
    pub lost: u64,
    /// Verdicts no schedule flow owns.
    pub unowned: u64,
    /// Wrong verdicts the known SYN-ACK fault explains and that count.
    pub fault_failed: u64,
    /// Wrong verdicts the known SYN-ACK fault explains on seeded inputs,
    /// where the number of victims depends on the seed: left out.
    pub fault_left_out: u64,
    /// Verdicts not checked against a model because a swap fell inside
    /// the flow's life.
    pub straddling: u64,
    /// First verdict per flow: `(class, ts_us)`.
    pub decided: Vec<Option<(u16, u64)>>,
}

impl Schedule {
    /// Builds the oracle view of `flows` starting at `starts` over
    /// `slots` register slots. `fault_counts[i]` says whether flow `i`'s
    /// fault-corrupted verdict is a failed operation.
    pub fn new(flows: &[FlowTrace], starts: &[u64], slots: usize, fault_counts: &[bool]) -> Self {
        let mut by_key = HashMap::new();
        let mut by_slot: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut flows: Vec<OracleFlow> = flows
            .iter()
            .zip(starts)
            .zip(fault_counts)
            .enumerate()
            .map(|(i, ((f, &start), &fault_counts))| {
                let o = OracleFlow {
                    label: f.label,
                    first_ts: start + f.packets[0].ts_us,
                    last_ts: start + f.packets.last().map_or(0, |p| p.ts_us),
                    slot: canonical_flow_index(f, slots) as u64,
                    fp: canonical_flow_fp(f),
                    fault_candidate: f.packets.len() > 1
                        && f.packets[0].tcp_flags == SYN
                        && f.packets[1].tcp_flags == SYN | ACK,
                    fault_counts,
                };
                // Two flows sharing (slot, fp) are indistinguishable on the
                // wire; mark the key ambiguous.
                by_key.entry((o.slot, o.fp)).and_modify(|v| *v = usize::MAX).or_insert(i);
                by_slot.entry(o.slot).or_default().push(i);
                o
            })
            .collect();
        for i in 0..flows.len() {
            let f = &flows[i];
            let live_owner = f.fault_candidate
                && by_slot[&f.slot].iter().any(|&g| {
                    let o = &flows[g];
                    g != i && o.first_ts <= f.first_ts && o.last_ts >= f.first_ts
                });
            flows[i].fault_candidate = live_owner;
        }
        Self { flows, by_key }
    }

    /// The epoch of `model`, live from `swap` on.
    pub fn epoch(
        &self,
        swap: Option<(u64, u64)>,
        model: &PartitionedTree,
        flows: &[FlowTrace],
    ) -> Epoch {
        let truncated = flows
            .iter()
            .zip(&self.flows)
            .map(|(f, o)| o.fault_candidate.then(|| late_admitted_class(model, f)))
            .collect();
        Epoch { swap, expected: software_classes(model, flows), truncated }
    }

    /// Checks one session's verdicts. `every_flow_decided` makes a flow
    /// without a verdict a failed operation.
    pub fn check(
        &self,
        verdicts: &[Verdict],
        epochs: &[Epoch],
        every_flow_decided: bool,
    ) -> Outcome {
        let n = self.flows.len();
        let mut out = Outcome { attempted: n as u64, decided: vec![None; n], ..Default::default() };
        let mut count = vec![0u32; n];
        for v in verdicts {
            match self.by_key.get(&(v.slot, v.fp)) {
                Some(&i) if i != usize::MAX => {
                    count[i] += 1;
                    if out.decided[i].is_none() {
                        out.decided[i] = Some((v.class, v.ts_us));
                    }
                }
                _ => out.unowned += 1,
            }
        }
        for (i, &c) in count.iter().enumerate() {
            match c {
                0 if every_flow_decided => out.lost += 1,
                0 | 1 => {}
                _ => out.double += 1,
            }
            let Some((class, ts)) = out.decided[i] else { continue };
            let Some(e) = self.epoch_of(i, ts, epochs) else {
                out.straddling += 1;
                continue;
            };
            if class == epochs[e].expected[i] {
                continue;
            }
            if epochs[e].truncated[i] == Some(class) && self.fault_explains(i, &out.decided) {
                if self.flows[i].fault_counts {
                    out.fault_failed += 1;
                } else {
                    out.fault_left_out += 1;
                }
            } else {
                out.wrong += 1;
            }
        }
        out.failed = out.wrong + out.double + out.lost + out.unowned + out.fault_failed;
        out
    }

    /// The epoch a flow decided at `verdict_ts` lived in wholly, if any.
    /// Timelines are sorted, so a packet stamped after the last pre-swap
    /// frame ran after the swap, and one stamped before the first
    /// post-swap frame ran before it.
    fn epoch_of(&self, i: usize, verdict_ts: u64, epochs: &[Epoch]) -> Option<usize> {
        let f = &self.flows[i];
        (0..epochs.len()).find(|&e| {
            let began = epochs[e].swap.is_none_or(|(last_before, _)| f.first_ts > last_before);
            let ended = epochs
                .get(e + 1)
                .and_then(|next| next.swap)
                .is_none_or(|(_, first_after)| verdict_ts < first_after);
            began && ended
        })
    }

    /// The known SYN-ACK fault: under `LifecyclePolicy::tcp()` a flow's
    /// SYN that meets a live, undecided owner of its slot is suppressed,
    /// and its SYN-ACK then claims the lane once the owner decides — the
    /// flow is classified over a truncated prefix. A wrong verdict is
    /// attributed to it only when it is the software class of the flow
    /// admitted at its SYN-ACK (checked by the caller) and its SYN arrived
    /// while another flow on the same slot had started and not yet been
    /// decided.
    fn fault_explains(&self, i: usize, decided: &[Option<(u16, u64)>]) -> bool {
        let f = &self.flows[i];
        f.fault_candidate
            && self.flows.iter().enumerate().any(|(g, o)| {
                g != i
                    && o.slot == f.slot
                    && o.first_ts <= f.first_ts
                    && decided[g].map_or(o.last_ts, |(_, ts)| ts) >= f.first_ts
            })
    }
}

/// Resubmissions of every flow when `frames` run once, one frame at a
/// time, through a bare `Pipeline` on `program`: the sum of
/// `FrameOutcome::passes - 1` over the flow's frames.
pub fn resubmits_per_flow(
    program: &Program,
    fields: &StandardFields,
    frames: &FrameArena,
    n_flows: usize,
) -> Vec<u32> {
    let mut pipe = Pipeline::new(program.clone());
    let mut resubmits = vec![0u32; n_flows];
    for k in 0..frames.len() {
        let (frame, ts) = frames.get(k);
        let passes = pipe.process_frame(frame, ts, fields).map_or(1, |o| o.passes);
        pipe.clear_digests();
        resubmits[frames.frame_ref(k).flow as usize] += passes.saturating_sub(1);
    }
    resubmits
}

/// Macro-F1 over classes that occur in `truth` or `pred`.
pub fn macro_f1(truth: &[u16], pred: &[u16], n_classes: usize) -> f64 {
    let mut tp = vec![0u64; n_classes];
    let mut fp = vec![0u64; n_classes];
    let mut fnn = vec![0u64; n_classes];
    for (&t, &p) in truth.iter().zip(pred) {
        if t == p {
            tp[t as usize] += 1;
        } else {
            fp[p as usize] += 1;
            fnn[t as usize] += 1;
        }
    }
    let (mut sum, mut k) = (0.0, 0usize);
    for c in 0..n_classes {
        if tp[c] + fp[c] + fnn[c] == 0 {
            continue;
        }
        sum += 2.0 * tp[c] as f64 / (2 * tp[c] + fp[c] + fnn[c]) as f64;
        k += 1;
    }
    if k == 0 {
        0.0
    } else {
        sum / k as f64
    }
}

/// Macro-F1 of the first verdicts of the flows `keep` selects.
pub fn f1_of(
    sched: &Schedule,
    out: &Outcome,
    n_classes: usize,
    keep: impl Fn(usize, u64) -> bool,
) -> f64 {
    let (mut truth, mut pred) = (Vec::new(), Vec::new());
    for (i, d) in out.decided.iter().enumerate() {
        if let Some((class, ts)) = *d {
            if keep(i, ts) {
                truth.push(sched.flows[i].label);
                pred.push(class);
            }
        }
    }
    macro_f1(&truth, &pred, n_classes)
}

/// Time to detection per decided flow (µs): verdict ts minus first packet.
pub fn ttd_us(sched: &Schedule, out: &Outcome) -> Vec<f64> {
    out.decided
        .iter()
        .zip(&sched.flows)
        .filter_map(|(d, f)| d.map(|(_, ts)| ts.saturating_sub(f.first_ts) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splidt_flow::{Dir, FiveTuple, TracePacket};

    fn flow(i: u32, label: u16, flags: &[u8]) -> FlowTrace {
        FlowTrace {
            tuple: FiveTuple {
                src_ip: 0x0a00_0000 | i,
                dst_ip: 0xc0a8_0001,
                src_port: 40_000 + i as u16,
                dst_port: 443,
                proto: 6,
            },
            packets: flags
                .iter()
                .enumerate()
                .map(|(j, &f)| TracePacket {
                    ts_us: j as u64 * 10,
                    frame_len: 64,
                    hdr_len: 58,
                    tcp_flags: f,
                    dir: if j % 2 == 0 { Dir::Fwd } else { Dir::Bwd },
                })
                .collect(),
            label,
        }
    }

    fn verdict(s: &Schedule, i: usize, class: u16, ts_us: u64) -> Verdict {
        Verdict { slot: s.flows[i].slot, fp: s.flows[i].fp, class, ts_us }
    }

    fn three_flows() -> Schedule {
        let flows: Vec<_> = (0..3).map(|i| flow(i, i as u16, &[SYN, SYN | ACK, ACK])).collect();
        Schedule::new(&flows, &[0, 1_000, 2_000], 1 << 16, &[true; 3])
    }

    fn one_epoch() -> Vec<Epoch> {
        vec![Epoch { swap: None, expected: vec![0, 1, 2], truncated: vec![None; 3] }]
    }

    #[test]
    fn correct_session_passes() {
        let s = three_flows();
        let v: Vec<_> = (0..3).map(|i| verdict(&s, i, i as u16, 2_000 + i as u64)).collect();
        let o = s.check(&v, &one_epoch(), true);
        assert_eq!((o.attempted, o.failed), (3, 0));
        assert_eq!(f1_of(&s, &o, 3, |_, _| true), 1.0);
    }

    #[test]
    fn wrong_lost_and_double_verdicts_are_failed() {
        let s = three_flows();
        // Flow 0 wrong, flow 1 lost, flow 2 decided twice.
        let v = vec![verdict(&s, 0, 2, 20), verdict(&s, 2, 2, 2_020), verdict(&s, 2, 2, 2_030)];
        let o = s.check(&v, &one_epoch(), true);
        assert_eq!((o.wrong, o.lost, o.double, o.failed), (1, 1, 1, 3));
        // Lost flows are not failures where the workload does not promise
        // a verdict for every flow.
        assert_eq!(s.check(&v, &one_epoch(), false).failed, 2);
    }

    #[test]
    fn unowned_verdict_is_failed() {
        let s = three_flows();
        let mut v: Vec<_> = (0..3).map(|i| verdict(&s, i, i as u16, 2_000)).collect();
        v.push(Verdict { slot: 7, fp: 7, class: 0, ts_us: 9 });
        assert_eq!(s.check(&v, &one_epoch(), true).unowned, 1);
    }

    #[test]
    fn epochs_pick_the_model_live_for_the_whole_flow() {
        let s = three_flows();
        // Swap between ts 1_005 and 1_010: flow 0 (0..20) ran before it,
        // flow 1 (1_000..1_020) straddles it, flow 2 (2_000..) after it.
        let epochs = vec![
            Epoch { swap: None, expected: vec![0, 9, 9], truncated: vec![None; 3] },
            Epoch { swap: Some((1_005, 1_010)), expected: vec![9, 9, 2], truncated: vec![None; 3] },
        ];
        let v = vec![verdict(&s, 0, 0, 20), verdict(&s, 1, 5, 1_020), verdict(&s, 2, 2, 2_020)];
        let o = s.check(&v, &epochs, true);
        assert_eq!((o.failed, o.straddling), (0, 1));
    }

    #[test]
    fn syn_ack_fault_is_counted_or_left_out() {
        // Flow 1 shares flow 0's slot (same tuple hash forced by cloning
        // the tuple, different fingerprint faked below) and opens while
        // flow 0 is still undecided.
        let f0 = flow(1, 0, &[SYN, SYN | ACK, ACK, ACK]);
        let mut f1 = flow(2, 1, &[SYN, SYN | ACK, ACK]);
        f1.tuple.src_port = f0.tuple.src_port;
        f1.tuple.src_ip = f0.tuple.src_ip;
        let flows = vec![f0, f1];
        for counts in [true, false] {
            let mut s = Schedule::new(&flows, &[0, 5], 1 << 16, &[counts; 2]);
            s.flows[1].fp ^= 1;
            s.by_key = s.flows.iter().enumerate().map(|(i, f)| ((f.slot, f.fp), i)).collect();
            assert!(s.flows[1].fault_candidate && !s.flows[0].fault_candidate);
            // Flow 1 admitted at its SYN-ACK is class 3 in software.
            let epochs =
                vec![Epoch { swap: None, expected: vec![0, 1], truncated: vec![None, Some(3)] }];
            let v = vec![verdict(&s, 0, 0, 30), verdict(&s, 1, 3, 25)];
            let o = s.check(&v, &epochs, true);
            assert_eq!(o.wrong, 0);
            assert_eq!((o.fault_failed, o.fault_left_out), if counts { (1, 0) } else { (0, 1) });
            assert_eq!(o.failed, u64::from(counts));
            // Any other wrong class on the same flow is not the fault's.
            let v = vec![verdict(&s, 0, 0, 30), verdict(&s, 1, 2, 25)];
            let o = s.check(&v, &epochs, true);
            assert_eq!((o.wrong, o.fault_failed, o.fault_left_out, o.failed), (1, 0, 0, 1));
        }
    }

    #[test]
    fn engine_session_passes_and_corruptions_are_caught() {
        use crate::frames::{timeline, FrameArena};
        use splidt_core::engine::EngineBuilder;
        use splidt_flow::{generate, DatasetId};

        let model = crate::fixtures::train_model(usize::MAX);
        let flows = generate(DatasetId::D2, 40, 99);
        let starts: Vec<u64> = (0..flows.len() as u64).map(|k| 1_000 + k * 3_000).collect();
        let frames = FrameArena::build(&flows, &timeline(&flows, &starts));
        let mut engine = EngineBuilder::new(&model).flow_slots(1 << 16).build().unwrap();
        let report = engine.ingest_batch((0..frames.len()).map(|k| frames.get(k))).unwrap();
        let sched = Schedule::new(&flows, &starts, 1 << 16, &vec![false; flows.len()]);
        let epochs = vec![sched.epoch(None, &model, &flows)];
        let v = verdicts(&report.digests, engine.io());
        let slot_unique = sched.by_key.values().all(|&i| i != usize::MAX);
        assert!(slot_unique);
        assert_eq!(sched.check(&v, &epochs, true).failed, 0, "data plane agrees with software");

        let mut wrong = v.clone();
        wrong[0].class = (wrong[0].class + 1) % model.n_classes as u16;
        assert_eq!(sched.check(&wrong, &epochs, true).wrong, 1);
        let mut doubled = v.clone();
        doubled.push(v[3]);
        assert_eq!(sched.check(&doubled, &epochs, true).double, 1);
        let lost = &v[1..];
        let o = sched.check(lost, &epochs, true);
        assert_eq!((o.lost, o.failed), (1, 1));
    }

    #[test]
    fn churn_fixture_fault_victim_is_flow_374_only() {
        use crate::fixtures as fx;
        use crate::frames::{timeline, FrameArena};

        let model = fx::train_model(usize::MAX);
        let fixed = splidt_flow::churn(
            fx::DATASET,
            &splidt_flow::ChurnConfig {
                flows: fx::CHURN_FIXED_FLOWS,
                mean_arrival_gap_us: 500,
                lifetime_scale: 0.05,
                syn_open_frac: 0.95,
                rst_close_frac: 0.25,
                drift_at: None,
                drift_profile: Default::default(),
                seed: fx::CHURN_FIXED_SEED,
            },
        );
        let (flows, starts) = (&fixed.flows, &fixed.starts);
        let frames = FrameArena::build(flows, &timeline(flows, starts));
        let mut engine = fx::churn_engine(&model);
        let report = engine.ingest_batch((0..frames.len()).map(|k| frames.get(k))).unwrap();
        let sched = Schedule::new(flows, starts, fx::CHURN_SLOTS, &vec![true; flows.len()]);
        let epochs = vec![sched.epoch(None, &model, flows)];
        let o = sched.check(&verdicts(&report.digests, engine.io()), &epochs, false);
        assert_eq!((o.fault_failed, o.wrong, o.double, o.unowned), (1, 0, 0, 0));
        assert_eq!(o.failed, 1);
        // Data plane class 2, software class 1, class 2 once admitted late.
        assert_eq!(o.decided[374].map(|d| d.0), Some(2));
        assert_eq!((epochs[0].expected[374], epochs[0].truncated[374]), (1, Some(2)));
    }

    #[test]
    fn macro_f1_matches_hand_computation() {
        // Class 0: tp 1, fn 1 → 2/3; class 1: tp 1, fp 1 → 2/3.
        let f = macro_f1(&[0, 0, 1], &[0, 1, 1], 2);
        assert!((f - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(macro_f1(&[], &[], 4), 0.0);
    }
}
