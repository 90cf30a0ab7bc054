//! Pre-built wire frames, kept outside the timed region and outside the
//! program's heap figure.

use crate::alloc;
use splidt_flow::{frame_for_into, FlowTrace};

/// One frame's place in the arena.
#[derive(Debug, Clone, Copy)]
pub struct FrameRef {
    /// Byte offset into the arena.
    pub off: u32,
    /// Frame length in bytes.
    pub len: u16,
    /// Index of the flow the frame belongs to.
    pub flow: u32,
    /// Trace timestamp (µs).
    pub ts_us: u64,
}

/// All frames of a workload in one contiguous buffer, in timeline order.
pub struct FrameArena {
    bytes: Vec<u8>,
    refs: Vec<FrameRef>,
    excluded: usize,
}

impl FrameArena {
    /// Serializes `events` (`(ts_us, flow, packet)` in timeline order)
    /// with `splidt_flow::wire::frame_for_into`. The arena is sized
    /// exactly up front and excluded from the heap figure.
    pub fn build(flows: &[FlowTrace], events: &[(u64, usize, usize)]) -> Self {
        let total: usize =
            events.iter().map(|&(_, i, j)| flows[i].packets[j].frame_len as usize).sum();
        let excluded = total + events.len() * std::mem::size_of::<FrameRef>();
        alloc::exclude(excluded);
        let mut bytes = Vec::with_capacity(total);
        let mut refs = Vec::with_capacity(events.len());
        let mut buf = Vec::with_capacity(2048);
        for &(ts_us, i, j) in events {
            frame_for_into(&flows[i], j, &mut buf);
            refs.push(FrameRef {
                off: u32::try_from(bytes.len()).expect("arena under 4 GiB"),
                len: buf.len() as u16,
                flow: i as u32,
                ts_us,
            });
            bytes.extend_from_slice(&buf);
        }
        assert_eq!(bytes.len(), total, "frame lengths follow the trace");
        Self { bytes, refs, excluded }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Frame `i`'s bytes and trace timestamp.
    #[inline]
    pub fn get(&self, i: usize) -> (&[u8], u64) {
        let r = self.refs[i];
        (&self.bytes[r.off as usize..r.off as usize + r.len as usize], r.ts_us)
    }

    /// Frame `i`'s place (flow index, timestamp).
    pub fn frame_ref(&self, i: usize) -> FrameRef {
        self.refs[i]
    }

    /// Frames `lo..hi` as owned pairs (for sources that take ownership).
    pub fn to_vec(&self, lo: usize, hi: usize) -> Vec<(Vec<u8>, u64)> {
        (lo..hi).map(|i| (self.get(i).0.to_vec(), self.get(i).1)).collect()
    }
}

impl Drop for FrameArena {
    fn drop(&mut self) {
        drop(std::mem::take(&mut self.bytes));
        drop(std::mem::take(&mut self.refs));
        alloc::include(self.excluded);
    }
}

/// The merged timeline of flows starting at `starts[i]`:
/// `(ts_us, flow, packet)` sorted by time, then flow, then packet.
pub fn timeline(flows: &[FlowTrace], starts: &[u64]) -> Vec<(u64, usize, usize)> {
    let mut ev = Vec::with_capacity(flows.iter().map(|f| f.packets.len()).sum());
    for (i, (f, &base)) in flows.iter().zip(starts).enumerate() {
        for (j, p) in f.packets.iter().enumerate() {
            ev.push((base + p.ts_us, i, j));
        }
    }
    ev.sort_unstable();
    ev
}
