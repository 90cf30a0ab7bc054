//! An in-memory frame source for `splidt_net::run_ingress`, paced on the
//! trace's own timestamps compressed to a fixed offered rate. It runs on
//! the service's receiver thread, so it also measures what that thread
//! sees: how late each frame was taken, and the thread's CPU time.
//! It sleeps rather than spins while waiting, so the process CPU time
//! over a session is the program's busy time at that load.

use crate::frames::FrameArena;
use splidt_net::{FrameBurst, FrameSource};
use std::io;
use std::time::{Duration, Instant};

/// What the source observed; owned by the caller, filled on the
/// receiver thread.
#[derive(Default)]
pub struct SourceLog {
    /// Per frame, ns from due time to the receiver taking it.
    pub lat_ns: Vec<u32>,
    /// CPU ns of the receiver thread from the first call to the end.
    pub receiver_cpu_ns: u64,
    /// Frames handed out.
    pub offered: u64,
}

/// Paced replay of `frames[lo..hi]` at `rate` frames per second.
pub struct PacedSource<'a> {
    frames: &'a FrameArena,
    next: usize,
    hi: usize,
    t0: u64,
    ns_per_us: f64,
    start: Option<(Instant, u64)>,
    log: &'a mut SourceLog,
}

impl<'a> PacedSource<'a> {
    /// A source over `frames[lo..hi]`.
    pub fn new(
        frames: &'a FrameArena,
        lo: usize,
        hi: usize,
        rate: f64,
        log: &'a mut SourceLog,
    ) -> Self {
        let t0 = frames.get(lo).1;
        let span_us = (frames.get(hi - 1).1 - t0).max(1);
        let ns_per_us = (hi - lo) as f64 / rate * 1e9 / span_us as f64;
        log.lat_ns.reserve(hi - lo);
        Self { frames, next: lo, hi, t0, ns_per_us, start: None, log }
    }

    fn due(&self, k: usize) -> u64 {
        ((self.frames.get(k).1 - self.t0) as f64 * self.ns_per_us) as u64
    }
}

impl FrameSource for PacedSource<'_> {
    /// Unpaced single-frame pull; the service pulls paced bursts.
    fn next_frame(&mut self, buf: &mut [u8]) -> io::Result<Option<(usize, u64)>> {
        if self.next >= self.hi {
            return Ok(None);
        }
        let (frame, ts) = self.frames.get(self.next);
        let n = frame.len().min(buf.len());
        buf[..n].copy_from_slice(&frame[..n]);
        self.next += 1;
        self.log.offered += 1;
        Ok(Some((n, ts)))
    }

    fn next_burst(&mut self, burst: &mut FrameBurst) -> io::Result<bool> {
        burst.clear();
        let (start, cpu0) =
            *self.start.get_or_insert_with(|| (Instant::now(), crate::sys::thread_cpu_ns()));
        if self.next >= self.hi {
            self.log.receiver_cpu_ns = crate::sys::thread_cpu_ns() - cpu0;
            return Ok(false);
        }
        let mut now = start.elapsed().as_nanos() as u64;
        let first_due = self.due(self.next);
        if first_due > now {
            std::thread::sleep(Duration::from_nanos(first_due - now));
            now = start.elapsed().as_nanos() as u64;
        }
        while !burst.is_full() && self.next < self.hi && self.due(self.next) <= now {
            let (frame, ts) = self.frames.get(self.next);
            burst.slot()[..frame.len()].copy_from_slice(frame);
            burst.commit(frame.len(), ts);
            self.log.lat_ns.push((now - self.due(self.next)).min(u32::MAX as u64) as u32);
            self.next += 1;
        }
        self.log.offered += burst.len() as u64;
        Ok(true)
    }
}
