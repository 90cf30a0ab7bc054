//! Host facts and CPU-time clocks: the fingerprint stamped on every
//! result, and the steal / run-queue counters that show a disturbed run.

use std::fmt::Write as _;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // The C library `std` already links on Linux.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and both clock ids exist on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) of the whole process, all threads, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Steal ticks summed over all CPUs (`/proc/stat`, 8th value of `cpu`).
pub fn steal_ticks() -> u64 {
    read("/proc/stat")
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Run-queue wait of the calling thread in ns (`schedstat`, 2nd value).
pub fn runqueue_wait_ns() -> u64 {
    read("/proc/thread-self/schedstat")
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of the process in MiB (`VmHWM`), frames included.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counters sampled at the start of a run; [`Disturbance::since`] turns
/// them into what the run saw.
#[derive(Clone, Copy)]
pub struct Disturbance {
    steal: u64,
    wait_ns: u64,
}

impl Disturbance {
    /// Samples the counters now.
    pub fn start() -> Self {
        Self { steal: steal_ticks(), wait_ns: runqueue_wait_ns() }
    }

    /// `(steal ticks, run-queue wait ms of the driving thread)` since start.
    pub fn since(&self) -> (u64, f64) {
        let now = Self::start();
        (now.steal - self.steal, (now.wait_ns - self.wait_ns) as f64 / 1e6)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host fingerprint as a JSON object: CPU model, `nproc`, cache sizes
/// from `/sys`, and kernel release.
pub fn fingerprint_json() -> String {
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(str::trim)
        .unwrap_or("unknown");
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let size = read(&format!("{dir}/size"));
        if size.is_empty() {
            break;
        }
        let level = read(&format!("{dir}/level"));
        let kind = read(&format!("{dir}/type"));
        caches.push(format!(
            "{}:{}",
            json_str(&format!("L{} {}", level.trim(), kind.trim())),
            json_str(size.trim())
        ));
    }
    format!(
        "{{\"cpu\": {}, \"nproc\": {}, \"caches\": {{{}}}, \"kernel\": {}}}",
        json_str(model),
        nproc,
        caches.join(", "),
        json_str(read("/proc/sys/kernel/osrelease").trim())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0 && process_cpu_ns() > p0, "{x}");
    }

    #[test]
    fn fingerprint_is_json_object() {
        let f = fingerprint_json();
        assert!(f.starts_with('{') && f.ends_with('}') && f.contains("\"nproc\""));
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
