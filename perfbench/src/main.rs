//! Wire-to-verdict benchmark for the SpliDT reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scaled|churn|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints diagnostic JSON lines (host fingerprint, disturbance, checks),
//! then as the last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

mod alloc;
mod drive;
mod fixtures;
mod frames;
mod layers;
mod oracle;
mod source;
mod stats;
mod sys;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload scaled|churn|serve --seed N --seconds S --trace 0|1");
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("--seed takes an integer")),
            "--seconds" => {
                seconds = value.parse().unwrap_or_else(|_| usage("--seconds takes a number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload else { usage("--workload is required") };
    let args = workloads::Args { seed, seconds, trace };
    let disturbance = sys::Disturbance::start();
    let Some(report) = workloads::run(&workload, args) else {
        usage(&format!("unknown workload {workload}"))
    };
    let (steal, wait_ms) = disturbance.since();
    println!("{{\"host\": {}}}", sys::fingerprint_json());
    println!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \
         \"steal_ticks\": {steal}, \"runqueue_wait_ms\": {wait_ms:.3}, \"peak_rss_mib\": {:.1}}}",
        u8::from(trace),
        sys::peak_rss_mib()
    );
    for note in &report.notes {
        println!("{note}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// A JSON number with all its digits; non-finite values become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
