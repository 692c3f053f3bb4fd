//! `emu-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, in order: the host facts, the
//! workload's reason for existing, every metric it measured with its
//! unit, notes, and last a one-line JSON result. Exits non-zero when
//! an output fails its checker, a deterministic value does not repeat,
//! or the arguments are wrong.

use emu_perfbench::metrics::{result_line, Metric};
use emu_perfbench::{Scale, END_TO_END, PER_LAYER, WORKLOADS};
use emu_telemetry::Json;
use std::process::ExitCode;

/// nat-churn's shards: a host with fewer cores cannot run them in
/// parallel, so its results are not comparable.
const MIN_CORES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload}; one of {names:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Core count, CPU model, OS/arch and compiler of this host.
fn host() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    Json::obj(vec![
        ("nproc", Json::from(cores)),
        ("cpu", Json::from(cpu)),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
        ("rustc", Json::from(rustc)),
        ("comparable", Json::from(cores >= MIN_CORES)),
    ])
}

/// Jiffies the hypervisor took from this machine's CPUs, and all
/// jiffies, so far (`/proc/stat`); zeros where it is unavailable.
fn cpu_steal() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<36} {:>18} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("emu-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("validated");
    println!("host {}", host());
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!("why: {}", w.why);
    let (steal0, total0) = cpu_steal();
    let out = emu_perfbench::run(w.name, args.seed, args.seconds, args.trace, &Scale::full())
        .expect("validated workload");
    print_metrics("end-to-end", &out.end_to_end.0);
    if args.trace {
        print_metrics("per-layer", &out.layers.0);
    }
    let (steal1, total1) = cpu_steal();
    println!(
        "note: {:.2}% of CPU time was stolen by the hypervisor during the run",
        100.0 * steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64
    );
    for n in &out.notes {
        println!("note: {n}");
    }
    for e in &out.errors {
        println!("error: {e}");
        eprintln!("emu-perfbench: {e}");
    }
    let line = if args.trace {
        let names: Vec<(&str, &[&str])> = PER_LAYER
            .iter()
            .map(|n| (*n, std::slice::from_ref(n)))
            .collect();
        result_line(&out, &out.layers, &names)
    } else {
        result_line(&out, &out.end_to_end, &END_TO_END)
    };
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
