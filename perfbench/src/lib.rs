//! The Emu reproduction's benchmark: three workloads measured end to
//! end, and layer by layer in traced runs. See `README.md` for what
//! each workload is and why it exists.

pub mod engine;
pub mod fabric;
pub mod icmp;
pub mod metrics;
pub mod nat;
pub mod setup;

use metrics::Outcome;

/// A named workload and the reason it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
}

/// Every workload, in the order the benchmark lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "nat-churn",
        why: "the paper's three-target NAT under flow churn: CAM writes and expiry, \
              two-shard dispatch, checksum helpers; small frames",
    },
    Workload {
        name: "icmp-imix",
        why: "the only large frames: per-byte work (frame DMA, the checksum loop, \
              tx extraction) with no CAM, dispatch or threads",
    },
    Workload {
        name: "fabric-chaos",
        why: "a closed-loop impaired fat-tree: NetSim events, links, agent timers and \
              retransmits, scalar Engine::process calls, CAM reads",
    },
];

/// The end-to-end metrics of the result line, each with the names the
/// workloads report it under (the first one measured is used).
pub const END_TO_END: [(&str, &[&str]); 5] = [
    ("ops_per_s", &["frames_per_s_p10", "requests_per_s_p10"]),
    ("setup_s", &["setup_s"]),
    ("peak_rss_mb", &["peak_rss_mb"]),
    ("verilog_bytes", &["verilog_bytes"]),
    ("fpga_logic", &["fpga_logic"]),
];

/// The per-layer metrics of a traced run's result line: those every
/// workload measures. The report lines above it carry the rest.
pub const PER_LAYER: [&str; 16] = [
    "kiwi_ir.build_ms",
    "kiwi.fsm_ms",
    "kiwi.verilog_ms",
    "kiwi.verilog_bytes",
    "kiwi.logic",
    "kiwi.memory",
    "kiwi_ir.cycles_per_frame",
    "cam.lookups_per_frame",
    "cam.hit_ratio",
    "cam.writes_per_frame",
    "cam.evictions",
    "cam.expiries",
    "cam.occupancy",
    "telemetry.snapshot_us",
    "check.us_per_frame",
    "trace.overhead",
];

/// Timed seconds per window of the `*_per_s_p10` rates.
pub const RATE_WINDOW_S: f64 = 0.5;

/// Run sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] keeps
/// the benchmark's own tests fast.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Frames per `process_batch` call.
    pub batch: usize,
    /// Entries per stateful table (nat-churn).
    pub table_entries: usize,
    /// Batches in the deterministic prefix of an engine run.
    pub det_batches: usize,
    /// Batches the engine ablations replay.
    pub replay_batches: usize,
    /// Repetitions of each ablation (the median is reported).
    pub ablation_reps: usize,
    /// Least repetitions of the set-up (the median is reported).
    pub setup_reps: usize,
    /// Set-up repeats until this much time has passed, too.
    pub setup_budget_s: f64,
    /// Batches per IMIX size class run alone (icmp-imix).
    pub class_batches: usize,
    /// Simulated time per `run_until` slice of fabric-chaos.
    pub fabric_step_ns: f64,
    /// Simulated time of fabric-chaos's deterministic prefix.
    pub fabric_det_ns: f64,
    /// Simulated time of the fabric's tracing-overhead replays.
    pub fabric_replay_ns: f64,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            batch: 1024,
            table_entries: 1_000_000,
            det_batches: 100,
            replay_batches: 32,
            ablation_reps: 3,
            setup_reps: 5,
            setup_budget_s: 1.0,
            class_batches: 12,
            fabric_step_ns: 50e6,
            fabric_det_ns: 2e9,
            fabric_replay_ns: 1e9,
        }
    }

    /// Sizes for the benchmark's own tests.
    pub fn tiny() -> Self {
        Scale {
            batch: 32,
            table_entries: 4096,
            det_batches: 4,
            replay_batches: 2,
            ablation_reps: 1,
            setup_reps: 2,
            setup_budget_s: 0.0,
            class_batches: 1,
            fabric_step_ns: 1e6,
            fabric_det_ns: 4e6,
            fabric_replay_ns: 2e6,
        }
    }
}

/// Runs `workload` for `seconds` of measurement; `trace` adds the
/// per-layer probes. `None` for an unknown workload.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Option<Outcome> {
    Some(match workload {
        "nat-churn" => engine::run(&engine::nat_churn(), seed, seconds, trace, scale),
        "icmp-imix" => engine::run(&engine::icmp_imix(), seed, seconds, trace, scale),
        "fabric-chaos" => fabric::run(seed, seconds, trace, scale),
        _ => return None,
    })
}
