//! Set-up: from a workload's IR programs to every artefact built from
//! them — the CPU engines the run uses, plus the FSM (`kiwi::compile`)
//! and the Verilog (`kiwi::verilog::emit`) of each distinct program.

use crate::metrics::{median, Metrics};
use crate::Scale;
use emu_core::Service;
use kiwi::IpBlock;
use std::collections::VecDeque;
use std::time::Instant;

/// Most set-up repetitions in one run.
const MAX_REPS: usize = 200;

/// One distinct IR program of a workload, with the IP blocks its
/// hardware design attaches (for `kiwi::estimate`).
pub struct Program {
    /// Service label used as the per-service metric suffix.
    pub label: &'static str,
    /// The service (its IR program and environment recipe).
    pub service: Service,
    /// IP blocks the hardware design adds to the generated logic.
    pub blocks: Vec<IpBlock>,
}

/// Hardware artefacts of one program and the time they took.
#[derive(Debug, Clone)]
pub struct Hardware {
    /// The program's label.
    pub label: &'static str,
    /// `kiwi::compile` wall time.
    pub fsm_s: f64,
    /// `kiwi::verilog::emit` wall time.
    pub verilog_s: f64,
    /// Size of the emitted Verilog.
    pub verilog_bytes: u64,
    /// `kiwi::estimate` logic units.
    pub logic: u64,
    /// `kiwi::estimate` memory units.
    pub memory: u64,
}

/// Compiles and emits every program once.
///
/// # Panics
///
/// Panics if a shipped service fails to compile or emit — a defect in
/// the repository, which the benchmark must not hide.
pub fn build_hardware(programs: &[Program]) -> Vec<Hardware> {
    programs
        .iter()
        .map(|p| {
            let t0 = Instant::now();
            let fsm = kiwi::compile(&p.service.program)
                .unwrap_or_else(|e| panic!("{}: kiwi::compile failed: {e}", p.label));
            let fsm_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let verilog = kiwi::verilog::emit(&fsm)
                .unwrap_or_else(|e| panic!("{}: verilog::emit failed: {e}", p.label));
            let verilog_s = t1.elapsed().as_secs_f64();
            let est = kiwi::estimate(&fsm, &p.blocks);
            Hardware {
                label: p.label,
                fsm_s,
                verilog_s,
                verilog_bytes: verilog.len() as u64,
                logic: est.logic,
                memory: est.memory,
            }
        })
        .collect()
}

/// Set-up times over several repetitions.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Whole set-up time per repetition.
    pub total_s: Vec<f64>,
    /// CPU engine build time per repetition.
    pub engines_s: Vec<f64>,
    /// Hardware artefacts per repetition (sizes repeat exactly).
    pub hardware: Vec<Vec<Hardware>>,
}

/// Runs the set-up at least `scale.setup_reps` times and until
/// `scale.setup_budget_s` has passed: `build` makes the CPU engines,
/// then every program is compiled and emitted. Returns the timings and
/// the engines of the last `keep` repetitions, oldest first.
pub fn measure<E>(
    programs: &[Program],
    scale: &Scale,
    keep: usize,
    mut build: impl FnMut() -> E,
) -> (Setup, Vec<E>) {
    let mut setup = Setup::default();
    let mut kept = VecDeque::new();
    let start = Instant::now();
    while setup.total_s.len() < scale.setup_reps.max(keep)
        || (start.elapsed().as_secs_f64() < scale.setup_budget_s && setup.total_s.len() < MAX_REPS)
    {
        let t0 = Instant::now();
        let engines = build();
        let engines_s = t0.elapsed().as_secs_f64();
        let hw = build_hardware(programs);
        setup.total_s.push(t0.elapsed().as_secs_f64());
        setup.engines_s.push(engines_s);
        setup.hardware.push(hw);
        kept.push_back(engines);
        if kept.len() > keep {
            kept.pop_front();
        }
    }
    (setup, kept.into())
}

impl Setup {
    fn last(&self) -> &[Hardware] {
        self.hardware.last().expect("set-up ran at least once")
    }

    fn sum(&self, f: impl Fn(&Hardware) -> u64) -> u64 {
        self.last().iter().map(f).sum()
    }

    fn median_of(&self, f: impl Fn(&Hardware) -> f64) -> f64 {
        let per_rep: Vec<f64> = self
            .hardware
            .iter()
            .map(|hw| hw.iter().map(&f).sum())
            .collect();
        median(&per_rep)
    }

    /// End-to-end metrics of the set-up: `setup_s`, `verilog_bytes`,
    /// `fpga_logic`.
    pub fn end_to_end(&self, m: &mut Metrics) {
        m.push("setup_s", median(&self.total_s), "s");
        m.push(
            "verilog_bytes",
            self.sum(|h| h.verilog_bytes) as f64,
            "bytes",
        );
        m.push("fpga_logic", self.sum(|h| h.logic) as f64, "count");
    }

    /// Per-layer metrics of the `kiwi` compiler, totals and per
    /// service.
    pub fn layers(&self, m: &mut Metrics) {
        m.push("kiwi.fsm_ms", self.median_of(|h| h.fsm_s) * 1e3, "ms");
        m.push(
            "kiwi.verilog_ms",
            self.median_of(|h| h.verilog_s) * 1e3,
            "ms",
        );
        m.push(
            "kiwi.verilog_bytes",
            self.sum(|h| h.verilog_bytes) as f64,
            "bytes",
        );
        m.push("kiwi.logic", self.sum(|h| h.logic) as f64, "count");
        m.push("kiwi.memory", self.sum(|h| h.memory) as f64, "count");
        for h in self.last() {
            let one = |f: &dyn Fn(&Hardware) -> f64| {
                median(
                    &self
                        .hardware
                        .iter()
                        .filter_map(|hw| hw.iter().find(|x| x.label == h.label))
                        .map(f)
                        .collect::<Vec<_>>(),
                )
            };
            m.push(
                format!("kiwi.fsm_ms.{}", h.label),
                one(&|x| x.fsm_s) * 1e3,
                "ms",
            );
            m.push(
                format!("kiwi.verilog_ms.{}", h.label),
                one(&|x| x.verilog_s) * 1e3,
                "ms",
            );
            m.push(
                format!("kiwi.verilog_bytes.{}", h.label),
                h.verilog_bytes as f64,
                "bytes",
            );
            m.push(format!("kiwi.logic.{}", h.label), h.logic as f64, "count");
            m.push(format!("kiwi.memory.{}", h.label), h.memory as f64, "count");
        }
    }

    /// True when every repetition emitted the same hardware sizes (the
    /// determinism gate).
    pub fn sizes_repeat(&self) -> bool {
        let key = |hw: &[Hardware]| {
            hw.iter()
                .map(|h| (h.verilog_bytes, h.logic, h.memory))
                .collect::<Vec<_>>()
        };
        self.hardware.windows(2).all(|w| key(&w[0]) == key(&w[1]))
    }
}
