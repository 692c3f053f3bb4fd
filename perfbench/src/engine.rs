//! The engine workloads, nat-churn and icmp-imix.
//!
//! A run builds its engines and hardware artefacts (set-up), drives a
//! fixed-length reference pass on one engine, then the timed run on a
//! second engine for the requested wall time. The first
//! `Scale::det_batches` batches of the timed run must reproduce the
//! reference pass's deterministic values exactly. Only
//! `Engine::process_batch` is timed: generation and checking run
//! outside the timed region, and checker time is a layer metric.
//!
//! Traced runs then replay the reference pass's first batches through
//! fresh engines to time single layers and ablations of existing
//! `EngineBuilder` settings.

use crate::icmp::{IcmpCheck, Imix, SIZES};
use crate::metrics::{
    diff, fp, low_rate, median, peak_rss_mb, ratio, tail, Fingerprint, Metrics, Outcome,
};
use crate::nat::{self, NatFeed};
use crate::setup::{self, Program};
use crate::{Scale, RATE_WINDOW_S};
use emu_core::{BatchReport, Engine, EngineBuilder, EngineError, NatSteering, Target};
use emu_telemetry::CamCounters;
use emu_traffic::{Checker, NatChecker};
use emu_types::Frame;
use netfpga_sim::timing::NS_PER_CYCLE;
use std::hint::black_box;
use std::time::Instant;

/// A frame source for an engine workload.
pub trait Feed {
    /// The next batch of `n` frames.
    fn next(&mut self, n: usize) -> Vec<Frame>;

    /// Frames to offer right after `batch`, given its report (NAT's
    /// bounced replies). None by default.
    fn follow_up(&mut self, _batch: &[Frame], _report: &BatchReport) -> Vec<Frame> {
        Vec::new()
    }
}

impl Feed for Imix {
    fn next(&mut self, n: usize) -> Vec<Frame> {
        self.batch(n, None)
    }
}

/// A change to the workload's engine configuration (an ablation).
pub type Tweak = for<'a> fn(EngineBuilder<'a>) -> EngineBuilder<'a>;

/// How an engine workload builds, feeds and checks its engine.
pub struct Case {
    /// The workload's one IR program.
    pub program: Program,
    /// Shards of the workload's engine.
    pub shards: usize,
    configure: for<'a> fn(EngineBuilder<'a>, &Scale) -> EngineBuilder<'a>,
    feed: fn(u64) -> Box<dyn Feed>,
    checker: fn(&Scale) -> Box<dyn Checker>,
    /// Also time each IMIX size class alone.
    size_classes: bool,
}

/// nat-churn: the NAT on a two-shard engine with NAT steering and
/// 10^6-entry tables, under the soak bench's churn mix. The shards run
/// in sequence: on a two-core host, shard threads would share the cores
/// with the benchmark's own thread, and their rate would follow the
/// neighbours' load. Traced runs measure the threads as an ablation.
pub fn nat_churn() -> Case {
    Case {
        program: Program {
            label: "nat",
            service: emu_services::nat(nat::public()),
            blocks: Vec::new(),
        },
        shards: 2,
        configure: |b, s| {
            b.shards(2)
                .parallel(false)
                .dispatch(NatSteering::default())
                .table_entries(s.table_entries)
                .ttl_frames(nat::TTL_FRAMES)
        },
        feed: |seed| Box::new(NatFeed::new(seed)),
        checker: |s| {
            Box::new(
                NatChecker::new(nat::public(), 2)
                    .with_table(s.table_entries, Some(nat::TTL_FRAMES)),
            )
        },
        size_classes: false,
    }
}

/// icmp-imix: the ICMP echo responder on one compiled shard, under
/// Simple-IMIX echo requests.
pub fn icmp_imix() -> Case {
    Case {
        program: Program {
            label: "icmp_echo",
            service: emu_services::icmp_echo(),
            blocks: Vec::new(),
        },
        shards: 1,
        configure: |b, _| b,
        feed: |seed| Box::new(Imix::new(seed)),
        checker: |_| Box::new(IcmpCheck::new()),
        size_classes: true,
    }
}

fn keep(b: EngineBuilder<'_>) -> EngineBuilder<'_> {
    b
}

impl Case {
    fn build(&self, scale: &Scale, tweak: Tweak) -> Engine {
        tweak((self.configure)(
            self.program.service.engine(Target::Cpu),
            scale,
        ))
        .build()
        .unwrap_or_else(|e| panic!("{}: engine build failed: {e}", self.program.label))
    }
}

/// One engine driven by a feed, under a checker.
struct Runner {
    engine: Engine,
    checker: Box<dyn Checker>,
    feed: Box<dyn Feed>,
    batch: usize,
    /// Wall time of every `process_batch` call.
    calls: Vec<f64>,
    /// Frames and `process_batch` time of every step.
    steps: Vec<(f64, f64)>,
    frames: u64,
    /// Frames that trapped a shard or met a poisoned one.
    traps: u64,
    check_s: f64,
    /// Every batch offered, kept when the run is traced.
    record: Option<Vec<Vec<Frame>>>,
}

impl Runner {
    fn new(case: &Case, engine: Engine, seed: u64, scale: &Scale, record: bool) -> Self {
        Runner {
            engine,
            checker: (case.checker)(scale),
            feed: (case.feed)(seed),
            batch: scale.batch,
            calls: Vec::new(),
            steps: Vec::new(),
            frames: 0,
            traps: 0,
            check_s: 0.0,
            record: record.then(Vec::new),
        }
    }

    fn offer(&mut self, frames: Vec<Frame>) -> BatchReport {
        let t = Instant::now();
        let report = self.engine.process_batch(black_box(&frames));
        self.calls.push(t.elapsed().as_secs_f64());
        self.frames += frames.len() as u64;
        self.traps += report
            .outputs
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Err(EngineError::Trap { .. } | EngineError::Poisoned { .. })
                )
            })
            .count() as u64;
        let t = Instant::now();
        self.checker.check_batch(&frames, &report);
        self.check_s += t.elapsed().as_secs_f64();
        if let Some(rec) = &mut self.record {
            rec.push(frames);
        }
        report
    }

    /// One batch plus its follow-up frames.
    fn step(&mut self) {
        let (calls, frames) = (self.calls.len(), self.frames);
        let batch = self.feed.next(self.batch);
        let report = self.offer(batch.clone());
        let replies = self.feed.follow_up(&batch, &report);
        if !replies.is_empty() {
            self.offer(replies);
        }
        let secs = self.calls[calls..].iter().sum();
        self.steps.push(((self.frames - frames) as f64, secs));
    }

    /// Checker violations and trapped frames so far, as errors.
    fn faults(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if self.checker.violations() > 0 {
            errors.push(format!(
                "{}: {} violations",
                self.checker.name(),
                self.checker.violations()
            ));
            errors.extend(self.checker.notes().iter().cloned());
        }
        if self.traps > 0 {
            errors.push(format!(
                "{} frames trapped or met a poisoned shard",
                self.traps
            ));
        }
        errors
    }

    /// The deterministic values so far: telemetry counters, model-cycle
    /// quantiles, CAM counters and checker verdicts.
    fn fingerprint(&self) -> Fingerprint {
        let snap = self
            .engine
            .telemetry()
            .expect("workload engines keep telemetry on")
            .total();
        let c = &snap.counters;
        let mut cam = CamCounters::default();
        for t in &snap.cams {
            cam.merge(t);
        }
        let q = |p: f64| snap.cycles.quantile(p).unwrap_or(0);
        [
            ("offered", self.frames),
            ("frames", c.frames),
            ("rx_bytes", c.rx_bytes),
            ("tx_frames", c.tx_frames),
            ("tx_bytes", c.tx_bytes),
            ("busy_cycles", c.busy_cycles),
            ("drop_oversize", c.drop_oversize),
            ("drop_trap", c.drop_trap),
            ("drop_poisoned", c.drop_poisoned),
            ("cycles_p50", q(0.50)),
            ("cycles_p99", q(0.99)),
            ("cam_lookups", cam.lookups),
            ("cam_hits", cam.hits),
            ("cam_writes", cam.writes),
            ("cam_evictions", cam.evictions),
            ("cam_expiries", cam.expiries),
            ("cam_occupancy", cam.occupancy),
            ("violations", self.checker.violations()),
            ("traps", self.traps),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// Runs an engine workload.
pub fn run(case: &Case, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Outcome {
    let (setup, mut engines) =
        setup::measure(std::slice::from_ref(&case.program), scale, 2, || {
            case.build(scale, keep)
        });
    let main = engines.pop().expect("two engines kept");
    let reference = engines.pop().expect("two engines kept");

    // Reference pass: the deterministic values the timed run must
    // repeat, and in traced runs the frames the ablations replay.
    let mut reference = Runner::new(case, reference, seed, scale, trace);
    for _ in 0..scale.det_batches {
        reference.step();
    }
    let expected = reference.fingerprint();
    let mut replay = reference.record.take().unwrap_or_default();
    replay.truncate(scale.replay_batches);
    let mut errors = reference.faults();
    drop(reference);

    let mut run = Runner::new(case, main, seed, scale, false);
    let t0 = Instant::now();
    let mut steps = 0;
    let mut prefix = None;
    while steps < scale.det_batches || t0.elapsed().as_secs_f64() < seconds {
        run.step();
        steps += 1;
        if steps == scale.det_batches {
            prefix = Some(run.fingerprint());
        }
    }
    let prefix = prefix.expect("the run covers the reference pass");
    let rss = peak_rss_mb();

    errors.extend(run.faults());
    for d in diff(&expected, &prefix) {
        errors.push(format!("determinism: reference pass and run differ on {d}"));
    }
    if !setup.sizes_repeat() {
        errors.push("determinism: hardware sizes differ across set-ups".into());
    }
    let mut out = Outcome {
        attempted: run.frames,
        failed: run.checker.violations() + run.traps,
        errors,
        fingerprint: prefix.clone(),
        ..Outcome::default()
    };

    let busy: f64 = run.calls.iter().sum();
    let (pct, tail_s) = tail(&run.calls);
    let m = &mut out.end_to_end;
    m.push("frames_per_s", run.frames as f64 / busy, "1/s");
    m.push(
        "frames_per_s_p10",
        low_rate(&run.steps, RATE_WINDOW_S),
        "1/s",
    );
    m.push("batch_us_p50", median(&run.calls) * 1e6, "us");
    m.push("batch_us_tail", tail_s * 1e6, "us");
    m.push(
        "model_p50_ns",
        fp(&prefix, "cycles_p50") as f64 * NS_PER_CYCLE,
        "ns",
    );
    m.push(
        "model_p99_ns",
        fp(&prefix, "cycles_p99") as f64 * NS_PER_CYCLE,
        "ns",
    );
    setup.end_to_end(m);
    m.push(
        "failed_share",
        ratio(out.failed as f64, out.attempted as f64),
        "share",
    );
    m.push("peak_rss_mb", rss, "MiB");
    out.notes.push(format!(
        "batch_us_tail is p{pct:.3} of {} process_batch calls",
        run.calls.len()
    ));

    if trace {
        let l = &mut out.layers;
        setup.layers(l);
        l.push("kiwi_ir.build_ms", median(&setup.engines_s) * 1e3, "ms");
        let end = run.fingerprint();
        l.push(
            "kiwi_ir.cycles_per_frame",
            ratio(
                fp(&prefix, "busy_cycles") as f64,
                fp(&prefix, "frames") as f64,
            ),
            "cycles",
        );
        l.push(
            "kiwi_ir.ns_per_cycle",
            ratio(busy * 1e9, fp(&end, "busy_cycles") as f64),
            "ns",
        );
        cam_layers(l, &prefix);
        l.push(
            "check.us_per_frame",
            ratio(run.check_s * 1e6, run.checker.frames() as f64),
            "us",
        );
        drop(run);
        probe_layers(case, seed, scale, &replay, l);
    }
    out
}

/// `cam.*` metrics from a fingerprint.
pub fn cam_layers(l: &mut Metrics, f: &Fingerprint) {
    let frames = fp(f, "frames") as f64;
    l.push(
        "cam.lookups_per_frame",
        ratio(fp(f, "cam_lookups") as f64, frames),
        "count",
    );
    l.push(
        "cam.hit_ratio",
        ratio(fp(f, "cam_hits") as f64, fp(f, "cam_lookups") as f64),
        "share",
    );
    l.push(
        "cam.writes_per_frame",
        ratio(fp(f, "cam_writes") as f64, frames),
        "count",
    );
    l.push("cam.evictions", fp(f, "cam_evictions") as f64, "count");
    l.push("cam.expiries", fp(f, "cam_expiries") as f64, "count");
    l.push("cam.occupancy", fp(f, "cam_occupancy") as f64, "count");
}

/// Summed `process_batch` wall time over `batches`.
fn replay_s(engine: &mut Engine, batches: &[Vec<Frame>]) -> f64 {
    batches
        .iter()
        .map(|b| {
            let t = Instant::now();
            black_box(engine.process_batch(black_box(b)));
            t.elapsed().as_secs_f64()
        })
        .sum()
}

/// Median replay times of the workload's engine and of `alt`,
/// alternating fresh engines.
fn paired(case: &Case, scale: &Scale, batches: &[Vec<Frame>], alt: Tweak) -> (f64, f64) {
    let (mut base_s, mut alt_s) = (Vec::new(), Vec::new());
    for _ in 0..scale.ablation_reps {
        base_s.push(replay_s(&mut case.build(scale, keep), batches));
        alt_s.push(replay_s(&mut case.build(scale, alt), batches));
    }
    (median(&base_s), median(&alt_s))
}

/// Layer probes the traced replay takes after every batch.
#[derive(Default)]
struct Probes {
    snapshot_s: Vec<f64>,
    dispatch_s: f64,
    per_shard: Vec<u64>,
}

/// A replay with a telemetry snapshot and a dispatch lookup of every
/// frame after each batch; returns the summed `process_batch` time.
fn traced_replay(engine: &mut Engine, batches: &[Vec<Frame>], p: &mut Probes) -> f64 {
    p.per_shard = vec![0; engine.num_shards()];
    let mut busy = 0.0;
    for b in batches {
        let t = Instant::now();
        black_box(engine.process_batch(black_box(b)));
        busy += t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(engine.telemetry());
        p.snapshot_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for f in b {
            p.per_shard[engine.shard_of(black_box(f))] += 1;
        }
        p.dispatch_s += t.elapsed().as_secs_f64();
    }
    busy
}

/// Per-layer metrics from replays and ablations of the reference pass's
/// frames.
fn probe_layers(case: &Case, seed: u64, scale: &Scale, batches: &[Vec<Frame>], l: &mut Metrics) {
    let frames = batches.iter().map(Vec::len).sum::<usize>() as f64;

    let (base, none) = paired(case, scale, batches, |b| b.passes(&[]));
    l.push("kiwi_ir.passes_gain", none / base, "ratio");
    let (base, scalar) = paired(case, scale, batches, |b| b.batching(false));
    l.push("core.lockstep_gain", scalar / base, "ratio");
    if case.shards > 1 {
        let (base, par) = paired(case, scale, batches, |b| b.parallel(true));
        l.push("core.thread_speedup", base / par, "ratio");
    }
    let (on, off) = paired(case, scale, batches, |b| b.telemetry(false));
    l.push(
        "telemetry.record_ns_per_frame",
        (on - off) / frames * 1e9,
        "ns",
    );

    // Tracing overhead: the same replay with and without the probes.
    let mut probes = Probes::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..scale.ablation_reps {
        plain.push(replay_s(&mut case.build(scale, keep), batches));
        traced.push(traced_replay(
            &mut case.build(scale, keep),
            batches,
            &mut probes,
        ));
    }
    let (plain, traced) = (median(&plain), median(&traced));
    l.push("trace.frames_per_s.untraced", frames / plain, "1/s");
    l.push("trace.frames_per_s.traced", frames / traced, "1/s");
    l.push("trace.overhead", 1.0 - plain / traced, "share");
    l.push(
        "telemetry.snapshot_us",
        median(&probes.snapshot_s) * 1e6,
        "us",
    );
    if case.shards > 1 {
        l.push(
            "core.dispatch_ns",
            probes.dispatch_s / (frames * scale.ablation_reps as f64) * 1e9,
            "ns",
        );
        let mean = frames / probes.per_shard.len() as f64;
        let max = probes.per_shard.iter().copied().max().unwrap_or(0) as f64;
        l.push("core.shard_skew", max / mean, "ratio");
    }

    // The scalar entry point, one call per frame.
    let mut engine = case.build(scale, keep);
    let t = Instant::now();
    for f in batches.iter().flatten() {
        let _ = black_box(engine.process(black_box(f)));
    }
    l.push(
        "core.scalar_us_per_frame",
        t.elapsed().as_secs_f64() / frames * 1e6,
        "us",
    );

    if case.size_classes {
        for len in SIZES {
            let mut imix = Imix::new(seed);
            let class: Vec<Vec<Frame>> = (0..scale.class_batches)
                .map(|_| imix.batch(scale.batch, Some(len)))
                .collect();
            let n = (scale.class_batches * scale.batch) as f64;
            let s = median(
                &(0..scale.ablation_reps)
                    .map(|_| replay_s(&mut case.build(scale, keep), &class))
                    .collect::<Vec<_>>(),
            );
            l.push(format!("dataplane.us_per_frame.{len}"), s / n * 1e6, "us");
        }
    }
}
