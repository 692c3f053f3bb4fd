//! fabric-chaos: the `topo` bench's chaos point, run for wall time.
//!
//! The default fat-tree (10 engines, 9 closed-loop window-1 clients)
//! with 2% loss, 2% duplication and 5% reorder with 2 µs jitter on
//! every link. The simulation advances in fixed slices of simulated
//! time; only `NetSim::run_until` is timed, and after every slice the
//! clients' outcomes go through `ClientCheck`.

use crate::engine::cam_layers;
use crate::metrics::{
    diff, fp, low_rate, median, peak_rss_mb, ratio, tail, Fingerprint, Metrics, Outcome,
};
use crate::setup::{self, Program};
use crate::{Scale, RATE_WINDOW_S};
use emu_core::Target;
use emu_hosts::{fat_tree, ClientConfig, Topo, TopoSpec, TopoSummary};
use emu_telemetry::{CamCounters, ShardStats};
use emu_traffic::ClientCheck;
use netsim::{Impairments, NodeId};
use std::hint::black_box;
use std::time::Instant;

/// Retransmissions per request. Five straight losses of a request or
/// its response are expected a few times per 10^5 requests on this
/// fabric; ten retries make a timeout a real failure.
pub const RETRIES: u32 = 10;

/// The fabric for `seed`.
pub fn spec(seed: u64) -> TopoSpec {
    TopoSpec {
        seed,
        impair: Some(Impairments {
            loss: 0.02,
            duplicate: 0.02,
            reorder: 0.05,
            jitter_ns: 2_000.0,
            seed: seed ^ 2,
        }),
        client: ClientConfig {
            // Clients never run out of requests within a run.
            requests: 1 << 40,
            retries: RETRIES,
            ..ClientConfig::default()
        },
        ..TopoSpec::default()
    }
}

/// The fabric's distinct programs.
pub fn programs(spec: &TopoSpec) -> Vec<Program> {
    vec![
        Program {
            label: "switch",
            service: emu_services::switch_ip_cam(),
            blocks: emu_services::switch::switch_ip_cam_blocks(),
        },
        Program {
            label: "memcached",
            service: emu_services::memcached(),
            blocks: Vec::new(),
        },
        Program {
            label: "dns",
            service: emu_services::dns_server(emu_hosts::topo::zone(spec.zone_names)),
            blocks: Vec::new(),
        },
        Program {
            label: "tcp_ping",
            service: emu_services::tcp_ping(),
            blocks: Vec::new(),
        },
    ]
}

/// A fabric advanced slice by slice.
struct Sim {
    topo: Topo,
    check: ClientCheck,
    now_ns: f64,
    events: u64,
    /// Wall time of every `run_until` slice.
    slices: Vec<f64>,
    /// Requests completed and `run_until` time of every checked slice.
    rates: Vec<(f64, f64)>,
    harvest_s: f64,
    sum: TopoSummary,
    /// Wall time of every `Engine::telemetry` call, when probing.
    snapshot_s: Vec<f64>,
}

impl Sim {
    fn new(mut topo: Topo) -> Self {
        let check = ClientCheck::new(RETRIES).rtt_floor_ns(topo.rtt_floor_ns());
        topo.start();
        Sim {
            topo,
            check,
            now_ns: 0.0,
            events: 0,
            slices: Vec::new(),
            rates: Vec::new(),
            harvest_s: 0.0,
            sum: TopoSummary::default(),
            snapshot_s: Vec::new(),
        }
    }

    fn engines(&self) -> Vec<NodeId> {
        let services = self.topo.services.iter().map(|&(n, _)| n);
        self.topo.switches.iter().copied().chain(services).collect()
    }

    /// Advances one slice; checks the outcomes unless `harvest` is off.
    fn slice(&mut self, step_ns: f64, harvest: bool, probe: bool) -> Result<(), String> {
        self.now_ns += step_ns;
        let t = Instant::now();
        let events = self
            .topo
            .net
            .run_until(self.now_ns)
            .map_err(|e| format!("simulation aborted: {e}"))?;
        self.slices.push(t.elapsed().as_secs_f64());
        self.events += events;
        if harvest {
            let done = self.sum.completed;
            self.harvest();
            let secs = *self.slices.last().expect("pushed above");
            self.rates.push(((self.sum.completed - done) as f64, secs));
        }
        if probe {
            for node in self.engines() {
                let engine = self.topo.net.engine_mut(node).expect("engine node");
                let t = Instant::now();
                black_box(engine.telemetry());
                self.snapshot_s.push(t.elapsed().as_secs_f64());
            }
        }
        Ok(())
    }

    fn harvest(&mut self) {
        let t = Instant::now();
        self.sum = self.topo.harvest(&mut self.check);
        self.harvest_s += t.elapsed().as_secs_f64();
    }

    fn requests_per_s(&self) -> f64 {
        self.sum.completed as f64 / self.slices.iter().sum::<f64>()
    }

    /// Client counters, RTT quantiles, event and engine-frame counts,
    /// CAM counters and impairment draws so far.
    fn fingerprint(&mut self) -> Fingerprint {
        let mut total = ShardStats::new();
        let mut drops = 0;
        for node in self.engines() {
            drops += self.topo.net.service_drops(node);
            let engine = self.topo.net.engine_mut(node).expect("engine node");
            if let Some(snap) = engine.telemetry() {
                total.merge(&snap.total());
            }
        }
        let mut cam = CamCounters::default();
        for t in &total.cams {
            cam.merge(t);
        }
        let s = &self.sum;
        let imp = self.topo.net.impair_stats;
        let q = |p: f64| s.rtt.quantile(p).unwrap_or(0);
        [
            ("issued", s.issued),
            ("completed", s.completed),
            ("retransmits", s.retransmits),
            ("duplicates", s.duplicates),
            ("timeouts", s.timeouts),
            ("mismatches", s.mismatches),
            ("ignored", s.ignored),
            ("rtt_samples", s.rtt.count()),
            ("rtt_p50", q(0.50)),
            ("rtt_p99", q(0.99)),
            ("events", self.events),
            ("offered", total.counters.offered()),
            ("frames", total.counters.frames),
            ("busy_cycles", total.counters.busy_cycles),
            ("service_drops", drops),
            ("cam_lookups", cam.lookups),
            ("cam_hits", cam.hits),
            ("cam_writes", cam.writes),
            ("cam_evictions", cam.evictions),
            ("cam_expiries", cam.expiries),
            ("cam_occupancy", cam.occupancy),
            ("lost", imp.lost),
            ("duplicated", imp.duplicated),
            ("reordered", imp.reordered),
            ("violations", self.check.violations()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// Runs fabric-chaos.
pub fn run(seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Outcome {
    let spec = spec(seed);
    let programs = programs(&spec);
    let (setup, mut topos) = setup::measure(&programs, scale, 2, || {
        fat_tree(spec).expect("fabric engines build")
    });
    let main = topos.pop().expect("two fabrics kept");
    let reference = topos.pop().expect("two fabrics kept");
    let step = scale.fabric_step_ns;
    let det_slices = ((scale.fabric_det_ns / step).round() as usize).max(1);
    let mut out = Outcome::default();

    let mut reference = Sim::new(reference);
    for _ in 0..det_slices {
        if let Err(e) = reference.slice(step, true, false) {
            out.errors.push(e);
            return out;
        }
    }
    let expected = reference.fingerprint();
    let ref_violations = reference.check.violations();
    drop(reference);

    let mut sim = Sim::new(main);
    let t0 = Instant::now();
    let mut steps = 0;
    let mut prefix = None;
    while steps < det_slices || t0.elapsed().as_secs_f64() < seconds {
        if let Err(e) = sim.slice(step, true, false) {
            out.errors.push(e);
            return out;
        }
        steps += 1;
        if steps == det_slices {
            prefix = Some(sim.fingerprint());
        }
    }
    let prefix = prefix.expect("the run covers the reference pass");
    let rss = peak_rss_mb();

    let s = &sim.sum;
    out.attempted = s.issued;
    out.failed = s.timeouts + s.mismatches;
    out.fingerprint = prefix.clone();
    for d in diff(&expected, &prefix) {
        out.errors
            .push(format!("determinism: reference pass and run differ on {d}"));
    }
    if !setup.sizes_repeat() {
        out.errors
            .push("determinism: hardware sizes differ across set-ups".into());
    }
    let violations = sim.check.violations() + ref_violations;
    if violations > 0 {
        out.errors
            .push(format!("{}: {violations} violations", sim.check.name()));
        out.errors.extend(sim.check.notes().iter().cloned());
    }
    if out.failed > 0 {
        out.notes.push(format!(
            "{} requests timed out, {} got a wrong response",
            s.timeouts, s.mismatches
        ));
    }

    let (pct, tail_s) = tail(&sim.slices);
    let m = &mut out.end_to_end;
    m.push("requests_per_s", sim.requests_per_s(), "1/s");
    m.push(
        "requests_per_s_p10",
        low_rate(&sim.rates, RATE_WINDOW_S),
        "1/s",
    );
    m.push("slice_us_p50", median(&sim.slices) * 1e6, "us");
    m.push("slice_us_tail", tail_s * 1e6, "us");
    m.push("rtt_p50_ns", fp(&prefix, "rtt_p50") as f64, "ns");
    m.push("rtt_p99_ns", fp(&prefix, "rtt_p99") as f64, "ns");
    setup.end_to_end(m);
    m.push(
        "failed_share",
        ratio(out.failed as f64, out.attempted as f64),
        "share",
    );
    m.push("peak_rss_mb", rss, "MiB");
    out.notes.push(format!(
        "slice_us_tail is p{pct:.3} of {} run_until slices of {} ms simulated time",
        sim.slices.len(),
        step / 1e6
    ));

    if trace {
        let run_s: f64 = sim.slices.iter().sum();
        let l = &mut out.layers;
        setup.layers(l);
        l.push("hosts.build_s", median(&setup.engines_s), "s");
        engine_builds(&programs, &spec, scale, l);
        l.push(
            "kiwi_ir.cycles_per_frame",
            ratio(
                fp(&prefix, "busy_cycles") as f64,
                fp(&prefix, "frames") as f64,
            ),
            "cycles",
        );
        cam_layers(l, &prefix);
        l.push(
            "check.us_per_frame",
            ratio(sim.harvest_s * 1e6, sim.check.frames() as f64),
            "us",
        );
        let done = fp(&prefix, "completed") as f64;
        l.push("netsim.run_s", run_s, "s");
        l.push(
            "netsim.ns_per_event",
            ratio(run_s * 1e9, sim.events as f64),
            "ns",
        );
        l.push(
            "netsim.events_per_request",
            ratio(fp(&prefix, "events") as f64, done),
            "count",
        );
        l.push(
            "netsim.engine_frames_per_request",
            ratio(fp(&prefix, "offered") as f64, done),
            "count",
        );
        for k in ["lost", "duplicated", "reordered"] {
            l.push(format!("netsim.{k}"), fp(&prefix, k) as f64, "count");
        }
        l.push(
            "hosts.retransmits_per_request",
            ratio(fp(&prefix, "retransmits") as f64, done),
            "count",
        );
        l.push(
            "hosts.duplicates_per_request",
            ratio(fp(&prefix, "duplicates") as f64, done),
            "count",
        );
        l.push("hosts.timeouts", fp(&prefix, "timeouts") as f64, "count");
        drop(sim);
        tracing_overhead(spec, scale, l);
    }
    out
}

/// `kiwi_ir.build_ms`: one `EngineBuilder::build` per distinct program,
/// with the fabric's engine settings.
fn engine_builds(programs: &[Program], spec: &TopoSpec, scale: &Scale, l: &mut Metrics) {
    let mut per_program = vec![Vec::new(); programs.len()];
    for _ in 0..scale.ablation_reps {
        for (p, times) in programs.iter().zip(&mut per_program) {
            let t = Instant::now();
            let engine = p
                .service
                .engine(Target::Cpu)
                .shards(spec.shards)
                .parallel(spec.parallel)
                .backend(spec.backend)
                .build()
                .unwrap_or_else(|e| panic!("{}: engine build failed: {e}", p.label));
            times.push(t.elapsed().as_secs_f64());
            drop(black_box(engine));
        }
    }
    let medians: Vec<f64> = per_program.iter().map(|t| median(t)).collect();
    l.push("kiwi_ir.build_ms", medians.iter().sum::<f64>() * 1e3, "ms");
    for (p, m) in programs.iter().zip(medians) {
        l.push(format!("kiwi_ir.build_ms.{}", p.label), m * 1e3, "ms");
    }
}

/// The same stretch of simulated time with and without per-slice
/// probes (outcome checks and a telemetry snapshot of every engine).
fn tracing_overhead(spec: TopoSpec, scale: &Scale, l: &mut Metrics) {
    let slices = ((scale.fabric_replay_ns / scale.fabric_step_ns).round() as usize).max(1);
    let (mut plain, mut traced, mut snapshots) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..scale.ablation_reps {
        for probe in [false, true] {
            let mut sim = Sim::new(fat_tree(spec).expect("fabric engines build"));
            for _ in 0..slices {
                sim.slice(scale.fabric_step_ns, probe, probe)
                    .expect("the run itself completed");
            }
            sim.harvest();
            if probe {
                traced.push(sim.requests_per_s());
                snapshots.extend(sim.snapshot_s);
            } else {
                plain.push(sim.requests_per_s());
            }
        }
    }
    let (plain, traced) = (median(&plain), median(&traced));
    l.push("trace.requests_per_s.untraced", plain, "1/s");
    l.push("trace.requests_per_s.traced", traced, "1/s");
    l.push("trace.overhead", 1.0 - traced / plain, "share");
    l.push("telemetry.snapshot_us", median(&snapshots) * 1e6, "us");
}
