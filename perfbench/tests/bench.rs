//! The benchmark's own tests, at tiny sizes: every named metric is
//! emitted with its unit, deterministic values repeat, and corrupted
//! replies are caught by the checkers.

use emu_core::Target;
use emu_perfbench::icmp::{echo_request, IcmpCheck};
use emu_perfbench::metrics::{result_line, Outcome};
use emu_perfbench::{nat, run, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use emu_telemetry::Json;
use emu_traffic::{Checker, NatChecker};

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    let out = run(workload, seed, 0.0, trace, &Scale::tiny()).expect("known workload");
    assert!(out.correct(), "{workload}: {:?}", out.errors);
    assert!(out.attempted > 0, "{workload} attempted nothing");
    out
}

/// Metrics each workload reports end to end, beyond the result line's.
fn own_metrics(workload: &str) -> &'static [&'static str] {
    match workload {
        "fabric-chaos" => &[
            "requests_per_s",
            "requests_per_s_p10",
            "slice_us_p50",
            "slice_us_tail",
            "rtt_p50_ns",
            "rtt_p99_ns",
        ],
        _ => &[
            "frames_per_s",
            "frames_per_s_p10",
            "batch_us_p50",
            "batch_us_tail",
            "model_p50_ns",
            "model_p99_ns",
        ],
    }
}

/// Per-layer metrics only some workloads measure.
fn own_layers(workload: &str) -> Vec<&'static str> {
    let engine = vec![
        "kiwi_ir.ns_per_cycle",
        "kiwi_ir.passes_gain",
        "core.lockstep_gain",
        "core.scalar_us_per_frame",
        "telemetry.record_ns_per_frame",
        "trace.frames_per_s.traced",
        "trace.frames_per_s.untraced",
    ];
    let own: &[&str] = match workload {
        "nat-churn" => &[
            "core.dispatch_ns",
            "core.shard_skew",
            "core.thread_speedup",
            "kiwi.verilog_bytes.nat",
        ],
        "icmp-imix" => &[
            "dataplane.us_per_frame.64",
            "dataplane.us_per_frame.594",
            "dataplane.us_per_frame.1514",
            "kiwi.logic.icmp_echo",
        ],
        _ => {
            return vec![
                "netsim.run_s",
                "netsim.ns_per_event",
                "netsim.events_per_request",
                "netsim.engine_frames_per_request",
                "netsim.lost",
                "netsim.duplicated",
                "netsim.reordered",
                "hosts.build_s",
                "hosts.retransmits_per_request",
                "hosts.duplicates_per_request",
                "hosts.timeouts",
                "trace.requests_per_s.traced",
                "trace.requests_per_s.untraced",
                "kiwi_ir.build_ms.tcp_ping",
                "kiwi.verilog_bytes.tcp_ping",
            ]
        }
    };
    engine.into_iter().chain(own.iter().copied()).collect()
}

/// The names and units of `BENCHMARK.json`'s metric list `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_result_lines() {
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let declared_e2e: Vec<String> = declared("end_to_end").into_iter().map(|m| m.0).collect();
    assert_eq!(declared_e2e, e2e);
    let declared_layers: Vec<String> = declared("per_layer").into_iter().map(|m| m.0).collect();
    assert_eq!(declared_layers, PER_LAYER);
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for w in WORKLOADS {
        let out = tiny(w.name, 1, true);
        let e2e_units = declared("end_to_end");
        let layer_units = declared("per_layer");
        for (name, aliases) in END_TO_END {
            let m = aliases
                .iter()
                .find_map(|a| out.end_to_end.get(a))
                .unwrap_or_else(|| panic!("{}: no {name}", w.name));
            let unit = &e2e_units.iter().find(|d| d.0 == name).expect("declared").1;
            assert_eq!(m.unit, unit, "{}: unit of {name}", w.name);
        }
        for name in ["setup_s", "failed_share", "peak_rss_mb"]
            .iter()
            .chain(own_metrics(w.name))
        {
            let m = out
                .end_to_end
                .get(name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name));
            assert!(
                !m.unit.is_empty() && m.value.is_finite(),
                "{}: {m:?}",
                w.name
            );
        }
        for name in PER_LAYER.iter().chain(&own_layers(w.name)) {
            let m = out
                .layers
                .get(name)
                .unwrap_or_else(|| panic!("{}: no layer metric {name}", w.name));
            assert!(
                !m.unit.is_empty() && m.value.is_finite(),
                "{}: {m:?}",
                w.name
            );
            if let Some(d) = layer_units.iter().find(|d| d.0 == *name) {
                assert_eq!(m.unit, d.1, "{}: unit of {name}", w.name);
            }
        }
        for (names, metrics) in [
            (END_TO_END.to_vec(), &out.end_to_end),
            (
                PER_LAYER
                    .iter()
                    .map(|n| (*n, std::slice::from_ref(n)))
                    .collect(),
                &out.layers,
            ),
        ] {
            let line = Json::parse(&result_line(&out, metrics, &names)).expect("one JSON line");
            let keys: Vec<&str> = line
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let got = line.get("metrics").and_then(Json::as_obj).expect("metrics");
            assert_eq!(got.len(), names.len(), "{}", w.name);
            for (_, m) in got {
                assert!(m.get("value").and_then(Json::as_f64).is_some());
                assert!(m.get("unit").and_then(Json::as_str).is_some());
            }
        }
    }
}

#[test]
fn deterministic_values_repeat() {
    let deterministic = [
        "model_p50_ns",
        "model_p99_ns",
        "rtt_p50_ns",
        "rtt_p99_ns",
        "failed_share",
        "verilog_bytes",
        "fpga_logic",
    ];
    for w in WORKLOADS {
        let (a, b) = (tiny(w.name, 5, false), tiny(w.name, 5, false));
        assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name);
        assert_eq!(a.attempted, b.attempted, "{}", w.name);
        for name in deterministic {
            assert_eq!(
                a.end_to_end.get(name).map(|m| m.value),
                b.end_to_end.get(name).map(|m| m.value),
                "{}: {name}",
                w.name
            );
        }
        let other = tiny(w.name, 6, false);
        assert_ne!(
            a.fingerprint, other.fingerprint,
            "{}: the seed is ignored",
            w.name
        );
    }
}

#[test]
fn corrupted_icmp_reply_is_caught() {
    let mut engine = emu_services::icmp_echo()
        .engine(Target::Cpu)
        .build()
        .expect("engine");
    for len in emu_perfbench::icmp::SIZES {
        let req = echo_request(len, 7, 2);
        let out = engine.process(&req).expect("reply");
        assert_eq!(IcmpCheck::verify(&req, &out), None, "{len} B");
        for byte in [0, 27, 34, 37, len - 1] {
            let mut bad = out.clone();
            bad.tx[0].frame.bytes_mut()[byte] ^= 0x10;
            assert!(
                IcmpCheck::verify(&req, &bad).is_some(),
                "{len} B, byte {byte}"
            );
        }
        let mut check = IcmpCheck::new();
        let mut bad = out.clone();
        bad.tx.clear();
        check.observe(&req, &Ok(bad));
        assert_eq!(check.violations(), 1);
    }
}

#[test]
fn corrupted_nat_translation_is_caught() {
    let svc = emu_services::nat(nat::public());
    let mut engine = svc.engine(Target::Cpu).build().expect("engine");
    let frames = emu_traffic::TrafficGen::take(&mut nat::mix(3), 64)
        .into_iter()
        .filter(|f| f.in_port != 0)
        .collect::<Vec<_>>();
    let mut report = engine.process_batch(&frames);
    let mut clean = NatChecker::new(nat::public(), 1);
    clean.check_batch(&frames, &report);
    assert_eq!(clean.violations(), 0, "{:?}", clean.notes());
    let out = report
        .outputs
        .iter_mut()
        .filter_map(|r| r.as_mut().ok())
        .find(|o| !o.tx.is_empty())
        .expect("a translated frame");
    // The IPv4 source address: the NAT must have rewritten it.
    out.tx[0].frame.bytes_mut()[29] ^= 0x01;
    let mut check = NatChecker::new(nat::public(), 1);
    check.check_batch(&frames, &report);
    assert!(check.violations() > 0);
}
