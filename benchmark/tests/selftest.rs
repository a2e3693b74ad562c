//! Self-tests: tiny versions of each workload through the same output
//! checks the benchmark applies, and `BENCHMARK.json` against the
//! harness's own metric tables.

use bt_benchmark::reference::Gauge;
use bt_benchmark::report::{measure, result_line, Measurement, END_TO_END, PER_LAYER};
use bt_benchmark::workloads::{run_pass, Size, Workload};
use bt_obs::schema::{parse_json, JsonValue};
use std::collections::BTreeMap;

/// Run one bare and one traced pass of the tiny `workload`.
fn tiny(workload: Workload, seed: u64) -> Measurement {
    measure(workload, seed, &Size::tiny(), 0.0, true)
}

fn assert_passes(m: &Measurement) -> BTreeMap<&'static str, f64> {
    let verdict = m.verdict();
    assert_eq!(verdict.failed, 0, "{:#?}", verdict.lines);
    assert!(verdict.attempted > 0);
    let layer: BTreeMap<_, _> = m
        .per_layer()
        .into_iter()
        .map(|(d, v)| (d.name, v))
        .collect();
    assert_eq!(
        layer.len(),
        PER_LAYER.len(),
        "every per-layer metric reported"
    );
    assert!(layer.values().all(|v| v.is_finite()));
    layer
}

#[test]
fn tiny_table1_matches_the_golden_traces() {
    let m = tiny(Workload::Table1, 42);
    let layer = assert_passes(&m);
    let golden: Vec<_> = m.bare[0].golden.iter().filter(|(_, ok)| *ok).collect();
    assert_eq!(golden.len(), 3, "torrents 8, 7 and 2 compared: {golden:?}");
    assert!(layer["piece.picks"] > 0.0);
    assert!(layer["choke.rounds"] > 0.0);
    assert!(layer["instrument.trace_events"] > 0.0);
    assert!(layer["obs.attributed_frac"] > 0.0);
}

#[test]
fn tiny_crowd_is_deterministic_and_traced_work_matches() {
    for seed in [42, 7] {
        let m = tiny(Workload::Crowd10k, seed);
        let layer = assert_passes(&m);
        assert!(
            m.bare[0].golden.is_empty(),
            "the 10k golden applies only at 10k"
        );
        assert_eq!(m.bare[0].attempted, 200);
        let again = run_pass(
            Workload::Crowd10k,
            seed,
            &Size::tiny(),
            false,
            &mut Gauge::new(),
        );
        assert_eq!(again.digest, m.bare[0].digest);
        assert!(layer["sim.events"] > 0.0);
        assert!(layer["core.inputs.message"] > 0.0);
    }
}

#[test]
fn tiny_loopback_verifies_every_piece() {
    let m = tiny(Workload::Loopback, 42);
    let layer = assert_passes(&m);
    let size = Size::tiny();
    assert_eq!(m.bare[0].payload_bytes, size.loopback_bytes as f64);
    assert_eq!(layer["net.protocol_errors"], 0.0);
    assert_eq!(layer["piece.pieces_completed"], 32.0);
    assert!(layer["wire.encodes"] > 0.0 && layer["wire.decodes"] > 0.0);
    let e2e: BTreeMap<_, _> = m
        .end_to_end()
        .into_iter()
        .map(|(d, v)| (d.name, v))
        .collect();
    assert!(
        e2e.values().all(|v| *v > 0.0),
        "end-to-end metrics are never 0: {e2e:?}"
    );
}

#[test]
fn a_broken_output_fails_the_run() {
    let mut m = tiny(Workload::Crowd10k, 42);
    m.traced[0].work ^= 1;
    let verdict = m.verdict();
    assert_eq!(verdict.failed, 1);
    assert!(result_line(&verdict, &m.end_to_end()).starts_with("{\"correct\": false,"));
}

#[test]
fn result_line_is_one_json_object_with_the_four_keys() {
    let m = tiny(Workload::Table1, 3);
    let line = result_line(&m.verdict(), &m.end_to_end());
    let v = parse_json(&line).expect("result line parses");
    let obj = v.as_object().expect("object");
    let keys: Vec<_> = obj.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = obj["metrics"].as_object().expect("metrics object");
    for def in END_TO_END {
        let m = metrics[def.name].as_object().expect("metric object");
        assert!(m["value"].as_f64().is_some());
        assert_eq!(m["unit"].as_str(), Some(def.unit));
    }
}

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("`{key}` string"))
}

/// `(name, unit, better)` of every metric in a `BENCHMARK.json` list.
fn metric_list(v: &JsonValue, key: &str, keys: &[&str]) -> Vec<(String, String, String)> {
    let list = v
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list");
    list.iter()
        .map(|m| {
            let obj = m.as_object().expect("metric object");
            assert_eq!(obj.keys().map(String::as_str).collect::<Vec<_>>(), keys);
            let unit = str_field(m, "unit");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit `{unit}`"
            );
            (
                str_field(m, "name").to_owned(),
                unit.to_owned(),
                str_field(m, "better").to_owned(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_is_well_formed_and_matches_the_harness() {
    let json = benchmark_json();
    let obj = json.as_object().expect("object");
    let keys: Vec<_> = obj.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let secs = json
        .get("run_seconds")
        .and_then(JsonValue::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&secs));
    let workloads = json
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads");
    let names: Vec<_> = workloads.iter().map(|w| str_field(w, "name")).collect();
    let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for w in workloads {
        let why = str_field(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = metric_list(&json, "end_to_end", &["better", "bound", "name", "unit"]);
    let layer = metric_list(&json, "per_layer", &["better", "name", "unit"]);
    assert!(!e2e.is_empty() && e2e.len() <= 16);
    assert!(!layer.is_empty() && layer.len() <= 128);
    let mut seen = std::collections::BTreeSet::new();
    for (name, _, better) in e2e.iter().chain(&layer) {
        assert!(is_name(name), "metric name `{name}`");
        assert!(seen.insert(name.clone()), "metric `{name}` listed twice");
        assert!(better == "lower" || better == "higher");
    }
    for m in json
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap()
    {
        let bound = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let as_tuples = |defs: &[bt_benchmark::report::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
            .collect()
    };
    assert_eq!(e2e, as_tuples(END_TO_END), "end_to_end matches the harness");
    assert_eq!(layer, as_tuples(PER_LAYER), "per_layer matches the harness");
    assert!(e2e.contains(&("setup_s".into(), "s".into(), "lower".into())));
}

#[test]
fn reference_scale_is_nominal_over_mean_slice() {
    use bt_benchmark::reference::{scale, NOMINAL_SLICE_S};
    assert_eq!(scale(&[]), 1.0, "no slices: raw times");
    assert!((scale(&[NOMINAL_SLICE_S; 3]) - 1.0).abs() < 1e-12);
    assert!((scale(&[NOMINAL_SLICE_S, 3.0 * NOMINAL_SLICE_S]) - 0.5).abs() < 1e-12);
    let mut gauge = Gauge::new();
    assert_eq!(gauge.resident_mib(), 0.0);
    assert!(gauge.slice() > 0.0);
    assert_eq!(gauge.resident_mib(), 4.0);
}
