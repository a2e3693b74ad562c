//! The metric tables, the measurement loop, and the result line.

use crate::host::peak_rss_mb;
use crate::reference::Gauge;
use crate::workloads::{run_pass, setup_only, Pass, Size, Workload, LOOPBACK_PEERS};
use bt_obs::{Profile, SpanStat};
use std::collections::BTreeMap;
use std::time::Instant;

/// One metric as `BENCHMARK.json` lists it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics, reported by bare runs (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
    higher("payload_bytes_per_s", "B/s"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`). A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    lower("torrents.build_spec_s", "s"),
    lower("sim.new_s", "s"),
    lower("sim.run_s", "s"),
    lower("sim.events", "count"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.ns_per_event", "ns"),
    lower("sim.blocks_delivered", "count"),
    lower("sim.transfer_rounds", "count"),
    lower("sim.tracker_announces", "count"),
    lower("sim.event_pop.self_s", "s"),
    lower("sim.event.self_s", "s"),
    lower("core.inputs.message", "count"),
    lower("core.inputs.tick", "count"),
    lower("core.inputs.peer_connected", "count"),
    lower("core.inputs.connect_failed", "count"),
    lower("core.inputs.block_sent", "count"),
    lower("core.actions.send", "count"),
    lower("core.actions.send_block", "count"),
    lower("core.actions.connect", "count"),
    lower("core.handle.message.self_s", "s"),
    lower("core.handle.peer_connected.self_s", "s"),
    lower("core.handle.block_sent.self_s", "s"),
    lower("core.handle.tick.self_s", "s"),
    lower("core.ns_per_message", "ns"),
    lower("core.dial_fail_frac", "frac"),
    lower("piece.picks", "count"),
    lower("piece.pick.self_s", "s"),
    lower("piece.ns_per_pick", "ns"),
    higher("piece.pieces_completed", "count"),
    lower("piece.hash_fail_frac", "frac"),
    lower("choke.rounds", "count"),
    lower("choke.flips", "count"),
    lower("choke.round.self_s", "s"),
    lower("choke.us_per_round", "us"),
    lower("instrument.trace_events", "count"),
    lower("analysis.summary_s", "s"),
    lower("net.transfer_s", "s"),
    lower("net.setup_s", "s"),
    lower("net.busy_frac", "frac"),
    lower("net.poll_passes", "count"),
    lower("net.poll.self_s", "s"),
    lower("net.read_pass.self_s", "s"),
    lower("net.write_pass.self_s", "s"),
    lower("net.ticks", "count"),
    lower("net.messages_in", "count"),
    lower("net.bytes_in", "B"),
    lower("net.blocks_sent", "count"),
    higher("net.blocks_per_tick", "count"),
    lower("net.control_bytes_frac", "frac"),
    lower("net.dial_retries", "count"),
    lower("net.protocol_errors", "count"),
    lower("wire.encodes", "count"),
    lower("wire.decodes", "count"),
    lower("wire.encode.self_s", "s"),
    lower("wire.decode.self_s", "s"),
    lower("obs.traced_overhead_frac", "frac"),
    higher("obs.attributed_frac", "frac"),
];

/// Set-up-only repetitions before the timed passes of a bare run; their
/// samples join each pass's own in the `setup_s` median.
const SETUP_REPS: usize = 10;

/// All passes of one run of the benchmark.
#[derive(Debug)]
pub struct Measurement {
    /// Bare passes, in run order.
    pub bare: Vec<Pass>,
    /// Traced passes (traced runs only), each run right after the bare
    /// pass of the same index.
    pub traced: Vec<Pass>,
    /// Set-up times scaled to the reference speed: set-up-only
    /// repetitions, then one per bare pass.
    pub setup_samples: Vec<f64>,
    /// Peak RSS of this process after the passes, less the memory the
    /// reference gauge keeps.
    pub peak_rss_mb: f64,
}

/// Run `workload` for about `seconds`: bare passes, or bare+traced pairs
/// when `trace` is set. Always at least one pass (pair); another starts
/// only if it is expected to end within the budget.
pub fn measure(
    workload: Workload,
    seed: u64,
    size: &Size,
    seconds: f64,
    trace: bool,
) -> Measurement {
    let mut gauge = Gauge::new();
    let mut setup_samples = Vec::new();
    if !trace {
        for _ in 0..SETUP_REPS {
            setup_samples.extend(setup_only(workload, seed, size, &mut gauge));
        }
    }
    let (mut bare, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let pass = run_pass(workload, seed, size, false, &mut gauge);
        setup_samples.push(pass.setup_s * pass.scale());
        bare.push(pass);
        if trace {
            traced.push(run_pass(workload, seed, size, true, &mut gauge));
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (bare.len() + 1) as f64 / bare.len() as f64 > seconds {
            break;
        }
    }
    Measurement {
        bare,
        traced,
        setup_samples,
        peak_rss_mb: peak_rss_mb() - gauge.resident_mib(),
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Outcome of every operation and check of a run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// One line per check made, and one per failure.
    pub lines: Vec<String>,
}

impl Measurement {
    /// Every operation's outcome plus the cross-pass checks: bare passes
    /// agree on the digest, each traced pass does the bare pass's work,
    /// and the seed-42 golden fingerprints hold.
    pub fn verdict(&self) -> Verdict {
        let mut v = Verdict::default();
        let check = |v: &mut Verdict, what: String, ok: bool| {
            v.attempted += 1;
            v.failed += u64::from(!ok);
            v.lines.push(format!(
                "check {}: {what}",
                if ok { "ok" } else { "FAILED" }
            ));
        };
        for (kind, passes) in [("bare", &self.bare), ("traced", &self.traced)] {
            for (i, pass) in passes.iter().enumerate() {
                v.attempted += pass.attempted;
                v.failed += pass.failed;
                for failure in &pass.failures {
                    v.lines.push(format!("failed: {kind} pass {i}: {failure}"));
                }
            }
        }
        let first = &self.bare[0];
        for (i, pass) in self.bare.iter().enumerate().skip(1) {
            check(
                &mut v,
                format!(
                    "bare pass {i} digest {:016x} == pass 0 {:016x}",
                    pass.digest, first.digest
                ),
                pass.digest == first.digest,
            );
        }
        for (i, pass) in self.traced.iter().enumerate() {
            check(
                &mut v,
                format!(
                    "traced pass {i} completions+tracker {:016x} == bare {:016x}",
                    pass.work, first.work
                ),
                pass.work == first.work,
            );
        }
        for pass in &self.bare {
            for (what, ok) in &pass.golden {
                check(&mut v, format!("golden {what}"), *ok);
            }
        }
        v
    }

    /// End-to-end metric values, from the bare passes, with times scaled
    /// to the reference speed.
    pub fn end_to_end(&self) -> Vec<(MetricDef, f64)> {
        let b = &self.bare;
        let value = |name: &str| match name {
            "wall_s" => median(b.iter().map(|p| p.wall_s * p.scale())),
            "cpu_s" => median(b.iter().map(|p| p.cpu_s * p.scale())),
            "setup_s" => median(self.setup_samples.iter().copied()),
            "peak_rss_mb" => self.peak_rss_mb,
            "payload_bytes_per_s" => median(
                b.iter()
                    .map(|p| ratio(p.payload_bytes, p.wall_s * p.scale())),
            ),
            other => unreachable!("no end-to-end metric {other}"),
        };
        END_TO_END.iter().map(|m| (*m, value(m.name))).collect()
    }

    /// Per-layer metric values: outside timings from the bare passes,
    /// registry counters and span self times from the traced passes.
    /// Each value is the median over passes.
    pub fn per_layer(&self) -> Vec<(MetricDef, f64)> {
        let bare_layer = |name: &str| {
            median(
                self.bare
                    .iter()
                    .map(|p| p.layer.get(name).copied().unwrap_or(0.0)),
            )
        };
        let traced: Vec<BTreeMap<&str, f64>> = self.traced.iter().map(traced_layer).collect();
        let traced_layer =
            |name: &str| median(traced.iter().map(|t| t.get(name).copied().unwrap_or(0.0)));
        let events = bare_layer("sim.events");
        let run_s = bare_layer("sim.run_s");
        let overhead = median(
            self.bare
                .iter()
                .zip(&self.traced)
                .map(|(b, t)| ratio(t.wall_s * t.scale(), b.wall_s * b.scale()) - 1.0),
        );
        let value = |name: &str| match name {
            "torrents.build_spec_s"
            | "sim.new_s"
            | "sim.run_s"
            | "sim.events"
            | "instrument.trace_events"
            | "analysis.summary_s"
            | "net.transfer_s"
            | "net.setup_s" => bare_layer(name),
            "sim.events_per_s" => ratio(events, run_s),
            "sim.ns_per_event" => ratio(run_s * 1e9, events),
            "obs.traced_overhead_frac" => overhead,
            _ => traced_layer(name),
        };
        PER_LAYER.iter().map(|m| (*m, value(m.name))).collect()
    }
}

/// Flat (summed over call paths) stats of span `name`.
fn span(profile: &Profile, name: &str) -> SpanStat {
    profile
        .flat()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| s)
        .unwrap_or_default()
}

/// The per-layer figures one traced pass gives: registry counters, span
/// self times and the ratios between them.
fn traced_layer(pass: &Pass) -> BTreeMap<&'static str, f64> {
    let snap = pass.snapshot.as_ref().expect("traced pass has a snapshot");
    let profile = pass.profile.as_ref().expect("traced pass has a profile");
    let counter = |name: &str| snap.counter_sum(name) as f64;
    let self_s = |name: &str| span(profile, name).self_us as f64 * 1e-6;
    let total_s = |name: &str| span(profile, name).total_us as f64 * 1e-6;
    let count = |name: &str| span(profile, name).count as f64;
    let picks: u64 = snap
        .histograms
        .iter()
        .filter(|(name, _, _)| *name == "core.piece_pick_us")
        .map(|(_, _, h)| h.count)
        .sum();
    let picks = picks as f64;
    let completed = counter("core.pieces_completed");
    let messages = counter("core.inputs.message");
    let rounds = counter("core.choke.rounds");
    let transfer_s = pass.layer.get("net.transfer_s").copied().unwrap_or(0.0);
    let bytes_in = pass.layer.get("net.bytes_in").copied().unwrap_or(0.0);
    let ticks = pass.layer.get("net.ticks").copied().unwrap_or(0.0);
    let blocks_sent = pass.layer.get("net.blocks_sent").copied().unwrap_or(0.0);
    let attributed: f64 = profile
        .flat()
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, s)| s.self_us as f64 * 1e-6)
        .sum();

    let mut out = BTreeMap::new();
    for name in [
        "sim.blocks_delivered",
        "sim.transfer_rounds",
        "core.inputs.message",
        "core.inputs.tick",
        "core.inputs.peer_connected",
        "core.inputs.connect_failed",
        "core.inputs.block_sent",
        "core.actions.send",
        "core.actions.send_block",
        "core.actions.connect",
    ] {
        out.insert(name, counter(name));
    }
    for (metric, span_name) in [
        ("sim.event_pop.self_s", "sim.event_pop"),
        ("sim.event.self_s", "sim.event"),
        ("core.handle.message.self_s", "core.handle.message"),
        (
            "core.handle.peer_connected.self_s",
            "core.handle.peer_connected",
        ),
        ("core.handle.block_sent.self_s", "core.handle.block_sent"),
        ("core.handle.tick.self_s", "core.handle.tick"),
        ("piece.pick.self_s", "core.piece_pick"),
        ("choke.round.self_s", "core.choke_round"),
        ("net.poll.self_s", "net.poll"),
        ("net.read_pass.self_s", "net.read_pass"),
        ("net.write_pass.self_s", "net.write_pass"),
        ("wire.encode.self_s", "wire.encode"),
        ("wire.decode.self_s", "wire.decode"),
    ] {
        out.insert(metric, self_s(span_name));
    }
    for name in [
        "net.ticks",
        "net.messages_in",
        "net.bytes_in",
        "net.blocks_sent",
        "net.dial_retries",
        "net.protocol_errors",
    ] {
        out.insert(name, pass.layer.get(name).copied().unwrap_or(0.0));
    }
    out.extend([
        ("sim.tracker_announces", counter("core.actions.announce")),
        (
            "core.ns_per_message",
            ratio(total_s("core.handle.message") * 1e9, messages),
        ),
        (
            "core.dial_fail_frac",
            ratio(
                counter("core.inputs.connect_failed"),
                counter("core.actions.connect"),
            ),
        ),
        ("piece.picks", picks),
        (
            "piece.ns_per_pick",
            ratio(self_s("core.piece_pick") * 1e9, picks),
        ),
        ("piece.pieces_completed", completed),
        (
            "piece.hash_fail_frac",
            ratio(
                counter("core.pieces_failed"),
                completed + counter("core.pieces_failed"),
            ),
        ),
        ("choke.rounds", rounds),
        ("choke.flips", counter("core.choke.flips")),
        (
            "choke.us_per_round",
            ratio(total_s("core.choke_round") * 1e6, rounds),
        ),
        (
            "net.busy_frac",
            ratio(total_s("net.poll"), LOOPBACK_PEERS as f64 * transfer_s),
        ),
        ("net.poll_passes", count("net.poll")),
        ("net.blocks_per_tick", ratio(blocks_sent, ticks)),
        (
            "net.control_bytes_frac",
            if bytes_in > 0.0 {
                1.0 - pass.payload_bytes / bytes_in
            } else {
                0.0
            },
        ),
        ("wire.encodes", count("wire.encode")),
        ("wire.decodes", count("wire.decode")),
        ("obs.attributed_frac", ratio(attributed, pass.wall_s)),
    ]);
    out
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(verdict: &Verdict, metrics: &[(MetricDef, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed == 0,
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    )
}
