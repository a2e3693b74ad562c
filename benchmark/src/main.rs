//! `bt-benchmark --workload <table1|crowd10k|loopback> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints the host and build fingerprint, one line per check and metric,
//! and as its last line a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

use bt_benchmark::host;
use bt_benchmark::report::{measure, result_line};
use bt_benchmark::workloads::{Size, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: bt-benchmark --workload table1|crowd10k|loopback [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("bt-benchmark: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::fingerprint(args.seed));
    let m = measure(
        args.workload,
        args.seed,
        &Size::full(),
        args.seconds,
        args.trace,
    );
    println!(
        "workload={} trace={} bare_passes={} traced_passes={} setup_samples={}",
        args.workload.name(),
        u8::from(args.trace),
        m.bare.len(),
        m.traced.len(),
        m.setup_samples.len()
    );
    for (kind, passes) in [("bare", &m.bare), ("traced", &m.traced)] {
        for (i, p) in passes.iter().enumerate() {
            println!(
                "{kind} pass {i}: wall_s={} cpu_s={} setup_s={} host_scale={} events={}",
                p.wall_s,
                p.cpu_s,
                p.setup_s,
                p.scale(),
                p.layer.get("sim.events").copied().unwrap_or(0.0)
            );
        }
    }
    let verdict = m.verdict();
    for line in &verdict.lines {
        println!("{line}");
    }
    println!(
        "fail_frac = {} (failed {} of {} operations and checks)",
        verdict.failed as f64 / verdict.attempted as f64,
        verdict.failed,
        verdict.attempted
    );
    let metrics = if args.trace {
        m.per_layer()
    } else {
        m.end_to_end()
    };
    for (def, value) in &metrics {
        println!("{} = {value} {}", def.name, def.unit);
    }
    println!("{}", result_line(&verdict, &metrics));
    ExitCode::SUCCESS
}
