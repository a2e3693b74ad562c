//! The three workloads. Each pass runs one workload once, either bare
//! (end-to-end metrics) or traced (per-layer metrics), timing the
//! public calls it makes from outside and checking what they return.

use crate::checks::{self, Fnv};
use crate::host::process_cpu_s;
use crate::reference::{self, Gauge};
use bt_analysis::SessionSummary;
use bt_net::{run_loopback_swarm, LoopbackSpec};
use bt_obs::{Profile, Profiler, Registry, Snapshot, TimeSource};
use bt_sim::{Swarm, SwarmResult};
use bt_torrents::scenarios::mega_flash_crowd;
use bt_torrents::{build_swarm_spec, torrent, PresetOptions, RunConfig};
use bt_wire::time::Duration;
use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 26-torrent Table I sweep at the quick profile, one
    /// `SessionSummary` per torrent: many small swarms, the paper path.
    Table1,
    /// One 10,000-leecher flash crowd: a huge swarm of small peer sets.
    Crowd10k,
    /// One seed and one leecher over real loopback TCP.
    Loopback,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Table1, Workload::Crowd10k, Workload::Loopback];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Crowd10k => "crowd10k",
            Workload::Loopback => "loopback",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of the workloads.
#[derive(Clone, Debug)]
pub struct Size {
    /// Table I torrent ids swept, in order.
    pub torrents: Vec<u32>,
    /// Leechers in the flash crowd.
    pub crowd_leechers: usize,
    /// Content bytes moved over loopback TCP.
    pub loopback_bytes: u64,
}

impl Size {
    /// The sizes the benchmark measures.
    pub fn full() -> Size {
        Size {
            torrents: bt_torrents::table1().iter().map(|t| t.id).collect(),
            crowd_leechers: 10_000,
            loopback_bytes: 16 << 20,
        }
    }

    /// Small sizes for the self-tests: the three golden torrents, a
    /// 200-leecher crowd and 1 MiB over loopback.
    pub fn tiny() -> Size {
        Size {
            torrents: checks::GOLDEN_TORRENTS.to_vec(),
            crowd_leechers: 200,
            loopback_bytes: 1 << 20,
        }
    }
}

/// Flash-crowd content: 8 pieces of 64 kB over a 900 s session.
const CROWD_PIECES: u32 = 8;
const CROWD_PIECE_LEN: u64 = 64 * 1024;
const CROWD_SECS: u64 = 900;
/// Reference slices before and after each flash-crowd pass.
const CROWD_SLICES: usize = 4;
/// Loopback piece size (two 16 KiB blocks).
const LOOPBACK_PIECE_LEN: u32 = 32 * 1024;
/// Loopback peers: one seed and one leecher, one thread each.
pub const LOOPBACK_PEERS: usize = 2;

/// The observers a traced pass attaches through the program's public
/// attach points.
struct Observers {
    /// Metrics registry (manual clock for the simulator, wall clock for
    /// real sockets).
    registry: Registry,
    /// Wall-clock span profiler.
    profiler: Profiler,
}

impl Observers {
    fn new(workload: Workload) -> Observers {
        let registry = match workload {
            Workload::Loopback => Registry::new_wall(),
            Workload::Table1 | Workload::Crowd10k => Registry::new_manual(),
        };
        Observers {
            registry,
            profiler: Profiler::new(TimeSource::wall()),
        }
    }
}

/// Everything one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Spec build plus `Swarm::new` (loopback: call time minus the
    /// runtime's own wall time).
    pub setup_s: f64,
    /// Wall time of the timed section, which excludes set-up.
    pub wall_s: f64,
    /// Process CPU time over the timed section (loopback: over the
    /// whole call, since its set-up runs inside it).
    pub cpu_s: f64,
    /// Content bytes delivered to leechers that finished.
    pub payload_bytes: f64,
    /// Operations attempted: scenarios, or leecher downloads.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed, one line per failure kind.
    pub failures: Vec<String>,
    /// Hash of completions and tracker tallies. A traced pass must match
    /// the bare pass (the digest differs: metrics add sample events).
    pub work: u64,
    /// Hash of every deterministic output; equal across bare passes.
    pub digest: u64,
    /// Golden comparisons made (seed 42 only), as `(what, ok)`.
    pub golden: Vec<(String, bool)>,
    /// Reference-slice seconds timed beside this pass's timed sections:
    /// before each `table1` torrent and after the last, before and after
    /// the `crowd10k` swarm, none for `loopback`.
    pub ref_s: Vec<f64>,
    /// Layer figures measured from outside, by per-layer metric name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Final registry snapshot (traced passes).
    pub snapshot: Option<Snapshot>,
    /// Span profile (traced passes).
    pub profile: Option<Profile>,
}

impl Pass {
    /// The factor that scales this pass's times to the reference speed
    /// (1 for `loopback`, which waits on real time rather than the CPU).
    pub fn scale(&self) -> f64 {
        reference::scale(&self.ref_s)
    }
}

/// Run one pass of `workload`, traced or bare, timing reference slices
/// on `gauge` beside it.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    size: &Size,
    traced: bool,
    gauge: &mut Gauge,
) -> Pass {
    let obs = traced.then(|| Observers::new(workload));
    let mut pass = match workload {
        Workload::Table1 => table1(seed, &size.torrents, obs.as_ref(), gauge),
        Workload::Crowd10k => crowd(seed, size.crowd_leechers, obs.as_ref(), gauge),
        Workload::Loopback => loopback(seed, size.loopback_bytes, obs.as_ref()),
    };
    if let Some(obs) = obs {
        pass.snapshot = Some(obs.registry.snapshot());
        pass.profile = Some(obs.profiler.snapshot());
    }
    pass
}

/// Set-up only: build the specs and swarms of one pass, then drop them.
/// Returns the set-up seconds scaled to the reference speed by slices
/// before and after; `None` for loopback, whose set-up runs inside
/// `run_loopback_swarm` and is measured by every pass.
pub fn setup_only(workload: Workload, seed: u64, size: &Size, gauge: &mut Gauge) -> Option<f64> {
    let before = match workload {
        Workload::Loopback => return None,
        Workload::Table1 | Workload::Crowd10k => gauge.slice(),
    };
    let mut total = 0.0;
    match workload {
        Workload::Table1 => {
            let cfg = table1_config(seed);
            for &id in &size.torrents {
                let t0 = Instant::now();
                let swarm = Swarm::new(build_swarm_spec(&torrent(id), &cfg).0);
                total += t0.elapsed().as_secs_f64();
                drop(std::hint::black_box(swarm));
            }
        }
        Workload::Crowd10k => {
            let t0 = Instant::now();
            let swarm = Swarm::new(mega_flash_crowd(size.crowd_leechers, &crowd_options(seed)));
            total += t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(swarm));
        }
        Workload::Loopback => return None,
    }
    Some(total * reference::scale(&[before, gauge.slice()]))
}

fn table1_config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        ..RunConfig::quick()
    }
}

fn crowd_options(seed: u64) -> PresetOptions {
    PresetOptions {
        seed,
        pieces: CROWD_PIECES,
        duration: Duration::from_secs(CROWD_SECS),
        ..Default::default()
    }
}

fn attach(swarm: Swarm, obs: Option<&Observers>) -> Swarm {
    match obs {
        Some(o) => swarm
            .with_metrics(o.registry.clone())
            .with_profiler(o.profiler.clone()),
        None => swarm,
    }
}

fn span_profiler(obs: Option<&Observers>) -> Profiler {
    obs.map_or_else(Profiler::disabled, |o| o.profiler.clone())
}

/// Hash of what a simulated run did: who completed when, and what the
/// tracker counted.
fn work_hash(hash: &mut Fnv, result: &SwarmResult) {
    hash.write(&format!(
        "started={} completed={}",
        result.tracker_started, result.tracker_completed
    ));
    for (idx, at) in result.completion.iter().enumerate() {
        if let Some(at) = at {
            hash.write(&format!(" c{idx}={}", at.0));
        }
    }
}

fn table1(seed: u64, ids: &[u32], obs: Option<&Observers>, gauge: &mut Gauge) -> Pass {
    let cfg = table1_config(seed);
    let prof = span_profiler(obs);
    let mut pass = Pass::default();
    let (mut build_s, mut new_s, mut run_s, mut summary_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut events, mut trace_events) = (0u64, 0u64);
    let (mut work, mut fold) = (Fnv::new(), Fnv::new());
    for &id in ids {
        let spec = torrent(id);
        pass.ref_s.push(gauge.slice());
        let t0 = Instant::now();
        let (swarm_spec, scaled) = {
            let _span = prof.span("bench.build_spec");
            build_swarm_spec(&spec, &cfg)
        };
        let t1 = Instant::now();
        let swarm = {
            let _span = prof.span("bench.swarm_new");
            attach(Swarm::new(swarm_spec), obs)
        };
        let c2 = process_cpu_s();
        let t2 = Instant::now();
        let mut result = {
            let _span = prof.span("bench.run");
            swarm.run()
        };
        let t3 = Instant::now();
        let summary = result.trace.as_mut().map(|trace| {
            let _span = prof.span("bench.summary");
            trace.meta.torrent = spec.label();
            trace.meta.torrent_id = spec.id;
            SessionSummary::from_trace(trace, scaled.piece_len)
        });
        let t4 = Instant::now();
        let c4 = process_cpu_s();

        build_s += (t1 - t0).as_secs_f64();
        new_s += (t2 - t1).as_secs_f64();
        run_s += (t3 - t2).as_secs_f64();
        summary_s += (t4 - t3).as_secs_f64();
        pass.cpu_s += c4 - c2;
        events += result.events_processed;

        // Checks and fingerprints, outside the timed section.
        pass.attempted += 1;
        work.write(&format!("torrent={id} "));
        work_hash(&mut work, &result);
        match (&result.trace, summary) {
            (Some(trace), Some(summary))
                if !trace.is_empty() && summary.torrent == spec.label() =>
            {
                trace_events += trace.len() as u64;
                pass.payload_bytes += summary.pieces.count as f64 * f64::from(scaled.piece_len);
                if seed == checks::GOLDEN_SEED && obs.is_none() {
                    pass.golden.extend(checks::golden_torrent(id, trace));
                }
            }
            _ => {
                pass.failed += 1;
                pass.failures.push(format!(
                    "torrent {id}: no labelled trace and session summary"
                ));
            }
        }
        fold.write(&format!("{id}={:016x}\n", result.digest()));
    }
    pass.ref_s.push(gauge.slice());
    pass.setup_s = build_s + new_s;
    pass.wall_s = run_s + summary_s;
    pass.work = work.finish();
    pass.digest = fold.finish();
    if seed == checks::GOLDEN_SEED && obs.is_none() && ids == Size::full().torrents.as_slice() {
        pass.golden.push((
            format!(
                "table1 fold {:016x} == {:016x}",
                pass.digest,
                checks::TABLE1_FOLD_SEED42
            ),
            pass.digest == checks::TABLE1_FOLD_SEED42,
        ));
    }
    pass.layer = BTreeMap::from([
        ("torrents.build_spec_s", build_s),
        ("sim.new_s", new_s),
        ("sim.run_s", run_s),
        ("sim.events", events as f64),
        ("instrument.trace_events", trace_events as f64),
        ("analysis.summary_s", summary_s),
    ]);
    pass
}

fn crowd(seed: u64, leechers: usize, obs: Option<&Observers>, gauge: &mut Gauge) -> Pass {
    let prof = span_profiler(obs);
    let mut ref_s: Vec<f64> = (0..CROWD_SLICES).map(|_| gauge.slice()).collect();
    let t0 = Instant::now();
    let spec = {
        let _span = prof.span("bench.build_spec");
        mega_flash_crowd(leechers, &crowd_options(seed))
    };
    let t1 = Instant::now();
    let swarm = {
        let _span = prof.span("bench.swarm_new");
        attach(Swarm::new(spec), obs)
    };
    let c2 = process_cpu_s();
    let t2 = Instant::now();
    let result = {
        let _span = prof.span("bench.run");
        swarm.run()
    };
    let t3 = Instant::now();
    let c3 = process_cpu_s();
    ref_s.extend((0..CROWD_SLICES).map(|_| gauge.slice()));

    let mut pass = Pass {
        setup_s: (t2 - t0).as_secs_f64(),
        wall_s: (t3 - t2).as_secs_f64(),
        cpu_s: c3 - c2,
        attempted: leechers as u64,
        digest: result.digest(),
        ref_s,
        ..Pass::default()
    };
    // Index 0 is the seed; every other peer is a leecher downloading.
    let finished = result.completion[1..].iter().flatten().count();
    if finished < leechers {
        pass.failed = (leechers - finished) as u64;
        pass.failures.push(format!(
            "{} of {leechers} leechers did not complete",
            leechers - finished
        ));
    }
    pass.payload_bytes = finished as f64 * f64::from(CROWD_PIECES) * CROWD_PIECE_LEN as f64;
    let mut work = Fnv::new();
    work_hash(&mut work, &result);
    pass.work = work.finish();
    if seed == checks::GOLDEN_SEED && obs.is_none() && leechers == 10_000 {
        pass.golden.push(checks::golden_crowd(&result));
    }
    pass.layer = BTreeMap::from([
        ("torrents.build_spec_s", (t1 - t0).as_secs_f64()),
        ("sim.new_s", (t2 - t1).as_secs_f64()),
        ("sim.run_s", pass.wall_s),
        ("sim.events", result.events_processed as f64),
    ]);
    pass
}

fn loopback(seed: u64, bytes: u64, obs: Option<&Observers>) -> Pass {
    let prof = span_profiler(obs);
    let spec = LoopbackSpec {
        seeds: 1,
        leechers: LOOPBACK_PEERS - 1,
        total_len: bytes,
        piece_len: LOOPBACK_PIECE_LEN,
        seed,
        max_wall: std::time::Duration::from_secs(120),
        record: false,
        metrics: obs.map(|o| o.registry.clone()),
        profiler: obs.map(|o| o.profiler.clone()),
        ..LoopbackSpec::default()
    };
    let leechers = spec.leechers;
    let seeds = spec.seeds;
    let num_pieces = bytes.div_ceil(u64::from(LOOPBACK_PIECE_LEN));
    let c0 = process_cpu_s();
    let t0 = Instant::now();
    let outcome = {
        let _span = prof.span("bench.loopback");
        run_loopback_swarm(spec)
    };
    let total = t0.elapsed().as_secs_f64();
    let c1 = process_cpu_s();
    let mut pass = Pass {
        cpu_s: c1 - c0,
        attempted: leechers as u64,
        ..Pass::default()
    };
    let result = match outcome {
        Ok(result) => result,
        Err(err) => {
            pass.wall_s = total;
            pass.failed = pass.attempted;
            pass.failures
                .push(format!("run_loopback_swarm failed: {err}"));
            return pass;
        }
    };
    pass.wall_s = result.wall_elapsed.as_secs_f64();
    pass.setup_s = total - pass.wall_s;

    let mut work = Fnv::new();
    work.write(&format!(
        "completed={} started={} completed_ann={}",
        result.completed_leechers, result.tracker_started, result.tracker_completed
    ));
    let mut stats = bt_net::NetStats::default();
    for (i, o) in result.outcomes.iter().enumerate() {
        work.write(&format!(" p{i}={}:{}", o.pieces, o.is_seed));
        stats.ticks += o.stats.ticks;
        stats.messages_in += o.stats.messages_in;
        stats.bytes_in += o.stats.bytes_in;
        stats.blocks_sent += o.stats.blocks_sent;
        stats.dial_retries += o.stats.dial_retries;
        stats.protocol_errors += o.stats.protocol_errors;
    }
    for (i, o) in result.outcomes.iter().enumerate().skip(seeds) {
        if o.is_seed && u64::from(o.pieces) == num_pieces {
            pass.payload_bytes += bytes as f64;
        } else {
            pass.failed += 1;
            pass.failures.push(format!(
                "leecher {i} holds {} of {num_pieces} verified pieces",
                o.pieces
            ));
        }
    }
    // The protocol-error check is one more operation of the pass.
    pass.attempted += 1;
    if stats.protocol_errors > 0 {
        pass.failed += 1;
        pass.failures
            .push(format!("{} protocol errors", stats.protocol_errors));
    }
    pass.work = work.finish();
    pass.digest = pass.work;
    pass.layer = BTreeMap::from([
        ("net.transfer_s", pass.wall_s),
        ("net.setup_s", pass.setup_s),
        ("net.ticks", stats.ticks as f64),
        ("net.messages_in", stats.messages_in as f64),
        ("net.bytes_in", stats.bytes_in as f64),
        ("net.blocks_sent", stats.blocks_sent as f64),
        ("net.dial_retries", stats.dial_retries as f64),
        ("net.protocol_errors", stats.protocol_errors as f64),
    ]);
    pass
}
