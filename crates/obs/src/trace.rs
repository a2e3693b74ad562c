//! Causal trace layer + crash flight recorder.
//!
//! Where the registry aggregates (counters, histograms) and the
//! profiler times spans, this module records *individual* causal
//! events whose ids chain across layers:
//!
//! * **piece lifecycle** — one trace per piece id:
//!   `injected → first_have → block_sent(from,to) → verified →
//!   k_replicated`;
//! * **choke audit** — per rechoke round, per peer: the upload-rate
//!   inputs, the rank the choker assigned, and the
//!   unchoke/optimistic/snub outcome;
//! * **message provenance** — `request → send (delay/loss/cap
//!   outcome) → deliver → have` propagation.
//!
//! Three invariants, all CI-enforced:
//!
//! 1. **Determinism** — sampling decisions are pure
//!    [`splitmix64`] hashes of `(seed, id)`; a [`Tracer`] never draws
//!    from any simulation RNG, so golden traces and digests are
//!    byte-identical with tracing off *and* with sampling on.
//! 2. **Zero cost when off** — [`Tracer::disabled`] is a `None`
//!    inner; every hot-path call is a single branch.
//! 3. **Deterministic export** — events buffer in per-thread arenas
//!    (the profiler's discipline) and export as a stably-sorted JSONL
//!    plus Chrome trace-event JSON (open in Perfetto / `chrome://tracing`).
//!
//! The [`FlightRecorder`] keeps a bounded ring of the most recent
//! trace events plus a [`RingSink`](crate::RingSink) of recent log
//! records, and dumps a self-contained JSON bundle — trace slice,
//! registry snapshot, health verdicts, RNG seed + event count for
//! replay — when a live-monitor invariant trips, on panic (via
//! [`FlightGuard`]), or on demand (`ObsServer GET /flightrec`).

use crate::event::RingSink;
use crate::registry::Registry;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// SplitMix64 finalizer — the same injective mixer `PeerId::new` and
/// the simulator's peer-class placement use. Sampling decisions hash through
/// this so they cost no RNG draws and never perturb a run.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash-domain separators so piece ids and peer ids sample
/// independently even when the integer ids collide.
const DOMAIN_PIECE: u64 = 0x7069_6563_6500_0001;
const DOMAIN_PEER: u64 = 0x7065_6572_0000_0002;

/// Trace category: which causal chain an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceCat {
    /// Piece lifecycle; `id` is the piece index.
    Piece = 0,
    /// Choke-decision audit; `id` is the deciding (local) peer index.
    Choke = 1,
    /// Message provenance; `id` is the piece the message concerns.
    Msg = 2,
}

impl TraceCat {
    /// Lowercase category name used by both exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceCat::Piece => "piece",
            TraceCat::Choke => "choke",
            TraceCat::Msg => "msg",
        }
    }
}

/// One causal trace event. `id` is the chain the event belongs to
/// (piece index for `Piece`/`Msg`, deciding peer for `Choke`); `args`
/// carry the small named integers that make the record self-contained
/// (peers, rates, ranks, delays in µs, outcomes).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual-clock reading (µs).
    pub at_micros: u64,
    /// Causal chain category.
    pub cat: TraceCat,
    /// Event name, e.g. `"block_sent"` or `"audit"`.
    pub name: &'static str,
    /// Chain id.
    pub id: u64,
    /// Named integer payload.
    pub args: Vec<(&'static str, i64)>,
}

impl TraceEvent {
    /// Render as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"t\":{},\"cat\":\"{}\",\"name\":\"{}\",\"id\":{}",
            self.at_micros,
            self.cat.as_str(),
            self.name,
            self.id
        );
        for (k, v) in &self.args {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push('}');
    }
}

/// The sort key that makes export order independent of which thread's
/// arena flushed first. Stable-sorting by it preserves single-thread
/// insertion order inside equal keys — deliberately *not* keyed on the
/// event name, so a chain's causal emission order (`injected` before
/// `first_have` at the same instant) survives the sort.
fn sort_key(e: &TraceEvent) -> (u64, TraceCat, u64) {
    (e.at_micros, e.cat, e.id)
}

const ARENA_FLUSH: usize = 512;

struct TraceArena {
    tracer_id: u64,
    pending: Vec<TraceEvent>,
}

thread_local! {
    static ARENAS: RefCell<Vec<TraceArena>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

/// Sentinel for "no pinned id" in the coverage-guarantee atomics.
const UNPINNED: u64 = u64::MAX;

struct TracerInner {
    id: u64,
    seed: u64,
    /// Sample 1-in-`rate` chains; 1 = everything.
    rate: u64,
    /// Replication count that closes a piece lifecycle.
    k_target: u32,
    /// Coverage guarantee ([`Tracer::set_universe`]): the piece id with
    /// the minimal sampling hash is always sampled, so a rate far above
    /// the piece count still exports ≥ 1 complete lifecycle.
    /// Interior-mutable (set once by the driver after clones exist);
    /// `UNPINNED` = no guarantee.
    pinned_piece: AtomicU64,
    /// Same guarantee for choke audits: the minimal-hash peer id.
    pinned_peer: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
    flight: Option<FlightRecorder>,
}

/// Handle to the causal trace buffer. Cheap to clone (`Arc`-backed);
/// [`Tracer::disabled`] is a no-op handle whose every call is one
/// branch.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(i) => write!(f, "Tracer(seed={}, rate={})", i.seed, i.rate),
        }
    }
}

impl Tracer {
    /// An enabled tracer sampling 1-in-`rate` chains (`rate` 0 and 1
    /// both mean "every chain"). `seed` keys the sampling hash — use
    /// the swarm seed so reruns sample identical chains.
    pub fn new(seed: u64, rate: u64) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                seed,
                rate: rate.max(1),
                k_target: 4,
                pinned_piece: AtomicU64::new(UNPINNED),
                pinned_peer: AtomicU64::new(UNPINNED),
                events: Mutex::new(Vec::new()),
                flight: None,
            })),
        }
    }

    /// The no-op tracer: records nothing, samples nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Attach a flight recorder: every recorded event is also pushed
    /// into its bounded ring. Consumes `self` so the recorder is wired
    /// before the tracer is cloned into drivers.
    #[must_use]
    pub fn with_flight(self, recorder: FlightRecorder) -> Tracer {
        match self.inner {
            None => Tracer { inner: None },
            Some(arc) => {
                let inner = Arc::try_unwrap(arc).unwrap_or_else(|arc| TracerInner {
                    id: arc.id,
                    seed: arc.seed,
                    rate: arc.rate,
                    k_target: arc.k_target,
                    pinned_piece: AtomicU64::new(arc.pinned_piece.load(Ordering::Relaxed)),
                    pinned_peer: AtomicU64::new(arc.pinned_peer.load(Ordering::Relaxed)),
                    events: Mutex::new(arc.events.lock().unwrap().clone()),
                    flight: None,
                });
                Tracer {
                    inner: Some(Arc::new(TracerInner {
                        flight: Some(recorder),
                        ..inner
                    })),
                }
            }
        }
    }

    /// Replication target that closes a piece lifecycle (default 4).
    #[must_use]
    pub fn with_k_target(self, k: u32) -> Tracer {
        match self.inner {
            None => Tracer { inner: None },
            Some(arc) => {
                let inner = Arc::try_unwrap(arc).unwrap_or_else(|arc| TracerInner {
                    id: arc.id,
                    seed: arc.seed,
                    rate: arc.rate,
                    k_target: arc.k_target,
                    pinned_piece: AtomicU64::new(arc.pinned_piece.load(Ordering::Relaxed)),
                    pinned_peer: AtomicU64::new(arc.pinned_peer.load(Ordering::Relaxed)),
                    events: Mutex::new(arc.events.lock().unwrap().clone()),
                    flight: arc.flight.clone(),
                });
                Tracer {
                    inner: Some(Arc::new(TracerInner {
                        k_target: k.max(1),
                        ..inner
                    })),
                }
            }
        }
    }

    /// Whether any recording can happen at all.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Replication target that closes a piece lifecycle.
    pub fn k_target(&self) -> u32 {
        self.inner.as_ref().map_or(4, |i| i.k_target)
    }

    /// The flight recorder wired via [`with_flight`](Tracer::with_flight).
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.inner.as_ref().and_then(|i| i.flight.as_ref())
    }

    /// Coverage guarantee: given the id universes (`0..num_pieces`,
    /// `0..num_peers`), pin the piece and the peer whose sampling hash
    /// is minimal so they are *always* sampled — a rate far above the
    /// id count still exports ≥ 1 complete lifecycle and ≥ 1 audited
    /// choker. The argmin is over the same splitmix64 hashes sampling
    /// already uses, so it is a pure function of (seed, universe):
    /// deterministic across runs and `--jobs`, and it never consumes
    /// RNG draws. Drivers call this once before the run on a shared
    /// handle (interior mutation — clones see the pin).
    pub fn set_universe(&self, num_pieces: u64, num_peers: u64) {
        let Some(i) = &self.inner else { return };
        if i.rate > 1 {
            if let Some(p) = (0..num_pieces).min_by_key(|&p| splitmix64(i.seed ^ DOMAIN_PIECE ^ p))
            {
                i.pinned_piece.store(p, Ordering::Relaxed);
            }
            if let Some(p) = (0..num_peers).min_by_key(|&p| splitmix64(i.seed ^ DOMAIN_PEER ^ p)) {
                i.pinned_peer.store(p, Ordering::Relaxed);
            }
        }
    }

    fn sample(&self, domain: u64, id: u64, pin: u64) -> bool {
        match &self.inner {
            None => false,
            Some(i) => {
                i.rate == 1 || id == pin || splitmix64(i.seed ^ domain ^ id).is_multiple_of(i.rate)
            }
        }
    }

    /// Is piece `piece`'s lifecycle (and its message provenance) traced?
    pub fn sample_piece(&self, piece: u32) -> bool {
        let pin = self
            .inner
            .as_ref()
            .map_or(UNPINNED, |i| i.pinned_piece.load(Ordering::Relaxed));
        self.sample(DOMAIN_PIECE, u64::from(piece), pin)
    }

    /// Are peer `peer`'s choke decisions audited?
    pub fn sample_peer(&self, peer: u64) -> bool {
        let pin = self
            .inner
            .as_ref()
            .map_or(UNPINNED, |i| i.pinned_peer.load(Ordering::Relaxed));
        self.sample(DOMAIN_PEER, peer, pin)
    }

    /// Record one event into this thread's arena. Callers gate on the
    /// `sample_*` predicates; `record` itself never filters.
    pub fn record(
        &self,
        at_micros: u64,
        cat: TraceCat,
        name: &'static str,
        id: u64,
        args: &[(&'static str, i64)],
    ) {
        let Some(inner) = &self.inner else { return };
        let ev = TraceEvent {
            at_micros,
            cat,
            name,
            id,
            args: args.to_vec(),
        };
        if let Some(fr) = &inner.flight {
            fr.observe(&ev);
        }
        ARENAS.with(|cell| {
            let mut arenas = cell.borrow_mut();
            let arena = match arenas.iter_mut().find(|a| a.tracer_id == inner.id) {
                Some(a) => a,
                None => {
                    arenas.push(TraceArena {
                        tracer_id: inner.id,
                        pending: Vec::with_capacity(ARENA_FLUSH),
                    });
                    arenas.last_mut().unwrap()
                }
            };
            arena.pending.push(ev);
            if arena.pending.len() >= ARENA_FLUSH {
                inner.events.lock().unwrap().append(&mut arena.pending);
            }
        });
    }

    /// Flush this thread's arena into the shared buffer. Drivers call
    /// it at end of run (the profiler flushes at root-span exit the
    /// same way); [`snapshot_sorted`](Tracer::snapshot_sorted) calls it
    /// for the exporting thread automatically.
    pub fn flush_local(&self) {
        let Some(inner) = &self.inner else { return };
        ARENAS.with(|cell| {
            let mut arenas = cell.borrow_mut();
            if let Some(a) = arenas.iter_mut().find(|a| a.tracer_id == inner.id) {
                if !a.pending.is_empty() {
                    inner.events.lock().unwrap().append(&mut a.pending);
                }
            }
            arenas.retain(|a| a.tracer_id != inner.id || !a.pending.is_empty());
        });
    }

    /// All recorded events in the canonical export order (stable sort
    /// by time, category, chain id). Non-destructive.
    pub fn snapshot_sorted(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        self.flush_local();
        let mut events = inner.events.lock().unwrap().clone();
        events.sort_by_key(sort_key);
        events
    }

    /// Sorted deterministic JSONL export: one event object per line.
    pub fn to_jsonl(&self) -> String {
        events_to_jsonl(&self.snapshot_sorted())
    }

    /// Chrome trace-event JSON export (open in Perfetto or
    /// `chrome://tracing`). Piece lifecycles render as async tracks
    /// (`b`/`n`/`e` per piece id), choke audits and message provenance
    /// as instant events on per-id tracks.
    pub fn to_chrome_json(&self) -> String {
        events_to_chrome_json(&self.snapshot_sorted())
    }
}

/// Render pre-sorted events as JSONL (one object per line, trailing
/// newline when non-empty).
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Render pre-sorted events in the Chrome trace-event JSON format.
pub fn events_to_chrome_json(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(events.len() * 128 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    // Name the three pid tracks once up front.
    for (i, (pid, pname)) in [
        (1, "piece lifecycle"),
        (2, "choke audit"),
        (3, "message provenance"),
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{pname}\"}}}}"
        );
    }
    // The metadata records above always precede the events, so every
    // event needs a leading separator — including the first, whose
    // absence used to leave a dangling comma on empty snapshots.
    for e in events {
        out.push(',');
        let (pid, ph) = match e.cat {
            TraceCat::Piece => match e.name {
                "injected" => (1, "b"),
                "k_replicated" => (1, "e"),
                _ => (1, "n"),
            },
            TraceCat::Choke => (2, "i"),
            TraceCat::Msg => (3, "i"),
        };
        let _ = write!(
            out,
            "{{\"ph\":\"{ph}\",\"cat\":\"{}\",\"name\":\"{}\",\"ts\":{},\"pid\":{pid},\
             \"tid\":{}",
            e.cat.as_str(),
            if ph == "b" || ph == "e" {
                "lifecycle"
            } else {
                e.name
            },
            e.at_micros,
            e.id
        );
        if ph == "b" || ph == "n" || ph == "e" {
            let _ = write!(out, ",\"id\":{}", e.id);
        }
        if ph == "i" {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{");
        let _ = write!(out, "\"event\":\"{}\"", e.name);
        for (k, v) in &e.args {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Context handed to [`FlightRecorder::dump`]: everything the bundle
/// snapshots besides the recorder's own rings.
#[derive(Default)]
pub struct DumpContext<'a> {
    /// Registry whose snapshot is embedded, when one is attached.
    pub registry: Option<&'a Registry>,
    /// Health verdicts JSON (`HealthReport::to_json`), verbatim.
    pub health_json: Option<&'a str>,
    /// Human-readable causal explanation (`bt-analysis` explainer).
    pub explanation: Option<&'a str>,
    /// Events processed so far — with the seed, enough to replay.
    pub events_processed: u64,
}

struct FlightInner {
    dir: PathBuf,
    capacity: usize,
    ring: Mutex<VecDeque<TraceEvent>>,
    log: Arc<RingSink>,
    seed: u64,
    dumps: AtomicU64,
}

/// Bounded ring of recent trace events + recent log records that can
/// dump a self-contained crash bundle at any moment. Clone-cheap.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FlightRecorder(dir={}, cap={})",
            self.inner.dir.display(),
            self.inner.capacity
        )
    }
}

impl FlightRecorder {
    /// Recorder writing bundles under `dir`, retaining the last
    /// `capacity` trace events and `capacity` log records.
    pub fn new(dir: impl Into<PathBuf>, capacity: usize, seed: u64) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Arc::new(FlightInner {
                dir: dir.into(),
                capacity,
                ring: Mutex::new(VecDeque::with_capacity(capacity)),
                log: Arc::new(RingSink::new(capacity)),
                seed,
                dumps: AtomicU64::new(0),
            }),
        }
    }

    /// The log ring; install it as the registry's event sink so recent
    /// `obs_warn!`/`obs_info!` records land in the bundle.
    pub fn log_sink(&self) -> Arc<RingSink> {
        self.inner.log.clone()
    }

    /// Directory bundles are written to.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Seed recorded for replay.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Push one trace event into the bounded ring (oldest evicted).
    pub fn observe(&self, ev: &TraceEvent) {
        let mut ring = self.inner.ring.lock().unwrap();
        if ring.len() == self.inner.capacity {
            ring.pop_front();
        }
        ring.push_back(ev.clone());
    }

    /// Copy of the retained trace slice, oldest first.
    pub fn trace_slice(&self) -> Vec<TraceEvent> {
        self.inner.ring.lock().unwrap().iter().cloned().collect()
    }

    /// Bundles dumped so far.
    pub fn dumps(&self) -> u64 {
        self.inner.dumps.load(Ordering::Relaxed)
    }

    /// The self-contained bundle as a JSON string: reason, seed and
    /// event count (replay coordinates), the trace slice, recent log
    /// records, the registry snapshot, health verdicts, and the
    /// causal explanation.
    pub fn bundle_json(&self, reason: &str, ctx: &DumpContext<'_>) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        out.push_str("{\"reason\":\"");
        crate::export::escape_json_into(&mut out, reason);
        let _ = write!(
            out,
            "\",\"seed\":{},\"events_processed\":{},\"trace\":[",
            self.inner.seed, ctx.events_processed
        );
        for (i, e) in self.trace_slice().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            e.write_json(&mut out);
        }
        out.push_str("],\"log\":[");
        for (i, r) in self.inner.log.records().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t\":{},\"level\":\"{}\",\"target\":\"{}\",\"event\":\"{}\"",
                r.at_micros,
                r.level.as_str().trim_end(),
                r.target,
                r.name
            );
            for (k, v) in &r.fields {
                out.push_str(",\"");
                crate::export::escape_json_into(&mut out, k);
                out.push_str("\":\"");
                crate::export::escape_json_into(&mut out, v);
                out.push('"');
            }
            out.push('}');
        }
        out.push_str("],\"registry\":");
        match ctx.registry {
            Some(reg) => out.push_str(&reg.snapshot().to_jsonl_line()),
            None => out.push_str("null"),
        }
        out.push_str(",\"health\":");
        match ctx.health_json {
            Some(h) => out.push_str(h),
            None => out.push_str("null"),
        }
        out.push_str(",\"explanation\":");
        match ctx.explanation {
            Some(e) => {
                out.push('"');
                crate::export::escape_json_into(&mut out, e);
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Write the bundle to `dir/flightrec-<n>.json` (`n` = dump
    /// ordinal — deterministic, no wall clock) and return its path.
    pub fn dump(&self, reason: &str, ctx: &DumpContext<'_>) -> std::io::Result<PathBuf> {
        let bundle = self.bundle_json(reason, ctx);
        std::fs::create_dir_all(&self.inner.dir)?;
        let n = self.inner.dumps.fetch_add(1, Ordering::Relaxed);
        let path = self.inner.dir.join(format!("flightrec-{n}.json"));
        std::fs::write(&path, bundle)?;
        Ok(path)
    }
}

/// Drop guard that dumps a `"panic"` bundle while unwinding, so a
/// crash mid-run still leaves the black box behind. Hold one for the
/// duration of a run; dropping it normally does nothing.
pub struct FlightGuard {
    recorder: FlightRecorder,
    /// Event count shared with the driver so the panic bundle carries
    /// the replay coordinate even though `dump` runs during unwind.
    events_processed: Arc<AtomicU64>,
}

impl FlightGuard {
    /// Guard `recorder`; `events_processed` is read at dump time.
    pub fn new(recorder: FlightRecorder, events_processed: Arc<AtomicU64>) -> FlightGuard {
        FlightGuard {
            recorder,
            events_processed,
        }
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let ctx = DumpContext {
                events_processed: self.events_processed.load(Ordering::Relaxed),
                ..DumpContext::default()
            };
            if let Ok(path) = self.recorder.dump("panic", &ctx) {
                eprintln!("flight recorder: panic bundle at {}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeSource;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert!(!t.sample_piece(0));
        assert!(!t.sample_peer(0));
        t.record(1, TraceCat::Piece, "injected", 0, &[]);
        assert!(t.snapshot_sorted().is_empty());
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn rate_one_samples_everything() {
        let t = Tracer::new(42, 1);
        for i in 0..100 {
            assert!(t.sample_piece(i));
            assert!(t.sample_peer(u64::from(i)));
        }
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_one_in_rate() {
        let a = Tracer::new(7, 16);
        let b = Tracer::new(7, 16);
        let hits: Vec<u32> = (0..10_000).filter(|&i| a.sample_piece(i)).collect();
        let hits_b: Vec<u32> = (0..10_000).filter(|&i| b.sample_piece(i)).collect();
        assert_eq!(hits, hits_b, "same seed+rate must sample identically");
        // 10_000 / 16 = 625 expected; allow a generous band.
        assert!(
            (300..1000).contains(&hits.len()),
            "1-in-16 sampling hit {} of 10000",
            hits.len()
        );
        // Different seed samples a different set.
        let c = Tracer::new(8, 16);
        let hits_c: Vec<u32> = (0..10_000).filter(|&i| c.sample_piece(i)).collect();
        assert_ne!(hits, hits_c);
    }

    #[test]
    fn universe_pin_guarantees_one_piece_and_peer_at_any_rate() {
        // 8 pieces at 1-in-1024: hash sampling alone would almost
        // certainly pick nothing; the pin must still cover one of each.
        let t = Tracer::new(42, 1024);
        t.set_universe(8, 16);
        let pieces: Vec<u32> = (0..8).filter(|&p| t.sample_piece(p)).collect();
        let peers: Vec<u64> = (0..16).filter(|&p| t.sample_peer(p)).collect();
        assert!(!pieces.is_empty(), "no piece pinned");
        assert!(!peers.is_empty(), "no peer pinned");
        // The pin is a pure function of (seed, universe): same again.
        let u = Tracer::new(42, 1024);
        u.set_universe(8, 16);
        assert_eq!(
            pieces,
            (0..8).filter(|&p| u.sample_piece(p)).collect::<Vec<_>>()
        );
        assert_eq!(
            peers,
            (0..16).filter(|&p| u.sample_peer(p)).collect::<Vec<_>>()
        );
        // A different seed pins differently (piece domain, 1 of 8 — use
        // a universe large enough that equal argmins are implausible).
        let v = Tracer::new(43, 1 << 30);
        v.set_universe(100_000, 100_000);
        let w = Tracer::new(44, 1 << 30);
        w.set_universe(100_000, 100_000);
        let vp: Vec<u32> = (0..100_000).filter(|&p| v.sample_piece(p)).collect();
        let wp: Vec<u32> = (0..100_000).filter(|&p| w.sample_piece(p)).collect();
        assert_ne!(vp, wp);
        // An empty universe pins nothing and samples nothing.
        let e = Tracer::new(1, 64);
        e.set_universe(0, 0);
        assert!((0..1000).all(|p| !e.sample_piece(p) || splitmix_hit(1, p)));
    }

    /// Whether plain hash sampling (rate 64, seed 1) would hit `p`.
    fn splitmix_hit(seed: u64, p: u32) -> bool {
        splitmix64(seed ^ super::DOMAIN_PIECE ^ u64::from(p)).is_multiple_of(64)
    }

    #[test]
    fn export_sorts_stably_and_renders_jsonl() {
        let t = Tracer::new(1, 1);
        t.record(20, TraceCat::Msg, "deliver", 3, &[("to", 2)]);
        t.record(10, TraceCat::Piece, "injected", 3, &[]);
        t.record(10, TraceCat::Piece, "first_have", 3, &[("to", 1)]);
        let events = t.snapshot_sorted();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "injected");
        assert_eq!(events[1].name, "first_have");
        assert_eq!(events[2].name, "deliver");
        let jsonl = t.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"t\":10,\"cat\":\"piece\",\"name\":\"injected\",\"id\":3}\n\
             {\"t\":10,\"cat\":\"piece\",\"name\":\"first_have\",\"id\":3,\"to\":1}\n\
             {\"t\":20,\"cat\":\"msg\",\"name\":\"deliver\",\"id\":3,\"to\":2}\n"
        );
    }

    #[test]
    fn arena_flushes_at_batch_size_and_on_snapshot() {
        let t = Tracer::new(1, 1);
        for i in 0..(ARENA_FLUSH as u64 + 10) {
            t.record(i, TraceCat::Choke, "audit", 0, &[]);
        }
        assert_eq!(t.snapshot_sorted().len(), ARENA_FLUSH + 10);
        // Snapshot again: nothing lost, nothing duplicated.
        assert_eq!(t.snapshot_sorted().len(), ARENA_FLUSH + 10);
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let t = Tracer::new(1, 1);
        t.record(5, TraceCat::Piece, "injected", 7, &[("by", 0)]);
        t.record(
            9,
            TraceCat::Piece,
            "block_sent",
            7,
            &[("from", 0), ("to", 3)],
        );
        t.record(12, TraceCat::Piece, "k_replicated", 7, &[("copies", 4)]);
        t.record(6, TraceCat::Choke, "audit", 2, &[("peer", 9), ("rank", 1)]);
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"n\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"event\":\"block_sent\",\"from\":0,\"to\":3"));
        // Balanced braces/brackets — cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn chrome_export_of_empty_snapshot_has_no_dangling_comma() {
        // The live /trace route can snapshot before any event lands;
        // the export must still be valid JSON (no `},]` tail).
        let json = events_to_chrome_json(&[]);
        assert!(json.ends_with("}}]}"), "unexpected tail: {json}");
        assert!(!json.contains(",]"));
        let one = [TraceEvent {
            at_micros: 1,
            cat: TraceCat::Msg,
            name: "send",
            id: 0,
            args: vec![],
        }];
        assert!(!events_to_chrome_json(&one).contains(",]"));
    }

    #[test]
    fn flight_ring_keeps_newest_and_bundles() {
        let dir = std::env::temp_dir().join(format!("bt-flightrec-{}", std::process::id()));
        let fr = FlightRecorder::new(&dir, 4, 99);
        let t = Tracer::new(99, 1).with_flight(fr.clone());
        for i in 0..10u64 {
            t.record(i, TraceCat::Msg, "send", i, &[]);
        }
        let slice = fr.trace_slice();
        assert_eq!(slice.len(), 4);
        assert_eq!(
            slice.iter().map(|e| e.at_micros).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        let reg = Registry::new(TimeSource::manual());
        reg.counter("x").add(3);
        let ctx = DumpContext {
            registry: Some(&reg),
            health_json: Some("{\"healthy\":false}"),
            explanation: Some("peer 3 starved"),
            events_processed: 1234,
        };
        let bundle = fr.bundle_json("invariant:starvation", &ctx);
        assert!(bundle.contains("\"reason\":\"invariant:starvation\""));
        assert!(bundle.contains("\"seed\":99"));
        assert!(bundle.contains("\"events_processed\":1234"));
        assert!(bundle.contains("\"healthy\":false"));
        assert!(bundle.contains("peer 3 starved"));
        assert!(bundle.contains("\"x\":3"));
        let path = fr.dump("invariant:starvation", &ctx).unwrap();
        assert!(path.ends_with("flightrec-0.json"));
        let read_back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read_back, bundle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_guard_dumps_only_on_panic() {
        let dir = std::env::temp_dir().join(format!("bt-flightguard-{}", std::process::id()));
        let fr = FlightRecorder::new(&dir, 8, 1);
        {
            let _guard = FlightGuard::new(fr.clone(), Arc::new(AtomicU64::new(5)));
        }
        assert_eq!(fr.dumps(), 0, "normal drop must not dump");
        let fr2 = fr.clone();
        let result = std::panic::catch_unwind(move || {
            let _guard = FlightGuard::new(fr2, Arc::new(AtomicU64::new(7)));
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(fr.dumps(), 1, "panic must dump exactly once");
        let bundle = std::fs::read_to_string(dir.join("flightrec-0.json")).unwrap();
        assert!(bundle.contains("\"reason\":\"panic\""));
        assert!(bundle.contains("\"events_processed\":7"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
