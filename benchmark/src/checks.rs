//! Output checks: the repository's golden fingerprints at seed 42, and
//! the fingerprint folds the benchmark compares between passes.

use bt_instrument::Trace;
use bt_sim::SwarmResult;

/// The seed the golden fingerprints were recorded at.
pub const GOLDEN_SEED: u64 = 42;

/// Table I torrents with a golden trace fingerprint, in fixture order.
pub const GOLDEN_TORRENTS: [u32; 3] = [8, 7, 2];

/// FNV-1a fold of `"{id}={SwarmResult::digest:016x}\n"` over all 26 Table I
/// torrents in Table I order, at the quick profile and seed 42. Recorded
/// from this code; any change to what the simulator does moves it.
pub const TABLE1_FOLD_SEED42: u64 = 0xc651_4787_ebce_f16e;

/// The repository's golden fingerprints, read only.
const GOLDEN_FIXTURE: &str = include_str!("../../tests/fixtures/golden_traces.txt");

/// Incremental 64-bit FNV-1a, the hash the repository's fingerprints use.
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hash.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `text` in.
    pub fn write(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// The value of `key=` on the fixture line starting with `prefix `.
fn fixture_field(prefix: &str, key: &str) -> Option<&'static str> {
    let line = GOLDEN_FIXTURE
        .lines()
        .find(|l| l.split_whitespace().next() == Some(prefix))?;
    line.split_whitespace()
        .find_map(|field| field.strip_prefix(key)?.strip_prefix('='))
}

/// Compare a labelled seed-42 Table I trace with its golden line;
/// `None` when torrent `id` has no golden fingerprint.
pub fn golden_torrent(id: u32, trace: &Trace) -> Option<(String, bool)> {
    let prefix = format!("torrent={id}");
    let want_hash = fixture_field(&prefix, "fnv1a64")?;
    let want_events = fixture_field(&prefix, "events")?;
    let mut hash = Fnv::new();
    hash.write(&trace.to_jsonl());
    let got = format!("events={} fnv1a64={:016x}", trace.len(), hash.finish());
    let want = format!("events={want_events} fnv1a64={want_hash}");
    Some((format!("torrent {id} trace {got} == {want}"), got == want))
}

/// Compare the seed-42 10k flash crowd with its golden digest.
pub fn golden_crowd(result: &SwarmResult) -> (String, bool) {
    let prefix = "scenario=flash_crowd_10k";
    let want = format!(
        "events={} completed={} digest={}",
        fixture_field(prefix, "events").unwrap_or("?"),
        fixture_field(prefix, "completed").unwrap_or("?"),
        fixture_field(prefix, "digest").unwrap_or("?"),
    );
    let got = format!(
        "events={} completed={} digest={:016x}",
        result.events_processed,
        result.completed_peers,
        result.digest()
    );
    (format!("crowd10k {got} == {want}"), got == want)
}
