//! Engine configuration.
//!
//! §III-C lists the main default parameters of the instrumented mainline
//! client; [`Config::default`] reproduces every one of them:
//!
//! > "the maximum upload rate (default to 20 kB/s), the minimum number of
//! > peers in the peer set before requesting more peers to the tracker
//! > (default to 20), the maximum number of connections the local peer can
//! > initiate (default to 40), the maximum number of peers in the peer set
//! > (default to 80), the number of peers in the active peer set including
//! > the optimistic unchoke (default to 4), the block size (default to
//! > 2^14 Bytes), the number of pieces downloaded before switching from
//! > random to rarest first piece selection (default to 4)."

use bt_choke::ChokerKind;
use bt_piece::PickerKind;
use bt_wire::time::Duration;
use serde::{Deserialize, Serialize};

/// Tunable parameters of a [`crate::engine::Engine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Maximum upload rate in bytes/second (mainline default: 20 kB/s).
    /// Enforced by the simulator's link model.
    pub max_upload_rate: u64,
    /// Maximum download rate in bytes/second; `u64::MAX` = unlimited (the
    /// paper's machine had no download cap).
    pub max_download_rate: u64,
    /// Maximum peer set size (default 80).
    pub max_peer_set: usize,
    /// Request more peers from the tracker when the peer set falls below
    /// this threshold (default 20).
    pub min_peer_set: usize,
    /// Maximum number of connections the local peer may initiate
    /// (default 40); the rest must be inbound.
    pub max_initiated: usize,
    /// Active peer set size including the optimistic unchoke (default 4).
    pub active_set_size: usize,
    /// Pieces downloaded via the random-first policy before switching to
    /// rarest first (default 4).
    pub random_first_threshold: u32,
    /// Outstanding block requests kept in flight per unchoked peer.
    pub pipeline_depth: usize,
    /// Rechoke period (10 s).
    pub rechoke_period: Duration,
    /// Optimistic unchoke rotation, in rechoke rounds (3 → every 30 s).
    pub optimistic_rounds: u64,
    /// Keep-alive interval (2 minutes of silence).
    pub keepalive: Duration,
    /// Piece selection strategy.
    pub picker: PickerKind,
    /// Peer selection strategy.
    pub choker: ChokerKind,
    /// Behaviour switch: never serve blocks (free rider, §IV-B).
    pub upload_disabled: bool,
    /// Behaviour switch: super-seeding-style gradual piece advertisement
    /// (§IV-A.1 mentions clients with this option as an entropy artefact).
    pub super_seed: bool,
    /// End game mode (§II-C.1). Enabled by default, as in all the paper's
    /// experiments; the ablation bench turns it off.
    pub endgame_enabled: bool,
    /// Fast Extension (BEP 6). Off by default — the paper's mainline
    /// 4.0.2 client predates it. Implemented here as the protocol-level
    /// answer to the paper's §VI *first blocks problem*: peers grant each
    /// neighbour a small allowed-fast set requestable even while choked.
    pub fast_extension: bool,
    /// Pieces granted per neighbour when the Fast Extension is active.
    pub allowed_fast_count: u32,
    /// Peer exchange (BEP 10/11 `ut_pex`). Off by default — post-paper;
    /// decentralises the peer-set interconnection that §II-B attributes
    /// to the tracker's random lists.
    pub pex_enabled: bool,
    /// Minimum spacing between `ut_pex` gossips per connection.
    pub pex_interval: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_upload_rate: 20 * 1024,
            max_download_rate: u64::MAX,
            max_peer_set: 80,
            min_peer_set: 20,
            max_initiated: 40,
            active_set_size: 4,
            random_first_threshold: 4,
            pipeline_depth: 8,
            rechoke_period: Duration::from_secs(10),
            optimistic_rounds: 3,
            keepalive: Duration::from_secs(120),
            picker: PickerKind::RarestFirst,
            choker: ChokerKind::Standard,
            upload_disabled: false,
            super_seed: false,
            endgame_enabled: true,
            fast_extension: false,
            allowed_fast_count: bt_wire::fast::DEFAULT_ALLOWED_FAST,
            pex_enabled: false,
            pex_interval: Duration::from_secs(60),
        }
    }
}

impl Config {
    /// A free-riding client: standard algorithms, upload refused.
    pub fn free_rider() -> Config {
        Config {
            upload_disabled: true,
            ..Config::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_section_iii_c() {
        let c = Config::default();
        assert_eq!(c.max_upload_rate, 20 * 1024);
        assert_eq!(c.min_peer_set, 20);
        assert_eq!(c.max_initiated, 40);
        assert_eq!(c.max_peer_set, 80);
        assert_eq!(c.active_set_size, 4);
        assert_eq!(c.random_first_threshold, 4);
        assert_eq!(c.rechoke_period, Duration::from_secs(10));
        assert_eq!(c.optimistic_rounds, 3);
        assert_eq!(c.picker, PickerKind::RarestFirst);
        assert_eq!(c.choker, ChokerKind::Standard);
        assert!(!c.upload_disabled);
    }

    #[test]
    fn free_rider_only_disables_upload() {
        let c = Config::free_rider();
        assert!(c.upload_disabled);
        assert_eq!(c.max_peer_set, Config::default().max_peer_set);
    }
}
