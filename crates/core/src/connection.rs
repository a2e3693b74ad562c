//! Per-connection state.
//!
//! One [`Connection`] tracks the four BitTorrent state bits (am-choking,
//! am-interested, peer-choking, peer-interested), the remote bitfield,
//! rate estimators in both directions, and the counters the choke
//! algorithm and the fairness analysis need.

use bt_choke::{PeerSnapshot, RateEstimator};
use bt_piece::Bitfield;
use bt_wire::peer_id::{IpAddr, PeerId};
use bt_wire::time::Instant;

/// Dense connection handle within one engine (also the trace handle).
pub type ConnId = u32;

/// State of one remote peer connection.
#[derive(Debug)]
pub struct Connection {
    /// Handle of this connection.
    pub id: ConnId,
    /// Remote address.
    pub ip: IpAddr,
    /// Remote peer ID from the handshake.
    pub peer_id: PeerId,
    /// True if the local peer initiated the TCP connection.
    pub initiated_by_us: bool,
    /// The remote's advertised pieces.
    pub bitfield: Bitfield,
    /// The remote's piece map (`bitfield`, `have all` or `have none`)
    /// arrived: the peer is a peer-set member and its pieces are counted
    /// in the engine's availability.
    pub bitfield_received: bool,
    /// Local → remote choke state (starts choked).
    pub am_choking: bool,
    /// Local → remote interest (starts not interested).
    pub am_interested: bool,
    /// Remote → local choke state (starts choked).
    pub peer_choking: bool,
    /// Remote → local interest (starts not interested).
    pub peer_interested: bool,
    /// Download-rate estimator (remote → local).
    pub download: RateEstimator,
    /// Upload-rate estimator (local → remote).
    pub upload: RateEstimator,
    /// When the local peer last unchoked this peer.
    pub last_unchoked: Option<Instant>,
    /// When any message was last sent on this connection (keep-alives).
    pub last_sent: Instant,
    /// When the connection entered the peer set.
    pub joined: Instant,
    /// Fast Extension negotiated on this connection (both sides set the
    /// reserved bit).
    pub fast: bool,
    /// Pieces the local peer granted this peer as allowed-fast.
    pub allowed_fast_sent: Vec<u32>,
    /// Pieces this peer granted the local peer as allowed-fast.
    pub allowed_fast_received: Bitfield,
    /// Virtual time of the last block received from this peer, for
    /// snub detection.
    pub last_block_received: Option<Instant>,
    /// Extension protocol (BEP 10) negotiated on this connection.
    pub extended: bool,
    /// The inner ID under which the remote accepts `ut_pex` gossip.
    pub remote_pex_id: Option<u8>,
    /// Peer addresses already gossiped to this peer (delta tracking),
    /// ascending.
    pub pex_sent: Vec<IpAddr>,
    /// When `ut_pex` was last sent on this connection.
    pub last_pex: Instant,
    /// Super seeding: pieces revealed to this peer via `have`.
    pub revealed: Bitfield,
}

impl Connection {
    /// Fresh connection in the initial protocol state (both sides choked,
    /// neither interested).
    pub fn new(
        id: ConnId,
        ip: IpAddr,
        peer_id: PeerId,
        initiated_by_us: bool,
        num_pieces: u32,
        now: Instant,
    ) -> Connection {
        Connection {
            id,
            ip,
            peer_id,
            initiated_by_us,
            bitfield: Bitfield::new(num_pieces),
            bitfield_received: false,
            am_choking: true,
            am_interested: false,
            peer_choking: true,
            peer_interested: false,
            download: RateEstimator::default(),
            upload: RateEstimator::default(),
            last_unchoked: None,
            last_sent: now,
            joined: now,
            fast: false,
            allowed_fast_sent: Vec::new(),
            allowed_fast_received: Bitfield::new(num_pieces),
            last_block_received: None,
            extended: false,
            remote_pex_id: None,
            pex_sent: Vec::new(),
            last_pex: Instant::ZERO,
            revealed: Bitfield::new(num_pieces),
        }
    }

    /// Snapshot for the choke algorithm.
    pub fn snapshot(&mut self, now: Instant) -> PeerSnapshot {
        PeerSnapshot {
            key: self.id,
            interested: self.peer_interested,
            unchoked: !self.am_choking,
            download_rate: self.download.rate(now),
            upload_rate: self.upload.rate(now),
            last_unchoked: self.last_unchoked,
            uploaded_to: self.upload.total(),
            downloaded_from: self.download.total(),
            snubbed: self.is_snubbing(now),
        }
    }

    /// Anti-snubbing (mainline): the remote has unchoked the local peer,
    /// the local peer is interested, and yet no block has arrived for
    /// [`bt_choke::choker::SNUB_THRESHOLD`].
    pub fn is_snubbing(&self, now: Instant) -> bool {
        if self.peer_choking || !self.am_interested {
            return false;
        }
        let last = self.last_block_received.unwrap_or(self.joined);
        now.saturating_since(last) >= bt_choke::choker::SNUB_THRESHOLD
    }

    /// This peer is in the active peer set (§II-A: unchoked by the local
    /// peer *and* interested in the local peer).
    pub fn in_active_set(&self) -> bool {
        !self.am_choking && self.peer_interested
    }

    /// The remote holds every piece (it is a seed).
    pub fn is_seed(&self) -> bool {
        self.bitfield.is_complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_wire::peer_id::ClientKind;

    fn conn() -> Connection {
        Connection::new(
            3,
            IpAddr(0x0A000001),
            PeerId::new(ClientKind::Mainline402, 1),
            true,
            16,
            Instant::from_secs(5),
        )
    }

    #[test]
    fn initial_protocol_state() {
        let c = conn();
        assert!(c.am_choking && c.peer_choking);
        assert!(!c.am_interested && !c.peer_interested);
        assert!(!c.in_active_set());
        assert!(!c.is_seed());
        assert_eq!(c.joined, Instant::from_secs(5));
    }

    #[test]
    fn active_set_requires_unchoked_and_interested() {
        let mut c = conn();
        c.am_choking = false;
        assert!(!c.in_active_set());
        c.peer_interested = true;
        assert!(c.in_active_set());
        c.am_choking = true;
        assert!(!c.in_active_set());
    }

    #[test]
    fn snub_detection() {
        let mut c = conn();
        let t0 = Instant::from_secs(5);
        // Not snubbing while choked or uninterested.
        assert!(!c.is_snubbing(t0 + bt_wire::time::Duration::from_secs(300)));
        c.peer_choking = false;
        c.am_interested = true;
        // Unchoked + interested + silence ≥ 60 s → snubbed.
        assert!(!c.is_snubbing(t0 + bt_wire::time::Duration::from_secs(59)));
        assert!(c.is_snubbing(t0 + bt_wire::time::Duration::from_secs(61)));
        // A block resets the clock.
        c.last_block_received = Some(t0 + bt_wire::time::Duration::from_secs(100));
        assert!(!c.is_snubbing(t0 + bt_wire::time::Duration::from_secs(120)));
    }

    #[test]
    fn snapshot_reflects_counters() {
        let mut c = conn();
        c.download.record(Instant::from_secs(6), 2000);
        c.upload.record(Instant::from_secs(6), 500);
        let s = c.snapshot(Instant::from_secs(6));
        assert_eq!(s.key, 3);
        assert_eq!(s.downloaded_from, 2000);
        assert_eq!(s.uploaded_to, 500);
        assert!(s.download_rate > 0.0);
    }
}
