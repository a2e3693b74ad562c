//! Stateful churn property for one engine: random sequences of
//! connects, piece maps (repeats included), `have`s (out-of-range
//! included), remote unchokes, disconnects and ticks never panic, and
//! after every step the connection table and the availability counts
//! agree with each other.

use bt_core::engine::PeerCaps;
use bt_core::{Config, ConnId, Engine, EngineBuilder, Input};
use bt_piece::{Bitfield, Geometry};
use bt_wire::message::Message;
use bt_wire::metainfo::BLOCK_LEN;
use bt_wire::peer_id::{ClientKind, IpAddr, PeerId};
use bt_wire::time::Instant;
use proptest::prelude::*;
use proptest::TestCaseError;

const PIECES: u32 = 6;
const MAX_PEER_SET: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    /// A handshake from (or to) address `ip`; may be refused.
    Connect { ip: u32, ours: bool, fast: bool },
    /// A `bitfield` with the pieces in `mask` on the `slot`-th live
    /// connection.
    Bitfield { slot: usize, mask: u8 },
    /// `have all` on the `slot`-th live connection.
    HaveAll { slot: usize },
    /// `have none` on the `slot`-th live connection.
    HaveNone { slot: usize },
    /// `have piece` (possibly out of range) on the `slot`-th live
    /// connection.
    Have { slot: usize, piece: u32 },
    /// The `slot`-th live connection unchokes us.
    Unchoke { slot: usize },
    /// The `slot`-th live connection closes.
    Disconnect { slot: usize },
    /// Time advances by `secs` and the engine is ticked.
    Tick { secs: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u32..9, any::<bool>(), any::<bool>())
            .prop_map(|(ip, ours, fast)| Op::Connect { ip, ours, fast }),
        3 => (0usize..8, any::<u8>()).prop_map(|(slot, mask)| Op::Bitfield { slot, mask }),
        1 => (0usize..8).prop_map(|slot| Op::HaveAll { slot }),
        1 => (0usize..8).prop_map(|slot| Op::HaveNone { slot }),
        3 => (0usize..8, 0u32..PIECES + 3).prop_map(|(slot, piece)| Op::Have { slot, piece }),
        1 => (0usize..8).prop_map(|slot| Op::Unchoke { slot }),
        2 => (0usize..8).prop_map(|slot| Op::Disconnect { slot }),
        2 => (1u64..30).prop_map(|secs| Op::Tick { secs }),
    ]
}

fn engine() -> Engine {
    let config = Config {
        max_peer_set: MAX_PEER_SET,
        fast_extension: true,
        ..Config::default()
    };
    EngineBuilder::new(
        Geometry::new(u64::from(PIECES * 2 * BLOCK_LEN), 2 * BLOCK_LEN),
        [7u8; 20],
        PeerId::new(ClientKind::Mainline402, 1),
    )
    .config(config)
    .ip(IpAddr(1000))
    .rng_seed(1)
    .build()
}

/// The `slot`-th live connection (modulo the peer set), if any.
fn live(e: &Engine, slot: usize) -> Option<ConnId> {
    let ids: Vec<ConnId> = e.connections().map(|c| c.id).collect();
    (!ids.is_empty()).then(|| ids[slot % ids.len()])
}

fn message(e: &mut Engine, now: Instant, slot: usize, msg: Message) {
    if let Some(conn) = live(e, slot) {
        e.handle(now, Input::Message { conn, msg });
    }
}

fn apply(e: &mut Engine, now: &mut Instant, op: Op) {
    let t = *now;
    match op {
        Op::Connect { ip, ours, fast } => {
            e.handle(
                t,
                Input::PeerConnected {
                    ip: IpAddr(ip),
                    peer_id: PeerId::new(ClientKind::Azureus, u64::from(ip)),
                    initiated_by_us: ours,
                    caps: PeerCaps {
                        fast,
                        extended: false,
                    },
                },
            );
        }
        Op::Bitfield { slot, mask } => {
            let mut bf = Bitfield::new(PIECES);
            for p in (0..PIECES).filter(|p| mask >> p & 1 == 1) {
                bf.set(p);
            }
            message(e, t, slot, Message::Bitfield(bf.to_wire()));
        }
        Op::HaveAll { slot } => message(e, t, slot, Message::HaveAll),
        Op::HaveNone { slot } => message(e, t, slot, Message::HaveNone),
        Op::Have { slot, piece } => message(e, t, slot, Message::Have(piece)),
        Op::Unchoke { slot } => message(e, t, slot, Message::Unchoke),
        Op::Disconnect { slot } => {
            if let Some(conn) = live(e, slot) {
                e.handle(t, Input::PeerDisconnected { conn });
            }
        }
        Op::Tick { secs } => {
            *now = t + bt_wire::time::Duration::from_secs(secs);
            e.handle(*now, Input::Tick);
        }
    }
    let _ = e.drain_actions();
}

fn check(e: &Engine) -> Result<(), TestCaseError> {
    let ids: Vec<ConnId> = e.connections().map(|c| c.id).collect();
    prop_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids not ascending: {ids:?}"
    );
    prop_assert_eq!(e.peer_set_size(), ids.len());
    prop_assert!(e.peer_set_size() <= MAX_PEER_SET);
    let mut ips: Vec<IpAddr> = e.connections().map(|c| c.ip).collect();
    ips.sort_unstable();
    ips.dedup();
    prop_assert_eq!(ips.len(), ids.len(), "two live connections share an IP");
    for p in 0..PIECES {
        let held = e
            .connections()
            .filter(|c| c.bitfield_received && c.bitfield.get(p))
            .count() as u32;
        prop_assert_eq!(e.availability().count(p), held, "piece {}", p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn churn_keeps_table_and_availability_consistent(
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let mut e = engine();
        let mut now = Instant::ZERO;
        e.handle(now, Input::Start);
        for op in ops {
            apply(&mut e, &mut now, op);
            check(&e)?;
        }
    }
}
