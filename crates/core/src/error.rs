//! Typed protocol-violation errors.
//!
//! A remote peer on a real socket can send anything; the engine must
//! never `panic!` on malformed input. Every validation failure in the
//! message-handling paths surfaces as an [`EngineError`]. When a
//! violation is detected inside [`crate::Engine::handle`], the engine
//! removes the offending connection from its state, emits
//! [`crate::Action::Disconnect`], and reports the error through
//! [`crate::Actions::take_error`] so the driver can log it and close
//! the socket.

use crate::connection::ConnId;
use bt_wire::message::BlockRef;

/// A protocol violation by a remote peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A `bitfield` payload whose length does not match the torrent.
    BadBitfield {
        /// The offending connection.
        conn: ConnId,
        /// The payload length received, in bytes.
        len: usize,
    },
    /// A `have` carrying a piece index outside the torrent.
    PieceOutOfRange {
        /// The offending connection.
        conn: ConnId,
        /// The out-of-range index.
        piece: u32,
        /// Number of pieces in the torrent.
        num_pieces: u32,
    },
    /// A `request`, `piece` or `cancel` whose block does not lie on the
    /// torrent's 16 kB block grid (bad piece, offset or length).
    MalformedBlock {
        /// The offending connection.
        conn: ConnId,
        /// The block reference as received.
        block: BlockRef,
    },
    /// A second piece map (`bitfield`, `have all` or `have none`) on a
    /// connection that already sent one.
    DuplicateBitfield {
        /// The offending connection.
        conn: ConnId,
    },
}

impl EngineError {
    /// The connection the violation arrived on.
    pub fn conn(&self) -> ConnId {
        match *self {
            EngineError::BadBitfield { conn, .. }
            | EngineError::PieceOutOfRange { conn, .. }
            | EngineError::MalformedBlock { conn, .. }
            | EngineError::DuplicateBitfield { conn } => conn,
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadBitfield { conn, len } => {
                write!(
                    f,
                    "conn {conn}: bitfield payload of {len} bytes does not fit the torrent"
                )
            }
            EngineError::PieceOutOfRange {
                conn,
                piece,
                num_pieces,
            } => write!(
                f,
                "conn {conn}: piece index {piece} out of range (torrent has {num_pieces} pieces)"
            ),
            EngineError::MalformedBlock { conn, block } => write!(
                f,
                "conn {conn}: block {}/{}+{} is not on the block grid",
                block.piece, block.offset, block.length
            ),
            EngineError::DuplicateBitfield { conn } => {
                write!(f, "conn {conn}: second bitfield on one connection")
            }
        }
    }
}

impl std::error::Error for EngineError {}
