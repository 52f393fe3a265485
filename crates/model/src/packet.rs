//! Packets and their buffered representation.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::{NodeId, PacketId, Round};

/// A packet as specified by the adversary: the triple `(t, i_P, w_P)` of
/// Section 2, plus a unique id assigned by the pattern.
///
/// # Examples
///
/// ```
/// use aqt_model::{NodeId, Packet, PacketId, Round};
///
/// let p = Packet::new(PacketId::new(0), Round::new(3), NodeId::new(1), NodeId::new(5));
/// assert_eq!(p.source(), NodeId::new(1));
/// assert_eq!(p.dest(), NodeId::new(5));
/// assert_eq!(p.injected_at(), Round::new(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Packet {
    id: PacketId,
    injected_at: Round,
    source: NodeId,
    dest: NodeId,
}

impl Packet {
    /// Creates a packet. No topology validation happens here; patterns are
    /// validated against a topology by
    /// [`Pattern::validate`](crate::Pattern::validate).
    pub fn new(id: PacketId, injected_at: Round, source: NodeId, dest: NodeId) -> Self {
        Packet {
            id,
            injected_at,
            source,
            dest,
        }
    }

    /// The packet's unique id.
    #[inline]
    pub fn id(&self) -> PacketId {
        self.id
    }

    /// The round in which the adversary injected the packet.
    #[inline]
    pub fn injected_at(&self) -> Round {
        self.injected_at
    }

    /// The injection site `i_P`.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The destination `w_P`.
    #[inline]
    pub fn dest(&self) -> NodeId {
        self.dest
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}@{} -> {})",
            self.id, self.source, self.injected_at, self.dest
        )
    }
}

/// A packet currently held in some buffer, together with local bookkeeping.
///
/// `seq` is a strictly increasing placement counter: whenever a packet is
/// placed into a buffer (on acceptance or on being forwarded into the next
/// buffer) it receives a fresh `seq`. Within one buffer, ascending `seq` is
/// arrival order, so the FIFO head is the minimum and the LIFO top is the
/// maximum. The paper assumes LIFO within pseudo-buffers "for concreteness";
/// occupancy bounds are priority-independent.
///
/// `next_hop` is the link the packet leaves its buffer `v` by,
/// [`Topology::next_hop`](crate::Topology::next_hop)`(v, dest)`: a route
/// is fixed by its source and destination (§2), so the engine routes a
/// packet once, when it places it, and validation and per-link planners
/// read the stored hop instead of routing it again every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredPacket {
    packet: Packet,
    next_hop: Option<NodeId>,
    seq: u64,
}

impl StoredPacket {
    pub(crate) fn new(packet: Packet, next_hop: Option<NodeId>, seq: u64) -> Self {
        StoredPacket {
            packet,
            next_hop,
            seq,
        }
    }

    /// The underlying packet.
    #[inline]
    pub fn packet(&self) -> &Packet {
        &self.packet
    }

    /// Shorthand for `self.packet().id()`.
    #[inline]
    pub fn id(&self) -> PacketId {
        self.packet.id()
    }

    /// Shorthand for `self.packet().dest()`.
    #[inline]
    pub fn dest(&self) -> NodeId {
        self.packet.dest()
    }

    /// The head of the link the packet leaves its current buffer by, or
    /// `None` if the buffer has no route to the destination (see type
    /// docs).
    #[inline]
    pub fn next_hop(&self) -> Option<NodeId> {
        self.next_hop
    }

    /// Buffer-local placement sequence number (see type docs).
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(id: u64) -> Packet {
        Packet::new(
            PacketId::new(id),
            Round::new(2),
            NodeId::new(0),
            NodeId::new(4),
        )
    }

    #[test]
    fn accessors_roundtrip() {
        let p = packet(9);
        assert_eq!(p.id(), PacketId::new(9));
        assert_eq!(p.injected_at(), Round::new(2));
        assert_eq!(p.source(), NodeId::new(0));
        assert_eq!(p.dest(), NodeId::new(4));
    }

    #[test]
    fn stored_packet_carries_seq_and_next_hop() {
        let sp = StoredPacket::new(packet(1), Some(NodeId::new(1)), 42);
        assert_eq!(sp.id(), PacketId::new(1));
        assert_eq!(sp.next_hop(), Some(NodeId::new(1)));
        assert_eq!(sp.seq(), 42);
        assert_eq!(sp.dest(), NodeId::new(4));
        // Storing the hop costs no slab memory: a slot stays 40 bytes.
        assert_eq!(std::mem::size_of::<StoredPacket>(), 40);
    }

    #[test]
    fn display_is_informative() {
        let p = packet(3);
        let s = p.to_string();
        assert!(s.contains("p3"));
        assert!(s.contains("v0"));
        assert!(s.contains("v4"));
    }
}
