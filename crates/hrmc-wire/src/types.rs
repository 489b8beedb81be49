//! Packet types (paper Table 1).
//!
//! Nine types come from the original RMC protocol; `UPDATE` and `PROBE`
//! were added by H-RMC to carry the hybrid reliability machinery.

/// The eleven RMC / H-RMC packet types (paper Table 1).
///
/// The discriminant values are the on-wire 6-bit type codes. The paper does
/// not publish numeric codes, so we assign them in Table 1 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum PacketType {
    /// Used by sender for data transmissions and retransmissions.
    Data = 0,
    /// Used by receiver to request data retransmissions.
    Nak = 1,
    /// Used by sender to inform a receiver it cannot satisfy a
    /// retransmission request (only possible in pure-NAK RMC mode, where
    /// buffers may be released before all receivers have the data).
    NakErr = 2,
    /// Used by a receiver to request to join the multicast group.
    Join = 3,
    /// Used by sender to confirm that a join request has been accepted.
    JoinResponse = 4,
    /// Used by a receiver to inform the sender that it is leaving the group.
    Leave = 5,
    /// Used by sender to confirm that a leave request has been received.
    LeaveResponse = 6,
    /// Used by a receiver to request a reduced transmission rate
    /// ("rate request"). The suggested rate rides in the header's
    /// rate-advertisement field; the URG flag marks a critical-region
    /// request that stops forward transmission for two RTTs.
    Control = 7,
    /// Used by sender to keep the connection active during idle time.
    /// Carries the sequence number of the last packet transmitted so that
    /// receivers can detect the loss of the tail of a burst.
    Keepalive = 8,
    /// H-RMC only: used by the receiver to send state information (its
    /// next-expected sequence number) to the sender on the update timer.
    Update = 9,
    /// H-RMC only: used by the sender to obtain state information from
    /// receivers it has not heard from before releasing buffer space.
    Probe = 10,
    /// Extension (not in the paper's Table 1): an XOR parity packet
    /// covering a block of DATA packets, implementing the paper's
    /// future-work item (4), "incorporation of forward error correction,
    /// particularly for wireless environments". `seq` names the first
    /// packet of the covered block; the payload carries the block's
    /// per-packet lengths followed by the XOR body (see
    /// `hrmc-core::fec`).
    Parity = 11,
}

impl PacketType {
    /// All packet types: Table 1 order plus the PARITY extension.
    pub const ALL: [PacketType; 12] = [
        PacketType::Data,
        PacketType::Nak,
        PacketType::NakErr,
        PacketType::Join,
        PacketType::JoinResponse,
        PacketType::Leave,
        PacketType::LeaveResponse,
        PacketType::Control,
        PacketType::Keepalive,
        PacketType::Update,
        PacketType::Probe,
        PacketType::Parity,
    ];

    /// Decode a 6-bit wire code into a packet type.
    pub fn from_wire(code: u8) -> Option<PacketType> {
        PacketType::ALL.get(code as usize).copied()
    }

    /// The on-wire 6-bit type code.
    #[inline]
    pub fn to_wire(self) -> u8 {
        self as u8
    }

    /// `true` for packets that flow from sender to receivers.
    pub fn is_sender_originated(self) -> bool {
        matches!(
            self,
            PacketType::Data
                | PacketType::NakErr
                | PacketType::JoinResponse
                | PacketType::LeaveResponse
                | PacketType::Keepalive
                | PacketType::Probe
                | PacketType::Parity
        )
    }
}

impl std::fmt::Display for PacketType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PacketType::Data => "DATA",
            PacketType::Nak => "NAK",
            PacketType::NakErr => "NAK_ERR",
            PacketType::Join => "JOIN",
            PacketType::JoinResponse => "JOIN_RESPONSE",
            PacketType::Leave => "LEAVE",
            PacketType::LeaveResponse => "LEAVE_RESPONSE",
            PacketType::Control => "CONTROL",
            PacketType::Keepalive => "KEEPALIVE",
            PacketType::Update => "UPDATE",
            PacketType::Probe => "PROBE",
            PacketType::Parity => "PARITY",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_types_plus_parity_extension() {
        // Table 1 lists 9 RMC types plus UPDATE and PROBE; PARITY is our
        // FEC extension (paper future-work item 4).
        assert_eq!(PacketType::ALL.len(), 12);
        assert_eq!(PacketType::Parity.to_wire(), 11);
    }

    #[test]
    fn wire_codes_round_trip() {
        for t in PacketType::ALL {
            assert_eq!(PacketType::from_wire(t.to_wire()), Some(t));
        }
    }

    #[test]
    fn unknown_codes_rejected() {
        for code in 12u8..64 {
            assert_eq!(PacketType::from_wire(code), None);
        }
    }

    #[test]
    fn direction_partition_is_total() {
        // Every type flows one way: seven from the sender, and the five
        // feedback types (NAK, JOIN, LEAVE, CONTROL, UPDATE) from receivers.
        let feedback: Vec<_> = PacketType::ALL
            .into_iter()
            .filter(|t| !t.is_sender_originated())
            .collect();
        assert_eq!(
            feedback,
            [
                PacketType::Nak,
                PacketType::Join,
                PacketType::Leave,
                PacketType::Control,
                PacketType::Update
            ]
        );
    }

    #[test]
    fn display_matches_table1_names() {
        assert_eq!(PacketType::NakErr.to_string(), "NAK_ERR");
        assert_eq!(PacketType::JoinResponse.to_string(), "JOIN_RESPONSE");
        assert_eq!(PacketType::Update.to_string(), "UPDATE");
    }
}
