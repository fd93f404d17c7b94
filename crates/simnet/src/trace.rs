//! The kernel's drop log: once a harness turns it on
//! ([`crate::Network::enable_drop_log`]), every datagram the kernel drops, so
//! drop forensics can name the transport-level cause of a copy that never
//! arrived. It holds drops and nothing else: timers and deliveries never
//! evict that evidence.

use crate::address::SimAddress;
use crate::id::NodeId;
use crate::stats::DropReason;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// One datagram the kernel dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropRecord {
    /// The datagram's effective departure instant for send-path drops, or
    /// the delivery instant for in-flight casualties.
    pub at: SimTime,
    /// The sending node.
    pub from: NodeId,
    /// The address the datagram was sent to.
    pub to_addr: SimAddress,
    /// Why the kernel dropped it.
    pub reason: DropReason,
}

impl fmt::Display for DropRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (at, from, to_addr, reason) = (self.at, self.from, self.to_addr, self.reason);
        write!(f, "[{at}] datagram {from} -> {to_addr} dropped: {reason}")
    }
}

/// A bounded ring of [`DropRecord`]s, empty and recording nothing until
/// built with a capacity.
///
/// Once `capacity` records are held, recording a new one evicts the
/// **oldest** (and counts it in [`DropLog::evicted`]), so a long run keeps
/// its most recent drops at a fixed memory bound.
#[derive(Debug, Default)]
pub struct DropLog {
    capacity: usize,
    records: VecDeque<DropRecord>,
    evicted: u64,
}

impl DropLog {
    /// A log keeping at most `capacity` records (zero is promoted to 1).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        DropLog {
            capacity: capacity.max(1),
            ..DropLog::default()
        }
    }

    /// Appends a record, evicting the oldest when the log is full. A log
    /// without a capacity discards it.
    pub(crate) fn push(&mut self, record: DropRecord) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(record);
    }

    /// The records currently retained, oldest first.
    pub fn records(&self) -> &VecDeque<DropRecord> {
        &self.records
    }

    /// How many records were evicted because the log was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::TransportKind;

    /// A drop from node 0 at `millis`, told apart by its destination host.
    fn drop_at(millis: u64) -> DropRecord {
        DropRecord {
            at: SimTime::from_millis(millis),
            from: NodeId::from_raw(0),
            to_addr: SimAddress::new(TransportKind::Tcp, millis as u32, 9701),
            reason: DropReason::RandomLoss,
        }
    }

    fn hosts(log: &DropLog) -> Vec<u64> {
        log.records().iter().map(|r| u64::from(r.to_addr.host)).collect()
    }

    #[test]
    fn disabled_buffer_discards() {
        let mut log = DropLog::default();
        log.push(drop_at(0));
        assert!(log.records().is_empty());
        assert_eq!(log.evicted(), 0);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut log = DropLog::with_capacity(2);
        for i in 0..5 {
            log.push(drop_at(i));
        }
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.evicted(), 3);
        assert_eq!(hosts(&log), vec![3, 4], "the newest records survive");
        assert_eq!(DropLog::with_capacity(0).capacity, 1);
    }

    /// The ring at a mega-scale push count: a 4096-capacity log fed
    /// 20 000 records holds exactly the newest 4096 in order and accounts
    /// for every eviction.
    #[test]
    fn ring_stays_bounded_at_twenty_thousand_pushes() {
        const CAPACITY: usize = 4_096;
        const TOTAL: u64 = 20_000;
        let mut log = DropLog::with_capacity(CAPACITY);
        for i in 0..TOTAL {
            log.push(drop_at(i));
        }
        assert_eq!(log.records().len(), CAPACITY);
        assert_eq!(log.evicted(), TOTAL - CAPACITY as u64);
        let kept = hosts(&log);
        assert_eq!(kept.first().copied(), Some(TOTAL - CAPACITY as u64));
        assert_eq!(kept.last().copied(), Some(TOTAL - 1));
        assert!(
            kept.windows(2).all(|w| w[1] == w[0] + 1),
            "the retained window is contiguous and ordered"
        );
    }

    #[test]
    fn records_render_for_humans() {
        let mut record = drop_at(3);
        record.from = NodeId::from_raw(1);
        record.reason = DropReason::FaultInjected;
        let s = record.to_string();
        assert!(s.contains("node-1"));
        assert!(s.contains("fault injection"));
    }
}
