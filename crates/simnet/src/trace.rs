//! Optional event tracing.
//!
//! Tracing is off by default (it allocates); tests and the `reproduce` binary
//! turn it on to assert on, or pretty-print, the exact sequence of network
//! events of a run.

use crate::address::SimAddress;
use crate::id::NodeId;
use crate::stats::DropReason;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// One traced kernel event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A node's `on_start` hook ran.
    NodeStarted { node: NodeId },
    /// A node was shut down (no further deliveries).
    NodeStopped { node: NodeId },
    /// A datagram was accepted by the kernel for transmission.
    DatagramSent {
        from: NodeId,
        to_addr: SimAddress,
        bytes: usize,
    },
    /// A datagram was handed to the destination node's handler.
    DatagramDelivered { from: NodeId, to: NodeId, bytes: usize },
    /// A datagram was dropped in flight.
    DatagramDropped {
        from: NodeId,
        to_addr: SimAddress,
        reason: DropReason,
    },
    /// A timer fired on a node.
    TimerFired { node: NodeId, tag: u64 },
    /// A node's address was re-assigned by the test harness.
    AddressChanged {
        node: NodeId,
        old: SimAddress,
        new: SimAddress,
    },
    /// Free-form annotation emitted by a node through
    /// [`crate::NodeContext::trace`].
    Annotation { node: NodeId, text: String },
}

/// A single timestamped trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// When the event happened on the virtual clock.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.at)?;
        match &self.event {
            TraceEvent::NodeStarted { node } => write!(f, "{node} started"),
            TraceEvent::NodeStopped { node } => write!(f, "{node} stopped"),
            TraceEvent::DatagramSent { from, to_addr, bytes } => {
                write!(f, "{from} sent {bytes}B to {to_addr}")
            }
            TraceEvent::DatagramDelivered { from, to, bytes } => {
                write!(f, "{to} received {bytes}B from {from}")
            }
            TraceEvent::DatagramDropped {
                from,
                to_addr,
                reason,
            } => {
                write!(f, "datagram {from} -> {to_addr} dropped: {reason}")
            }
            TraceEvent::TimerFired { node, tag } => write!(f, "{node} timer tag={tag} fired"),
            TraceEvent::AddressChanged { node, old, new } => {
                write!(f, "{node} address changed {old} -> {new}")
            }
            TraceEvent::Annotation { node, text } => write!(f, "{node}: {text}"),
        }
    }
}

/// A bounded in-memory trace buffer.
///
/// The buffer is a ring: once `capacity` records are held, pushing a new one
/// evicts the **oldest** record (and counts it in
/// [`TraceBuffer::dropped_records`]), so a long trace-enabled run keeps the
/// most recent window of kernel events — the window an operator actually
/// wants when something just went wrong — at a fixed memory bound.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    enabled: bool,
    capacity: usize,
    records: VecDeque<TraceRecord>,
    dropped_records: u64,
}

impl TraceBuffer {
    /// Creates a disabled buffer (records are discarded).
    pub fn disabled() -> Self {
        TraceBuffer {
            enabled: false,
            capacity: 0,
            records: VecDeque::new(),
            dropped_records: 0,
        }
    }

    /// Creates an enabled buffer keeping at most `capacity` records (a zero
    /// capacity is promoted to 1); once full, the oldest records are evicted
    /// first and counted in [`TraceBuffer::dropped_records`].
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuffer {
            enabled: true,
            capacity: capacity.max(1),
            records: VecDeque::new(),
            dropped_records: 0,
        }
    }

    /// Appends a record if tracing is enabled, evicting the oldest record
    /// when the buffer is at capacity.
    pub fn push(&mut self, at: SimTime, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped_records += 1;
        }
        self.records.push_back(TraceRecord { at, event });
    }

    /// The records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no record is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records were evicted because the buffer was full.
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// Removes all records (the buffer stays enabled).
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped_records = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_discards() {
        let mut buf = TraceBuffer::disabled();
        buf.push(
            SimTime::ZERO,
            TraceEvent::NodeStarted {
                node: NodeId::from_raw(0),
            },
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut buf = TraceBuffer::with_capacity(2);
        for i in 0..5 {
            buf.push(
                SimTime::from_millis(i),
                TraceEvent::TimerFired {
                    node: NodeId::from_raw(0),
                    tag: i,
                },
            );
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped_records(), 3);
        let kept: Vec<u64> = buf
            .records()
            .map(|r| match r.event {
                TraceEvent::TimerFired { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4], "the newest records survive");
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.dropped_records(), 0);
        assert_eq!(TraceBuffer::with_capacity(0).capacity, 1);
    }

    /// The ring at a mega-scale push count: a 4096-capacity buffer fed
    /// 20 000 records holds exactly the newest 4096 in order and accounts
    /// for every eviction.
    #[test]
    fn ring_stays_bounded_at_twenty_thousand_pushes() {
        const CAPACITY: usize = 4_096;
        const TOTAL: u64 = 20_000;
        let mut buf = TraceBuffer::with_capacity(CAPACITY);
        for i in 0..TOTAL {
            buf.push(
                SimTime::from_millis(i),
                TraceEvent::TimerFired {
                    node: NodeId::from_raw(0),
                    tag: i,
                },
            );
        }
        assert_eq!(buf.len(), CAPACITY);
        assert_eq!(buf.dropped_records(), TOTAL - CAPACITY as u64);
        let tags: Vec<u64> = buf
            .records()
            .map(|r| match r.event {
                TraceEvent::TimerFired { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags.first().copied(), Some(TOTAL - CAPACITY as u64));
        assert_eq!(tags.last().copied(), Some(TOTAL - 1));
        assert!(
            tags.windows(2).all(|w| w[1] == w[0] + 1),
            "the retained window is contiguous and ordered"
        );
    }

    #[test]
    fn records_render_for_humans() {
        let rec = TraceRecord {
            at: SimTime::from_millis(3),
            event: TraceEvent::Annotation {
                node: NodeId::from_raw(1),
                text: "hello".into(),
            },
        };
        let s = rec.to_string();
        assert!(s.contains("node-1"));
        assert!(s.contains("hello"));
    }
}
