//! The packet representation shared by all switch models.

use crate::ids::{FieldId, PacketId, PipelineId, PortId, RegId, StageId};
use crate::time::Time;
use crate::Value;

/// A resolved state access, produced by MP5's preemptive address
/// resolution stage (paper §3.3).
///
/// The resolution stage computes, for every register array a packet will
/// touch, the concrete index and looks up the pipeline currently holding
/// that index in the index-to-pipeline map. The tuple
/// `(packet id, register, index, pipeline, stage)` is exactly what the
/// paper writes into both the phantom packet and the data packet's
/// metadata to aid steering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AccessTag {
    /// The register array being accessed.
    pub reg: RegId,
    /// The resolved index within the register array.
    pub index: u32,
    /// The pipeline holding the active copy of this index, at resolution
    /// time.
    pub pipeline: PipelineId,
    /// The stage holding the register array.
    pub stage: StageId,
    /// Whether the access is *speculative*: generated for a branch whose
    /// predicate could not be evaluated preemptively (paper §3.3). A
    /// speculative phantom whose branch turns out false is discarded at
    /// the stateful stage, costing one wasted slot.
    pub speculative: bool,
}

/// What finally happened to a packet, recorded by the simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PacketDisposition {
    /// Still inside the switch when the simulation ended.
    InFlight,
    /// Processed completely and emitted, at the given time.
    Completed(Time),
    /// Dropped because a stage FIFO was full when its phantom arrived.
    DroppedPhantomFifoFull,
    /// Dropped because its phantom was missing from the FIFO directory
    /// when the data packet arrived (the phantom was dropped earlier).
    DroppedNoPhantom,
    /// Dropped at ingress (input buffer overflow under oversubscription).
    DroppedIngress,
    /// A stateless packet dropped in favor of a starving stateful packet
    /// (paper §3.4, "Handling starvation").
    DroppedForStarvation,
}

impl PacketDisposition {
    /// True if the packet made it through the switch.
    pub fn is_completed(self) -> bool {
        matches!(self, PacketDisposition::Completed(_))
    }
}

/// A packet flowing through a switch model.
///
/// Header fields (and compiler-introduced metadata fields) live in a flat
/// `Vec<Value>` indexed by [`FieldId`]; the compiler's field table maps
/// names to ids once, so the simulators never touch strings.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Packet {
    /// The packet's label in reports, traces and phantom keys. The
    /// switch finds a packet's queued phantoms by its buffer slot, not
    /// by this id, so a fault-free run without drops needs no unique
    /// ids; a phantom cancelled on its way or lost to a fault is still
    /// remembered by key (DESIGN.md §8, defect 6).
    pub id: PacketId,
    /// Arrival port.
    pub port: PortId,
    /// Arrival time at the switch, in byte-times.
    pub arrival: Time,
    /// Wire size in bytes (including headers); drives the arrival process.
    pub size: u32,
    /// Header + metadata field values, indexed by [`FieldId`].
    pub fields: Vec<Value>,
    /// Resolved state accesses, filled in by the address resolution stage.
    /// Ordered by ascending stage.
    pub tags: Vec<AccessTag>,
    /// Congestion-experienced mark, set by the switch when the packet
    /// found a stateful-stage FIFO above the ECN threshold (§3.4's
    /// "explicit congestion notification"-inspired backpressure).
    pub ecn: bool,
}

impl Packet {
    /// Creates a packet with the given identity and `nfields` zeroed
    /// fields.
    pub fn new(id: PacketId, port: PortId, arrival: Time, size: u32, nfields: usize) -> Self {
        Packet {
            id,
            port,
            arrival,
            size,
            fields: vec![0; nfields],
            tags: Vec::new(),
            ecn: false,
        }
    }

    /// Reads a field.
    #[inline]
    pub fn get(&self, f: FieldId) -> Value {
        self.fields[f.index()]
    }

    /// Writes a field.
    #[inline]
    pub fn set(&mut self, f: FieldId, v: Value) {
        self.fields[f.index()] = v;
    }

    /// The total order in which packets enter the processing pipeline
    /// (paper §2.2.1): ascending arrival time, ties broken by the smaller
    /// port id.
    #[inline]
    pub fn entry_order_key(&self) -> (Time, PortId) {
        (self.arrival, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_order_breaks_ties_by_port() {
        let a = Packet::new(PacketId(0), PortId(3), 100, 64, 2);
        let b = Packet::new(PacketId(1), PortId(1), 100, 64, 2);
        assert!(b.entry_order_key() < a.entry_order_key());
    }

    #[test]
    fn entry_order_prefers_earlier_arrival() {
        let a = Packet::new(PacketId(0), PortId(9), 50, 64, 0);
        let b = Packet::new(PacketId(1), PortId(0), 51, 64, 0);
        assert!(a.entry_order_key() < b.entry_order_key());
    }

    #[test]
    fn field_get_set_roundtrip() {
        let mut p = Packet::new(PacketId(7), PortId(0), 0, 64, 4);
        p.set(FieldId(2), -42);
        assert_eq!(p.get(FieldId(2)), -42);
        assert_eq!(p.get(FieldId(0)), 0);
    }

    #[test]
    fn disposition_completed() {
        assert!(PacketDisposition::Completed(5).is_completed());
        assert!(!PacketDisposition::DroppedNoPhantom.is_completed());
        assert!(!PacketDisposition::InFlight.is_completed());
    }
}
