//! Packets in flight: one slab of [`FlightState`]s addressed by `u32`
//! handles, and beside each handle the FIFO address of every phantom its
//! tags own — the paper's phantom directory, indexed by buffer slot
//! (§3.2) rather than by whatever id the packet carried in.

use std::ops::{Index, IndexMut};

use mp5_fabric::FifoAddr;
use mp5_types::PipelineId;

use crate::state::FlightState;

/// The handle to a packet in flight: its slot in the switch's
/// [`Flights`]. Lanes, incoming rows, the ingress queue, held grants,
/// FIFO entries and phantom messages move this, never the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) struct Handle(u32);

impl Handle {
    /// Names no slot: what a restored channel phantom whose packet is
    /// gone (its key was cancelled) carries. Its delivery is discarded
    /// before the handle is read, and [`Flights::set_addr`] ignores it.
    pub(super) const NONE: Handle = Handle(u32::MAX);
}

/// Where a tag's phantom address sits in its packet's row: tags retire
/// from the front of the list, so a tag's distance from the end of the
/// list is the one position that does not change while the packet
/// runs. `i` is the tag's current index in a list of `len` tags.
#[inline]
pub(super) fn from_back(len: usize, i: usize) -> usize {
    len - 1 - i
}

/// Slots per chunk. The slab grows a chunk at a time and never moves a
/// packet, so growing copies nothing and never holds an old and a new
/// buffer at once (a doubling vector did both, and read higher peak
/// memory on a saturated switch).
const CHUNK_BITS: u32 = 5;
const CHUNK: usize = 1 << CHUNK_BITS;

/// Bits of a packed address that hold the sequence number; the lane
/// takes the 16 above them. A lane would need 2^48 pushes to outgrow
/// them, and a restore refuses a lane already past [`SEQ_ROOM`].
const SEQ_BITS: u32 = 48;

/// The highest head sequence number a restored lane may start from:
/// half the packed range, which leaves 2^47 pushes to run.
pub(super) const SEQ_ROOM: u64 = 1 << (SEQ_BITS - 1);

/// A [`FifoAddr`] in 8 bytes instead of 16; all ones is unset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packed(u64);

impl Packed {
    const UNSET: Packed = Packed(u64::MAX);

    fn new(addr: FifoAddr) -> Packed {
        if addr.seq >> SEQ_BITS != 0 {
            return Packed::UNSET;
        }
        Packed(u64::from(addr.lane.0) << SEQ_BITS | addr.seq)
    }

    fn get(self) -> FifoAddr {
        if self == Packed::UNSET {
            return FifoAddr::UNSET;
        }
        FifoAddr {
            lane: PipelineId((self.0 >> SEQ_BITS) as u16),
            seq: self.0 & ((1 << SEQ_BITS) - 1),
        }
    }
}

/// `CHUNK` slots and their rows of phantom addresses.
#[derive(Debug)]
struct Chunk {
    slots: Box<[Option<FlightState>]>,
    /// `width` entries per slot, indexed by [`from_back`].
    addrs: Box<[Packed]>,
}

impl Chunk {
    fn new(width: usize) -> Self {
        Chunk {
            slots: (0..CHUNK).map(|_| None).collect(),
            addrs: vec![Packed::UNSET; CHUNK * width].into_boxed_slice(),
        }
    }
}

/// The chunk and the slot within it that a handle names.
#[inline]
fn split(h: Handle) -> (usize, usize) {
    ((h.0 >> CHUNK_BITS) as usize, h.0 as usize & (CHUNK - 1))
}

/// The slab: every packet between arrival and exit, once, in a slot
/// reused last-freed-first; and, `width` per slot, the address of each
/// of the packet's phantoms once it is queued ([`FifoAddr::UNSET`]
/// until then, and for one that never was). `width` bounds the tags a
/// packet can hold: the program's access plans (duplicates merge), or
/// more after a restore or a hot swap that brings longer tag lists.
#[derive(Debug, Default)]
pub(super) struct Flights {
    chunks: Vec<Chunk>,
    free: Vec<u32>,
    /// Slots handed out so far: the next fresh handle.
    used: u32,
    width: usize,
}

impl Flights {
    /// An empty slab for packets of at most `width` tags.
    pub(super) fn new(width: usize) -> Self {
        Flights {
            width,
            ..Flights::default()
        }
    }

    /// Stores a packet and returns its handle; its phantom row starts
    /// unset. A packet that already holds more tags than a row has room
    /// for (a restored one) widens every row.
    pub(super) fn alloc(&mut self, fl: FlightState) -> Handle {
        self.widen(fl.pkt.tags.len());
        let h = match self.free.pop() {
            Some(h) => Handle(h),
            None => {
                assert!(
                    self.used < Handle::NONE.0,
                    "more packets in flight than a u32 handle names"
                );
                if self.used as usize == self.chunks.len() * CHUNK {
                    self.chunks.push(Chunk::new(self.width));
                }
                self.used += 1;
                Handle(self.used - 1)
            }
        };
        let (c, i) = split(h);
        let (w, chunk) = (self.width, &mut self.chunks[c]);
        debug_assert!(chunk.slots[i].is_none(), "free slot {h:?} is live");
        chunk.slots[i] = Some(fl);
        chunk.addrs[i * w..(i + 1) * w].fill(Packed::UNSET);
        h
    }

    /// Takes the packet out of its slot and frees the slot.
    pub(super) fn free(&mut self, h: Handle) -> FlightState {
        let (c, i) = split(h);
        let fl = self.chunks[c].slots[i]
            .take()
            .expect("freed a handle that holds no packet");
        self.free.push(h.0);
        fl
    }

    /// The recorded address of the phantom of the tag `back` places
    /// from the end of `h`'s tag list.
    #[inline]
    pub(super) fn addr(&self, h: Handle, back: usize) -> FifoAddr {
        let (c, i) = split(h);
        match self.chunks.get(c) {
            Some(chunk) if back < self.width => chunk.addrs[i * self.width + back].get(),
            _ => FifoAddr::UNSET,
        }
    }

    /// Records where the phantom of `h`'s tag `back` (see
    /// [`Self::addr`]) was queued.
    #[inline]
    pub(super) fn set_addr(&mut self, h: Handle, back: usize, addr: FifoAddr) {
        let (c, i) = split(h);
        if let Some(chunk) = self.chunks.get_mut(c).filter(|_| back < self.width) {
            chunk.addrs[i * self.width + back] = Packed::new(addr);
        }
    }

    /// Makes room for packets of up to `width` tags, keeping every
    /// recorded address.
    pub(super) fn widen(&mut self, width: usize) {
        let old = self.width;
        if width <= old {
            return;
        }
        for chunk in &mut self.chunks {
            let mut addrs = vec![Packed::UNSET; CHUNK * width];
            if old > 0 {
                let rows = addrs
                    .chunks_exact_mut(width)
                    .zip(chunk.addrs.chunks_exact(old));
                rows.for_each(|(new, row)| new[..old].copy_from_slice(row));
            }
            chunk.addrs = addrs.into_boxed_slice();
        }
        self.width = width;
    }

    /// Live packets.
    pub(super) fn len(&self) -> usize {
        self.used as usize - self.free.len()
    }

    /// Every live packet with its handle, in slot order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (Handle, &FlightState)> {
        let slots = self.chunks.iter().flat_map(|c| c.slots.iter());
        let live = slots
            .enumerate()
            .filter_map(|(h, s)| Some((h, s.as_ref()?)));
        live.map(|(h, fl)| (Handle(h as u32), fl))
    }
}

impl Index<Handle> for Flights {
    type Output = FlightState;
    #[inline]
    fn index(&self, h: Handle) -> &FlightState {
        let (c, i) = split(h);
        self.chunks[c].slots[i]
            .as_ref()
            .expect("handle names no packet")
    }
}

impl IndexMut<Handle> for Flights {
    #[inline]
    fn index_mut(&mut self, h: Handle) -> &mut FlightState {
        let (c, i) = split(h);
        self.chunks[c].slots[i]
            .as_mut()
            .expect("handle names no packet")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp5_fabric::OrderKey;
    use mp5_types::{Packet, PacketId, PipelineId, PortId};

    fn flight(id: u64) -> FlightState {
        FlightState {
            pkt: Packet::new(PacketId(id), PortId(0), id, 64, 1),
            order: OrderKey(id, 0),
            ingress: PipelineId(0),
        }
    }

    fn at(seq: u64) -> FifoAddr {
        FifoAddr {
            lane: PipelineId(1),
            seq,
        }
    }

    #[test]
    fn slots_are_reused_last_freed_first_with_fresh_rows() {
        let mut f = Flights::new(2);
        let a = f.alloc(flight(1));
        let b = f.alloc(flight(2));
        f.set_addr(a, 1, at(5));
        assert_eq!(f.addr(a, 1), at(5));
        assert_eq!(f.free(a).pkt.id, PacketId(1));
        let c = f.alloc(flight(3));
        assert_eq!(c, a, "the freed slot is reused");
        assert_eq!(f.addr(c, 1), FifoAddr::UNSET, "a reused row starts unset");
        assert_eq!(f[b].pkt.id, PacketId(2));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn widening_keeps_addresses_and_out_of_range_is_unset() {
        let mut f = Flights::new(1);
        let a = f.alloc(flight(1));
        let b = f.alloc(flight(2));
        f.set_addr(a, 0, at(1));
        f.set_addr(b, 0, at(2));
        f.set_addr(b, 1, at(9)); // past the width: ignored
        assert_eq!(f.addr(b, 1), FifoAddr::UNSET);
        f.widen(3);
        assert_eq!((f.addr(a, 0), f.addr(b, 0)), (at(1), at(2)));
        f.set_addr(b, 2, at(3));
        assert_eq!(f.addr(b, 2), at(3));
        assert_eq!(f.addr(a, 2), FifoAddr::UNSET);
        f.set_addr(Handle::NONE, 0, at(4)); // names no slot: ignored
        assert_eq!(from_back(3, 0), 2);
    }

    #[test]
    fn addresses_pack_into_eight_bytes() {
        let mut f = Flights::new(1);
        let a = f.alloc(flight(1));
        for addr in [
            at(0),
            at(SEQ_ROOM),
            FifoAddr {
                lane: PipelineId(u16::MAX - 1),
                seq: (1 << SEQ_BITS) - 1,
            },
        ] {
            f.set_addr(a, 0, addr);
            assert_eq!(f.addr(a, 0), addr);
        }
        // A sequence number past the packed range is recorded as unset,
        // so an insert at it fails instead of naming another slot.
        f.set_addr(a, 0, at(1 << SEQ_BITS));
        assert_eq!(f.addr(a, 0), FifoAddr::UNSET);
    }

    #[test]
    fn the_slab_grows_a_chunk_at_a_time_and_keeps_its_packets() {
        let mut f = Flights::new(1);
        let hs: Vec<Handle> = (0..3 * CHUNK as u64)
            .map(|id| f.alloc(flight(id)))
            .collect();
        assert_eq!(f.chunks.len(), 3);
        f.set_addr(hs[CHUNK + 1], 0, at(7));
        f.widen(2);
        assert_eq!(f.addr(hs[CHUNK + 1], 0), at(7));
        assert!(hs
            .iter()
            .enumerate()
            .all(|(id, &h)| f[h].pkt.id == PacketId(id as u64)));
        let ids: Vec<u64> = f.iter().map(|(_, fl)| fl.pkt.id.0).collect();
        assert_eq!(ids, (0..3 * CHUNK as u64).collect::<Vec<_>>());
    }
}
