//! Packets in flight: one slab of [`FlightState`]s addressed by `u32`
//! handles, and beside each handle its access tags and the FIFO address
//! of every phantom they own — the paper's phantom directory, indexed by
//! buffer slot (§3.2) rather than by whatever id the packet carried in.

use std::ops::{Index, IndexMut};

use mp5_fabric::FifoAddr;
use mp5_types::{AccessTag, PipelineId, RegId, StageId};

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

/// What an unwritten tag slot holds; never read as a tag.
const NO_TAG: AccessTag = AccessTag {
    reg: RegId(0),
    index: 0,
    pipeline: PipelineId(0),
    stage: StageId(0),
    speculative: false,
};

/// `CHUNK` slots, their rows of tags and phantom addresses, and each
/// slot's count of unretired tags.
///
/// A row is indexed from its back: a packet of `n` tags keeps its first
/// tag at `n - 1` and its last at 0. Tags retire from the front, so
/// retiring one only lowers the count, and a tag's place in the row (its
/// `back`) does not change while the packet runs.
#[derive(Debug)]
struct Chunk {
    slots: Box<[Option<FlightState>]>,
    /// `width` tags per slot; the first `live[i]` are slot `i`'s.
    tags: Box<[AccessTag]>,
    /// `width` entries per slot, at the same places as `tags`.
    addrs: Box<[Packed]>,
    live: [u32; CHUNK],
}

impl Chunk {
    fn new(width: usize) -> Self {
        Chunk {
            slots: (0..CHUNK).map(|_| None).collect(),
            tags: vec![NO_TAG; CHUNK * width].into_boxed_slice(),
            addrs: vec![Packed::UNSET; CHUNK * width].into_boxed_slice(),
            live: [0; CHUNK],
        }
    }
}

/// A packet's unretired tags, first tag first, each with its place in
/// the row (see [`Chunk`]).
pub(super) type Tags<'a> = std::iter::Rev<std::iter::Enumerate<std::slice::Iter<'a, AccessTag>>>;

/// The chunk and the slot within it that a handle names.
#[inline]
fn split(h: Handle) -> (usize, usize) {
    ((h.0 >> CHUNK_BITS) as usize, h.0 as usize & (CHUNK - 1))
}

/// The slab: every packet between arrival and exit, once, in a slot
/// reused last-freed-first; and, `width` per slot, the packet's access
/// tags and the address of each tag's phantom once it is queued
/// ([`FifoAddr::UNSET`] until then, and for one that never was). A
/// packet in a slot holds no tags of its own: its `tags` are in the row
/// from [`Flights::alloc`] until [`Flights::export`] writes them back.
/// `width` is the program's access plans (duplicates merge); the rows
/// widen for a restore or a hot swap that brings longer tag lists.
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

    /// Stores a packet and returns its handle. Its tags (a restored
    /// packet's; none for a new arrival) move into its row, and its
    /// phantom addresses start unset. A packet with more tags than a row
    /// has room for widens every row.
    pub(super) fn alloc(&mut self, mut fl: FlightState) -> Handle {
        let tags = std::mem::take(&mut fl.pkt.tags);
        self.widen(tags.len());
        let h = match self.free.pop() {
            Some(h) => Handle(h),
            None => {
                assert!(
                    self.used < Handle::NONE.0,
                    "more packets in flight than a u32 handle names"
                );
                if self.used as usize == self.chunks.len() * CHUNK {
                    self.chunks.push(Chunk::new(self.width));
                    // Room to free every slot, so `free` never grows.
                    self.free
                        .reserve_exact(self.chunks.len() * CHUNK - self.free.len());
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
        self.set_tags(h, tags.into_iter());
        h
    }

    /// Replaces `h`'s tags with `tags`, given first tag first.
    #[inline]
    pub(super) fn set_tags(&mut self, h: Handle, tags: impl ExactSizeIterator<Item = AccessTag>) {
        let n = tags.len();
        self.widen(n);
        let (c, i) = split(h);
        let (w, chunk) = (self.width, &mut self.chunks[c]);
        let row = &mut chunk.tags[i * w..i * w + n];
        for (slot, tag) in row.iter_mut().rev().zip(tags) {
            *slot = tag;
        }
        chunk.live[i] = n as u32;
    }

    /// `h`'s unretired tags, first tag first, each with its place in the
    /// row: the `back` that [`Self::addr`] and [`Self::set_addr`] take.
    /// A freed slot keeps its tags until the slot is reused.
    #[inline]
    pub(super) fn tags(&self, h: Handle) -> Tags<'_> {
        let (c, i) = split(h);
        let chunk = &self.chunks[c];
        let start = i * self.width;
        let n = chunk.live[i] as usize;
        chunk.tags[start..start + n].iter().enumerate().rev()
    }

    /// `h`'s first unretired tag.
    #[inline]
    pub(super) fn first_tag(&self, h: Handle) -> Option<&AccessTag> {
        self.tags(h).next().map(|(_, t)| t)
    }

    /// Retires `h`'s first `n` tags.
    #[inline]
    pub(super) fn retire(&mut self, h: Handle, n: usize) {
        let (c, i) = split(h);
        let live = &mut self.chunks[c].live[i];
        debug_assert!(n <= *live as usize, "retired more tags than {h:?} holds");
        *live -= n as u32;
    }

    /// `h`'s packet as a checkpoint holds it: a copy carrying its
    /// unretired tags.
    pub(super) fn export(&self, h: Handle) -> FlightState {
        let mut fl = self[h].clone();
        fl.pkt.tags = self.tags(h).map(|(_, t)| *t).collect();
        fl
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

    /// The recorded address of the phantom of `h`'s tag at `back` (see
    /// [`Self::tags`]).
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

    /// Makes room for packets of up to `width` tags, keeping every tag
    /// and recorded address at its place.
    pub(super) fn widen(&mut self, width: usize) {
        let old = self.width;
        if width <= old {
            return;
        }
        for chunk in &mut self.chunks {
            chunk.tags = widened(&chunk.tags, old, width, NO_TAG);
            chunk.addrs = widened(&chunk.addrs, old, width, Packed::UNSET);
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

/// `CHUNK` rows of `old` entries copied into rows of `width`.
fn widened<T: Copy>(rows: &[T], old: usize, width: usize, fill: T) -> Box<[T]> {
    let mut out = vec![fill; CHUNK * width];
    if old > 0 {
        let pairs = out.chunks_exact_mut(width).zip(rows.chunks_exact(old));
        pairs.for_each(|(new, row)| new[..old].copy_from_slice(row));
    }
    out.into_boxed_slice()
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
    use mp5_types::{Packet, PacketId, PortId};

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
    }

    fn tag(stage: u16) -> AccessTag {
        AccessTag {
            stage: StageId(stage),
            ..NO_TAG
        }
    }

    fn stages(f: &Flights, h: Handle) -> Vec<(usize, u16)> {
        f.tags(h).map(|(back, t)| (back, t.stage.0)).collect()
    }

    #[test]
    fn tags_live_in_the_row_and_retire_in_place() {
        let mut f = Flights::new(2);
        let mut restored = flight(1);
        restored.pkt.tags = vec![tag(4), tag(5), tag(6)];
        let a = f.alloc(restored);
        assert!(f[a].pkt.tags.is_empty(), "the tags moved into the row");
        assert_eq!(stages(&f, a), [(2, 4), (1, 5), (0, 6)]);
        f.set_addr(a, 1, at(3));
        f.retire(a, 1);
        assert_eq!(stages(&f, a), [(1, 5), (0, 6)], "places do not move");
        assert_eq!(f.addr(a, 1), at(3));
        assert_eq!(f.first_tag(a), Some(&tag(5)));
        assert_eq!(f.export(a).pkt.tags, [tag(5), tag(6)]);
        f.widen(4);
        assert_eq!(stages(&f, a), [(1, 5), (0, 6)]);
        f.set_tags(a, [tag(1)].into_iter());
        assert_eq!(stages(&f, a), [(0, 1)]);
        f.retire(a, 1);
        assert_eq!(f.first_tag(a), None);
        let fl = f.free(a);
        assert!(fl.pkt.tags.is_empty());
        let b = f.alloc(flight(2));
        assert_eq!(
            (b, f.first_tag(b)),
            (a, None),
            "a reused slot starts with no tags"
        );
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
