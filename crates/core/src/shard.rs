//! Dynamic state sharding (design principle D2, paper Figure 6).
//!
//! The index-to-pipeline map assigns each register index an *active*
//! pipeline. Every `remap_period` cycles the runtime re-balances:
//!
//! * [`remap_heuristic`] — the paper's hardware-friendly heuristic:
//!   find the most- and least-loaded pipelines `H`/`L`, compute
//!   `C = (c_max − c_min)/2`, and move the single index on `H` with the
//!   largest counter `< C` (if its in-flight counter is zero).
//! * [`remap_to_fixpoint`] — the ideal baseline's re-sharding: the
//!   same heuristic iterated until no move narrows the load gap
//!   (optimal re-mapping reduces to bin packing, NP-hard, §3.4).
//!
//! The switch runs the heuristic over the indexes a period touched
//! (`Touched`, a bitmap set at every counter bump): an index whose
//! counter is zero adds nothing to any load and can only be chosen as a
//! zero-counter move, which is the lowest idle index on `H` either way
//! — so one period's bookkeeping costs what the period touched, not the
//! size of the array (`select_move`, which [`remap_heuristic`] runs
//! over every index).

/// One planned state movement: move `index` to pipeline `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Register index to migrate.
    pub index: usize,
    /// Destination pipeline.
    pub to: usize,
}

/// The paper's Figure 6 heuristic for one register array.
///
/// `map[i]` is the current pipeline of index `i`, `counters[i]` the
/// access count since the last reset, `inflight[i]` the in-flight packet
/// count. Returns at most one move.
pub fn remap_heuristic(
    map: &[u16],
    counters: &[u64],
    inflight: &[u32],
    pipelines: usize,
) -> Option<Move> {
    debug_assert_eq!(map.len(), counters.len());
    let mut load = Vec::new();
    select_move(map, counters, inflight, pipelines, 0..map.len(), &mut load)
}

/// Figure 6's choice for one register array, reading the counters only
/// at `touched`: each index at most once, in any order, and at least
/// every index whose counter is non-zero. The result is
/// [`remap_heuristic`]'s: loads sum only non-zero counters; the best
/// candidate with a non-zero counter is among `touched`; and failing
/// one, the move is a zero-counter index — the lowest idle one on `H` —
/// found by scanning from index 0, which stops at the first hit.
/// `load` is scratch for the per-pipeline loads.
fn select_move(
    map: &[u16],
    counters: &[u64],
    inflight: &[u32],
    pipelines: usize,
    touched: impl Iterator<Item = usize> + Clone,
    load: &mut Vec<u64>,
) -> Option<Move> {
    if pipelines < 2 || map.is_empty() {
        return None;
    }
    load.clear();
    load.resize(pipelines, 0);
    for i in touched.clone() {
        load[map[i] as usize] += counters[i];
    }
    // H: the most loaded, L: the least; the lowest id wins either tie.
    let (mut h, mut l) = (0, 0);
    for p in 1..pipelines {
        if load[p] > load[h] {
            h = p;
        }
        if load[p] < load[l] {
            l = p;
        }
    }
    let (cmax, cmin) = (load[h], load[l]);
    if h == l || cmax == cmin {
        return None;
    }
    let c = (cmax - cmin) / 2;
    // Largest-counter index on H strictly below C, not in flight; the
    // lowest index on ties.
    let mut best: Option<(u64, usize)> = None;
    for i in touched {
        let n = counters[i];
        if n > 0
            && n < c
            && map[i] as usize == h
            && inflight[i] == 0
            && best.is_none_or(|(bn, bi)| n > bn || (n == bn && i < bi))
        {
            best = Some((n, i));
        }
    }
    let index = match best {
        Some((_, i)) => i,
        None if c > 0 => (0..map.len())
            .find(|&i| map[i] as usize == h && counters[i] == 0 && inflight[i] == 0)?,
        None => return None,
    };
    Some(Move { index, to: l })
}

/// Iterator over a [`Touched`] bitmap's set indexes, ascending.
#[derive(Debug, Clone)]
struct SetBits<'a> {
    words: &'a [u64],
    /// Current word and its not yet visited bits.
    w: usize,
    bits: u64,
}

impl<'a> SetBits<'a> {
    fn of(words: &'a [u64]) -> Self {
        SetBits {
            words,
            w: 0,
            bits: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.w += 1;
            self.bits = *self.words.get(self.w)?;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.w * 64 + b)
    }
}

/// The indexes of one register array whose access counter was bumped
/// since the last reset, one bit each: what [`select_move`] reads and
/// [`Touched::remap`] resets. Derived from the counters (a set bit over
/// a zero counter is harmless), so it is rebuilt on restore, never
/// serialized.
#[derive(Debug, Clone)]
pub(crate) struct Touched {
    bits: Vec<u64>,
    /// [`select_move`]'s per-pipeline loads, kept so that a remap
    /// allocates nothing.
    load: Vec<u64>,
}

impl Touched {
    /// The bits of `counters`' non-zero entries.
    pub(crate) fn of(counters: &[u64]) -> Self {
        let mut t = Touched {
            bits: vec![0; counters.len().div_ceil(64)],
            load: Vec::new(),
        };
        for (i, _) in counters.iter().enumerate().filter(|(_, &c)| c > 0) {
            t.set(i);
        }
        t
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// The set indexes, ascending.
    #[cfg(test)]
    fn iter(&self) -> SetBits<'_> {
        SetBits::of(&self.bits)
    }

    /// One period's remap of the register these bits and `counters`
    /// belong to: [`select_move`] over the touched indexes, then the
    /// counter reset (§3.4) — zeroing `counters` at every set index,
    /// every non-zero one, and clearing the bits.
    pub(crate) fn remap(
        &mut self,
        map: &[u16],
        counters: &mut [u64],
        inflight: &[u32],
        pipelines: usize,
    ) -> Option<Move> {
        let touched = SetBits::of(&self.bits);
        let mv = select_move(map, counters, inflight, pipelines, touched, &mut self.load);
        for (w, bits) in self.bits.iter_mut().enumerate() {
            let mut b = std::mem::take(bits);
            while b != 0 {
                counters[w * 64 + b.trailing_zeros() as usize] = 0;
                b &= b - 1;
            }
        }
        mv
    }
}

/// Runs the Figure 6 heuristic to a fixed point (the *ideal* baseline's
/// re-sharding).
///
/// The optimal re-mapping is a bin-packing variant (NP-hard, §3.4); the
/// ideal baseline approximates it by iterating the paper's single-move
/// heuristic until no further move reduces the max/min load gap. Unlike
/// wholesale re-packing (e.g. LPT over the observed counters), every
/// move strictly reduces imbalance, so balanced loads are left
/// untouched — we found experimentally that re-packing hundreds of
/// indexes per period onto momentarily-backlogged pipelines *costs*
/// throughput even when the resulting count balance is perfect.
pub fn remap_to_fixpoint(
    map: &[u16],
    counters: &[u64],
    inflight: &[u32],
    pipelines: usize,
    max_moves: usize,
) -> Vec<Move> {
    let mut work: Vec<u16> = map.to_vec();
    let mut moves = Vec::new();
    for _ in 0..max_moves {
        match remap_heuristic(&work, counters, inflight, pipelines) {
            Some(mv) => {
                work[mv.index] = mv.to as u16;
                moves.push(mv);
            }
            None => break,
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The switch's selection: counters read over a bitmap holding every
    /// non-zero index plus the `stale` ones (set bits over zero
    /// counters, which a restore can leave), by [`Touched::remap`], which
    /// must also leave every counter and bit cleared.
    fn over_bitmap(
        map: &[u16],
        counters: &[u64],
        inflight: &[u32],
        k: usize,
        stale: &[bool],
    ) -> Option<Move> {
        let mut t = Touched::of(counters);
        for (i, _) in stale.iter().enumerate().filter(|(_, &s)| s) {
            t.set(i);
        }
        let mut reset = counters.to_vec();
        let mv = t.remap(map, &mut reset, inflight, k);
        assert!(reset.iter().all(|&c| c == 0) && t.iter().next().is_none());
        mv
    }

    /// A counter that is zero with probability `zero_pct` %; otherwise
    /// in `0..3` (ties) or `0..1_000`, evenly.
    fn counter(rng: &mut SmallRng, zero_pct: u32) -> u64 {
        let (r, c) = (rng.gen_range(0u32..100), rng.gen_range(0u64..1_000));
        match r {
            r if r < zero_pct => 0,
            r if r % 2 == 0 => c % 3,
            _ => c,
        }
    }

    /// Small counter ranges make ties on counter (and so on index)
    /// common, sparse hot entries leave `H` with only zero-counter
    /// candidates, `1..3` in-flight entries (one in three) exercise the
    /// guard, and `k = 1`, all-zero and one-apart loads (`cmax == cmin`,
    /// `C == 0`) all come up; the zero share spans sparse and dense
    /// bitmaps.
    #[test]
    fn bitmap_selection_is_the_dense_heuristic() {
        for case in 0..3_000 {
            let rng = &mut SmallRng::seed_from_u64(case);
            let (k, n, zero_pct) = (
                rng.gen_range(1usize..6),
                rng.gen_range(1usize..150),
                rng.gen_range(0u32..100),
            );
            let map: Vec<u16> = (0..n).map(|_| rng.gen_range(0..k as u16)).collect();
            let counters: Vec<u64> = (0..n).map(|_| counter(rng, zero_pct)).collect();
            let inflight: Vec<u32> = (0..n)
                .map(|_| [0, 0, rng.gen_range(1..3)][rng.gen_range(0..3)])
                .collect();
            let stale: Vec<bool> = (0..n).map(|_| rng.gen_range(0..3) == 0).collect();
            assert_eq!(
                over_bitmap(&map, &counters, &inflight, k, &stale),
                remap_heuristic(&map, &counters, &inflight, k),
                "case {case}: map {map:?} counters {counters:?} inflight {inflight:?} stale {stale:?}"
            );
        }
    }

    #[test]
    fn zero_counter_moves_take_the_lowest_idle_index_on_h() {
        // H = pipeline 0, its whole load 9 on index 2 (not below C = 4).
        // Index 0 is H's lowest zero-counter index but in flight, so the
        // move is index 4, the lowest idle one, stale bits or not.
        let map = [0u16, 1, 0, 1, 0, 1, 0];
        let counters = [0u64, 1, 9, 0, 0, 0, 0];
        let inflight = [1u32, 0, 0, 0, 0, 0, 0];
        let stale = [false, false, false, false, true, false, true];
        let mv = Some(Move { index: 4, to: 1 });
        assert_eq!(remap_heuristic(&map, &counters, &inflight, 2), mv);
        assert_eq!(over_bitmap(&map, &counters, &inflight, 2, &stale), mv);
        assert_eq!(over_bitmap(&map, &counters, &inflight, 2, &[false; 7]), mv);
        // C == 0: loads one apart, nothing is below C.
        let counters = [0u64, 0, 1, 0, 0, 0, 0];
        assert_eq!(remap_heuristic(&map, &counters, &inflight, 2), None);
        assert_eq!(over_bitmap(&map, &counters, &inflight, 2, &stale), None);
    }

    #[test]
    fn touched_bits_span_words_and_remap_clears_them() {
        let mut counters = vec![0u64; 130];
        for i in [0usize, 63, 64, 65, 129] {
            counters[i] = i as u64 + 1;
        }
        let mut t = Touched::of(&counters);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 129]);
        t.set(7);
        t.remap(&[0; 130], &mut counters, &[0; 130], 2);
        assert!(counters.iter().all(|&c| c == 0));
        assert_eq!(t.iter().count(), 0);
        assert_eq!(Touched::of(&[]).iter().count(), 0);
    }

    #[test]
    fn heuristic_moves_from_hot_to_cold() {
        // Pipeline 0 holds indexes 0,1 (loads 10, 3); pipeline 1 holds
        // index 2 (load 1). cmax=13, cmin=1, C=6: index 1 (3 < 6) moves.
        let map = [0u16, 0, 1];
        let counters = [10u64, 3, 1];
        let inflight = [0u32, 0, 0];
        let mv = remap_heuristic(&map, &counters, &inflight, 2).unwrap();
        assert_eq!(mv, Move { index: 1, to: 1 });
    }

    #[test]
    fn heuristic_respects_inflight_guard() {
        let map = [0u16, 0, 1];
        let counters = [10u64, 3, 1];
        // Index 1 has packets in flight: no move possible (index 0 is
        // too heavy: 10 >= C=6).
        let inflight = [0u32, 2, 0];
        assert_eq!(remap_heuristic(&map, &counters, &inflight, 2), None);
    }

    #[test]
    fn heuristic_noop_when_balanced() {
        let map = [0u16, 1];
        let counters = [5u64, 5];
        let inflight = [0u32, 0];
        assert_eq!(remap_heuristic(&map, &counters, &inflight, 2), None);
    }

    #[test]
    fn heuristic_noop_single_pipeline() {
        assert_eq!(remap_heuristic(&[0, 0], &[9, 1], &[0, 0], 1), None);
    }

    #[test]
    fn heuristic_never_moves_index_above_half_gap() {
        // The hottest index must stay (moving it would just swap H/L).
        let map = [0u16, 1];
        let counters = [100u64, 0];
        let inflight = [0u32, 0];
        // C = 50; index 0 has 100 >= 50: no eligible index on H.
        assert_eq!(remap_heuristic(&map, &counters, &inflight, 2), None);
    }

    #[test]
    fn repeated_heuristic_converges_toward_balance() {
        // Drive the heuristic to a fixed point and check imbalance
        // shrinks.
        let mut map = vec![0u16; 16];
        let counters: Vec<u64> = (0..16).map(|i| (i as u64 + 1) * 3).collect();
        let inflight = vec![0u32; 16];
        let imbalance = |map: &[u16]| {
            let mut load = [0u64; 4];
            for (i, &p) in map.iter().enumerate() {
                load[p as usize] += counters[i];
            }
            *load.iter().max().unwrap() - *load.iter().min().unwrap()
        };
        let before = imbalance(&map);
        for _ in 0..64 {
            match remap_heuristic(&map, &counters, &inflight, 4) {
                Some(m) => map[m.index] = m.to as u16,
                None => break,
            }
        }
        let after = imbalance(&map);
        assert!(after < before / 4, "imbalance {before} -> {after}");
    }
}
