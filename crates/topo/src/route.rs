//! Next-hop selection: ECMP and flowlet load balancing across spines.
//!
//! Routing in a two-tier fabric has exactly one interesting decision:
//! which spine carries a flow from its source leaf to its destination
//! leaf (everything else — host port, down-path — is forced by the
//! topology). [`Router`] makes that decision deterministically:
//!
//! * [`RouteMode::Ecmp`]: a seeded FNV-1a hash of the flow id pins each
//!   flow to one spine for its lifetime (classic per-flow ECMP).
//! * [`RouteMode::Flowlet`]: bursts of one flow separated by more than
//!   `gap` byte-times may take different spines — the paper's flowlet
//!   application, lifted to the fabric layer. The hash folds in the
//!   flowlet epoch so consecutive flowlets decorrelate.
//!
//! Either way the choice is a pure function of `(seed, flow, time,
//! candidate set)`, so repeated runs agree.
//!
//! The flowlet table forgets expired flowlets: an entry idle for more
//! than `gap` decides nothing (the next packet re-hashes with its epoch
//! exactly as for an unseen flow), so sweeping such entries whenever the
//! table has doubled since its last sweep keeps it O(active flowlets)
//! without changing a single pick.

use mp5_types::FastMap;

/// How flows are spread across the spines between a leaf pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteMode {
    /// Per-flow ECMP: one spine per flow, for the flow's lifetime.
    Ecmp,
    /// Flowlet switching: idle gaps longer than `gap` byte-times allow
    /// a flow's next burst to re-pick its spine.
    Flowlet {
        /// Minimum idle time (byte-times) that splits two flowlets.
        gap: u64,
    },
}

impl std::str::FromStr for RouteMode {
    type Err = String;

    /// Parses the `mp5fabric --routing` spellings: `ecmp`, `flowlet`
    /// (50 µs-ish default gap), or `flowlet:GAP`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ecmp" => Ok(RouteMode::Ecmp),
            "flowlet" => Ok(RouteMode::Flowlet { gap: 50_000 }),
            other => match other.strip_prefix("flowlet:") {
                Some(g) => match g.parse::<u64>() {
                    Ok(gap) if gap > 0 => Ok(RouteMode::Flowlet { gap }),
                    _ => Err(format!("invalid flowlet gap '{g}' (need an integer >= 1)")),
                },
                None => Err(format!(
                    "unknown routing mode '{other}' (expected ecmp, flowlet, or flowlet:GAP)"
                )),
            },
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Flowlet-table size below which it is never swept.
const SWEEP_FLOOR: usize = 1024;

/// The fabric's next-hop selector. One instance serves every leaf; the
/// flowlet table is keyed by `(leaf, flow)` so leaves stay independent.
#[derive(Debug)]
pub struct Router {
    mode: RouteMode,
    salt: u64,
    /// Flowlet state: `(leaf, flow) -> (last packet time, chosen spine)`.
    /// Looked up, never iterated in an order that matters, so the
    /// hasher is unobservable.
    flowlet: FastMap<(u32, u64), (u64, u32)>,
    /// Table size at which the next sweep of expired entries runs:
    /// twice what the last sweep kept, and at least [`SWEEP_FLOOR`].
    sweep_at: usize,
}

impl Router {
    /// A router with the given mode and hash salt (derive the salt from
    /// the fabric seed so reruns are identical).
    pub fn new(mode: RouteMode, salt: u64) -> Self {
        Router {
            mode,
            salt,
            flowlet: FastMap::default(),
            sweep_at: SWEEP_FLOOR,
        }
    }

    /// Picks the spine carrying `flow` out of `leaf` at byte-time
    /// `now`, from the non-empty `candidates` slice (common spines of
    /// the leaf pair, minus any the fabric marked dead). `now` must not
    /// go backwards between calls (it is the fabric's clock): the
    /// flowlet table's sweep relies on an expired entry staying expired.
    pub fn pick_spine(&mut self, leaf: u32, flow: u64, now: u64, candidates: &[u32]) -> u32 {
        debug_assert!(!candidates.is_empty());
        if candidates.len() == 1 {
            return candidates[0];
        }
        match self.mode {
            RouteMode::Ecmp => {
                let h = fnv1a(&[self.salt, flow]);
                candidates[(h % candidates.len() as u64) as usize]
            }
            RouteMode::Flowlet { gap } => {
                let key = (leaf, flow);
                if let Some((last, spine)) = self.flowlet.get_mut(&key) {
                    if now.saturating_sub(*last) <= gap && candidates.contains(spine) {
                        *last = now;
                        return *spine;
                    }
                }
                // New flowlet: fold the epoch in so consecutive
                // flowlets of one flow can land on different spines.
                let h = fnv1a(&[self.salt, flow, now / gap.max(1)]);
                let spine = candidates[(h % candidates.len() as u64) as usize];
                self.flowlet.insert(key, (now, spine));
                if self.flowlet.len() >= self.sweep_at {
                    self.flowlet
                        .retain(|_, &mut (last, _)| now.saturating_sub(last) <= gap);
                    self.sweep_at = (2 * self.flowlet.len()).max(SWEEP_FLOOR);
                }
                spine
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecmp_is_stable_per_flow_and_spreads() {
        let mut r = Router::new(RouteMode::Ecmp, 42);
        let spines = [4u32, 5, 6, 7];
        let mut seen = std::collections::HashSet::new();
        for flow in 0..256u64 {
            let a = r.pick_spine(0, flow, 0, &spines);
            let b = r.pick_spine(0, flow, 99_999, &spines);
            assert_eq!(a, b, "ECMP must pin flow {flow}");
            seen.insert(a);
        }
        assert_eq!(seen.len(), 4, "hash should reach every spine");
    }

    #[test]
    fn flowlet_rebalances_only_across_gaps() {
        let mut r = Router::new(RouteMode::Flowlet { gap: 100 }, 7);
        let spines = [4u32, 5, 6, 7];
        let first = r.pick_spine(0, 9, 0, &spines);
        // Within the gap: sticky, and the timer refreshes each packet.
        for t in [50u64, 140, 220] {
            assert_eq!(r.pick_spine(0, 9, t, &spines), first);
        }
        // After a long silence some flow re-picks; over many flows the
        // re-picks must actually move (not all stay put).
        let mut moved = false;
        for flow in 0..64u64 {
            let a = r.pick_spine(1, flow, 0, &spines);
            let b = r.pick_spine(1, flow, 1_000_000, &spines);
            moved |= a != b;
        }
        assert!(moved, "flowlet gaps should allow path changes");
    }

    #[test]
    fn dead_spine_is_left_out_by_construction() {
        let mut r = Router::new(RouteMode::Flowlet { gap: 1_000 }, 1);
        let all = [4u32, 5];
        let flow = 3;
        let spine = r.pick_spine(0, flow, 0, &all);
        // Candidates shrink (spine died): sticky choice must be
        // abandoned even inside the gap.
        let survivors: Vec<u32> = all.iter().copied().filter(|&s| s != spine).collect();
        let next = r.pick_spine(0, flow, 10, &survivors);
        assert_ne!(next, spine);
        assert!(survivors.contains(&next));
    }

    /// Many short flows through a flowlet router that sweeps, against a
    /// reference table that never forgets (the router before the
    /// sweep): every pick is the same, and the table stays bounded by
    /// what is live within one gap rather than growing with the flows.
    #[test]
    fn sweeping_expired_flowlets_changes_no_pick_and_bounds_the_table() {
        fn reference(
            table: &mut std::collections::HashMap<(u32, u64), (u64, u32)>,
            salt: u64,
            gap: u64,
            (leaf, flow, now): (u32, u64, u64),
            candidates: &[u32],
        ) -> u32 {
            if candidates.len() == 1 {
                return candidates[0];
            }
            if let Some(&(last, spine)) = table.get(&(leaf, flow)) {
                if now.saturating_sub(last) <= gap && candidates.contains(&spine) {
                    table.insert((leaf, flow), (now, spine));
                    return spine;
                }
            }
            let h = fnv1a(&[salt, flow, now / gap]);
            let spine = candidates[(h % candidates.len() as u64) as usize];
            table.insert((leaf, flow), (now, spine));
            spine
        }
        let (salt, gap) = (11, 500);
        let mut r = Router::new(RouteMode::Flowlet { gap }, salt);
        let mut table = std::collections::HashMap::new();
        let (all, narrowed) = ([4u32, 5, 6], [4u32, 6]);
        let mut max_len = 0;
        // 200 k packets of 50 k flows, each flow alive for ~4 packets
        // over a window of a few gaps; now and then a spine is out.
        for i in 0..200_000u64 {
            let now = i * 7;
            let flow = i / 4 + (i % 4) * 13;
            let leaf = (flow % 3) as u32;
            let candidates: &[u32] = if (i / 5_000) % 4 == 3 {
                &narrowed
            } else {
                &all
            };
            let got = r.pick_spine(leaf, flow, now, candidates);
            let want = reference(&mut table, salt, gap, (leaf, flow, now), candidates);
            assert_eq!(got, want, "packet {i}");
            max_len = max_len.max(r.flowlet.len());
        }
        assert!(table.len() > 40_000, "the reference keeps every flow");
        assert!(
            max_len <= 2 * SWEEP_FLOOR,
            "the swept table peaked at {max_len} entries"
        );
    }

    #[test]
    fn route_mode_parses_cli_spellings() {
        assert_eq!("ecmp".parse(), Ok(RouteMode::Ecmp));
        assert_eq!("flowlet:500".parse(), Ok(RouteMode::Flowlet { gap: 500 }));
        assert!(matches!(
            "flowlet".parse(),
            Ok(RouteMode::Flowlet { gap }) if gap > 0
        ));
        assert!("flowlet:0".parse::<RouteMode>().is_err());
        assert!("lb".parse::<RouteMode>().is_err());
    }
}
