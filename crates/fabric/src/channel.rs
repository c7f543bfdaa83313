//! The phantom channel (runtime Invariant 1).
//!
//! MP5 carries phantom packets over "a separate physical channel
//! (reserved only for phantom packets)" so that a phantom generated in
//! stage `i` and destined to stage `j > i` "will not be queued in any
//! stage `k` such that `i < k < j`". The consequence is that phantoms for
//! a given state arrive in exactly the order they were generated, which
//! D4 relies on.
//!
//! We model the channel as a pipelined bus: a phantom injected at stage
//! `i` advances one stage per cycle and is delivered to its destination
//! stage's logical FIFO when it gets there. Order preservation follows
//! from the lock-step advance: phantoms injected earlier are always at
//! least as far along as phantoms injected later. Phantoms are 48 bits
//! (§4.2) against 512-bit data headers, so the channel is provisioned to
//! carry all phantoms generated in a cycle; `max_in_flight` tracks the
//! worst-case width actually used, which `mp5-asic` translates to wiring
//! cost.

use mp5_types::StageId;

/// A phantom packet in flight on the channel, carrying payload `T`
/// (opaque to the channel).
#[derive(Debug, Clone)]
struct InFlight<T> {
    payload: T,
    at: u16,
    dest: u16,
}

/// The dedicated phantom interconnect of one MP5 switch.
#[derive(Debug, Clone)]
pub struct PhantomChannel<T> {
    flights: Vec<InFlight<T>>,
    /// Recycled backing store for the still-in-flight survivors of an
    /// advance: swapped with `flights` each cycle so the per-cycle
    /// advance allocates nothing in steady state.
    spare: Vec<InFlight<T>>,
    stages: u16,
    max_in_flight: usize,
    delivered: u64,
}

impl<T> PhantomChannel<T> {
    /// Creates a channel spanning `stages` pipeline stages.
    pub fn new(stages: usize) -> Self {
        PhantomChannel {
            flights: Vec::new(),
            spare: Vec::new(),
            stages: stages as u16,
            max_in_flight: 0,
            delivered: 0,
        }
    }

    /// Injects a phantom at stage `from`, destined to stage `dest`.
    ///
    /// `dest` must be ahead of `from` — the channel, like the pipelines,
    /// is strictly feed-forward.
    pub fn inject(&mut self, payload: T, from: StageId, dest: StageId) {
        assert!(
            from.0 < dest.0 && dest.0 <= self.stages,
            "phantom channel is feed-forward: {from} -> {dest} invalid"
        );
        self.flights.push(InFlight {
            payload,
            at: from.0,
            dest: dest.0,
        });
        self.max_in_flight = self.max_in_flight.max(self.flights.len());
    }

    /// Advances every in-flight phantom one stage and returns those that
    /// reached their destination this cycle, **in injection order** (the
    /// order guarantee of Invariant 1).
    pub fn advance(&mut self) -> Vec<(T, StageId)> {
        let mut arrived = Vec::new();
        self.advance_into(&mut arrived);
        arrived
    }

    /// [`PhantomChannel::advance`] into a caller-owned buffer
    /// (`arrived` is cleared first): the per-cycle form, allocation-free
    /// in steady state on both the survivor and the delivery side.
    pub fn advance_into(&mut self, arrived: &mut Vec<(T, StageId)>) {
        arrived.clear();
        let mut remaining = std::mem::take(&mut self.spare);
        debug_assert!(remaining.is_empty());
        for mut f in self.flights.drain(..) {
            f.at += 1;
            if f.at == f.dest {
                arrived.push((f.payload, StageId(f.dest)));
            } else {
                remaining.push(f);
            }
        }
        // The drained `flights` buffer becomes next cycle's spare.
        self.spare = std::mem::replace(&mut self.flights, remaining);
        self.delivered += arrived.len() as u64;
    }

    /// Number of phantoms currently in flight.
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// Worst-case number of phantoms simultaneously in flight (channel
    /// width provisioning input for the ASIC model).
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// Total phantoms delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of pipeline stages the channel spans.
    pub fn stages(&self) -> usize {
        self.stages as usize
    }

    /// The in-flight phantoms in injection order, as `(payload,
    /// at_stage, dest_stage)`: what a checkpoint records.
    pub fn flights(&self) -> impl Iterator<Item = (&T, u16, u16)> {
        self.flights.iter().map(|f| (&f.payload, f.at, f.dest))
    }

    /// Rebuilds a channel from checkpointed parts. Flight order must be
    /// the injection order [`Self::flights`] lists — the Invariant 1
    /// delivery-order guarantee depends on it. A flight that is not
    /// strictly before a destination within the channel is an `Err`.
    pub fn from_parts(
        stages: usize,
        flights: Vec<(T, u16, u16)>,
        max_in_flight: usize,
        delivered: u64,
    ) -> Result<Self, String> {
        let flights = flights
            .into_iter()
            .map(|(payload, at, dest)| {
                if at < dest && dest as usize <= stages {
                    Ok(InFlight { payload, at, dest })
                } else {
                    Err(format!(
                        "phantom flight {at} -> {dest} on a {stages}-stage channel"
                    ))
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let max_in_flight = max_in_flight.max(flights.len());
        Ok(PhantomChannel {
            flights,
            spare: Vec::new(),
            stages: stages as u16,
            max_in_flight,
            delivered,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phantom_takes_dest_minus_from_cycles() {
        let mut ch: PhantomChannel<u32> = PhantomChannel::new(8);
        ch.inject(7, StageId(1), StageId(4));
        assert!(ch.advance().is_empty()); // at stage 2
        assert!(ch.advance().is_empty()); // at stage 3
        let arrived = ch.advance(); // at stage 4: delivered
        assert_eq!(arrived.len(), 1);
        assert_eq!(arrived[0], (7, StageId(4)));
        assert_eq!(ch.in_flight(), 0);
    }

    #[test]
    fn delivery_preserves_injection_order() {
        let mut ch: PhantomChannel<u32> = PhantomChannel::new(8);
        // Same source and dest, injected in order 1, 2, 3 on successive
        // calls within one cycle.
        ch.inject(1, StageId(0), StageId(3));
        ch.inject(2, StageId(0), StageId(3));
        ch.inject(3, StageId(0), StageId(3));
        ch.advance();
        ch.advance();
        let arrived: Vec<u32> = ch.advance().into_iter().map(|(p, _)| p).collect();
        assert_eq!(arrived, vec![1, 2, 3]);
    }

    #[test]
    fn earlier_injection_never_overtaken() {
        let mut ch: PhantomChannel<&str> = PhantomChannel::new(8);
        ch.inject("early", StageId(0), StageId(5));
        ch.advance(); // early now at 1
        ch.inject("late", StageId(0), StageId(5));
        // early must arrive strictly before late.
        let mut order = Vec::new();
        for _ in 0..6 {
            for (p, _) in ch.advance() {
                order.push(p);
            }
        }
        assert_eq!(order, vec!["early", "late"]);
    }

    #[test]
    #[should_panic(expected = "feed-forward")]
    fn backward_injection_panics() {
        let mut ch: PhantomChannel<u32> = PhantomChannel::new(8);
        ch.inject(0, StageId(5), StageId(2));
    }

    #[test]
    fn snapshot_round_trip_preserves_delivery_schedule() {
        let mut ch: PhantomChannel<u32> = PhantomChannel::new(8);
        ch.inject(1, StageId(0), StageId(4));
        ch.inject(2, StageId(0), StageId(2));
        ch.advance(); // 2 not yet delivered; both at stage 1
        let flights = ch.flights().map(|(&p, at, dest)| (p, at, dest)).collect();
        let mut restored =
            PhantomChannel::from_parts(ch.stages(), flights, ch.max_in_flight(), ch.delivered())
                .unwrap();
        assert!(PhantomChannel::from_parts(8, vec![(0u32, 4, 4)], 0, 0).is_err());
        // Both channels must deliver identically from here on.
        for _ in 0..4 {
            let a = ch.advance();
            let b = restored.advance();
            assert_eq!(a, b);
        }
        assert_eq!(ch.delivered(), restored.delivered());
        assert_eq!(ch.max_in_flight(), restored.max_in_flight());
    }

    #[test]
    fn max_in_flight_tracks_width() {
        let mut ch: PhantomChannel<u32> = PhantomChannel::new(16);
        for i in 0..10 {
            ch.inject(i, StageId(0), StageId(15));
        }
        ch.advance();
        assert_eq!(ch.max_in_flight(), 10);
    }
}
