//! MP5: the multi-pipelined programmable packet processing pipeline.
//!
//! This crate is the paper's primary contribution: a cycle-accurate
//! model of the MP5 switch **architecture** (§3.2 — parallel Banzai
//! pipelines joined by inter-stage crossbars, a dedicated phantom
//! channel, and per-stage banks of `k` FIFOs) and **runtime** (§3.4 —
//! packet steering, preemptive state-access-order enforcement via
//! phantom packets, stateless-over-stateful priority, starvation
//! handling, and dynamic state sharding with in-flight guards).
//!
//! # Timing model
//!
//! One simulator step is one *pipeline cycle* (`64·k` byte-times for a
//! `k`-pipeline switch, see `mp5-types::time`). Per cycle:
//!
//! 1. the dynamic sharding heuristic may run (every `remap_period`
//!    cycles, in the background);
//! 2. the phantom channel advances one hop and delivers phantoms to
//!    their destination stage FIFOs;
//! 3. packets occupying stages move forward simultaneously — exiting
//!    the switch, passing straight to the next stage of their own
//!    pipeline, or steering through the crossbar into the FIFO bank of
//!    their next stateful stage (replacing their phantom);
//! 4. each `(pipeline, stage)` then processes at most one packet: an
//!    incoming pass-through packet has priority (Invariant 2); otherwise
//!    the logical FIFO's `pop()` serves the globally-oldest entry, with
//!    phantom heads freezing the serial order (D4).
//!
//! One cycle engine (DESIGN.md §10), reconfigured through
//! [`SwitchConfig`], also realizes the paper's ablations and baselines:
//! no-D4 (phantoms off), static sharding, the naive single-pipeline-state
//! design, the ideal-MP5 upper bound (per-index queues + fixed-point
//! re-sharding), and today's recirculating switch
//! ([`SwitchConfig::recirc`]: static port blocks, no crossbar, packets
//! loop back to the pipeline owning a state).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod partition;
pub mod report;
pub mod shard;
pub mod state;
pub mod switch;

pub use config::{ConfigError, ShardingMode, SprayMode, SwitchConfig};
pub use partition::{Partition, PartitionReport, PartitionedSwitch};
pub use report::{DropCounts, FaultReport, RunReport};
pub use state::{RestoreError, SwapError, SwapReport, SwitchState};
pub use switch::{
    check_entry_order, EntryOrderError, InvariantViolation, Mp5Switch, OfferError, RunError,
    TaggedArrival,
};
