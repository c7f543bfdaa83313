//! Baseline switch designs MP5 is evaluated against.
//!
//! Four of the paper's five comparison points are *configurations* of
//! the MP5 engine, built by `mp5_core::SwitchConfig`'s constructors:
//!
//! * `naive` — all state and all packets on one pipeline (§3.1,
//!   challenge #1): correct, but capped at `1/k` of line rate.
//! * `static_shard` — D2 ablation: state sharded randomly at compile
//!   time, never re-balanced (§4.3.2).
//! * `no_d4` — D4 ablation: steering + sharding but no phantom
//!   packets, so C1 can be violated (§4.3.2).
//! * `ideal` — the upper bound of §4.3.3: per-index queues (no
//!   head-of-line blocking) and the Figure 6 balancer iterated to a
//!   fixed point.
//!
//! The fifth — the **state-of-the-art multi-pipelined switch with
//! packet re-circulation** (§2.3) — has a genuinely different datapath
//! (static port-to-pipeline mapping, no crossbars, packets loop back
//! through the whole pipeline to reach remote state) and is implemented
//! in [`recirc`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recirc;

pub use recirc::{RecircConfig, RecircReport, RecircSwitch};
