//! Hardware substrate models for MP5.
//!
//! This crate models the *new hardware components* MP5 adds to a Banzai
//! pipeline (paper §3.2 and Figure 4):
//!
//! * [`ring::RingBuffer`] — a fixed-capacity circular buffer, the physical
//!   implementation of each per-pipeline FIFO.
//! * [`fifo::LogicalFifo`] — the per-stage bank of `k` ring buffers that
//!   logically operates as a single FIFO supporting the paper's three
//!   operations `push(pkt, fifo_id)`, `insert(pkt, addr, fifo_id)` and
//!   `pop()`, together with the phantom directory indexed by packet id.
//! * [`xbar::Crossbar`] — the `k×k` crossbar between consecutive stages
//!   that implements inter-pipeline packet steering (design principle D3).
//! * [`channel::PhantomChannel`] — the physically separate interconnect
//!   that carries phantom packets hop-by-hop without ever queuing them
//!   before their destination stage (runtime Invariant 1).
//!
//! All components are deterministic, and bounded-mode operation performs
//! no allocation on the hot path once constructed, in keeping with the
//! smoltcp-style guidance for production networking Rust.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod fifo;
pub mod ring;
pub mod xbar;

pub use channel::PhantomChannel;
pub use fifo::{
    Entry, FifoAddr, FifoParts, FifoStats, LaneParts, LogicalFifo, OrderKey, PhantomKey,
    PopOutcome, PushError,
};
pub use ring::RingBuffer;
pub use xbar::Crossbar;
