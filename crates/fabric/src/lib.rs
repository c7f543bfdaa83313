//! Hardware substrate models for MP5.
//!
//! This crate models the *new hardware components* MP5 adds to a Banzai
//! pipeline (paper §3.2 and Figure 4):
//!
//! * [`ring::RingBuffer`] — a fixed-capacity circular buffer, the physical
//!   implementation of each per-pipeline FIFO.
//! * [`fifo::FifoCore`] — the per-stage bank of `k` ring buffers that
//!   logically operates as a single FIFO supporting the paper's three
//!   operations `push(pkt, fifo_id)`, `insert(pkt, addr, fifo_id)` and
//!   `pop()`, matching a phantom by the address `push` returned; and
//!   [`fifo::LogicalFifo`], the same FIFO behind a phantom directory
//!   keyed by packet id (the FIFO's keyed tests and the benchmark's
//!   FIFO probe use it; the switch keeps addresses itself).
//! * [`xbar::Crossbar`] — the `k×k` crossbar between consecutive stages
//!   that implements inter-pipeline packet steering (design principle D3).
//! * [`channel::PhantomChannel`] — the physically separate interconnect
//!   that carries phantom packets hop-by-hop without ever queuing them
//!   before their destination stage (runtime Invariant 1).
//!
//! All components are deterministic, and bounded-mode operation performs
//! no allocation on the hot path once constructed, in keeping with the
//! smoltcp-style guidance for production networking Rust.
//!
//! A pure hardware model: it emits no events and does not depend on
//! `mp5-trace`. Each operation returns its outcome, and `mp5-core`'s
//! stage queue writes the event that outcome names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod fifo;
pub mod ring;
pub mod xbar;

pub use channel::PhantomChannel;
pub use fifo::{
    Entry, FifoAddr, FifoCore, FifoParts, FifoStats, LaneParts, LogicalFifo, OrderKey, PhantomKey,
    PopOutcome, PushError,
};
pub use ring::RingBuffer;
pub use xbar::Crossbar;
