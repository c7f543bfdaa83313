//! Common types shared across the MP5 workspace.
//!
//! This crate defines the vocabulary of the whole system: identifiers for
//! ports, pipelines, stages and register arrays; the integer [`Value`]
//! domain of the Domino-like language; the [`Time`] model used by the
//! cycle-accurate simulators; and the [`Packet`] representation that flows
//! through every switch model in the workspace.
//!
//! # Time model
//!
//! Following §2.2 of the paper, a switch with `N` ports of bandwidth `B`
//! has a *fixed* aggregate capacity `N·B` regardless of how many parallel
//! pipelines it has: each of the `k` pipelines runs at `N·B/k`. We measure
//! time in **byte-times**: one byte-time is the time the aggregate switch
//! takes to receive one byte at line rate. A minimum-size (64 B) packet
//! therefore occupies [`BYTES_PER_SLOT`] byte-times of aggregate capacity,
//! a single logical pipeline admits one packet every 64 byte-times, and
//! one pipeline of a `k`-pipeline switch admits one packet every `64·k`
//! byte-times (its *cycle*).
//!
//! # Newline JSON
//!
//! [`jsonl`] is the one reader of the workspace's newline-JSON files,
//! the event trace and the packet feed: [`jsonl::records`] cuts a
//! reader's lines in its buffer, a format's walk reads a line in its
//! writer's layout on a [`jsonl::Cursor`], and its general reader any
//! other line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fasthash;
pub mod flow;
pub mod ids;
pub mod jsonl;
pub mod packet;
pub mod time;

pub use fasthash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use flow::FlowKey;
pub use ids::{FieldId, PacketId, PipelineId, PortId, RegId, StageId};
pub use packet::{AccessTag, Packet, PacketDisposition, PhantomKey};
pub use time::{Cycle, Time, BYTES_PER_SLOT};

/// The integer value domain of the Domino-like language.
///
/// Domino models all packet fields and register entries as machine
/// integers; we use `i64` with wrapping arithmetic so that programs are
/// deterministic and never panic on overflow (matching hardware ALUs).
pub type Value = i64;

/// A deterministic 2-input hash, used by the `hash2` DSL builtin and by
/// workload generators.
///
/// This is a fixed multiply–xor mixer (SplitMix64-style). It is *not*
/// cryptographic; it only needs to be deterministic and well-spread, like
/// the hardware hash units on RMT switches.
#[inline]
pub fn hash2(a: Value, b: Value) -> Value {
    let mut x = (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (b as u64).rotate_left(31);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x & 0x7FFF_FFFF_FFFF_FFFF) as Value
}

/// A deterministic 3-input hash, used by the `hash3` DSL builtin.
#[inline]
pub fn hash3(a: Value, b: Value, c: Value) -> Value {
    hash2(hash2(a, b), c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash2_is_deterministic() {
        assert_eq!(hash2(1, 2), hash2(1, 2));
        assert_eq!(hash3(1, 2, 3), hash3(1, 2, 3));
    }

    #[test]
    fn hash2_is_non_negative() {
        for a in -100..100 {
            for b in -100..100 {
                assert!(hash2(a, b) >= 0, "hash2({a},{b}) must be non-negative");
            }
        }
    }

    #[test]
    fn hash2_spreads() {
        // Adjacent inputs should not collide in the low bits (used for
        // register indexing via `% size`).
        let mut seen = std::collections::HashSet::new();
        for a in 0..1000 {
            seen.insert(hash2(a, 7) % 1024);
        }
        assert!(seen.len() > 600, "hash too clustered: {}", seen.len());
    }

    #[test]
    fn hash3_differs_from_hash2() {
        assert_ne!(hash3(1, 2, 0), hash2(1, 2));
    }
}
