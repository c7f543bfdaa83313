//! # MP5 — Stateful Multi-Pipelined Programmable Switches
//!
//! A full Rust implementation of the system described in *"Stateful
//! Multi-Pipelined Programmable Switches"* (Vishal Shrivastav, SIGCOMM
//! 2022): a switch architecture, compiler, and runtime that makes a
//! `k`-pipeline programmable switch functionally equivalent to a
//! logical single-pipeline switch while processing packets close to the
//! ideal rate.
//!
//! ## Quick start
//!
//! ```
//! use mp5::compiler::{compile, Target};
//! use mp5::banzai::BanzaiSwitch;
//! use mp5::core::{Mp5Switch, SwitchConfig};
//! use mp5::traffic::TraceBuilder;
//!
//! // 1. Write a stateful packet-processing program (Domino-like DSL).
//! let program = compile(
//!     "struct Packet { int h; int out; };
//!      int counters[64] = {0};
//!      void func(struct Packet p) {
//!          counters[p.h % 64] = counters[p.h % 64] + 1;
//!          p.out = counters[p.h % 64];
//!      }",
//!     &Target::default(),
//! ).unwrap();
//!
//! // 2. Generate a line-rate trace on a 64-port switch.
//! let trace = TraceBuilder::new(2_000, 7).build(program.num_fields(), |rng, _, f| {
//!     use rand::Rng;
//!     f[0] = rng.gen_range(0..1_000);
//! });
//!
//! // 3. Run it on the single-pipeline reference and on 4-pipeline MP5.
//! let reference = BanzaiSwitch::new(program.clone()).run(trace.clone());
//! let report = Mp5Switch::new(program, SwitchConfig::mp5(4)).run(trace);
//!
//! // Functional equivalence (the paper's §2.2.1 definition) holds...
//! assert!(report.result.equivalent_to(&reference));
//! // ...and the sharded counter table runs near line rate.
//! assert!(report.normalized_throughput() > 0.5);
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `mp5-types` | Packets, ids, the byte-time clock model |
//! | [`lang`] | `mp5-lang` | Domino-like DSL frontend (lexer → parser → three-address code) |
//! | [`compiler`] | `mp5-compiler` | Pipelining, PVSM, the PVSM-to-PVSM transformer, codegen |
//! | [`analysis`] | `mp5-analysis` | Static shardability / hazard / resource analyzer + `mp5lint` |
//! | [`banzai`] | `mp5-banzai` | Single-pipeline reference switch (equivalence ground truth) |
//! | [`trace`] | `mp5-trace` | Event tracing: sinks, Perfetto export, rollups, `mp5audit` offline auditor |
//! | [`fabric`] | `mp5-fabric` | Ring buffers, logical k-FIFOs addressed by phantom slot, crossbars, phantom channel; emits no events |
//! | [`faults`] | `mp5-faults` | Deterministic fault plans, chaos generator, zero-cost `FaultInjector` hooks |
//! | [`core`] | `mp5-core` | **The MP5 switch**: architecture + runtime (steering, phantoms, dynamic sharding); the naive, static-shard, no-D4, ideal and recirculation baselines are its configurations |
//! | [`traffic`] | `mp5-traffic` | Line-rate arrivals, access patterns, Web-search flows |
//! | [`apps`] | `mp5-apps` | Flowlet, CONGA, WFQ, sequencer + four more stateful programs |
//! | [`asic`] | `mp5-asic` | Analytic area/clock/SRAM model (paper Table 1) |
//! | [`topo`] | `mp5-topo` | Leaf–spine fabric simulation: composed switches, links, ECMP/flowlet, `mp5fabric` |
//! | [`serve`] | `mp5-serve` | Live operation: crash-safe snapshot/restore + program hot-swap, `mp5serve` |
//! | [`sim`] | `mp5-sim` | Experiment harness regenerating every paper table & figure; the model harness |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mp5_analysis as analysis;
pub use mp5_apps as apps;
pub use mp5_asic as asic;
pub use mp5_banzai as banzai;
pub use mp5_compiler as compiler;
pub use mp5_core as core;
pub use mp5_fabric as fabric;
pub use mp5_faults as faults;
pub use mp5_lang as lang;
pub use mp5_serve as serve;
pub use mp5_sim as sim;
pub use mp5_topo as topo;
pub use mp5_trace as trace;
pub use mp5_traffic as traffic;
pub use mp5_types as types;
