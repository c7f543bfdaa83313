//! # mp5-topo — deterministic multi-switch fabric simulation
//!
//! Composes many [`Mp5Switch`](mp5_core::Mp5Switch) instances into a
//! datacenter fabric and drives millions of flows through it under one
//! global clock. The crate has four layers:
//!
//! | module | contents |
//! |---|---|
//! | [`topology`] | [`TopologyConfig`] / [`Topology`]: leaf–spine (fat-tree-ready) graphs, host placement, validated with typed [`TopoError`]s |
//! | [`link`] | [`Link`]: bounded point-to-point queues with serialization delay and propagation latency |
//! | [`route`] | [`Router`]: deterministic per-flow ECMP and flowlet next-hop selection across spines |
//! | [`fabric`] | [`Fabric`]: the global cycle loop, conservation ledger, spine fail-stop, [`FabricReport`] |
//!
//! Determinism is the contract throughout: a fabric run is a pure
//! function of `(topology, config, program, workload)` — bit-identical
//! across repeats.
//! The `mp5fabric` binary is the CLI front end; the workload comes from
//! [`mp5_traffic::dc`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod link;
pub mod route;
pub mod topology;

pub use fabric::{
    Fabric, FabricConfig, FabricError, FabricReport, FabricRun, FctStats, LinkSummary, SpineKill,
    SwitchSummary,
};
pub use link::{Link, LinkStats};
pub use route::{RouteMode, Router};
pub use topology::{NodeRole, TopoError, Topology, TopologyConfig};
