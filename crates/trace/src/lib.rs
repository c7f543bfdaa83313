//! Switch-wide event tracing and offline auditing for MP5.
//!
//! This crate is the observability layer of the workspace:
//!
//! * [`event`] — the event schema: everything observable inside a
//!   switch (`ingress`, `exec`, `access`, phantom lifecycle, FIFO and
//!   crossbar operations, `egress`, drops) with a byte-stable JSONL
//!   codec and a deterministic stream hash.
//! * [`sink`] — the [`TraceSink`] trait and its implementations. The
//!   trait is statically dispatched with a `const ENABLED` flag, so
//!   the default [`NopSink`] compiles instrumentation away entirely:
//!   an untraced switch pays nothing.
//! * [`mod@audit`] — the offline invariant auditor: replays a recorded
//!   stream and independently re-verifies Invariant 1 (phantom
//!   precedes data), Invariant 2 (pass-through priority), condition C1
//!   (serial access order per register index), packet conservation,
//!   and phantom/data pairing. Also available as the `mp5audit`
//!   binary.
//! * [`rollup`] — per-stage / per-register metrics rollups (service
//!   counters, occupancy histograms, phantom wait times, steering
//!   matrix) rendered as CSV or table rows.
//! * [`chrome`] — a Chrome-trace / Perfetto exporter that lays the
//!   switch out as one track per (pipeline, stage).
//!
//! `mp5-core` and `mp5-baselines` are generic over [`TraceSink`]. The
//! hardware model, `mp5-fabric`, does not depend on this crate: the
//! switch writes the FIFO and crossbar events from what those return.
//! `mp5run --trace/--audit/--rollup/--chrome` wires the whole chain
//! into every experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod chrome;
pub mod event;
pub mod rollup;
pub mod sink;

pub use audit::{audit, AuditReport, Auditor, Check, Finding};
pub use event::{stream_hash, DropCause, Event, EventKind, ParseError, NO_LOC};
pub use rollup::{Histogram, RegRollup, Rollup, StageRollup};
pub use sink::{
    emit, read_jsonl, write_jsonl, JsonlSink, MemSink, NopSink, ReadError, RingSink, TeeSink,
    TraceCtx, TraceSink,
};
