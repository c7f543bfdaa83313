//! # mp5-faults — deterministic fault injection for the MP5 switch
//!
//! The paper assumes every pipeline, FIFO, phantom channel, and
//! crossbar lane is flawless forever. Production switches are not: a
//! pipeline stalls, a phantom placeholder gets lost, a bounded FIFO
//! overflows. This crate supplies the *plan* side of fault injection:
//!
//! * [`FaultPlan`] — a seeded, JSON-serializable schedule of faults
//!   that fire at precise cycles (builder API + [`FaultPlan::chaos`]
//!   randomized generator). Plans are read through the vendored
//!   `serde::json` parser, the workspace's one JSON reader.
//! * [`FaultInjector`] — the zero-cost hook trait the switch runtime is
//!   generic over, following the same `const ENABLED` static-dispatch
//!   pattern as `mp5_trace::TraceSink`: with the default [`NoFaults`]
//!   every query constant-folds to "no fault" and the hot path is
//!   byte-identical to a build without this crate.
//! * [`PlannedFaults`] — the real injector compiled from a plan:
//!   cycle-sorted cursor plus active fault windows.
//!
//! Determinism is the whole point: the same plan against the same
//! trace must produce bit-identical runs — replayed from JSON, or
//! restored from a snapshot — so every decision here is a pure
//! function of `(seed, cycle, key)`: no ambient randomness, no
//! wall-clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::json::{Parser, Value};
use serde::{Deserialize, Serialize};

/// SplitMix64 — tiny, seed-stable PRNG step used for chaos-plan
/// generation and per-phantom drop decisions. Hand-rolled so the crate
/// needs no `rand` dependency and results never change under us.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One kind of injectable fault. Serialized with a `kind` tag so
/// hand-written plan files read naturally:
///
/// ```json
/// { "at": 40, "kind": "pipeline_fail", "pipeline": 2 }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Pipeline `pipeline` dies permanently. The switch drains its
    /// in-flight packets, evacuates its sharded state to survivors via
    /// the D2 remap path, excludes it from steering/spray, and keeps
    /// running in degraded mode. Pipeline 0 may never fail: it hosts
    /// the conservative-serialization fallbacks (sentinel registers,
    /// unshardable state), so killing it is unrecoverable by design.
    PipelineFail {
        /// The pipeline to kill (must be `1..k`).
        pipeline: u16,
    },
    /// Stage `(pipeline, stage)` stops serving its stateful queue for
    /// `cycles` cycles. Pass-through traffic is unaffected (Invariant 2
    /// concerns served packets); queued work is merely delayed.
    StageStall {
        /// Stalled pipeline.
        pipeline: u16,
        /// Stalled stage within that pipeline.
        stage: u16,
        /// Window length in cycles.
        cycles: u64,
    },
    /// For `cycles` cycles, each phantom delivered by the channel is
    /// lost with probability `rate_permille`/1000 (decided by a pure
    /// hash of `(seed, cycle, phantom key)`). Non-silent losses are
    /// recorded so the matching data packet can be recovered into
    /// FIFO-order on arrival; `silent` losses leave no record — the
    /// negative control that the offline auditor must catch.
    PhantomDrop {
        /// Loss probability in permille (0..=1000).
        rate_permille: u32,
        /// Window length in cycles.
        cycles: u64,
        /// If true, the loss is unrecorded and unrecovered.
        silent: bool,
    },
    /// Stage `(pipeline, stage)`'s phantom FIFO behaves as if full for
    /// `cycles` cycles: phantom pushes are rejected, exercising the
    /// same lost-phantom recovery path as [`FaultKind::PhantomDrop`].
    FifoOverflow {
        /// Pressured pipeline.
        pipeline: u16,
        /// Pressured stage.
        stage: u16,
        /// Window length in cycles.
        cycles: u64,
    },
    /// For `cycles` cycles every crossbar grant is delayed by `delay`
    /// cycles: steered packets sit in a pending-grant buffer before
    /// entering the destination FIFO. Order is held by the phantom, so
    /// this is a pure slowdown.
    CrossbarGrantDelay {
        /// Grant latency in cycles.
        delay: u64,
        /// Window length in cycles.
        cycles: u64,
    },
    /// The next `count` scheduled D2 remap rounds are aborted before
    /// computing any move (models a failed control-plane transaction).
    RemapAbort {
        /// How many upcoming remap rounds to abort.
        count: u32,
    },
}

/// How a fired fault is accounted in `FaultReport`: the invariant the
/// switch maintains is `injected == recovered + degraded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Transient: the runtime machinery absorbs it completely (stalls,
    /// recoverable phantom losses, FIFO pressure, grant delays, remap
    /// aborts). The run ends functionally identical to a clean run.
    Recovered,
    /// Acknowledged degradation: the fault permanently changes the
    /// machine (a dead pipeline) or deliberately breaks equivalence (a
    /// silent phantom loss used as auditor negative control).
    Degraded,
}

impl FaultKind {
    /// Stable numeric code carried by `FaultInjected` trace events.
    pub fn code(&self) -> u16 {
        match self {
            FaultKind::PipelineFail { .. } => 1,
            FaultKind::StageStall { .. } => 2,
            FaultKind::PhantomDrop { .. } => 3,
            FaultKind::FifoOverflow { .. } => 4,
            FaultKind::CrossbarGrantDelay { .. } => 5,
            FaultKind::RemapAbort { .. } => 6,
        }
    }

    /// Compact parameter word carried by `FaultInjected` trace events
    /// (pipeline/stage packed into the low bits where applicable).
    pub fn param(&self) -> u64 {
        match *self {
            FaultKind::PipelineFail { pipeline } => pipeline as u64,
            FaultKind::StageStall {
                pipeline, stage, ..
            } => ((pipeline as u64) << 16) | stage as u64,
            FaultKind::PhantomDrop { rate_permille, .. } => rate_permille as u64,
            FaultKind::FifoOverflow {
                pipeline, stage, ..
            } => ((pipeline as u64) << 16) | stage as u64,
            FaultKind::CrossbarGrantDelay { delay, .. } => delay,
            FaultKind::RemapAbort { count } => count as u64,
        }
    }

    /// Accounting class (see [`FaultClass`]).
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::PipelineFail { .. } => FaultClass::Degraded,
            FaultKind::PhantomDrop { silent: true, .. } => FaultClass::Degraded,
            _ => FaultClass::Recovered,
        }
    }

    /// The `kind` tag used in the JSON encoding.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::PipelineFail { .. } => "pipeline_fail",
            FaultKind::StageStall { .. } => "stage_stall",
            FaultKind::PhantomDrop { .. } => "phantom_drop",
            FaultKind::FifoOverflow { .. } => "fifo_overflow",
            FaultKind::CrossbarGrantDelay { .. } => "grant_delay",
            FaultKind::RemapAbort { .. } => "remap_abort",
        }
    }
}

/// A fault scheduled to fire at an exact cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFault {
    /// Cycle at which the fault fires.
    pub at: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Error from [`FaultPlan::validate`] / [`FaultPlan::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The JSON did not parse as a plan.
    Json(String),
    /// A fault references a pipeline `>= k`.
    PipelineOutOfRange {
        /// Offending pipeline id.
        pipeline: u16,
        /// Number of pipelines in the target switch.
        k: usize,
    },
    /// A `PipelineFail` targets pipeline 0, which hosts the
    /// conservative-serialization fallback state and may never die.
    PipelineZeroFail,
    /// A fault references a stage `>= stages`.
    StageOutOfRange {
        /// Offending stage id.
        stage: u16,
        /// Number of stages in the target program.
        stages: usize,
    },
    /// A `PhantomDrop` rate exceeds 1000 permille.
    RateOutOfRange(u32),
    /// A windowed fault has a zero-length window or zero count.
    EmptyWindow,
    /// A checkpointed injector's cursor is past the end of its plan.
    CursorPastPlan {
        /// Index of the next unfired fault.
        cursor: usize,
        /// Faults in the plan.
        len: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Json(e) => write!(f, "invalid fault plan JSON: {e}"),
            PlanError::PipelineOutOfRange { pipeline, k } => {
                write!(f, "fault references pipeline {pipeline} but switch has {k}")
            }
            PlanError::PipelineZeroFail => write!(
                f,
                "pipeline 0 may not fail: it hosts the conservative-serialization fallback state"
            ),
            PlanError::StageOutOfRange { stage, stages } => {
                write!(f, "fault references stage {stage} but program has {stages}")
            }
            PlanError::RateOutOfRange(r) => {
                write!(f, "phantom drop rate {r} permille exceeds 1000")
            }
            PlanError::EmptyWindow => write!(f, "windowed fault has zero cycles/count"),
            PlanError::CursorPastPlan { cursor, len } => {
                write!(f, "injector cursor {cursor} is past a {len}-fault plan")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A deterministic, seeded schedule of faults. Build one with the
/// fluent API, load one from JSON, or roll one with [`FaultPlan::chaos`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for per-phantom drop decisions (and recorded provenance
    /// for chaos-generated plans).
    pub seed: u64,
    /// The schedule; kept sorted by `at`.
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// Empty plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    fn push(mut self, at: u64, kind: FaultKind) -> Self {
        self.faults.push(PlannedFault { at, kind });
        self.faults.sort_by_key(|f| f.at);
        self
    }

    /// Kill `pipeline` permanently at cycle `at`.
    pub fn pipeline_fail(self, at: u64, pipeline: u16) -> Self {
        self.push(at, FaultKind::PipelineFail { pipeline })
    }

    /// Stall stage `(pipeline, stage)` for `cycles` starting at `at`.
    pub fn stage_stall(self, at: u64, pipeline: u16, stage: u16, cycles: u64) -> Self {
        self.push(
            at,
            FaultKind::StageStall {
                pipeline,
                stage,
                cycles,
            },
        )
    }

    /// Drop phantoms at `rate_permille` for `cycles` starting at `at`
    /// (recoverable: losses are recorded and re-resolved).
    pub fn phantom_drop(self, at: u64, rate_permille: u32, cycles: u64) -> Self {
        self.push(
            at,
            FaultKind::PhantomDrop {
                rate_permille,
                cycles,
                silent: false,
            },
        )
    }

    /// Silent phantom loss — the auditor negative control: the switch
    /// is given no record, so recovery cannot happen and `mp5audit`
    /// must report Inv1/pairing findings.
    pub fn silent_phantom_drop(self, at: u64, rate_permille: u32, cycles: u64) -> Self {
        self.push(
            at,
            FaultKind::PhantomDrop {
                rate_permille,
                cycles,
                silent: true,
            },
        )
    }

    /// Force phantom-FIFO pressure at `(pipeline, stage)` for `cycles`.
    pub fn fifo_overflow(self, at: u64, pipeline: u16, stage: u16, cycles: u64) -> Self {
        self.push(
            at,
            FaultKind::FifoOverflow {
                pipeline,
                stage,
                cycles,
            },
        )
    }

    /// Delay every crossbar grant by `delay` cycles for `cycles`.
    pub fn grant_delay(self, at: u64, delay: u64, cycles: u64) -> Self {
        self.push(at, FaultKind::CrossbarGrantDelay { delay, cycles })
    }

    /// Abort the next `count` remap rounds after cycle `at`.
    pub fn remap_abort(self, at: u64, count: u32) -> Self {
        self.push(at, FaultKind::RemapAbort { count })
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"faults\": [\n");
        for (i, f) in self.faults.iter().enumerate() {
            out.push_str("    { ");
            out.push_str(&format!("\"at\": {}, \"kind\": \"{}\"", f.at, f.kind.tag()));
            match f.kind {
                FaultKind::PipelineFail { pipeline } => {
                    out.push_str(&format!(", \"pipeline\": {pipeline}"));
                }
                FaultKind::StageStall {
                    pipeline,
                    stage,
                    cycles,
                } => out.push_str(&format!(
                    ", \"pipeline\": {pipeline}, \"stage\": {stage}, \"cycles\": {cycles}"
                )),
                FaultKind::PhantomDrop {
                    rate_permille,
                    cycles,
                    silent,
                } => out.push_str(&format!(
                    ", \"rate_permille\": {rate_permille}, \"cycles\": {cycles}, \"silent\": {silent}"
                )),
                FaultKind::FifoOverflow {
                    pipeline,
                    stage,
                    cycles,
                } => out.push_str(&format!(
                    ", \"pipeline\": {pipeline}, \"stage\": {stage}, \"cycles\": {cycles}"
                )),
                FaultKind::CrossbarGrantDelay { delay, cycles } => {
                    out.push_str(&format!(", \"delay\": {delay}, \"cycles\": {cycles}"));
                }
                FaultKind::RemapAbort { count } => {
                    out.push_str(&format!(", \"count\": {count}"));
                }
            }
            out.push_str(" }");
            if i + 1 < self.faults.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse from JSON (schedule is re-sorted by cycle).
    ///
    /// The whole JSON grammar is accepted. An unknown key is ignored, a
    /// repeated key resolves the way the derive decoder resolves it
    /// (the last one wins), and a numeric field must be an unsigned
    /// integer literal in range for its type: a negative, fractional
    /// or exponent number is the same "missing numeric" error as an
    /// absent field, and a too-large one is "out of range" — neither
    /// is ever cast.
    pub fn from_json(s: &str) -> Result<Self, PlanError> {
        let mut p = Parser::new(s);
        let val = Value::deserialize(&mut p)
            .and_then(|v| p.end().map(|()| v))
            .map_err(|e| PlanError::Json(e.to_string()))?;
        let seed = val["seed"]
            .as_u64()
            .ok_or_else(|| PlanError::Json("missing numeric \"seed\"".into()))?;
        let faults_val = val["faults"]
            .as_array()
            .ok_or_else(|| PlanError::Json("missing \"faults\" array".into()))?;
        let mut faults = Vec::with_capacity(faults_val.len());
        for (i, fv) in faults_val.iter().enumerate() {
            let err = |what: &str| PlanError::Json(format!("fault #{i}: {what}"));
            let u64_field = |name: &str| {
                fv[name]
                    .as_u64()
                    .ok_or_else(|| err(&format!("missing numeric \"{name}\"")))
            };
            let u16_field = |name: &str| {
                u16::try_from(u64_field(name)?)
                    .map_err(|_| err(&format!("\"{name}\" out of u16 range")))
            };
            let u32_field = |name: &str| {
                u32::try_from(u64_field(name)?)
                    .map_err(|_| err(&format!("\"{name}\" out of u32 range")))
            };
            let at = u64_field("at")?;
            let kind_tag = fv["kind"]
                .as_str()
                .ok_or_else(|| err("missing string \"kind\""))?;
            let kind = match kind_tag {
                "pipeline_fail" => FaultKind::PipelineFail {
                    pipeline: u16_field("pipeline")?,
                },
                "stage_stall" => FaultKind::StageStall {
                    pipeline: u16_field("pipeline")?,
                    stage: u16_field("stage")?,
                    cycles: u64_field("cycles")?,
                },
                "phantom_drop" => FaultKind::PhantomDrop {
                    rate_permille: u32_field("rate_permille")?,
                    cycles: u64_field("cycles")?,
                    // Absent is `false`; any other value is an error,
                    // never a silently recoverable drop.
                    silent: match fv.as_object().and_then(|o| o.get("silent")) {
                        None => false,
                        Some(v) => v.as_bool().ok_or_else(|| err("\"silent\" is not a bool"))?,
                    },
                },
                "fifo_overflow" => FaultKind::FifoOverflow {
                    pipeline: u16_field("pipeline")?,
                    stage: u16_field("stage")?,
                    cycles: u64_field("cycles")?,
                },
                "grant_delay" => FaultKind::CrossbarGrantDelay {
                    delay: u64_field("delay")?,
                    cycles: u64_field("cycles")?,
                },
                "remap_abort" => FaultKind::RemapAbort {
                    count: u32_field("count")?,
                },
                other => return Err(err(&format!("unknown kind \"{other}\""))),
            };
            faults.push(PlannedFault { at, kind });
        }
        faults.sort_by_key(|f| f.at);
        Ok(FaultPlan { seed, faults })
    }

    /// Check the plan against a concrete switch shape: `k` pipelines,
    /// `stages` stages per pipeline.
    pub fn validate(&self, k: usize, stages: usize) -> Result<(), PlanError> {
        for f in &self.faults {
            match f.kind {
                FaultKind::PipelineFail { pipeline } => {
                    if pipeline == 0 {
                        return Err(PlanError::PipelineZeroFail);
                    }
                    if pipeline as usize >= k {
                        return Err(PlanError::PipelineOutOfRange { pipeline, k });
                    }
                }
                FaultKind::StageStall {
                    pipeline,
                    stage,
                    cycles,
                }
                | FaultKind::FifoOverflow {
                    pipeline,
                    stage,
                    cycles,
                } => {
                    if pipeline as usize >= k {
                        return Err(PlanError::PipelineOutOfRange { pipeline, k });
                    }
                    if stage as usize >= stages {
                        return Err(PlanError::StageOutOfRange { stage, stages });
                    }
                    if cycles == 0 {
                        return Err(PlanError::EmptyWindow);
                    }
                }
                FaultKind::PhantomDrop {
                    rate_permille,
                    cycles,
                    ..
                } => {
                    if rate_permille > 1000 {
                        return Err(PlanError::RateOutOfRange(rate_permille));
                    }
                    if cycles == 0 {
                        return Err(PlanError::EmptyWindow);
                    }
                }
                FaultKind::CrossbarGrantDelay { delay, cycles } => {
                    if cycles == 0 || delay == 0 {
                        return Err(PlanError::EmptyWindow);
                    }
                }
                FaultKind::RemapAbort { count } => {
                    if count == 0 {
                        return Err(PlanError::EmptyWindow);
                    }
                }
            }
        }
        Ok(())
    }

    /// Roll a randomized (but fully seed-determined) chaos plan for a
    /// `k`-pipeline, `stages`-stage switch over roughly `horizon`
    /// cycles. Only *recoverable* faults plus at most one pipeline
    /// kill are generated — silent drops are reserved for negative
    /// controls. Pipeline 0 is never killed.
    pub fn chaos(seed: u64, k: usize, stages: usize, horizon: u64) -> Self {
        let mut s = splitmix64(seed ^ 0x00c4_a50f_5a11_u64);
        let mut next = move || {
            s = splitmix64(s);
            s
        };
        let stages = stages.max(1) as u64;
        let horizon = horizon.max(16);
        let k = k.max(1);
        let mut plan = FaultPlan::new(seed);
        let n_faults = 3 + (next() % 4) as usize; // 3..=6 faults
        for _ in 0..n_faults {
            let at = 1 + next() % horizon;
            let window = 1 + next() % (horizon / 4).max(1);
            let kind = match next() % 5 {
                0 => FaultKind::StageStall {
                    pipeline: (next() % k as u64) as u16,
                    stage: (next() % stages) as u16,
                    cycles: window,
                },
                1 => FaultKind::PhantomDrop {
                    rate_permille: 50 + (next() % 451) as u32, // 5%..50%
                    cycles: window,
                    silent: false,
                },
                2 => FaultKind::FifoOverflow {
                    pipeline: (next() % k as u64) as u16,
                    stage: (next() % stages) as u16,
                    cycles: window,
                },
                3 => FaultKind::CrossbarGrantDelay {
                    delay: 1 + next() % 4,
                    cycles: window,
                },
                _ => FaultKind::RemapAbort {
                    count: 1 + (next() % 3) as u32,
                },
            };
            plan = plan.push(at, kind);
        }
        // At most one pipeline kill, only if there is a survivor pool.
        if k >= 2 && next() % 2 == 0 {
            let victim = 1 + (next() % (k as u64 - 1)) as u16;
            let at = 1 + next() % (horizon / 2).max(1);
            plan = plan.pipeline_fail(at, victim);
        }
        plan
    }

    /// Compile the plan into a runnable injector.
    pub fn injector(&self) -> PlannedFaults {
        PlannedFaults::new(self.clone())
    }
}

/// A fault that fired this cycle, as handed to the switch runtime by
/// [`FaultInjector::begin_cycle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// Cycle at which it fired.
    pub at: u64,
    /// What fired.
    pub kind: FaultKind,
}

/// What happens to one delivered phantom under the active drop windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhantomFate {
    /// Delivered normally.
    Keep,
    /// Lost, but recorded: the switch recovers the matching data
    /// packet into FIFO order on arrival.
    DropRecoverable,
    /// Lost without record — nothing recovers it (negative control).
    DropSilent,
}

/// The hook trait the switch runtime is generic over. The default
/// [`NoFaults`] has `ENABLED == false`, so every call site guarded by
/// `if F::ENABLED` constant-folds away and the hot path is unchanged.
///
/// All queries are pure functions of injector state set up by
/// [`FaultInjector::begin_cycle`], which the switch calls exactly once
/// per cycle *before* any phase — this keeps every run of the same
/// plan bit-identical.
pub trait FaultInjector: Send + 'static {
    /// Statically known enablement flag (false for [`NoFaults`]).
    const ENABLED: bool;

    /// Advance to `cycle`: expire finished windows, fire newly due
    /// faults, and return them (for trace events and accounting).
    fn begin_cycle(&mut self, cycle: u64) -> Vec<FiredFault>;

    /// Is stage `(pipeline, stage)` stalled this cycle?
    fn stage_stalled(&self, pipeline: u16, stage: u16) -> bool;

    /// All `(pipeline, stage)` pairs stalled this cycle (passed into
    /// the work phase as plain data so worker code needs no generics).
    fn active_stalls(&self) -> &[(u16, u16)];

    /// Fate of a phantom delivered this cycle, keyed by a stable hash
    /// of its identity.
    fn phantom_fate(&self, key_hash: u64) -> PhantomFate;

    /// Is the phantom FIFO at `(pipeline, stage)` under forced
    /// overflow pressure this cycle?
    fn fifo_overflow(&self, pipeline: u16, stage: u16) -> bool;

    /// Extra crossbar grant latency this cycle (0 = none).
    fn grant_delay(&self) -> u64;

    /// Consume one pending remap abort, if any.
    fn take_remap_abort(&mut self) -> bool;
}

/// The zero-cost default: no faults, ever. All queries are trivially
/// false/zero and `ENABLED == false` lets the switch skip its fault
/// bookkeeping entirely at compile time.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    const ENABLED: bool = false;

    #[inline]
    fn begin_cycle(&mut self, _cycle: u64) -> Vec<FiredFault> {
        Vec::new()
    }
    #[inline]
    fn stage_stalled(&self, _pipeline: u16, _stage: u16) -> bool {
        false
    }
    #[inline]
    fn active_stalls(&self) -> &[(u16, u16)] {
        &[]
    }
    #[inline]
    fn phantom_fate(&self, _key_hash: u64) -> PhantomFate {
        PhantomFate::Keep
    }
    #[inline]
    fn fifo_overflow(&self, _pipeline: u16, _stage: u16) -> bool {
        false
    }
    #[inline]
    fn grant_delay(&self) -> u64 {
        0
    }
    #[inline]
    fn take_remap_abort(&mut self) -> bool {
        false
    }
}

/// Active phantom-drop window.
#[derive(Debug, Clone)]
struct DropWindow {
    rate_permille: u32,
    until: u64,
    silent: bool,
}

/// Checkpointed runtime state of a [`PlannedFaults`] injector.
///
/// A fired plan is *not* replay-reconstructible from the [`FaultPlan`]
/// alone: window expiries are computed at fire time (`until` = fire
/// cycle + length) and remap aborts are consumed as they happen. So a
/// switch checkpoint must carry this explicit state and re-apply it on
/// top of a freshly compiled injector via
/// [`PlannedFaults::restore_state`]. The per-cycle `stall_pairs` cache
/// is derived and rebuilt on the next `begin_cycle`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InjectorState {
    /// Index of the next unfired plan entry.
    pub cursor: usize,
    /// Last cycle passed to `begin_cycle`.
    pub cycle: u64,
    /// Active stall windows as `(pipeline, stage, until)`.
    pub stalls: Vec<(u16, u16, u64)>,
    /// Active overflow windows as `(pipeline, stage, until)`.
    pub overflows: Vec<(u16, u16, u64)>,
    /// Active phantom-drop windows as `(rate_permille, until, silent)`.
    pub drops: Vec<(u32, u64, bool)>,
    /// Current crossbar grant latency (0 = none).
    pub grant_delay: u64,
    /// Cycle at which the grant-delay window expires.
    pub grant_until: u64,
    /// Unconsumed remap aborts.
    pub remap_aborts: u32,
}

/// The real injector: a cycle-sorted plan cursor plus active windows.
#[derive(Debug, Clone)]
pub struct PlannedFaults {
    seed: u64,
    plan: Vec<PlannedFault>,
    cursor: usize,
    cycle: u64,
    stalls: Vec<(u16, u16, u64)>,    // (pipeline, stage, until)
    stall_pairs: Vec<(u16, u16)>,    // refreshed each cycle
    overflows: Vec<(u16, u16, u64)>, // (pipeline, stage, until)
    drops: Vec<DropWindow>,
    grant_delay: u64,
    grant_until: u64,
    remap_aborts: u32,
}

impl PlannedFaults {
    /// Compile `plan` (sorted by cycle) into a fresh injector.
    pub fn new(mut plan: FaultPlan) -> Self {
        plan.faults.sort_by_key(|f| f.at);
        PlannedFaults {
            seed: plan.seed,
            plan: plan.faults,
            cursor: 0,
            cycle: 0,
            stalls: Vec::new(),
            stall_pairs: Vec::new(),
            overflows: Vec::new(),
            drops: Vec::new(),
            grant_delay: 0,
            grant_until: 0,
            remap_aborts: 0,
        }
    }

    /// Exports the runtime state for a checkpoint (see
    /// [`InjectorState`]). The plan itself is not included — it is the
    /// caller's separately-serialized [`FaultPlan`].
    pub fn snapshot_state(&self) -> InjectorState {
        InjectorState {
            cursor: self.cursor,
            cycle: self.cycle,
            stalls: self.stalls.clone(),
            overflows: self.overflows.clone(),
            drops: self
                .drops
                .iter()
                .map(|w| (w.rate_permille, w.until, w.silent))
                .collect(),
            grant_delay: self.grant_delay,
            grant_until: self.grant_until,
            remap_aborts: self.remap_aborts,
        }
    }

    /// Re-applies checkpointed runtime state on top of a freshly
    /// compiled injector for the same plan, running on a `k`-pipeline,
    /// `stages`-stage switch. The `stall_pairs` cache is rebuilt
    /// immediately so `stage_stalled` answers correctly even before the
    /// next `begin_cycle`. A cursor past the plan, or an active window
    /// that [`FaultPlan::validate`] would reject, is an `Err` and leaves
    /// the injector as it was.
    pub fn restore_state(
        &mut self,
        state: InjectorState,
        k: usize,
        stages: usize,
    ) -> Result<(), PlanError> {
        let (cursor, len) = (state.cursor, self.plan.len());
        if cursor > len {
            return Err(PlanError::CursorPastPlan { cursor, len });
        }
        for &(pipeline, stage, _) in state.stalls.iter().chain(&state.overflows) {
            if pipeline as usize >= k {
                return Err(PlanError::PipelineOutOfRange { pipeline, k });
            }
            if stage as usize >= stages {
                return Err(PlanError::StageOutOfRange { stage, stages });
            }
        }
        if let Some(&(rate, ..)) = state.drops.iter().find(|d| d.0 > 1000) {
            return Err(PlanError::RateOutOfRange(rate));
        }
        self.cursor = cursor;
        self.cycle = state.cycle;
        self.stalls = state.stalls;
        self.overflows = state.overflows;
        self.drops = state
            .drops
            .into_iter()
            .map(|(rate_permille, until, silent)| DropWindow {
                rate_permille,
                until,
                silent,
            })
            .collect();
        self.grant_delay = state.grant_delay;
        self.grant_until = state.grant_until;
        self.remap_aborts = state.remap_aborts;
        self.stall_pairs = self.stalls.iter().map(|&(p, s, _)| (p, s)).collect();
        Ok(())
    }
}

impl FaultInjector for PlannedFaults {
    const ENABLED: bool = true;

    fn begin_cycle(&mut self, cycle: u64) -> Vec<FiredFault> {
        self.cycle = cycle;
        // Expire windows whose last active cycle has passed.
        self.stalls.retain(|&(_, _, until)| cycle < until);
        self.overflows.retain(|&(_, _, until)| cycle < until);
        self.drops.retain(|w| cycle < w.until);
        if cycle >= self.grant_until {
            self.grant_delay = 0;
        }
        // Fire everything due at or before this cycle.
        let mut fired = Vec::new();
        while self.cursor < self.plan.len() && self.plan[self.cursor].at <= cycle {
            let f = self.plan[self.cursor].clone();
            self.cursor += 1;
            match f.kind {
                FaultKind::StageStall {
                    pipeline,
                    stage,
                    cycles,
                } => self.stalls.push((pipeline, stage, cycle + cycles)),
                FaultKind::FifoOverflow {
                    pipeline,
                    stage,
                    cycles,
                } => self.overflows.push((pipeline, stage, cycle + cycles)),
                FaultKind::PhantomDrop {
                    rate_permille,
                    cycles,
                    silent,
                } => self.drops.push(DropWindow {
                    rate_permille,
                    until: cycle + cycles,
                    silent,
                }),
                FaultKind::CrossbarGrantDelay { delay, cycles } => {
                    self.grant_delay = delay;
                    self.grant_until = cycle + cycles;
                }
                FaultKind::RemapAbort { count } => self.remap_aborts += count,
                FaultKind::PipelineFail { .. } => {} // handled by the switch
            }
            fired.push(FiredFault {
                at: f.at,
                kind: f.kind,
            });
        }
        self.stall_pairs = self.stalls.iter().map(|&(p, s, _)| (p, s)).collect();
        fired
    }

    #[inline]
    fn stage_stalled(&self, pipeline: u16, stage: u16) -> bool {
        self.stall_pairs.contains(&(pipeline, stage))
    }

    #[inline]
    fn active_stalls(&self) -> &[(u16, u16)] {
        &self.stall_pairs
    }

    fn phantom_fate(&self, key_hash: u64) -> PhantomFate {
        for w in &self.drops {
            let h = splitmix64(self.seed ^ self.cycle.wrapping_mul(0x9e37) ^ key_hash);
            if (h % 1000) < w.rate_permille as u64 {
                return if w.silent {
                    PhantomFate::DropSilent
                } else {
                    PhantomFate::DropRecoverable
                };
            }
        }
        PhantomFate::Keep
    }

    #[inline]
    fn fifo_overflow(&self, pipeline: u16, stage: u16) -> bool {
        self.overflows
            .iter()
            .any(|&(p, s, _)| p == pipeline && s == stage)
    }

    #[inline]
    fn grant_delay(&self) -> u64 {
        self.grant_delay
    }

    fn take_remap_abort(&mut self) -> bool {
        if self.remap_aborts > 0 {
            self.remap_aborts -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultPlan {
        FaultPlan::new(7)
            .stage_stall(10, 1, 2, 5)
            .pipeline_fail(40, 2)
            .phantom_drop(20, 300, 8)
            .fifo_overflow(15, 0, 1, 4)
            .grant_delay(30, 2, 6)
            .remap_abort(5, 2)
    }

    /// `to_json()` of [`sample`] plus a silent drop, written by the
    /// commit before `from_json` moved onto `serde::json`. The text is
    /// an on-disk format: it is embedded in every `MP5SNAP` `@faults`
    /// section.
    const GOLDEN: &str = include_str!("../tests/golden/plan.json");

    fn golden_plan() -> FaultPlan {
        sample().silent_phantom_drop(4, 120, 9)
    }

    #[test]
    fn json_round_trips() {
        let plan = golden_plan();
        assert_eq!(plan.to_json(), GOLDEN);
        let back = FaultPlan::from_json(GOLDEN).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json(), GOLDEN);
    }

    #[test]
    fn parses_handwritten_json() {
        let src = r#"{
            "seed": 42,
            "comment": ["unknown keys are skipped", {"at": -1.5e3}],
            "faults": [
                { "kind": "pipeline_fail", "at": 100, "pipeline": 9, "pipeline": 3 },
                { "kind": "phantom_drop", "at": 10, "rate_permille": 250, "cycles": 20 }
            ]
        }"#;
        let plan = FaultPlan::from_json(src).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.len(), 2);
        // Sorted by cycle, `silent` defaulted to false.
        assert_eq!(
            plan.faults[0].kind,
            FaultKind::PhantomDrop {
                rate_permille: 250,
                cycles: 20,
                silent: false
            }
        );
        // A repeated key: the last one wins, as in the derive decoder.
        assert_eq!(plan.faults[1].kind, FaultKind::PipelineFail { pipeline: 3 });
    }

    /// The golden with `from` replaced by `to` must fail with `why`.
    fn rejected(from: &str, to: &str, why: &str) {
        assert!(GOLDEN.contains(from), "{from} not in the golden");
        match FaultPlan::from_json(&GOLDEN.replacen(from, to, 1)) {
            Err(PlanError::Json(e)) => assert!(e.contains(why), "{from} -> {to}: {e}"),
            other => panic!("{from} -> {to}: {other:?}"),
        }
    }

    #[test]
    fn bad_json_is_rejected() {
        assert!(FaultPlan::from_json("not json").is_err());
        assert!(FaultPlan::from_json("{}").is_err());
        assert!(FaultPlan::from_json(r#"{"seed": 1, "faults": [{"at": 3}]}"#).is_err());
        rejected("\"seed\": 7,", "", "missing numeric \"seed\"");
        rejected("\"faults\": [", "\"flaws\": [", "missing \"faults\" array");
        rejected("remap_abort", "warp_core_breach", "fault #1: unknown kind");
        rejected(
            "\"kind\": \"remap_abort\"",
            "\"kind\": 6",
            "missing string \"kind\"",
        );
        rejected("]\n}", "]\n}{}", "trailing characters");
        rejected("]\n}", "]\n}]", "trailing characters");

        // A number too wide for its field is refused, not truncated:
        // 4294967796 is 500 modulo 2^32 and 65538 is 2 modulo 2^16.
        rejected(
            "\"rate_permille\": 300",
            "\"rate_permille\": 4294967796",
            "fault #4: \"rate_permille\" out of u32 range",
        );
        rejected(
            "\"count\": 2",
            "\"count\": 4294967298",
            "fault #1: \"count\" out of u32 range",
        );
        rejected(
            "\"pipeline\": 2 }",
            "\"pipeline\": 65538 }",
            "fault #6: \"pipeline\" out of u16 range",
        );
        rejected(
            "\"stage\": 2",
            "\"stage\": 65538",
            "fault #2: \"stage\" out of u16 range",
        );
        rejected(
            "\"seed\": 7",
            "\"seed\": 18446744073709551616",
            "missing numeric \"seed\"",
        );
        // `silent` is a bool or absent, nothing else.
        for not_a_bool in ["1", "\"true\"", "null"] {
            rejected(
                "\"silent\": true",
                &format!("\"silent\": {not_a_bool}"),
                "fault #0: \"silent\" is not a bool",
            );
        }
        // Anything but an unsigned integer literal is not a cycle count.
        for not_a_count in ["-5", "5.0", "5e0", "\"5\"", "null", "[5]"] {
            rejected(
                "\"cycles\": 5",
                &format!("\"cycles\": {not_a_count}"),
                "fault #2: missing numeric \"cycles\"",
            );
            rejected(
                "\"at\": 30",
                &format!("\"at\": {not_a_count}"),
                "fault #5: missing numeric \"at\"",
            );
        }
    }

    /// Truncated at any byte the golden is an error; with any one byte
    /// damaged it is an error or a different plan. Neither panics.
    #[test]
    fn a_truncated_or_flipped_plan_is_an_error_or_another_plan() {
        let plan = golden_plan();
        // Only the final newline may go missing unnoticed.
        for cut in 0..GOLDEN.len() - 1 {
            assert!(
                FaultPlan::from_json(&GOLDEN[..cut]).is_err(),
                "accepted {:?}",
                &GOLDEN[..cut]
            );
        }
        // The one honest alias: `silent` defaults to false, so damage to
        // that key where the value is false reads back as the same plan.
        let silent_false = GOLDEN.find("\"silent\": false").unwrap();
        let alias = silent_false + 1..silent_false + "\"silent".len();
        let mut bytes = GOLDEN.as_bytes().to_vec();
        for at in 0..bytes.len() - 1 {
            for mask in [0x01, 0x04, 0x10] {
                bytes[at] ^= mask;
                // Every reader takes `&str`: a flip that leaves no valid
                // UTF-8 never reaches the parser.
                if let Ok(Ok(other)) = std::str::from_utf8(&bytes).map(FaultPlan::from_json) {
                    assert!(
                        other != plan || alias.contains(&at),
                        "flip {mask:#x} at byte {at} went unnoticed"
                    );
                }
                bytes[at] ^= mask;
            }
        }
    }

    /// The reader is linear in the text: a megabyte string, whether in
    /// a key the plan does not know or in one it reads, costs
    /// milliseconds (a quadratic scan would take minutes).
    #[test]
    fn a_megabyte_string_is_read_in_well_under_a_second() {
        let long = "é\\n".repeat(1 << 18);
        assert!(long.len() >= 1 << 20);
        let started = std::time::Instant::now();
        let skipped = format!(r#"{{"note": "{long}", "seed": 1, "faults": []}}"#);
        assert_eq!(FaultPlan::from_json(&skipped), Ok(FaultPlan::new(1)));
        let read = format!(r#"{{"seed": 1, "faults": [{{"at": 0, "kind": "{long}"}}]}}"#);
        assert!(matches!(
            FaultPlan::from_json(&read),
            Err(PlanError::Json(e)) if e.starts_with("fault #0: unknown kind")
        ));
        let took = started.elapsed();
        assert!(took.as_secs() < 1, "took {took:?}");
    }

    #[test]
    fn plan_is_sorted_by_cycle() {
        let plan = sample();
        let ats: Vec<u64> = plan.faults.iter().map(|f| f.at).collect();
        let mut sorted = ats.clone();
        sorted.sort_unstable();
        assert_eq!(ats, sorted);
    }

    #[test]
    fn validate_rejects_pipeline_zero_fail() {
        let plan = FaultPlan::new(1).pipeline_fail(10, 0);
        assert_eq!(plan.validate(4, 8), Err(PlanError::PipelineZeroFail));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let plan = FaultPlan::new(1).pipeline_fail(10, 9);
        assert!(matches!(
            plan.validate(4, 8),
            Err(PlanError::PipelineOutOfRange { pipeline: 9, k: 4 })
        ));
        let plan = FaultPlan::new(1).stage_stall(10, 1, 20, 5);
        assert!(matches!(
            plan.validate(4, 8),
            Err(PlanError::StageOutOfRange { stage: 20, .. })
        ));
        let plan = FaultPlan::new(1).phantom_drop(10, 2000, 5);
        assert_eq!(plan.validate(4, 8), Err(PlanError::RateOutOfRange(2000)));
    }

    #[test]
    fn chaos_is_deterministic_and_valid() {
        for seed in 0..50u64 {
            let a = FaultPlan::chaos(seed, 4, 8, 200);
            let b = FaultPlan::chaos(seed, 4, 8, 200);
            assert_eq!(a, b, "seed {seed} not deterministic");
            a.validate(4, 8).unwrap();
            assert!(!a.is_empty());
            for f in &a.faults {
                if let FaultKind::PipelineFail { pipeline } = f.kind {
                    assert!((1..4).contains(&pipeline));
                }
                assert!(
                    !matches!(f.kind, FaultKind::PhantomDrop { silent: true, .. }),
                    "chaos plans never contain silent drops"
                );
            }
        }
    }

    #[test]
    fn windows_fire_and_expire() {
        let plan = FaultPlan::new(3)
            .stage_stall(10, 1, 2, 5)
            .remap_abort(12, 1);
        let mut inj = plan.injector();
        assert!(inj.begin_cycle(0).is_empty());
        assert!(!inj.stage_stalled(1, 2));
        let fired = inj.begin_cycle(10);
        assert_eq!(fired.len(), 1);
        assert!(inj.stage_stalled(1, 2));
        assert!(!inj.stage_stalled(1, 3));
        assert_eq!(inj.active_stalls(), &[(1, 2)]);
        inj.begin_cycle(14);
        assert!(inj.stage_stalled(1, 2), "still inside window");
        assert!(inj.take_remap_abort());
        assert!(!inj.take_remap_abort());
        inj.begin_cycle(15);
        assert!(!inj.stage_stalled(1, 2), "window expired");
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let plan = sample();
        let mut live = plan.injector();
        // Drive past several fire points so windows are mid-flight and
        // one abort is consumed.
        for c in 0..=21 {
            live.begin_cycle(c);
        }
        assert!(live.take_remap_abort());
        let state = live.snapshot_state();

        let mut restored = plan.injector();
        let mut past = state.clone();
        past.cursor = 99;
        assert!(plan.injector().restore_state(past, 4, 8).is_err());
        restored.restore_state(state.clone(), 4, 8).unwrap();
        assert_eq!(restored.snapshot_state(), state);
        // Mid-window queries answer identically before any begin_cycle.
        assert_eq!(restored.stage_stalled(1, 2), live.stage_stalled(1, 2));
        assert_eq!(restored.active_stalls(), live.active_stalls());
        // And the two injectors stay in lock-step to the horizon.
        for c in 22..60 {
            assert_eq!(live.begin_cycle(c), restored.begin_cycle(c), "cycle {c}");
            assert_eq!(live.active_stalls(), restored.active_stalls());
            assert_eq!(live.grant_delay(), restored.grant_delay());
            for key in 0..50u64 {
                assert_eq!(live.phantom_fate(key), restored.phantom_fate(key));
            }
            assert_eq!(live.take_remap_abort(), restored.take_remap_abort());
        }
        assert_eq!(live.snapshot_state(), restored.snapshot_state());
    }

    #[test]
    fn phantom_fate_matches_rate_roughly() {
        let plan = FaultPlan::new(9).phantom_drop(0, 500, 100);
        let mut inj = plan.injector();
        inj.begin_cycle(0);
        let mut dropped = 0;
        for key in 0..10_000u64 {
            if inj.phantom_fate(key) != PhantomFate::Keep {
                dropped += 1;
            }
        }
        // ~50% with wide tolerance: determinism matters, exactness not.
        assert!((3_500..6_500).contains(&dropped), "dropped {dropped}");
    }

    /// Compile-time check: the no-op injector must advertise itself as
    /// disabled so every `if F::ENABLED` hook folds away.
    const _: () = assert!(!NoFaults::ENABLED);

    #[test]
    fn no_faults_is_inert() {
        let mut nf = NoFaults;
        assert!(nf.begin_cycle(0).is_empty());
        assert!(!nf.stage_stalled(0, 0));
        assert_eq!(nf.phantom_fate(1), PhantomFate::Keep);
        assert!(!nf.fifo_overflow(0, 0));
        assert_eq!(nf.grant_delay(), 0);
        assert!(!nf.take_remap_abort());
    }

    #[test]
    fn classes_account_for_everything() {
        let plan = sample();
        let degraded = plan
            .faults
            .iter()
            .filter(|f| f.kind.class() == FaultClass::Degraded)
            .count();
        assert_eq!(degraded, 1); // just the pipeline kill
        let silent = FaultPlan::new(1).silent_phantom_drop(0, 100, 5);
        assert_eq!(silent.faults[0].kind.class(), FaultClass::Degraded);
    }
}
