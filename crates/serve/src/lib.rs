//! `mp5-serve` — live operation of an MP5 switch: crash-safe
//! checkpoints and zero-downtime program hot-swap.
//!
//! The simulation crates treat a run as a batch job: hand the switch a
//! trace, get a [`RunReport`] back. A deployed switch is a *process*:
//! it ingests packets indefinitely, survives crashes, and takes
//! program updates without dropping what is in flight. This crate adds
//! that operational layer on top of `mp5-core`'s cycle-accurate model:
//!
//! * [`Snapshot`] — a complete, versioned image of a running switch
//!   (program source, configuration, every register file, FIFO and
//!   phantom-lane occupancy, remap tables, crossbar cursors, cycle
//!   counters, the fault ledger, and the fault injector's replay
//!   cursor), serialized with a checksummed sectioned codec and
//!   written atomically (tmp + fsync + rename) so a crash mid-write
//!   can never corrupt the last good checkpoint.
//! * [`Server`] — a thin stateful wrapper over [`Mp5Switch`]'s
//!   streaming API (`offer`/`tick`/`drain_egress`) that knows how to
//!   checkpoint itself, restore from a snapshot into a *fresh* switch
//!   with bit-identical continued execution, and hot-swap a newly
//!   compiled program at a cycle boundary without draining.
//! * Ingest — [`Server::ingest_due`] pulls a packet feed (a
//!   [`packet_feed`] over newline JSON, or any iterator of
//!   [`FeedItem`]s) only as far as the switch's clock needs it, and
//!   [`Server::offer`] rejects, as a typed [`ServeError::Feed`], a
//!   packet the switch cannot take where it stands in the feed.
//!
//! The restore contract is exact: a run that is checkpointed at cycle
//! `C`, killed, and restored produces the same [`RunReport`] and the
//! same event-stream hash as the run that was never interrupted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::convert::Infallible;
use std::io::{BufRead, Write};
use std::path::Path;

use mp5_compiler::{compile, CompiledProgram, Target};
use mp5_core::{
    ConfigError, InvariantViolation, Mp5Switch, RestoreError, RunReport, SwapError, SwapReport,
    SwitchConfig, SwitchState,
};
use mp5_faults::{FaultInjector, FaultPlan, InjectorState, NoFaults, PlannedFaults};
use mp5_trace::TraceSink;
use mp5_types::{Packet, Time};
use serde::{Deserialize, Serialize};

/// Snapshot codec version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Magic tag on the first line of every snapshot file.
pub const SNAPSHOT_MAGIC: &str = "MP5SNAP";

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Everything that can go wrong while serving: IO, codec, compile,
/// restore, and swap failures, each with enough context to print a
/// one-line diagnosis and exit non-zero.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        err: std::io::Error,
    },
    /// The snapshot file is malformed.
    Format(String),
    /// The snapshot's checksum trailer does not match its contents.
    Checksum {
        /// Checksum recorded in the file.
        expected: String,
        /// Checksum recomputed from the file's contents.
        found: String,
    },
    /// The snapshot was written by an incompatible codec version.
    Version(u32),
    /// The embedded program source no longer compiles.
    Compile(String),
    /// The switch configuration (given, or read from a snapshot) is
    /// invalid.
    Config(ConfigError),
    /// The snapshot does not fit the switch it is being restored into.
    Restore(RestoreError),
    /// A hot-swap was rejected.
    Swap(SwapError),
    /// A fault plan is missing, malformed, or supplied where faults
    /// are disabled.
    Plan(String),
    /// A packet feed line is unreadable, not a packet, or not one the
    /// switch can take where it stands in the feed.
    Feed {
        /// 1-based line number, blank lines included.
        line: usize,
        /// What is wrong with it.
        why: String,
    },
    /// The switch ran to its cycle cap without draining
    /// ([`Server::check_liveness`]): it is stuck, and ticking on would
    /// hang the process.
    Liveness(InvariantViolation),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { path, err } => write!(f, "{path}: {err}"),
            ServeError::Format(why) => write!(f, "malformed snapshot: {why}"),
            ServeError::Checksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch: file says {expected}, contents hash to {found} \
                 (truncated or corrupted write?)"
            ),
            ServeError::Version(v) => write!(
                f,
                "snapshot codec version {v} is not supported (this build reads v{SNAPSHOT_VERSION})"
            ),
            ServeError::Compile(e) => write!(f, "embedded program does not compile: {e}"),
            ServeError::Config(e) => write!(f, "switch configuration invalid: {e}"),
            ServeError::Restore(e) => write!(f, "restore rejected: {e}"),
            ServeError::Swap(e) => write!(f, "hot-swap rejected: {e}"),
            ServeError::Plan(why) => write!(f, "fault plan: {why}"),
            ServeError::Feed { line, why } => write!(f, "packet feed line {line}: {why}"),
            ServeError::Liveness(v) => write!(f, "switch stuck: {v}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RestoreError> for ServeError {
    fn from(e: RestoreError) -> Self {
        ServeError::Restore(e)
    }
}

impl From<SwapError> for ServeError {
    fn from(e: SwapError) -> Self {
        ServeError::Swap(e)
    }
}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Config(e)
    }
}

/// Wraps an IO error with the path it happened on.
pub fn io_err(path: &Path, err: std::io::Error) -> ServeError {
    ServeError::Io {
        path: path.display().to_string(),
        err,
    }
}

// ---------------------------------------------------------------------
// Fault-injector checkpointing
// ---------------------------------------------------------------------

/// A fault injector the server knows how to checkpoint and rebuild.
///
/// Implemented for [`NoFaults`] (nothing to save) and
/// [`PlannedFaults`] (plan JSON + replay cursor). The server is
/// generic over this trait so the no-faults configuration keeps the
/// zero-cost `F::ENABLED = false` fast path.
pub trait FaultState: FaultInjector + Sized {
    /// Builds a fresh injector from an optional fault-plan JSON.
    fn fresh(plan_json: Option<&str>) -> Result<Self, ServeError>;
    /// Exports the replay cursor for a checkpoint (`None` if there is
    /// nothing to save).
    fn snap(&self) -> Option<InjectorState>;
    /// Rebuilds the injector a snapshot was taken with, for a
    /// `k`-pipeline, `stages`-stage switch.
    fn restore_from(
        plan_json: Option<&str>,
        snap: Option<InjectorState>,
        k: usize,
        stages: usize,
    ) -> Result<Self, ServeError>;
}

impl FaultState for NoFaults {
    fn fresh(plan_json: Option<&str>) -> Result<Self, ServeError> {
        match plan_json {
            None => Ok(NoFaults),
            Some(_) => Err(ServeError::Plan(
                "a fault plan was supplied but fault injection is disabled".into(),
            )),
        }
    }

    fn snap(&self) -> Option<InjectorState> {
        None
    }

    fn restore_from(
        plan_json: Option<&str>,
        _snap: Option<InjectorState>,
        _k: usize,
        _stages: usize,
    ) -> Result<Self, ServeError> {
        Self::fresh(plan_json)
    }
}

impl FaultState for PlannedFaults {
    fn fresh(plan_json: Option<&str>) -> Result<Self, ServeError> {
        let text = plan_json
            .ok_or_else(|| ServeError::Plan("fault injection requires a fault plan".into()))?;
        let plan = FaultPlan::from_json(text).map_err(|e| ServeError::Plan(e.to_string()))?;
        Ok(plan.injector())
    }

    fn snap(&self) -> Option<InjectorState> {
        Some(self.snapshot_state())
    }

    fn restore_from(
        plan_json: Option<&str>,
        snap: Option<InjectorState>,
        k: usize,
        stages: usize,
    ) -> Result<Self, ServeError> {
        let mut inj = Self::fresh(plan_json)?;
        if let Some(s) = snap {
            inj.restore_state(s, k, stages)
                .map_err(|e| ServeError::Plan(e.to_string()))?;
        }
        Ok(inj)
    }
}

// ---------------------------------------------------------------------
// Snapshot container + codec
// ---------------------------------------------------------------------

/// A complete, restartable image of a running switch.
///
/// Everything needed to rebuild the exact machine: the program
/// *source* (recompiled on restore — the compiler is deterministic),
/// the switch configuration, the full [`SwitchState`], and — for
/// fault-injected runs — the fault plan plus the injector's replay
/// cursor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Monotone checkpoint sequence number within one serve session.
    pub seq: u64,
    /// DSL source of the running program.
    pub source: String,
    /// The switch configuration the state was captured under.
    pub config: SwitchConfig,
    /// The machine state itself.
    pub state: SwitchState,
    /// Fault plan JSON, if the run injects faults.
    pub fault_plan: Option<String>,
    /// Fault-injector replay cursor, if the run injects faults.
    pub injector: Option<InjectorState>,
}

/// Appends one `@tag body` section line, serializing the body straight
/// into `out`. Snapshot sections are plain data (no maps with
/// non-string keys, no NaNs), so serialization itself cannot fail; only
/// IO can.
fn write_section<T: Serialize + ?Sized>(out: &mut Vec<u8>, tag: &str, body: &T) {
    out.extend_from_slice(tag.as_bytes());
    out.push(b' ');
    serde_json::to_writer(out, body).expect("snapshot sections are plain serializable data");
    out.push(b'\n');
}

/// Parses one section body into its slot; a section may appear once.
fn read_section<T: Deserialize>(
    slot: &mut Option<T>,
    tag: &str,
    body: &str,
) -> Result<(), ServeError> {
    if slot.is_some() {
        return Err(ServeError::Format(format!("duplicate section '{tag}'")));
    }
    let parsed = serde_json::from_str(body)
        .map_err(|e| ServeError::Format(format!("section {tag}: {e}")))?;
    *slot = Some(parsed);
    Ok(())
}

const CHECKSUM_TAG: &str = "@checksum ";

/// The trailer's value: exactly the 16 lowercase hex digits
/// `encode` writes.
fn parse_checksum(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    s.bytes().try_fold(0u64, |acc, b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | digit as u64)
    })
}

/// FNV-1a 64-bit over the snapshot body — stable across builds and
/// platforms (unlike the std hasher, which is only stable within one
/// process).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Snapshot {
    /// The cycle the snapshot was taken at.
    pub fn cycle(&self) -> u64 {
        self.state.cycle
    }

    /// Serializes to the sectioned snapshot text format:
    ///
    /// ```text
    /// MP5SNAP v1 seq=3 cycle=1200
    /// @source "..."
    /// @config {...}
    /// @state {...}
    /// @faults "..."          (only fault-injected runs)
    /// @injector {...}        (only fault-injected runs)
    /// @checksum 0123456789abcdef
    /// ```
    ///
    /// One JSON document per section line (the same one-line-per-record
    /// discipline as the trace JSONL codec), closed by an FNV-1a64
    /// checksum over every preceding byte.
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        writeln!(
            out,
            "{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION} seq={} cycle={}",
            self.seq,
            self.cycle()
        )
        .expect("writing to a Vec cannot fail");
        write_section(&mut out, "@source", &self.source);
        write_section(&mut out, "@config", &self.config);
        write_section(&mut out, "@state", &self.state);
        if let Some(plan) = &self.fault_plan {
            write_section(&mut out, "@faults", plan);
        }
        if let Some(inj) = &self.injector {
            write_section(&mut out, "@injector", inj);
        }
        let sum = fnv1a64(&out);
        writeln!(out, "{CHECKSUM_TAG}{sum:016x}").expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the header and the JSON writer emit UTF-8")
    }

    /// Parses and verifies a snapshot file's text. Rejects version
    /// skew, checksum mismatches (truncated or bit-rotted files), and
    /// any missing or malformed section.
    pub fn decode(text: &str) -> Result<Snapshot, ServeError> {
        // Checksum first: everything up to the `@checksum` line must
        // hash to the recorded trailer, otherwise nothing else in the
        // file can be trusted.
        let tail = text
            .rfind(CHECKSUM_TAG)
            .ok_or_else(|| ServeError::Format("missing @checksum trailer".into()))?;
        let recorded = text[tail + CHECKSUM_TAG.len()..].trim();
        let found = fnv1a64(&text.as_bytes()[..tail]);
        if parse_checksum(recorded) != Some(found) {
            return Err(ServeError::Checksum {
                expected: recorded.to_string(),
                found: format!("{found:016x}"),
            });
        }

        let mut lines = text[..tail].lines();
        let header = lines
            .next()
            .ok_or_else(|| ServeError::Format("empty snapshot".into()))?;
        let mut words = header.split_whitespace();
        if words.next() != Some(SNAPSHOT_MAGIC) {
            return Err(ServeError::Format(format!(
                "bad magic (expected '{SNAPSHOT_MAGIC}')"
            )));
        }
        let version: u32 = words
            .next()
            .and_then(|w| w.strip_prefix('v'))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ServeError::Format("unparseable version in header".into()))?;
        if version != SNAPSHOT_VERSION {
            return Err(ServeError::Version(version));
        }
        let seq: u64 = words
            .next()
            .and_then(|w| w.strip_prefix("seq="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ServeError::Format("unparseable seq in header".into()))?;

        let mut source: Option<String> = None;
        let mut config: Option<SwitchConfig> = None;
        let mut state: Option<SwitchState> = None;
        let mut fault_plan: Option<String> = None;
        let mut injector: Option<InjectorState> = None;
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let (tag, body) = line
                .split_once(' ')
                .ok_or_else(|| ServeError::Format(format!("section line without body: {line}")))?;
            match tag {
                "@source" => read_section(&mut source, tag, body)?,
                "@config" => read_section(&mut config, tag, body)?,
                "@state" => read_section(&mut state, tag, body)?,
                "@faults" => read_section(&mut fault_plan, tag, body)?,
                "@injector" => read_section(&mut injector, tag, body)?,
                other => {
                    return Err(ServeError::Format(format!("unknown section '{other}'")));
                }
            }
        }

        let snap = Snapshot {
            seq,
            source: source.ok_or_else(|| ServeError::Format("missing @source section".into()))?,
            config: config.ok_or_else(|| ServeError::Format("missing @config section".into()))?,
            state: state.ok_or_else(|| ServeError::Format("missing @state section".into()))?,
            fault_plan,
            injector,
        };
        if snap.fault_plan.is_some() != snap.injector.is_some() {
            return Err(ServeError::Format(
                "@faults and @injector must appear together".into(),
            ));
        }
        Ok(snap)
    }

    /// Writes the snapshot atomically: serialize to `<path>.tmp`,
    /// fsync the file, rename over `path`, fsync the directory. A
    /// crash at any point leaves either the previous snapshot or the
    /// new one — never a torn file — which is what makes overwriting
    /// one well-known path (`last.snap`) each checkpoint safe.
    pub fn write_atomic(&self, path: &Path) -> Result<(), ServeError> {
        let text = self.encode();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(text.as_bytes()).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                // Persist the rename itself; ignore filesystems that
                // refuse to fsync a directory handle.
                if let Ok(d) = std::fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
        }
        Ok(())
    }

    /// Reads and verifies a snapshot file.
    pub fn read(path: &Path) -> Result<Snapshot, ServeError> {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
        Self::decode(&text)
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// A long-running switch: [`Mp5Switch`] plus the bookkeeping needed to
/// checkpoint, restore, and hot-swap it.
pub struct Server<S: TraceSink, F: FaultState> {
    sw: Mp5Switch<S, F>,
    source: String,
    config: SwitchConfig,
    plan_json: Option<String>,
    seq: u64,
}

impl<S: TraceSink, F: FaultState> Server<S, F> {
    /// Compiles `source` and boots a fresh switch.
    pub fn new(
        source: &str,
        config: SwitchConfig,
        sink: S,
        plan_json: Option<String>,
    ) -> Result<Self, ServeError> {
        let prog = compile_source(source)?;
        let faults = F::fresh(plan_json.as_deref())?;
        let sw = Mp5Switch::try_with_faults(prog, config.clone(), sink, faults)?;
        Ok(Server {
            sw,
            source: source.to_string(),
            config,
            plan_json,
            seq: 0,
        })
    }

    /// Rebuilds a switch from a snapshot and resumes it, bit-identical
    /// to the run that was checkpointed.
    ///
    /// The two trailing parameters are vestigial (they used to pick a
    /// cycle engine and an exec path) and only `None` fits them; ROADMAP
    /// item 1(b) removes them together with their last callers.
    pub fn restore(
        snap: Snapshot,
        sink: S,
        _engine: Option<Infallible>,
        _exec: Option<Infallible>,
    ) -> Result<Self, ServeError> {
        let prog = compile_source(&snap.source)?;
        let (k, stages) = (snap.config.pipelines, prog.num_stages());
        let faults = F::restore_from(snap.fault_plan.as_deref(), snap.injector, k, stages)?;
        let sw = Mp5Switch::try_restore_with(prog, snap.config.clone(), snap.state, sink, faults)?;
        Ok(Server {
            sw,
            source: snap.source,
            config: snap.config,
            plan_json: snap.fault_plan,
            seq: snap.seq,
        })
    }

    /// Offers a batch of packets, sorting them into entry order first
    /// (the streaming API's contract). The batch is trusted to fit the
    /// program and the clock, and two packets that share an entry key
    /// panic ([`Mp5Switch::offer`]); [`Server::try_offer_all`] checks
    /// instead.
    pub fn offer_all(&mut self, mut packets: Vec<Packet>) {
        packets.sort_by_key(|p| p.entry_order_key());
        for p in packets {
            self.sw.offer(p);
        }
    }

    /// Offers a batch of packets, sorted into entry order first, each
    /// checked as [`Server::offer`] checks a feed line. An error names
    /// the packet by its 1-based place in the sorted batch; the packets
    /// before it are offered.
    pub fn try_offer_all(&mut self, mut packets: Vec<Packet>) -> Result<(), ServeError> {
        packets.sort_by_key(|p| p.entry_order_key());
        for (i, p) in packets.into_iter().enumerate() {
            self.offer(i + 1, p)?;
        }
        Ok(())
    }

    /// Offers feed line `line`'s packet, checked where it enters. The
    /// switch takes it only if it carries the program's field count and
    /// [`Mp5Switch::try_offer`] takes it: it follows the last packet
    /// offered in entry order (an equal key is rejected too: a port
    /// delivers at most one packet per byte-time, and the FIFOs order
    /// packets by that key alone, DESIGN.md §8, defect 7), and is not
    /// due before the cycle the switch has reached, where it would enter
    /// later than its arrival says.
    pub fn offer(&mut self, line: usize, pkt: Packet) -> Result<(), ServeError> {
        let reject = |why: String| ServeError::Feed { line, why };
        let nf = self.sw.program().num_fields();
        if pkt.fields.len() != nf {
            let why = format!(
                "the packet has {} fields, the program {nf}",
                pkt.fields.len()
            );
            return Err(reject(why));
        }
        self.sw.try_offer(pkt).map_err(|e| reject(e.to_string()))
    }

    /// The byte-time the cycle about to run ends at: the next
    /// [`Server::tick`] admits every offered packet due before it.
    pub fn horizon(&self) -> Time {
        self.sw.horizon()
    }

    /// Offers feed packets while the switch's clock needs them: until
    /// the last packet offered is due at or after [`Server::horizon`],
    /// or the feed ends. Beyond the cycle about to run, at most that
    /// one look-ahead packet is pulled, so ingest holds a window of the
    /// feed, never the whole of it.
    pub fn ingest_due<I>(&mut self, feed: &mut I) -> Result<(), ServeError>
    where
        I: Iterator<Item = FeedItem> + ?Sized,
    {
        let horizon = self.horizon();
        while self.sw.last_arrival().is_none_or(|p| p.arrival < horizon) {
            let Some(item) = feed.next() else {
                break;
            };
            let (line, pkt) = item?;
            self.offer(line, pkt)?;
        }
        Ok(())
    }

    /// Offers the rest of the feed. A checkpoint taken after it holds
    /// every future arrival, as the switch has no cursor into the feed.
    pub fn ingest_rest<I>(&mut self, feed: &mut I) -> Result<(), ServeError>
    where
        I: Iterator<Item = FeedItem> + ?Sized,
    {
        for item in feed {
            let (line, pkt) = item?;
            self.offer(line, pkt)?;
        }
        Ok(())
    }

    /// Advances one cycle.
    pub fn tick(&mut self) {
        self.sw.tick();
    }

    /// The run's liveness bound ([`Mp5Switch::check_liveness`]): a
    /// serving loop checks it between ticks, so a switch that cannot
    /// drain is a [`ServeError::Liveness`] instead of a hang.
    pub fn check_liveness(&self) -> Result<(), ServeError> {
        self.sw.check_liveness().map_err(ServeError::Liveness)
    }

    /// Packets that exited since the last drain.
    pub fn drain_egress(&mut self) -> Vec<(Packet, u64)> {
        self.sw.drain_egress()
    }

    /// Moves the packets that exited since the last drain onto the end
    /// of `out` ([`Mp5Switch::drain_egress_into`]): a serving loop that
    /// reuses `out` allocates nothing per drain.
    pub fn drain_egress_into(&mut self, out: &mut Vec<(Packet, u64)>) {
        self.sw.drain_egress_into(out)
    }

    /// True when nothing is buffered or in flight.
    pub fn is_idle(&self) -> bool {
        self.sw.is_idle()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.sw.cycle()
    }

    /// The live (in-progress) run report.
    pub fn live_report(&self) -> &RunReport {
        self.sw.live_report()
    }

    /// Captures a checkpoint of the running switch. Must be called at
    /// a cycle boundary (between [`Server::tick`]s), which is the only
    /// place the wrapper exposes — the machine state mid-cycle is not
    /// a meaningful snapshot.
    pub fn checkpoint(&mut self) -> Snapshot {
        self.seq += 1;
        let state = self.sw.extract_state(self.seq);
        Snapshot {
            seq: self.seq,
            source: self.source.clone(),
            config: self.config.clone(),
            state,
            fault_plan: self.plan_json.clone(),
            injector: self.sw.faults().snap(),
        }
    }

    /// Compiles `source` and swaps it into the running switch without
    /// draining. See [`Mp5Switch::hot_swap`] for the migration ledger
    /// and rejection rules.
    pub fn hot_swap(&mut self, source: &str) -> Result<SwapReport, ServeError> {
        let prog = compile_source(source)?;
        let report = self.sw.hot_swap(prog)?;
        self.source = source.to_string();
        Ok(report)
    }

    /// Finalizes the run: end-of-run aggregates, report, sink.
    pub fn finish(self) -> (RunReport, S) {
        self.sw.finish_stream()
    }

    /// Discards the run mid-flight (after a final [`Server::checkpoint`])
    /// and hands back the sink with the events recorded so far.
    pub fn abandon(self) -> S {
        self.sw.abandon()
    }

    /// The program source currently executing.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The switch configuration in effect.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }
}

/// Compiles DSL source for the default target, with the error mapped
/// into [`ServeError`].
pub fn compile_source(source: &str) -> Result<CompiledProgram, ServeError> {
    compile(source, &Target::default()).map_err(|e| ServeError::Compile(e.to_string()))
}

/// One packet of an ingest feed with its 1-based line number, or why
/// that line is not one.
pub type FeedItem = Result<(usize, Packet), ServeError>;

/// Parses one newline-JSON packet feed line (the `mp5serve --stdin`
/// ingest format: each line a serialized [`Packet`]).
pub fn parse_packet_line(line: &str, lineno: usize) -> Result<Packet, ServeError> {
    serde_json::from_str(line).map_err(|e| ServeError::Feed {
        line: lineno,
        why: e.to_string(),
    })
}

/// Reads a newline-JSON packet feed one line at a time, numbering lines
/// as an editor does and skipping blank ones. Ends at the first end of
/// input.
pub fn packet_feed<R: BufRead>(mut reader: R) -> impl Iterator<Item = FeedItem> {
    let mut text = String::new();
    let mut line = 0;
    std::iter::from_fn(move || loop {
        text.clear();
        line += 1;
        match reader.read_line(&mut text) {
            Ok(0) => return None,
            Ok(_) if text.trim().is_empty() => continue,
            Ok(_) => return Some(parse_packet_line(text.trim(), line).map(|p| (line, p))),
            Err(e) => {
                return Some(Err(ServeError::Feed {
                    line,
                    why: e.to_string(),
                }))
            }
        }
    })
    .fuse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp5_core::SwitchConfig;
    use mp5_trace::{stream_hash, MemSink, NopSink};

    const COUNTER: &str = "struct Packet { int h; int out; };
        int counters[64] = {0};
        void func(struct Packet p) {
            counters[p.h % 64] = counters[p.h % 64] + 1;
            p.out = counters[p.h % 64];
        }";

    fn trace(n: usize, seed: u64) -> Vec<Packet> {
        let prog = compile_source(COUNTER).unwrap();
        mp5_traffic::TraceBuilder::new(n, seed).build(prog.num_fields(), |rng, _, f| {
            use rand::Rng;
            f[0] = rng.gen_range(0..1_000);
        })
    }

    fn checkpoint_at(cycles: u64, n: usize, seed: u64) -> Snapshot {
        let mut srv: Server<NopSink, NoFaults> =
            Server::new(COUNTER, SwitchConfig::mp5(4), NopSink, None).unwrap();
        srv.offer_all(trace(n, seed));
        for _ in 0..cycles {
            srv.tick();
            srv.drain_egress();
        }
        srv.checkpoint()
    }

    #[test]
    fn codec_round_trips() {
        let snap = checkpoint_at(25, 400, 11);
        let text = snap.encode();
        let back = Snapshot::decode(&text).unwrap();
        assert_eq!(snap, back);
        assert!(text.starts_with("MP5SNAP v1 seq=1 cycle=25\n"));
    }

    #[test]
    fn decode_rejects_corruption() {
        let snap = checkpoint_at(10, 200, 3);
        let text = snap.encode();

        // Flip one byte inside the @state section.
        let pos = text.find("@state").unwrap() + 20;
        let mut bytes = text.clone().into_bytes();
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        let corrupted = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            Snapshot::decode(&corrupted),
            Err(ServeError::Checksum { .. })
        ));

        // Truncation loses the trailer.
        assert!(matches!(
            Snapshot::decode(&text[..text.len() / 2]),
            Err(ServeError::Format(_)) | Err(ServeError::Checksum { .. })
        ));

        // Version skew is a typed error.
        let skewed = text.replace("MP5SNAP v1 ", "MP5SNAP v9 ");
        let body_end = skewed.rfind("@checksum ").unwrap();
        let refreshed = format!(
            "{}@checksum {:016x}\n",
            &skewed[..body_end],
            fnv1a64(&skewed.as_bytes()[..body_end])
        );
        assert!(matches!(
            Snapshot::decode(&refreshed),
            Err(ServeError::Version(9))
        ));
    }

    #[test]
    fn decode_rejects_a_repeated_section_and_a_respelled_trailer() {
        let snap = checkpoint_at(10, 200, 3);
        let text = snap.encode();
        let body_end = text.rfind(CHECKSUM_TAG).unwrap();

        // A second @config line under a valid checksum: which of the
        // two the writer meant is unknowable.
        let config_line = text.lines().find(|l| l.starts_with("@config ")).unwrap();
        let doubled = format!("{}{config_line}\n", &text[..body_end]);
        let doubled = format!(
            "{doubled}{CHECKSUM_TAG}{:016x}\n",
            fnv1a64(doubled.as_bytes())
        );
        match Snapshot::decode(&doubled) {
            Err(ServeError::Format(why)) => assert!(why.contains("duplicate section '@config'")),
            other => panic!("expected a duplicate-section error, got {other:?}"),
        }

        // The trailer is 16 lowercase hex digits and nothing else.
        let sum = &text[body_end + CHECKSUM_TAG.len()..].trim_end();
        for respelled in [
            sum.to_uppercase(),
            format!("+{}", &sum[1..]),
            sum[1..].into(),
        ] {
            if respelled == *sum {
                continue; // a checksum without letters has no upper case
            }
            let bad = format!("{}{CHECKSUM_TAG}{respelled}\n", &text[..body_end]);
            assert!(
                matches!(Snapshot::decode(&bad), Err(ServeError::Checksum { .. })),
                "{respelled}"
            );
        }
    }

    #[test]
    fn atomic_write_then_read_and_no_tmp_left_behind() {
        let snap = checkpoint_at(15, 300, 7);
        let dir = std::env::temp_dir().join("mp5serve-test-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("last.snap");
        snap.write_atomic(&path).unwrap();
        snap.write_atomic(&path).unwrap(); // overwrite is also safe
        let back = Snapshot::read(&path).unwrap();
        assert_eq!(snap, back);
        assert!(!dir.join("last.snap.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_through_file_continues_bit_identically() {
        let n = 600;
        let seed = 42;
        let prog = compile_source(COUNTER).unwrap();
        let cfg = SwitchConfig::mp5(4);
        let (oracle, oracle_sink) =
            Mp5Switch::with_sink(prog, cfg.clone(), MemSink::new()).run_traced(trace(n, seed));

        // Serve, checkpoint at cycle 30, "crash", restore from disk.
        let mut srv: Server<MemSink, NoFaults> =
            Server::new(COUNTER, cfg, MemSink::new(), None).unwrap();
        srv.offer_all(trace(n, seed));
        for _ in 0..30 {
            srv.tick();
            srv.drain_egress();
        }
        let snap = srv.checkpoint();
        let dir = std::env::temp_dir().join("mp5serve-test-restore");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.snap");
        snap.write_atomic(&path).unwrap();
        let events_before = srv.abandon().into_events();

        let mut srv: Server<MemSink, NoFaults> =
            Server::restore(Snapshot::read(&path).unwrap(), MemSink::new(), None, None).unwrap();
        while !srv.is_idle() {
            srv.tick();
            srv.drain_egress();
        }
        let (report, sink) = srv.finish();
        let mut events = events_before;
        events.extend(sink.into_events());

        assert_eq!(report, oracle);
        assert_eq!(
            stream_hash(&events),
            stream_hash(&oracle_sink.into_events())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulted_run_checkpoints_injector_cursor() {
        let n = 500;
        let seed = 9;
        let prog = compile_source(COUNTER).unwrap();
        let plan = FaultPlan::chaos(5, 4, prog.num_stages(), 200);
        let plan_json = plan.to_json();
        let cfg = SwitchConfig::mp5(4);
        let oracle =
            Mp5Switch::with_faults(prog, cfg.clone(), NopSink, plan.injector()).run(trace(n, seed));

        let mut srv: Server<NopSink, PlannedFaults> =
            Server::new(COUNTER, cfg, NopSink, Some(plan_json)).unwrap();
        srv.offer_all(trace(n, seed));
        for _ in 0..70 {
            srv.tick();
            srv.drain_egress();
        }
        let snap = srv.checkpoint();
        assert!(snap.fault_plan.is_some() && snap.injector.is_some());
        let snap = Snapshot::decode(&snap.encode()).unwrap();

        let mut srv: Server<NopSink, PlannedFaults> =
            Server::restore(snap, NopSink, None, None).unwrap();
        while !srv.is_idle() {
            srv.tick();
            srv.drain_egress();
        }
        let (report, _) = srv.finish();
        assert_eq!(report, oracle);
        assert!(report.fault.injected > 0, "chaos plan should have fired");
    }

    #[test]
    fn hot_swap_preserves_state_and_closes_ledger() {
        let n = 500;
        let seed = 21;
        let cfg = SwitchConfig::mp5(4);
        let oracle = {
            let prog = compile_source(COUNTER).unwrap();
            Mp5Switch::new(prog, cfg.clone()).run(trace(n, seed))
        };

        let mut srv: Server<NopSink, NoFaults> = Server::new(COUNTER, cfg, NopSink, None).unwrap();
        srv.offer_all(trace(n, seed));
        for _ in 0..20 {
            srv.tick();
            srv.drain_egress();
        }
        // Swap in a recompile of the same source: state carries over,
        // the ledger closes, and the run finishes as if never swapped.
        let rep = srv.hot_swap(COUNTER).unwrap();
        assert!(rep.closed(), "swap ledger must close: {rep:?}");
        while !srv.is_idle() {
            srv.tick();
            srv.drain_egress();
        }
        let (report, _) = srv.finish();
        assert_eq!(report, oracle);
    }

    #[test]
    fn packet_feed_lines_round_trip() {
        let pkts = trace(3, 1);
        for (i, p) in pkts.iter().enumerate() {
            let line = serde_json::to_string(p).unwrap();
            let back = parse_packet_line(&line, i + 1).unwrap();
            assert_eq!(*p, back);
        }
        assert!(matches!(
            parse_packet_line("{not json", 7),
            Err(ServeError::Feed { line: 7, .. })
        ));
    }

    #[test]
    fn ingest_pulls_each_packet_only_when_its_cycle_needs_it() {
        let packets = trace(600, 5);
        assert!(packets.is_sorted_by_key(|p| p.entry_order_key()));
        let fresh = || -> Server<NopSink, NoFaults> {
            Server::new(COUNTER, SwitchConfig::mp5(4), NopSink, None).unwrap()
        };
        let mut whole = fresh();
        whole.offer_all(packets.clone());
        while !whole.is_idle() {
            whole.tick();
            whole.drain_egress();
        }

        let pulled = std::cell::Cell::new(0);
        let mut feed = packets.iter().enumerate().map(|(i, p)| {
            pulled.set(pulled.get() + 1);
            Ok((i + 1, p.clone()))
        });
        let mut srv = fresh();
        loop {
            srv.ingest_due(&mut feed).unwrap();
            // Every packet due before the horizon is in, and at most one
            // packet past it.
            let due = packets.partition_point(|p| p.arrival < srv.horizon());
            assert!(
                (due..=due + 1).contains(&pulled.get()),
                "cycle {}: {} pulled, {due} due",
                srv.cycle(),
                pulled.get()
            );
            if srv.is_idle() {
                break;
            }
            srv.tick();
            srv.drain_egress();
        }
        assert_eq!(pulled.get(), packets.len());
        assert_eq!(srv.finish().0, whole.finish().0);
    }

    #[test]
    fn offer_rejects_what_the_switch_cannot_take_where_it_stands() {
        let mut srv: Server<NopSink, NoFaults> =
            Server::new(COUNTER, SwitchConfig::mp5(4), NopSink, None).unwrap();
        let pkts = trace(3, 1);
        let why = |line: usize, r: Result<(), ServeError>| match r {
            Err(ServeError::Feed { line: at, why }) if at == line => why,
            other => panic!("line {line}: expected a feed error, got {other:?}"),
        };
        let mut short = pkts[0].clone();
        short.fields.pop();
        assert!(why(1, srv.offer(1, short)).contains("fields"));

        srv.offer(2, pkts[1].clone()).unwrap();
        let order = why(3, srv.offer(3, pkts[0].clone()));
        assert!(order.contains("out of entry order"), "{order}");

        // Once the switch has passed a packet's arrival, it is late.
        for _ in 0..10 {
            srv.tick();
        }
        let late = why(4, srv.offer(4, pkts[2].clone()));
        assert!(late.contains("before cycle 10"), "{late}");
    }
}
