//! Allocations per packet in a steady cycle (ROADMAP item 15).
//!
//! A binary of its own: its counting `#[global_allocator]` sees no other
//! suite. Each thread counts its own `alloc` and `realloc` calls, so the
//! tests may run in parallel. Every shape runs the ten bundled apps on
//! their §4.4 traffic (`app_trace`), k = 8, untraced, with per-packet
//! detail off, as `mp5serve` serves them:
//!
//! - a whole-trace `try_run`, measured at the margin between `N` and
//!   `2N` packets, so fixed costs (the report, the final registers)
//!   cancel;
//! - streaming: `offer` as packets fall due, `tick`, `drain_egress_into`
//!   one reused buffer, counted after a warm-up;
//! - `mp5serve`'s loop over `Server` on packets already parsed;
//! - `mp5serve --stdin`'s loop: `Server::ingest_due` pulling newline
//!   JSON through `packet_feed`, where reading a line allocates its
//!   packet's fields, once, and nothing else;
//! - `mp5audit`'s reader: `read_jsonl` over a recorded trace, which
//!   allocates nothing per line beyond the vector it returns.
//!
//! After warm-up a cycle allocates nothing for the `mp5` design. The
//! ideal design's per-index queues open and drop a sub-queue per index
//! and rebuild their scheduling view on every service; its bound is
//! pinned at today's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mp5::apps::{AppSpec, ALL_APPS};
use mp5::core::{Mp5Switch, SwitchConfig};
use mp5::faults::NoFaults;
use mp5::serve::{packet_feed, Server};
use mp5::sim::experiments::app_trace;
use mp5::trace::{read_jsonl, Event, NopSink};
use mp5::types::Packet;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; nothing is measured
    // there.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's allocations so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const K: usize = 8;
const SEED: u64 = 3;

fn serving(ideal: bool) -> SwitchConfig {
    let cfg = if ideal {
        SwitchConfig::ideal(K)
    } else {
        SwitchConfig::mp5(K)
    };
    cfg.with_record_detail(false)
}

/// Allocations of a whole-trace `try_run` of `n` packets.
fn whole(app: &AppSpec, cfg: &SwitchConfig, n: usize) -> u64 {
    let (prog, trace) = app_trace(app, n, SEED);
    let sw = Mp5Switch::try_new(prog, cfg.clone()).expect("a valid config");
    let before = allocs();
    let report = sw.try_run(trace).expect("the app runs");
    let spent = allocs() - before;
    assert_eq!(report.completed, n as u64, "{}", app.name);
    spent
}

/// Allocations at the margin between `N` and `2N` packets, over the `N`
/// packets between them.
fn whole_margin(app: &AppSpec, cfg: &SwitchConfig) -> (u64, u64) {
    let (a, b) = (whole(app, cfg, N), whole(app, cfg, 2 * N));
    (b.saturating_sub(a), N as u64)
}

/// What the streaming shapes drive: the switch itself, or `Server`.
trait Dut {
    fn horizon(&self) -> u64;
    fn offer(&mut self, p: Packet);
    fn tick(&mut self);
    fn drain_into(&mut self, out: &mut Vec<(Packet, u64)>);
    fn idle(&self) -> bool;
}

impl Dut for Mp5Switch {
    fn horizon(&self) -> u64 {
        Mp5Switch::horizon(self)
    }
    fn offer(&mut self, p: Packet) {
        self.try_offer(p).expect("the trace is in entry order");
    }
    fn tick(&mut self) {
        Mp5Switch::tick(self)
    }
    fn drain_into(&mut self, out: &mut Vec<(Packet, u64)>) {
        self.drain_egress_into(out)
    }
    fn idle(&self) -> bool {
        self.is_idle()
    }
}

/// `mp5serve`'s loop: each packet offered as a numbered feed line
/// through `Server::offer`, the liveness check before each tick.
struct Serving(Server<NopSink, NoFaults>, usize);

impl Dut for Serving {
    fn horizon(&self) -> u64 {
        self.0.horizon()
    }
    fn offer(&mut self, p: Packet) {
        self.1 += 1;
        self.0.offer(self.1, p).expect("the feed is well formed");
    }
    fn tick(&mut self) {
        self.0.check_liveness().expect("the switch drains");
        self.0.tick()
    }
    fn drain_into(&mut self, out: &mut Vec<(Packet, u64)>) {
        self.0.drain_egress_into(out)
    }
    fn idle(&self) -> bool {
        self.0.is_idle()
    }
}

/// Drives `dut` over a `2N`-packet trace, offering each packet in the
/// cycle it falls due and draining into one reused buffer, and returns
/// the allocations made after the first `N` packets have left and the
/// packets that left after them.
fn stream(mut dut: impl Dut, trace: Vec<Packet>) -> (u64, u64) {
    let mut feed = trace.into_iter().peekable();
    let mut out = Vec::new();
    let (mut egressed, mut warm) = (0u64, None);
    loop {
        let horizon = dut.horizon();
        while let Some(p) = feed.next_if(|p| p.arrival < horizon) {
            dut.offer(p);
        }
        if feed.peek().is_none() && dut.idle() {
            break;
        }
        dut.tick();
        dut.drain_into(&mut out);
        egressed += out.len() as u64;
        out.clear();
        if warm.is_none() && egressed >= N as u64 {
            warm = Some((allocs(), egressed));
        }
    }
    let (a, e) = warm.expect("the run warms up");
    (allocs() - a, egressed - e)
}

fn streamed(app: &AppSpec, cfg: &SwitchConfig) -> (u64, u64) {
    let (prog, trace) = app_trace(app, 2 * N, SEED);
    stream(
        Mp5Switch::try_new(prog, cfg.clone()).expect("a valid config"),
        trace,
    )
}

fn served(app: &AppSpec, cfg: &SwitchConfig) -> (u64, u64) {
    let (_, trace) = app_trace(app, 2 * N, SEED);
    let srv = Server::new(app.source, cfg.clone(), NopSink, None).expect("the app serves");
    stream(Serving(srv, 0), trace)
}

/// `mp5serve --stdin`'s loop over the trace's feed lines, pulled
/// through `packet_feed` by `Server::ingest_due`: the allocations made
/// reading lines, and the lines read. The feed is one buffer, so no
/// line runs past a buffer's end into the carry buffer.
fn fed(app: &AppSpec, cfg: &SwitchConfig) -> (u64, u64) {
    let (_, trace) = app_trace(app, N, SEED);
    let mut text = String::new();
    for p in &trace {
        text += &serde_json::to_string(p).expect("packets serialize");
        text.push('\n');
    }
    let mut srv: Server<NopSink, NoFaults> =
        Server::new(app.source, cfg.clone(), NopSink, None).expect("the app serves");
    let (spent, read) = (Cell::new(0), Cell::new(0));
    let mut lines = packet_feed(text.as_bytes());
    let mut feed = std::iter::from_fn(|| {
        let before = allocs();
        let item = lines.next();
        spent.set(spent.get() + allocs() - before);
        read.set(read.get() + u64::from(item.is_some()));
        item
    });
    let mut out = Vec::new();
    loop {
        srv.ingest_due(&mut feed).expect("the feed is well formed");
        if srv.is_idle() {
            break;
        }
        srv.check_liveness().expect("the switch drains");
        srv.tick();
        srv.drain_egress_into(&mut out);
        out.clear();
    }
    assert_eq!(srv.live_report().completed, N as u64, "{}", app.name);
    (spent.get(), read.get())
}

/// Packets in the warm-up, and in the stretch measured after it.
const N: usize = 500;

/// Asserts that every app makes no allocation in `shape` once warm.
fn none_once_warm(shape: &str, run: fn(&AppSpec, &SwitchConfig) -> (u64, u64)) {
    let cfg = serving(false);
    for app in &ALL_APPS {
        let (allocs, packets) = run(app, &cfg);
        assert!(packets > 0, "{}: nothing measured", app.name);
        assert_eq!(
            allocs, 0,
            "{} ({shape}): {allocs} allocations over {packets} packets once warm",
            app.name
        );
    }
}

#[test]
fn a_whole_trace_run_allocates_nothing_per_packet() {
    none_once_warm("whole-trace try_run", whole_margin);
}

#[test]
fn a_streamed_switch_allocates_nothing_per_packet_once_warm() {
    none_once_warm("offer, tick, drain_egress_into", streamed);
}

#[test]
fn the_serving_loop_allocates_nothing_per_packet_once_warm() {
    none_once_warm("Server loop", served);
}

/// A feed line costs its packet's `fields` vector, allocated once at
/// its final size, and nothing more: no line buffer, no growth.
#[test]
fn the_stdin_feed_allocates_one_vector_per_line() {
    let cfg = serving(false);
    for app in &ALL_APPS {
        let (allocs, lines) = fed(app, &cfg);
        assert_eq!(lines, N as u64, "{}: lines read", app.name);
        assert_eq!(
            allocs, lines,
            "{}: {allocs} allocations over {lines} feed lines",
            app.name
        );
    }
}

/// Allocations of `read_jsonl` over `reader`, and the events it read.
fn read_trace(reader: impl std::io::BufRead) -> (u64, Vec<Event>) {
    let before = allocs();
    let events = read_jsonl(reader).expect("the golden trace reads");
    (allocs() - before, events)
}

/// Allocations of a vector grown one push at a time to `n` items.
fn growth<T: Copy>(item: T, n: usize) -> u64 {
    let before = allocs();
    let mut grown = Vec::new();
    for _ in 0..n {
        grown.push(item);
    }
    let spent = allocs() - before;
    assert_eq!(grown.len(), n);
    spent
}

/// Reading a trace allocates nothing per line: the golden trace read
/// from a slice costs only the growth of the event vector returned.
/// Through a 64-byte buffer, where most lines run past a buffer's end
/// and are gathered into the carry buffer, the carry buffer's growth to
/// the longest line may come on top. Its 20-digit lines go to the
/// general reader, which allocates nothing either.
#[test]
fn reading_a_trace_allocates_nothing_per_line() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/events.jsonl");
    let text = std::fs::read(path).expect("the golden trace");
    let longest = text.split(|&b| b == b'\n').map(<[u8]>::len).max();
    let carry = growth(b'x', longest.expect("a line") + 1);

    let (spent, events) = read_trace(text.as_slice());
    let output = growth(events[0], events.len());
    assert!(events.len() > 4000, "{} events", events.len());
    assert!(
        spent <= output,
        "{spent} allocations, the vector's {output}"
    );

    let reader = std::io::BufReader::with_capacity(64, text.as_slice());
    let (buffered, again) = read_trace(reader);
    assert_eq!(again, events);
    assert!(
        buffered <= output + carry,
        "{buffered} allocations through 64 bytes, the vector's {output} and the carry's {carry}"
    );
}

/// The ideal design's allocations per packet, pinned at their count
/// before ROADMAP item 17 (whole-trace margin, in app order): its
/// per-index queues open a sub-queue on an index's first entry, drop it
/// when it empties, and build a map and a list of sub-queue heads on
/// every service.
const IDEAL_PER_PACKET: [f64; 10] = [30.0, 44.0, 15.0, 12.0, 44.0, 15.0, 29.0, 15.0, 43.0, 1.0];

#[test]
fn the_ideal_design_allocates_within_its_pinned_bound() {
    let cfg = serving(true);
    for (app, bound) in ALL_APPS.iter().zip(IDEAL_PER_PACKET) {
        let (allocs, packets) = whole_margin(app, &cfg);
        let per = allocs as f64 / packets as f64;
        assert!(
            per <= bound,
            "{}: {per:.2} allocations per packet, pinned at {bound}",
            app.name
        );
    }
}
