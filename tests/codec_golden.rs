//! The on-disk formats that are contracts, pinned by golden files.
//!
//! `tests/golden/` was written by [`regenerate_goldens`] running on the
//! commit *before* the vendored serde was made tree-free (PR 11,
//! `e06d1ca`), so every file here is what the old `Value`-tree codec
//! produced. Each must still decode, and re-encode to the same bytes.

use std::path::PathBuf;

use mp5::core::state::{Flight, QueueSnap};
use mp5::core::{Mp5Switch, SwitchConfig, SwitchState};
use mp5::fabric::{Entry, FifoParts, OrderKey, PhantomKey};
use mp5::faults::{FaultPlan, NoFaults, PlannedFaults};
use mp5::serve::{parse_packet_line, FaultState, ServeError, Server, Snapshot};
use mp5::sim::experiments::app_trace;
use mp5::topo::{Fabric, FabricConfig, TopologyConfig};
use mp5::trace::{
    read_jsonl, stream_hash, DropCause, Event, EventKind, JsonlSink, MemSink, NopSink, TraceSink,
    NO_LOC,
};
use mp5::traffic::{DcPattern, DcWorkload, TraceBuilder};
use mp5::types::{Packet, PacketId, PipelineId, RegId};

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn read_golden(name: &str) -> String {
    let path = golden(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// Generation (run once, on the parent commit)
// ---------------------------------------------------------------------

/// The program every golden here ran (no trailing newline: the bytes
/// are the snapshots' `@source`). `mp5serve tests/golden/feed.dsl
/// --stdin < tests/golden/feed.jsonl` serves the feed under it.
const PROGRAM: &str = include_str!("golden/feed.dsl");

fn packets(n: usize, seed: u64) -> Vec<Packet> {
    let prog = mp5::serve::compile_source(PROGRAM).unwrap();
    TraceBuilder::new(n, seed).build(prog.num_fields(), |rng, i, f| {
        use rand::Rng;
        f[0] = rng.gen_range(0..200);
        // Negative values and the integer extremes travel through
        // packet fields and register files alike.
        f[1] = match i % 7 {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.gen_range(-1_000_000..1_000_000),
        };
    })
}

fn snapshot<F: FaultState>(plan_json: Option<String>, cycles: u64) -> Snapshot {
    let cfg = SwitchConfig::mp5(4);
    let mut srv: Server<NopSink, F> = Server::new(PROGRAM, cfg, NopSink, plan_json).unwrap();
    srv.offer_all(packets(160, 5));
    for _ in 0..cycles {
        srv.tick();
        srv.drain_egress();
    }
    srv.checkpoint()
}

fn fabric_report_json() -> String {
    let app = mp5::apps::by_name("heavy_hitter").expect("app exists");
    let prog = app.compile().expect("app compiles");
    let topo = TopologyConfig::leaf_spine(2, 2, 2)
        .validate()
        .expect("valid topology");
    let hosts = topo.num_hosts();
    let mut cfg = FabricConfig::new(SwitchConfig::mp5(4).with_hardware_fifos());
    cfg.seed = 3;
    let workload = DcWorkload::new(hosts, 300, 3)
        .load(0.7)
        .max_pkts_per_flow(4)
        .pattern(DcPattern::Uniform);
    let fabric = Fabric::new(topo, cfg, prog.clone()).expect("valid fabric");
    let fill = app.fill;
    fabric
        .run(workload.stream(), |key, rng, fields| {
            fill(&prog, key, rng, fields)
        })
        .report
        .to_json()
}

/// Writes `tests/golden/`. Not part of any test run: the goldens are
/// the parent commit's bytes, and regenerating them with a later codec
/// would pin that codec against itself.
#[test]
#[ignore = "writes tests/golden/; run on the commit whose bytes are to be pinned"]
fn regenerate_goldens() {
    std::fs::create_dir_all(golden("")).unwrap();
    let prog = mp5::serve::compile_source(PROGRAM).unwrap();
    let plan = FaultPlan::chaos(11, 4, prog.num_stages(), 60);
    let faulted = snapshot::<PlannedFaults>(Some(plan.to_json()), 45);
    assert!(faulted.fault_plan.is_some() && faulted.injector.is_some());
    std::fs::write(golden("faulted.snap"), faulted.encode()).unwrap();
    std::fs::write(
        golden("plain.snap"),
        snapshot::<NoFaults>(None, 30).encode(),
    )
    .unwrap();
    let feed: String = packets(20, 9)
        .iter()
        .map(|p| serde_json::to_string(p).unwrap() + "\n")
        .collect();
    std::fs::write(golden("feed.jsonl"), feed).unwrap();
    std::fs::write(golden("fabric_report.json"), fabric_report_json()).unwrap();
}

// ---------------------------------------------------------------------
// Byte identity
// ---------------------------------------------------------------------

const SNAPSHOTS: [&str; 2] = ["faulted.snap", "plain.snap"];

/// Written by `mp5serve --app flowlet --packets 800 --engine par:2
/// --exec scalar --halt-at 120 --snapshot` before the parallel engine
/// and the scalar exec path were deleted.
const PAR_SCALAR: &str = "par_scalar.snap";

/// A snapshot's text before its checksum trailer.
fn body_of(text: &str) -> &str {
    &text[..text
        .rfind("@checksum ")
        .expect("a snapshot ends in a checksum")]
}

/// A snapshot's header line, and everything after it.
fn after_header(text: &str) -> (&str, &str) {
    text.split_once('\n').expect("a snapshot has a header line")
}

/// `body` without the text from `from` up to (not including) `to`.
fn cut(body: &str, from: &str, to: &str) -> String {
    let start = body.find(from).unwrap_or_else(|| panic!("no {from}"));
    let end = start + body[start..].find(to).unwrap_or_else(|| panic!("no {to}"));
    format!("{}{}", &body[..start], &body[end..])
}

#[test]
fn snapshots_decode_and_reencode_to_the_same_bytes() {
    for name in SNAPSHOTS.into_iter().chain([PAR_SCALAR]) {
        let text = read_golden(name);
        let snap = Snapshot::decode(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        // This build writes neither `@config` key of the retired cycle
        // engine and exec path, nor the three derived occupancy masks
        // of `@state`, so the body matches without them.
        let body = cut(body_of(&text), ",\"engine\":", ",\"record_detail\":");
        let body = cut(&body, ",\"park_mask\":", ",\"dead\":");
        let encoded = snap.encode();
        // The goldens are `v1`; this build writes `v2`, whose sections
        // are `v1`'s byte for byte under a new header version.
        let (header, sections) = after_header(&body);
        assert!(header.starts_with("MP5SNAP v1 seq="), "{name}: {header}");
        let (header, encoded_sections) = after_header(body_of(&encoded));
        let cycle = snap.cycle();
        assert_eq!(
            header,
            format!("MP5SNAP v2 seq={} cycle={cycle}", snap.seq),
            "{name}"
        );
        assert_eq!(encoded_sections, sections, "{name}");
        assert_eq!(Snapshot::decode(&encoded).unwrap(), snap, "{name}");
        let faulted = name == "faulted.snap";
        assert_eq!(snap.fault_plan.is_some(), faulted, "{name}");
        assert_eq!(snap.injector.is_some(), faulted, "{name}");
    }
}

/// A snapshot the parent commit wrote is not only readable: the switch
/// restored from it finishes the run exactly as if never interrupted.
#[test]
fn snapshots_restore_and_finish_like_the_uninterrupted_run() {
    fn finish<F: FaultState>(mut srv: Server<NopSink, F>) -> mp5::core::RunReport {
        while !srv.is_idle() {
            srv.tick();
            srv.drain_egress();
        }
        srv.finish().0
    }
    fn check<F: FaultState>(name: &str) {
        let snap = Snapshot::decode(&read_golden(name)).unwrap();
        let mut fresh: Server<NopSink, F> = Server::new(
            &snap.source,
            snap.config.clone(),
            NopSink,
            snap.fault_plan.clone(),
        )
        .unwrap();
        fresh.offer_all(packets(160, 5));
        let restored: Server<NopSink, F> = Server::restore(snap, NopSink, None, None).unwrap();
        assert_eq!(finish(restored), finish(fresh), "{name}");
    }
    check::<PlannedFaults>("faulted.snap");
    check::<NoFaults>("plain.snap");
}

/// A snapshot of the retired parallel engine on the retired scalar exec
/// path still loads (the decoder skips the two `@config` keys), holds
/// the state this build reaches at the same cycle, and finishes with the
/// report and event stream of a run that was never interrupted.
#[test]
fn a_parallel_scalar_snapshot_finishes_like_the_uninterrupted_run() {
    let snap = Snapshot::decode(&read_golden(PAR_SCALAR)).unwrap();
    let app = mp5::apps::by_name("flowlet").expect("app exists");
    let (prog, trace) = app_trace(app, 800, 1);
    let (oracle, oracle_sink) =
        Mp5Switch::with_sink(prog, snap.config.clone(), MemSink::new()).run_traced(trace.clone());

    // This build's own run up to the halt supplies the events before it.
    let mut srv: Server<MemSink, NoFaults> =
        Server::new(&snap.source, snap.config.clone(), MemSink::new(), None).unwrap();
    srv.offer_all(trace);
    while srv.cycle() < snap.cycle() {
        srv.tick();
        srv.drain_egress();
    }
    // The occupancy masks the file carries (which the scalar path never
    // maintained) are skipped on decode and rebuilt on restore.
    assert!(
        srv.checkpoint().state == snap.state,
        "the state at the halt differs"
    );
    let mut events = srv.abandon().into_events();

    let mut restored: Server<MemSink, NoFaults> =
        Server::restore(snap, MemSink::new(), None, None).unwrap();
    while !restored.is_idle() {
        restored.tick();
        restored.drain_egress();
    }
    let (report, sink) = restored.finish();
    events.extend(sink.into_events());
    assert_eq!(report, oracle);
    assert_eq!(
        stream_hash(&events),
        stream_hash(&oracle_sink.into_events())
    );
}

#[test]
fn feed_lines_parse_and_reprint_to_the_same_bytes() {
    let feed = read_golden("feed.jsonl");
    assert_eq!(feed.lines().count(), 20);
    for (i, line) in feed.lines().enumerate() {
        let packet = parse_packet_line(line, i + 1).unwrap();
        assert_eq!(
            serde_json::to_string(&packet).unwrap(),
            line,
            "line {}",
            i + 1
        );
    }
    let parsed: Vec<Packet> = feed
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(parsed, packets(20, 9));
}

#[test]
fn feed_dsl_is_the_program_the_goldens_ran() {
    for name in SNAPSHOTS {
        let snap = Snapshot::decode(&read_golden(name)).unwrap();
        assert_eq!(snap.source, PROGRAM, "{name}");
    }
}

#[test]
fn fabric_report_reprints_to_the_same_bytes() {
    // `FabricReport` only serializes; as a `Value` its keys, their
    // order, every number's arity and every float's digits must survive.
    let text = read_golden("fabric_report.json");
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(serde_json::to_string_pretty(&doc).unwrap(), text);
    assert_eq!(doc["flows_started"], 300u64);
    assert_eq!(doc["fct"]["mean"], 15073.22);
}

/// With `record_detail` on, a snapshot carries every completed packet's
/// outputs. The old parser was quadratic in the section text, which is
/// what made such a snapshot take the better part of a minute to load.
#[test]
fn a_detailed_snapshot_of_5k_packets_round_trips_within_seconds() {
    let app = mp5::apps::by_name("heavy_hitter").expect("app exists");
    let prog = app.compile().expect("app compiles");
    let trace = TraceBuilder::new(5_000, 4).build(prog.num_fields(), |rng, _, f| {
        use rand::Rng;
        f[0] = rng.gen_range(0..4_000);
    });
    let cfg = SwitchConfig::mp5(4).with_record_detail(true);
    let run = |srv: &mut Server<NopSink, NoFaults>| {
        while !srv.is_idle() {
            srv.tick();
            srv.drain_egress();
        }
    };
    let mut srv: Server<NopSink, NoFaults> = Server::new(app.source, cfg, NopSink, None).unwrap();
    srv.offer_all(trace);
    for _ in 0..1_100 {
        srv.tick();
        srv.drain_egress();
    }
    let snap = srv.checkpoint();
    assert!(snap.state.report.completed > 3_000, "the detail to carry");

    let started = std::time::Instant::now();
    let text = snap.encode();
    let back = Snapshot::decode(&text).unwrap();
    assert_eq!(back, snap);
    let mut restored = Server::restore(back, NopSink, None, None).unwrap();
    let took = started.elapsed();
    assert!(took.as_secs() < 30, "{} bytes took {took:?}", text.len());

    run(&mut srv);
    run(&mut restored);
    assert_eq!(restored.finish().0, srv.finish().0);
}

// ---------------------------------------------------------------------
// Round trips, per derived shape
// ---------------------------------------------------------------------

mod shapes {
    use rand::rngs::SmallRng;
    use rand::Rng;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Unit;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Newtype(pub i64);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Tuple(pub u64, pub String, pub f64);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub enum Variant {
        Unit,
        Newtype(u64),
        Tuple(i64, String),
        Struct { x: f64, y: Option<Newtype> },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Named {
        pub unsigned: u64,
        pub signed: i64,
        pub small: (u8, i8),
        pub optional: Option<u32>,
        pub nested: Vec<Vec<i16>>,
        pub text: String,
        pub float: f64,
        pub flag: bool,
        pub triple: (u16, String, bool),
        pub quad: (u32, i32, f64, Option<bool>),
        pub unit: Unit,
        pub newtype: Newtype,
        pub tuple: Tuple,
        pub variants: Vec<Variant>,
    }

    /// Every escape class (quote, backslash, the five short escapes,
    /// other control characters) next to 1- to 4-byte UTF-8, and the
    /// JSON punctuation a layout pass must leave alone inside strings.
    const CHARS: &str = "a {}[],:\"\\/\n\r\t\u{08}\u{0c}\u{00}\u{1f}\u{7f}é\u{20ac}\u{10348}";

    /// `0..max` draws of `draw`, the count drawn too.
    pub fn vec_of<T>(rng: &mut SmallRng, max: usize, draw: fn(&mut SmallRng) -> T) -> Vec<T> {
        (0..rng.gen_range(0..max)).map(|_| draw(rng)).collect()
    }

    pub fn text(rng: &mut SmallRng) -> String {
        let chars: Vec<char> = CHARS.chars().collect();
        (0..rng.gen_range(0..12))
            .map(|_| chars[rng.gen_range(0..chars.len())])
            .collect()
    }

    /// Finite floats from raw bits, salted with the edge cases: both
    /// zeros, integral values (printed with `.0`), exponent forms.
    pub fn float(rng: &mut SmallRng) -> f64 {
        const EDGES: [f64; 7] = [0.0, -0.0, 3.0, -1e300, 2.5e-7, f64::MAX, f64::MIN_POSITIVE];
        match rng.gen_range(0..8) {
            7 => Some(f64::from_bits(rng.gen()))
                .filter(|f| f.is_finite())
                .unwrap_or(0.0),
            i => EDGES[i],
        }
    }

    pub fn unsigned(rng: &mut SmallRng) -> u64 {
        [rng.gen(), 0, u64::MAX, rng.gen_range(0..100)][rng.gen_range(0..4)]
    }

    pub fn signed(rng: &mut SmallRng) -> i64 {
        [rng.gen(), i64::MIN, i64::MAX, 0, rng.gen_range(-100..100)][rng.gen_range(0..5)]
    }

    pub fn variant(rng: &mut SmallRng) -> Variant {
        match rng.gen_range(0..4) {
            0 => Variant::Unit,
            1 => Variant::Newtype(unsigned(rng)),
            2 => Variant::Tuple(signed(rng), text(rng)),
            _ => Variant::Struct {
                x: float(rng),
                y: rng.gen::<bool>().then(|| Newtype(signed(rng))),
            },
        }
    }

    pub fn named(rng: &mut SmallRng) -> Named {
        let (unsigned, signed, float) = (unsigned(rng), signed(rng), float(rng));
        let (f1, f2, w): (bool, bool, u32) = (rng.gen(), rng.gen(), rng.gen());
        Named {
            unsigned,
            signed,
            small: (rng.gen(), rng.gen_range(-128i16..128) as i8),
            optional: f1.then_some(w),
            nested: vec_of(rng, 4, |rng| {
                vec_of(rng, 4, |rng| rng.gen_range(-400i16..400))
            }),
            text: text(rng),
            float,
            flag: f2,
            triple: (rng.gen(), text(rng), f1),
            quad: (w, rng.gen(), self::float(rng), f2.then_some(f1)),
            unit: Unit,
            newtype: Newtype(signed),
            tuple: Tuple(unsigned, text(rng), self::float(rng)),
            variants: vec_of(rng, 5, variant),
        }
    }
}

/// `text` without the whitespace a pretty printer adds (whitespace
/// inside strings stays).
fn squeeze(text: &str) -> String {
    let mut out = String::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else if !matches!(c, ' ' | '\n') {
            out.push(c);
            in_string = c == '"';
        }
    }
    out
}

/// The three properties every shape must satisfy; comparing the
/// re-encoded text as well as the value tells `-0.0` from `0.0`. A
/// failure names the value and the check it failed.
fn round_trips<T>(value: &T)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let text = serde_json::to_string(value).unwrap();
    let fail = |e: serde_json::Error| -> ! { panic!("{value:?} as {text}: {e}") };
    let direct: T = serde_json::from_str(&text).unwrap_or_else(|e| fail(e));
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap_or_else(|e| fail(e));
    let via_doc: T = serde_json::from_value(doc.clone()).unwrap_or_else(|e| fail(e));
    let pretty = serde_json::to_string_pretty(value).unwrap();
    let from_pretty: T = serde_json::from_str(&pretty).unwrap_or_else(|e| fail(e));
    let checks = [
        // Direct: text -> T.
        ("text -> T", direct == *value),
        (
            "text -> T -> text",
            serde_json::to_string(&direct).unwrap() == text,
        ),
        // By way of a `Value`: the document type agrees with the typed
        // path on what the text means and prints it back unchanged.
        (
            "Value -> text",
            serde_json::to_string(&doc).unwrap() == text,
        ),
        ("Value Display", doc.to_string() == text),
        ("T -> Value", serde_json::to_value(value).unwrap() == doc),
        ("Value -> T", via_doc == *value),
        // Pretty is compact plus whitespace, and reads back the same.
        (
            "pretty is compact plus whitespace",
            squeeze(&pretty) == text,
        ),
        (
            "pretty -> T -> text",
            serde_json::to_string(&from_pretty).unwrap() == text,
        ),
    ];
    if let Some((check, _)) = checks.iter().find(|(_, ok)| !ok) {
        panic!("{check} fails on {value:?} as {text}");
    }
}

mod round_trip {
    use super::round_trips;
    use super::shapes::*;
    use mp5::sim::harness::cases;
    use rand::rngs::SmallRng;
    use rand::Rng;

    const N: u64 = 200;

    #[test]
    fn named_struct() {
        cases(0..N, named, |v, _| round_trips(v));
    }

    #[test]
    fn newtype_struct() {
        cases(0..N, |rng| Newtype(signed(rng)), |v, _| round_trips(v));
    }

    #[test]
    fn tuple_struct() {
        let draw = |rng: &mut SmallRng| Tuple(unsigned(rng), text(rng), float(rng));
        cases(0..N, draw, |v, _| round_trips(v));
    }

    #[test]
    fn unit_struct() {
        round_trips(&Unit);
    }

    #[test]
    fn enum_variants() {
        cases(0..N, |rng| vec_of(rng, 6, variant), |v, _| round_trips(v));
    }

    #[test]
    fn option_and_nested_vec() {
        let draw = |rng: &mut SmallRng| {
            vec_of(rng, 5, |rng| {
                vec_of(rng, 5, |rng| rng.gen::<bool>().then(|| signed(rng)))
            })
        };
        cases(0..N, draw, |v, _| round_trips(v));
    }

    #[test]
    fn tuples_of_two_to_four() {
        let draw = |rng: &mut SmallRng| (unsigned(rng), text(rng), float(rng), signed(rng));
        cases(0..N, draw, |(a, b, c, d), _| {
            round_trips(&(*a, b.clone()));
            round_trips(&(*d, *c, b.clone()));
            round_trips(&(b.clone(), *a, *d, *c));
        });
    }

    #[test]
    fn extreme_integers() {
        round_trips(&(i64::MIN, i64::MAX, u64::MAX, 0u64));
        round_trips(&vec![i64::MIN, -1, 0, 1, i64::MAX]);
    }

    #[test]
    fn floats() {
        cases(0..N, |rng| vec_of(rng, 8, float), |v, _| round_trips(v));
    }

    #[test]
    fn strings() {
        cases(0..N, |rng| vec_of(rng, 6, text), |v, _| round_trips(v));
    }

    #[test]
    fn packets() {
        let draw = |rng: &mut SmallRng| {
            let mut p = crate::packets(1, 1).remove(0);
            p.id = mp5::types::PacketId(rng.gen());
            p.port = mp5::types::PortId(rng.gen());
            p.fields = vec_of(rng, 6, signed);
            p
        };
        cases(0..N, draw, |p, _| round_trips(p));
    }
}

// ---------------------------------------------------------------------
// Rejections: a typed error per failure class, never a panic
// ---------------------------------------------------------------------

fn sample() -> shapes::Named {
    use shapes::*;
    Named {
        unsigned: 7,
        signed: -7,
        small: (1, -1),
        optional: Some(3),
        nested: vec![vec![1, -2], vec![]],
        text: "t\"\n".into(),
        float: 1.5,
        flag: true,
        triple: (2, "x".into(), false),
        quad: (4, -4, 0.25, None),
        unit: Unit,
        newtype: Newtype(9),
        tuple: Tuple(1, "y".into(), 2.0),
        variants: vec![
            Variant::Unit,
            Variant::Newtype(1),
            Variant::Tuple(-1, "z".into()),
            Variant::Struct {
                x: 0.5,
                y: Some(Newtype(2)),
            },
        ],
    }
}

fn sample_text() -> String {
    serde_json::to_string(&sample()).unwrap()
}

/// Parses the sample with `from` replaced by `to`; the replacement must
/// have matched.
fn edited(from: &str, to: &str) -> Result<shapes::Named, serde_json::Error> {
    let text = sample_text();
    assert!(text.contains(from), "{from} not in {text}");
    serde_json::from_str(&text.replacen(from, to, 1))
}

fn rejected(from: &str, to: &str, why: &str) {
    let err = edited(from, to).expect_err(to).to_string();
    assert!(err.contains(why), "{from} -> {to}: {err}");
}

#[test]
fn truncation_at_every_byte_is_an_error() {
    let text = sample_text();
    for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        assert!(
            serde_json::from_str::<shapes::Named>(&text[..cut]).is_err(),
            "accepted {:?}",
            &text[..cut]
        );
        assert!(serde_json::from_str::<serde_json::Value>(&text[..cut]).is_err());
    }
    let pretty = serde_json::to_string_pretty(&sample()).unwrap();
    for cut in (0..pretty.len()).filter(|&i| pretty.is_char_boundary(i)) {
        assert!(serde_json::from_str::<shapes::Named>(&pretty[..cut]).is_err());
    }
    for name in SNAPSHOTS {
        let snap = read_golden(name);
        for cut in (0..snap.len() - 1).step_by(41) {
            assert!(matches!(
                Snapshot::decode(&snap[..cut]),
                Err(ServeError::Format(_) | ServeError::Checksum { .. })
            ));
        }
    }
}

#[test]
fn trailing_garbage_is_an_error() {
    for tail in ["x", "{}", ",", "]", "0"] {
        let text = sample_text() + tail;
        let err = serde_json::from_str::<shapes::Named>(&text).unwrap_err();
        assert!(err.to_string().contains("trailing characters"), "{err}");
        assert!(serde_json::from_str::<serde_json::Value>(&text).is_err());
    }
    assert!(serde_json::from_str::<shapes::Named>(&(sample_text() + " \n\t")).is_ok());
    let line = read_golden("feed.jsonl")
        .lines()
        .next()
        .unwrap()
        .to_string();
    assert!(parse_packet_line(&(line + "]"), 1).is_err());
}

#[test]
fn a_missing_field_is_an_error() {
    rejected("\"flag\":true,", "", "missing field `flag` in Named");
    rejected("\"optional\":3,", "", "missing field `optional` in Named");
    rejected("{\"x\":0.5,", "{", "missing field `x` in Variant::Struct");
}

#[test]
fn an_unknown_field_is_skipped() {
    for extra in [
        "\"later\":null,",
        "\"later\":[1,[2,{\"k\":\"v\\n\"}],-3.5e2],",
        "\"later\":{\"flag\":false},",
    ] {
        let with_extra = format!("{extra}\"flag\":true,");
        assert_eq!(edited("\"flag\":true,", &with_extra).unwrap(), sample());
    }
    // A skipped value must still be well-formed.
    rejected(
        "\"flag\":true,",
        "\"later\":[1,,2],\"flag\":true,",
        "unexpected character",
    );
}

#[test]
fn a_wrong_tuple_arity_is_an_error() {
    rejected("\"small\":[1,-1]", "\"small\":[1]", "too few elements");
    rejected(
        "\"small\":[1,-1]",
        "\"small\":[1,-1,0]",
        "too many elements",
    );
    rejected(
        "\"tuple\":[1,\"y\",2.0]",
        "\"tuple\":[1,\"y\"]",
        "too few elements for Tuple",
    );
    rejected(
        "{\"Tuple\":[-1,\"z\"]}",
        "{\"Tuple\":[-1,\"z\",0]}",
        "too many elements for Variant::Tuple",
    );
    rejected("\"small\":[1,-1]", "\"small\":{}", "expected array");
}

#[test]
fn an_integer_out_of_range_for_its_field_is_an_error() {
    rejected(
        "\"small\":[1,-1]",
        "\"small\":[256,-1]",
        "out of range for u8",
    );
    rejected(
        "\"small\":[1,-1]",
        "\"small\":[1,-129]",
        "out of range for i8",
    );
    rejected(
        "\"optional\":3",
        "\"optional\":4294967296",
        "out of range for u32",
    );
    rejected(
        "\"unsigned\":7",
        "\"unsigned\":-7",
        "expected unsigned integer",
    );
    rejected(
        "\"unsigned\":7",
        "\"unsigned\":18446744073709551616",
        "expected unsigned integer",
    );
    rejected(
        "\"signed\":-7",
        "\"signed\":9223372036854775808",
        "expected integer",
    );
    rejected(
        "\"signed\":-7",
        "\"signed\":-9223372036854775809",
        "expected integer",
    );
    rejected("\"float\":1.5", "\"float\":1e999", "out of range");
}

#[test]
fn a_float_where_an_integer_is_required_is_an_error() {
    rejected(
        "\"unsigned\":7",
        "\"unsigned\":7.0",
        "expected unsigned integer",
    );
    rejected("\"signed\":-7", "\"signed\":-7e0", "expected integer");
    rejected("\"newtype\":9", "\"newtype\":9.5", "expected integer");
    // The other way round is fine: an integer literal is a number.
    assert_eq!(edited("\"float\":1.5", "\"float\":3").unwrap().float, 3.0);
}

#[test]
fn a_control_character_in_a_string_is_an_error() {
    for c in ['\u{00}', '\n', '\u{1f}'] {
        rejected(
            "\"text\":\"t",
            &format!("\"text\":\"t{c}"),
            "control character",
        );
        rejected(
            "\"unsigned\"",
            &format!("\"unsig{c}ned\""),
            "control character",
        );
    }
}

#[test]
fn a_lone_surrogate_is_an_error() {
    for escape in [
        "\\ud800",
        "\\udfff",
        "\\ud800\\u0041",
        "\\ud800x",
        "\\ud83d\\ud83d",
    ] {
        rejected(
            "\"text\":\"t",
            &format!("\"text\":\"t{escape}"),
            "surrogate",
        );
    }
    let paired = edited("\"text\":\"t", "\"text\":\"\\ud83d\\ude00").unwrap();
    assert_eq!(paired.text, "\u{1f600}\"\n");
}

#[test]
fn nesting_beyond_the_limit_is_an_error() {
    let deep = "[".repeat(200_000);
    let err = serde_json::from_str::<serde_json::Value>(&deep).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
    rejected(
        "\"flag\":true,",
        &format!("\"later\":{deep},\"flag\":true,"),
        "recursion limit",
    );
}

/// Flips the low bit of each chosen byte in turn. Whatever the reader
/// makes of the damaged text, it must not panic, and it must not hand
/// back the undamaged value as if nothing had happened.
fn each_flip(
    text: &str,
    positions: impl Iterator<Item = usize>,
    mut check: impl FnMut(usize, &str),
) {
    let mut bytes = text.as_bytes().to_vec();
    for at in positions {
        bytes[at] ^= 0x01;
        // A flip that leaves no valid UTF-8 never reaches a parser:
        // every reader takes `&str`.
        if let Ok(damaged) = std::str::from_utf8(&bytes) {
            check(at, damaged);
        }
        bytes[at] ^= 0x01;
    }
}

#[test]
fn one_flipped_byte_in_a_golden_is_noticed() {
    // The header's version digit is read before the checksum: a flip
    // there names a version (`1` and `0`, `2` and `3` differ in their
    // low bit).
    let version_digit = "MP5SNAP v".len();
    for name in SNAPSHOTS {
        let v1 = read_golden(name);
        // Each golden as it is (`v1`, FNV-1a64) and as this build
        // writes it (`v2`, the word-wise trailer).
        let v2 = Snapshot::decode(&v1).unwrap().encode();
        for text in [v1, v2] {
            // The trailing newline is not covered: trailing whitespace
            // after the checksum is not content.
            let body = text.len() - 1;
            let positions = (0..body).step_by(7).chain(0..64).chain(body - 64..body);
            each_flip(&text, positions, |at, damaged| {
                let noticed = match Snapshot::decode(damaged) {
                    Err(ServeError::Checksum { .. } | ServeError::Format(_)) => true,
                    Err(ServeError::Version(_)) => at == version_digit,
                    _ => false,
                };
                assert!(noticed, "{name}: flip at byte {at} went unnoticed");
            });
        }
    }

    let feed = read_golden("feed.jsonl");
    for (i, line) in feed.lines().enumerate() {
        let packet = parse_packet_line(line, i + 1).unwrap();
        each_flip(line, 0..line.len(), |at, damaged| {
            if let Ok(p) = parse_packet_line(damaged, i + 1) {
                assert_ne!(
                    p,
                    packet,
                    "line {}: flip at byte {at} went unnoticed",
                    i + 1
                );
            }
        });
    }

    let text = read_golden("fabric_report.json");
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    each_flip(&text, 0..text.len(), |at, damaged| {
        if let Ok(d) = serde_json::from_str::<serde_json::Value>(damaged) {
            // The one honest alias: the seventeenth digit of a float,
            // where two decimal spellings round to the same `f64`.
            assert!(
                d != doc || text.as_bytes()[at].is_ascii_digit(),
                "fabric_report.json: flip at byte {at} went unnoticed"
            );
        }
    });
}

// ---------------------------------------------------------------------
// A consistent checksum over an inconsistent state
// ---------------------------------------------------------------------

/// The logical FIFOs of a state (the goldens run no per-index queues).
fn fifos(s: &mut SwitchState) -> impl Iterator<Item = &mut FifoParts<Flight>> {
    s.queues.iter_mut().flatten().map(|q| match q {
        QueueSnap::Logical(f) => f,
        QueueSnap::PerIndex { .. } => unreachable!("the goldens run logical FIFOs"),
    })
}

/// The key of the first queued phantom.
fn queued_phantom(s: &mut SwitchState) -> &mut PhantomKey {
    fifos(s)
        .flat_map(|f| f.lanes.iter_mut().flat_map(|l| &mut l.entries))
        .find_map(|e| match e {
            Entry::Phantom { key, .. } => Some(key),
            _ => None,
        })
        .expect("a queued phantom")
}

/// The first packet in a lane with an access still ahead of it.
fn tagged(s: &mut SwitchState) -> &mut Flight {
    let mut lanes = s.lanes.iter_mut().flatten().flatten();
    lanes
        .find(|f| !f.pkt.tags.is_empty())
        .expect("a tagged flight")
}

/// Each edit leaves a snapshot whose checksum holds but whose state no
/// switch can run. Restoring it is a typed error: never a panic, a hang
/// behind a phantom no packet comes for, or a run on bad data.
#[test]
fn restore_rejects_what_it_cannot_run() {
    fn is_phantom(e: &Entry<Flight>) -> bool {
        matches!(e, Entry::Phantom { .. })
    }
    type Edit = fn(&mut Snapshot);
    let cases: [(&str, &str, Edit); 17] = [
        ("plain.snap", "a phantom key queued twice", |s| {
            let lanes = fifos(&mut s.state).flat_map(|f| &mut f.lanes);
            let lane = lanes
                .into_iter()
                .find(|l| l.entries.iter().any(is_phantom))
                .unwrap();
            let twin = lane.entries.iter().find(|e| is_phantom(e)).unwrap().clone();
            lane.entries.push(twin);
        }),
        ("plain.snap", "a lane over its capacity", |s| {
            let mut queues = fifos(&mut s.state);
            let f = queues.find(|f| f.lanes.iter().any(|l| !l.entries.is_empty()));
            f.unwrap().capacity = Some(0);
        }),
        (
            "plain.snap",
            "a channel phantom already at its stage",
            |s| {
                let f = &mut s.state.channel.flights[0];
                f.at = f.dest_stage;
            },
        ),
        ("plain.snap", "a tag index past its register", |s| {
            tagged(&mut s.state).pkt.tags[0].index = 1 << 20;
        }),
        ("plain.snap", "a tag register the program lacks", |s| {
            tagged(&mut s.state).pkt.tags[0].reg = RegId(7);
        }),
        ("plain.snap", "an index map naming pipeline 4 of 4", |s| {
            s.state.index_map[1][0] = 4;
        }),
        (
            "plain.snap",
            "a channel phantom bound for pipeline 4",
            |s| {
                s.state.channel.flights[0].dest = PipelineId(4);
            },
        ),
        ("plain.snap", "a packet one field short", |s| {
            tagged(&mut s.state).pkt.fields.pop();
        }),
        ("faulted.snap", "an injector cursor past the plan", |s| {
            s.injector.as_mut().unwrap().cursor = 99;
        }),
        ("faulted.snap", "a stall window on pipeline 4", |s| {
            s.injector.as_mut().unwrap().stalls.push((4, 0, 99));
        }),
        ("faulted.snap", "a phantom-drop rate over 1000", |s| {
            s.injector.as_mut().unwrap().drops.push((1001, 99, false));
        }),
        (
            "plain.snap",
            "a queued phantom with an out-of-range key",
            |s| {
                queued_phantom(&mut s.state).index = 1 << 20;
            },
        ),
        (
            "plain.snap",
            "a queued phantom for a packet that does not exist",
            |s| {
                queued_phantom(&mut s.state).pkt = PacketId(1 << 40);
            },
        ),
        ("plain.snap", "a tag naming pipeline 9", |s| {
            tagged(&mut s.state).pkt.tags[0].pipeline = PipelineId(9);
        }),
        ("plain.snap", "an arrival that carries a tag", |s| {
            let tag = tagged(&mut s.state).pkt.tags[0];
            s.state.arrivals[0].tags.push(tag);
        }),
        ("faulted.snap", "a packet that entered on pipeline 9", |s| {
            s.state.ingress_q[0].ingress = PipelineId(9);
        }),
        ("plain.snap", "a stale entry in a recovery queue", |s| {
            let stale = Entry::Stale {
                ts: OrderKey(0, 0),
                free: true,
            };
            fifos(&mut s.state).next().unwrap().recovered.push(stale);
        }),
    ];
    for (name, what, edit) in cases {
        let mut snap = Snapshot::decode(&read_golden(name)).unwrap();
        edit(&mut snap);
        // `encode` writes a fresh trailer over the edited state.
        let snap = Snapshot::decode(&snap.encode()).unwrap_or_else(|e| panic!("{what}: {e}"));
        let err = if snap.fault_plan.is_some() {
            Server::<NopSink, PlannedFaults>::restore(snap, NopSink, None, None).err()
        } else {
            Server::<NopSink, NoFaults>::restore(snap, NopSink, None, None).err()
        };
        assert!(
            matches!(err, Some(ServeError::Restore(_) | ServeError::Plan(_))),
            "{name}, {what}: {err:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The trace event stream
// ---------------------------------------------------------------------
//
// `events.jsonl` was written by [`regenerate_events_golden`] running on
// the commit before `mp5-trace` moved onto the vendored `Writer` and
// `Parser` (PR 15, `d6fa60c`): every line is what the `write!`-based
// `to_jsonl` produced.

/// All 27 kinds (and all three drop causes), their fields drawn from
/// `w` and narrowed to each field's width.
fn kinds_from(w: [u64; 5], queued: bool, bypassed: bool) -> Vec<EventKind> {
    let pkt = PacketId(w[0]);
    let (reg, index) = (RegId(w[1] as u16), w[2] as u32);
    let (from, to) = (w[3] as u16, w[4] as u16);
    let key = PhantomKey { pkt, reg, index };
    let order = (w[3], w[4]);
    let drop = |cause| EventKind::Drop { pkt, cause };
    vec![
        EventKind::Ingress { pkt, order },
        EventKind::Egress { pkt },
        drop(DropCause::FifoFull),
        drop(DropCause::NoPhantom),
        drop(DropCause::Starvation),
        EventKind::Execute {
            pkt,
            queued,
            bypassed,
        },
        EventKind::Access {
            pkt,
            reg,
            index,
            order,
        },
        EventKind::PhantomEmit {
            key,
            dest_pipeline: from,
            dest_stage: to,
        },
        EventKind::PhantomChannelCancel { key },
        EventKind::RemapMove {
            reg,
            index,
            from,
            to,
        },
        EventKind::Recirculate { pkt, target: to },
        EventKind::PhantomEnq { key },
        EventKind::PhantomDropFull { key },
        EventKind::PhantomCancel { key, free: queued },
        EventKind::DataMatch { key },
        EventKind::DataOrphan { key },
        EventKind::DataEnq { pkt },
        EventKind::DataEnqDropFull { pkt },
        EventKind::PopData { pkt },
        EventKind::PopStale,
        EventKind::PopBlocked { key },
        EventKind::Steer { from, to },
        EventKind::FaultInjected {
            code: from,
            param: w[4],
        },
        EventKind::FaultPhantomLost { key },
        EventKind::PhantomRecovered { key },
        EventKind::PipelineEvacuated {
            pipeline: from,
            indexes: w[4],
        },
        EventKind::SnapshotTaken { seq: w[0] },
        EventKind::Restored { from_cycle: w[0] },
        EventKind::ProgramSwapped { migrated: w[0] },
    ]
}

/// Lines of each recorded run kept in the golden.
const RUN_LINES: usize = 2000;

/// The golden stream as events: every kind at both ends of every
/// field's range (`u64::MAX`, `u16::MAX` = [`NO_LOC`], index 0), then
/// the head of a clean `conga` run and of a chaos-faulted one on
/// `mp5(4)`.
fn golden_events() -> Vec<Event> {
    let mut events = Vec::new();
    for (word, flag) in [(u64::MAX, true), (0, false)] {
        let kinds = kinds_from([word; 5], flag, !flag);
        events.extend(kinds.into_iter().map(|kind| Event {
            cycle: word,
            pipeline: word as u16,
            stage: word as u16,
            kind,
        }));
    }
    assert_eq!(events[0].pipeline, NO_LOC);
    let (prog, trace) = app_trace(&mp5::apps::CONGA, 600, 1);
    let cfg = SwitchConfig::mp5(4);
    let (_, clean) =
        Mp5Switch::with_sink(prog.clone(), cfg.clone(), MemSink::new()).run_traced(trace.clone());
    events.extend_from_slice(&clean.events[..RUN_LINES]);
    let plan = FaultPlan::chaos(7, 4, prog.num_stages(), 16);
    let (_, faulted) =
        Mp5Switch::with_faults(prog, cfg, MemSink::new(), plan.injector()).run_traced(trace);
    events.extend_from_slice(&faulted.events[..RUN_LINES]);
    events
}

/// Writes `tests/golden/events.jsonl`; see [`regenerate_goldens`] for
/// why this is not part of any test run.
#[test]
#[ignore = "writes tests/golden/events.jsonl; run on the commit whose bytes are to be pinned"]
fn regenerate_events_golden() {
    let text: String = golden_events()
        .iter()
        .map(|ev| ev.to_jsonl() + "\n")
        .collect();
    std::fs::write(golden("events.jsonl"), text).unwrap();
}

#[test]
fn events_decode_and_reencode_to_the_same_bytes() {
    let text = read_golden("events.jsonl");
    let events = golden_events();
    assert_eq!(text.lines().count(), 2 * 29 + 2 * RUN_LINES);
    for (i, line) in text.lines().enumerate() {
        let ev = Event::parse_jsonl(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        assert_eq!(ev, events[i], "line {}", i + 1);
        assert_eq!(ev.to_jsonl(), line, "line {}", i + 1);
    }
    // The two whole-stream paths agree with the per-line one.
    assert_eq!(read_jsonl(text.as_bytes()).unwrap(), events);
    let mut sink = JsonlSink::new(Vec::new());
    for ev in &events {
        sink.emit(*ev);
    }
    assert_eq!(sink.written, events.len() as u64);
    assert_eq!(sink.finish().unwrap(), text.as_bytes());
}

/// The hash is taken over events, not text, so it has to come through
/// a round trip by way of the parent's bytes unchanged — and to tell
/// the three streams in the golden apart.
#[test]
fn the_stream_hash_survives_the_golden_round_trip() {
    let events = golden_events();
    let back = read_jsonl(read_golden("events.jsonl").as_bytes()).unwrap();
    assert_eq!(stream_hash(&back), stream_hash(&events));
    let (edges, runs) = events.split_at(2 * 29);
    let (clean, faulted) = runs.split_at(RUN_LINES);
    assert_ne!(stream_hash(clean), stream_hash(faulted));
    assert_ne!(stream_hash(edges), stream_hash(&[]));
    // Six of the 58 boundary events are lifecycle markers.
    let work: Vec<Event> = edges
        .iter()
        .copied()
        .filter(|ev| !ev.kind.is_lifecycle())
        .collect();
    assert_eq!(work.len(), 52);
    assert_eq!(stream_hash(&work), stream_hash(edges));
}

/// The digest of the golden stream, pinned. Unlike the run digests of
/// `tests/run_digests.rs`, the golden holds every kind, `recirc` and the
/// three drop causes included, with each field at both ends of its
/// range (`NO_LOC` among them), so a change to how `stream_hash` feeds
/// the hasher shows here first.
#[test]
fn the_golden_stream_keeps_its_stream_hash() {
    let back = read_jsonl(read_golden("events.jsonl").as_bytes()).unwrap();
    assert_eq!(stream_hash(&back), 0x1b72_00e6_54dc_768b);
}

/// What `read_jsonl` must answer for `text`, read one line at a time
/// with `BufRead::read_line`: the events, or the line number and text of
/// the first error.
fn read_by_line(text: &[u8]) -> Result<Vec<Event>, (usize, String)> {
    use std::io::BufRead;
    let mut reader = text;
    let mut out = Vec::new();
    let mut line = String::new();
    for number in 1.. {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim().is_empty() => {}
            Ok(_) => match Event::parse_jsonl(&line) {
                Ok(ev) => out.push(ev),
                Err(e) => return Err((number, format!("line {number}: {e}"))),
            },
            Err(e) => return Err((number, format!("line {number}: io error: {e}"))),
        }
    }
    Ok(out)
}

/// `read_jsonl` parses lines where they sit in the reader's buffer, so
/// lines and characters that straddle a buffer's end take another path
/// than those inside one. Through a slice and through buffers of 1, 7,
/// 64 and 8192 bytes, each text must give the same events, or the same
/// error at the same line, as a line-at-a-time read.
#[test]
fn read_jsonl_answers_alike_at_every_buffer_edge() {
    let golden = read_golden("events.jsonl");
    let lines: Vec<&str> = golden.lines().collect();
    let joined = |lines: &[String], end: &str| lines.join(end) + end;
    let owned: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let mut texts: Vec<(String, Vec<u8>)> = vec![
        ("golden".into(), golden.clone().into_bytes()),
        ("CRLF".into(), joined(&owned, "\r\n").into_bytes()),
        ("no final newline".into(), golden.trim_end().into()),
    ];
    // Blank and whitespace-only lines, and an unknown key whose value
    // holds two-, three- and four-byte characters, every few lines.
    let mut spaced = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        match i % 5 {
            0 => spaced.push(String::new()),
            1 => spaced.push(" \t".into()),
            2 => spaced.push(line.replacen('{', r#"{"note":"ñé€𝄞","#, 1)),
            _ => {}
        }
        spaced.push(line.to_string());
    }
    texts.push((
        "blank lines, wide characters".into(),
        joined(&spaced, "\n").into_bytes(),
    ));
    for n in [1, 2, 59, lines.len() / 2, lines.len()] {
        let mut bad = owned.clone();
        bad[n - 1] = bad[n - 1][..bad[n - 1].len() / 2].to_string();
        texts.push((
            format!("line {n} cut short"),
            joined(&bad, "\n").into_bytes(),
        ));
        let mut bytes = Vec::new();
        for (i, line) in owned.iter().enumerate() {
            bytes.extend_from_slice(line.as_bytes());
            if i + 1 == n {
                // Inside a string, where only the UTF-8 check sees it.
                let at = bytes.len() - line.len() + 2;
                bytes[at] = 0xff;
            }
            bytes.push(b'\n');
        }
        texts.push((format!("line {n} not UTF-8"), bytes));
    }
    // A character cut off by the end of the text.
    let mut cut_char = golden.clone().into_bytes();
    cut_char.extend_from_slice(&"€".as_bytes()[..2]);
    texts.push(("a cut character at the end".into(), cut_char));

    for (name, text) in &texts {
        let want = read_by_line(text);
        if let Ok(events) = &want {
            let by_lines: Vec<Event> = std::str::from_utf8(text)
                .unwrap()
                .lines()
                .filter(|line| !line.trim().is_empty())
                .map(|line| Event::parse_jsonl(line).unwrap())
                .collect();
            assert_eq!(events, &by_lines, "{name}");
        }
        let answer = |got: Result<Vec<Event>, mp5::trace::ReadError>| {
            got.map_err(|e| (e.line, e.to_string()))
        };
        assert_eq!(answer(read_jsonl(&text[..])), want, "{name}, as a slice");
        for cap in [1, 7, 64, 8192] {
            let reader = std::io::BufReader::with_capacity(cap, &text[..]);
            assert_eq!(
                answer(read_jsonl(reader)),
                want,
                "{name}, {cap}-byte buffer"
            );
        }
    }
    assert!(read_by_line(&texts[0].1).is_ok());
    assert!(texts[4..]
        .iter()
        .all(|(_, text)| read_by_line(text).is_err()));
}

/// No prefix of a line is an event, and no one-bit change to a line
/// goes unnoticed; neither makes the decoder panic.
#[test]
fn a_truncated_or_flipped_event_line_is_an_error_or_another_event() {
    let text = read_golden("events.jsonl");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines.dedup();
    for line in lines {
        let ev = Event::parse_jsonl(line).unwrap();
        for cut in 0..line.len() {
            assert!(
                Event::parse_jsonl(&line[..cut]).is_err(),
                "accepted {:?}",
                &line[..cut]
            );
        }
        each_flip(line, 0..line.len(), |at, damaged| {
            if let Ok(other) = Event::parse_jsonl(damaged) {
                assert_ne!(other, ev, "{line}: flip at byte {at} went unnoticed");
            }
        });
    }
}

mod events {
    use super::*;
    use mp5::sim::harness::cases;
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Mostly small and boundary values, so that two draws often agree
    /// in some fields and differ in others.
    fn word(rng: &mut SmallRng) -> u64 {
        match rng.gen_range(0..6) {
            0 => rng.gen_range(0..3),
            1 => rng.gen_range(9..12),
            2 => rng.gen(),
            i => [u16::MAX as u64, u32::MAX as u64, u64::MAX][i - 3],
        }
    }

    /// One event from seven words: location, then the kind's fields.
    fn event_from(kind: usize, w: &[u64], flags: (bool, bool)) -> Event {
        Event {
            cycle: w[0],
            pipeline: w[1] as u16,
            stage: w[1] as u16 ^ 1,
            kind: kinds_from([w[2], w[3], w[4], w[5], w[6]], flags.0, flags.1)[kind],
        }
    }

    /// The encoding is injective — what lets `stream_hash` digest
    /// events where it used to digest their text. `b` is `a` with
    /// one word drawn again, which that kind may or may not read, and
    /// half the time another kind.
    #[test]
    fn equal_events_and_equal_lines_are_the_same_thing() {
        let draw = |rng: &mut SmallRng| {
            let words: Vec<u64> = (0..7).map(|_| word(rng)).collect();
            let flags = (rng.gen(), rng.gen());
            let kind = rng.gen_range(0..29);
            let mut other_words = words.clone();
            other_words[rng.gen_range(0..7)] = word(rng);
            let other_kind = if rng.gen() {
                kind
            } else {
                rng.gen_range(0..29)
            };
            let b = event_from(other_kind, &other_words, flags);
            (event_from(kind, &words, flags), b)
        };
        cases(0..2_000, draw, |&(a, b), _| {
            assert_eq!(a == b, a.to_jsonl() == b.to_jsonl());
            assert_eq!(Event::parse_jsonl(&a.to_jsonl()), Ok(a));
            if !(a.kind.is_lifecycle() || b.kind.is_lifecycle()) {
                assert_eq!(a == b, stream_hash(&[a]) == stream_hash(&[b]));
                let (ab, ba) = (stream_hash(&[a, b]), stream_hash(&[b, a]));
                assert_eq!(a == b, ab == ba);
            }
        });
    }
}
