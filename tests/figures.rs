//! The paper's tables and figures as slices of `mp5::sim::experiments`.
//!
//! `tests/golden/figures/` holds what the per-figure printers the slices
//! replaced wrote at `df4e1bd` with `MP5_EXP_PACKETS=200
//! MP5_EXP_SEEDS=1`: each figure's stdout (`<name>.txt`, written with
//! `MP5_EXP_JSON` unset) and its JSON archive (`<name>.json`; Table 1 has
//! none). The edits since are the `scale:` line of D2, D3 and D4 (the
//! five streams those slices run), and the recirculation columns of D3
//! and D4: on the one switch a loop also passes the resolution prologue.
//!
//! The shape tests run slices at 4 000 packets × 2 streams and check the
//! paper's qualitative claims on their archived rows.

use mp5::sim::experiments::{slices, Scale};
use serde_json::Value;

fn golden(file: &str) -> Option<String> {
    let path = format!("{}/tests/golden/figures/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).ok()
}

#[test]
fn every_slice_prints_and_archives_the_golden_bytes() {
    let scale = Scale {
        packets: 200,
        seeds: 1,
    };
    let all = slices();
    assert_eq!(all.len(), 13);
    for slice in &all {
        let name = slice.name;
        let table = slice.run(scale);
        let stdout = slice.banner(scale) + &slice.body(&table, None);
        assert_eq!(
            Some(stdout),
            golden(&format!("{name}.txt")),
            "{name} stdout"
        );
        let archive = golden(&format!("{name}.json"));
        assert_eq!(slice.archives(), archive.is_some(), "{name} archives");
        if let Some(archive) = archive {
            assert_eq!(table.json(), archive, "{name} archive");
        }
        assert_eq!(slice.verify(&table), Ok(()), "{name} claims");
    }
}

fn rows(name: &str) -> Vec<Value> {
    let scale = Scale {
        packets: 4000,
        seeds: 2,
    };
    let slice = slices().into_iter().find(|s| s.name == name);
    let table = slice.expect("slice exists").run(scale);
    table.rows
}

fn num(row: &Value, key: &str) -> f64 {
    row[key]
        .as_f64()
        .unwrap_or_else(|| panic!("{key} in {row:?}"))
}

fn find<'a>(rows: &'a [Value], key: &str, value: f64) -> &'a Value {
    let row = rows.iter().find(|r| num(r, key) == value);
    row.unwrap_or_else(|| panic!("no row with {key} = {value}"))
}

#[test]
fn fig7a_throughput_decreases_with_pipelines() {
    let rows = rows("fig7a");
    assert_eq!(rows.len(), 5);
    let (first, last) = (&rows[0], &rows[4]);
    assert!(
        num(first, "mp5_uniform") > num(last, "mp5_uniform"),
        "more pipelines → more contention → lower normalized throughput: {first:?} vs {last:?}"
    );
    // MP5 close to ideal everywhere (§4.3.3).
    for r in &rows {
        assert!(
            num(r, "ideal_uniform") >= num(r, "mp5_uniform") - 0.08,
            "{r:?}"
        );
        assert!(
            num(r, "ideal_skewed") >= num(r, "mp5_skewed") - 0.08,
            "{r:?}"
        );
    }
}

#[test]
fn fig7c_throughput_increases_with_register_size() {
    let rows = rows("fig7c");
    let tiny = num(&rows[0], "mp5_uniform"); // size 1: every packet hits one state
    let big = num(rows.last().unwrap(), "mp5_uniform"); // 4096
    assert!(
        big > tiny * 1.5,
        "large arrays shard better: {big} vs {tiny}"
    );
}

#[test]
fn fig7d_line_rate_from_128_bytes() {
    let rows = rows("fig7d");
    let at_128 = num(find(&rows, "x", 128.0), "mp5_uniform");
    assert!(
        at_128 > 0.9,
        "paper: line rate with packets as small as 128 B, got {at_128}"
    );
    assert!(num(find(&rows, "x", 64.0), "mp5_uniform") < at_128);
}

#[test]
fn micro_d4_mp5_is_exactly_zero() {
    for row in rows("micro_d4") {
        assert_eq!(num(&row, "mp5"), 0.0, "MP5 must never violate C1: {row:?}");
        assert!(num(&row, "no_d4") > 0.0, "no-D4 must violate: {row:?}");
        assert!(
            num(&row, "recirc") > 0.0,
            "recirculation must violate: {row:?}"
        );
    }
}

#[test]
fn micro_d3_recirc_slower_than_mp5() {
    for row in rows("micro_d3") {
        assert!(
            num(&row, "recirc") < num(&row, "mp5"),
            "recirculation must cost throughput: {row:?}"
        );
        assert!(num(&row, "recircs_per_packet") > 0.0);
    }
}

#[test]
fn ablations_produce_sane_shapes() {
    let fifo = rows("ablation_fifo");
    assert_eq!(fifo.len(), 6);
    // Delivered fraction is monotone (within noise) in capacity for the
    // worst-case workload, and the real app never drops.
    assert!(fifo
        .windows(2)
        .all(|w| num(&w[1], "delivered_synth") >= num(&w[0], "delivered_synth") - 0.02));
    assert!(fifo.iter().all(|r| num(r, "delivered_app") > 0.999));

    let remap = rows("ablation_remap");
    let never = remap
        .iter()
        .find(|r| num(r, "period") > 1_000_000.0)
        .unwrap();
    assert_eq!(num(never, "moves"), 0.0);
    let fast = find(&remap, "period", 50.0);
    assert!(num(fast, "moves") > 0.0);
    assert!(num(fast, "throughput") >= num(never, "throughput") - 0.02);

    let chip = rows("ext_chiplet");
    let sequencer = |mode: &str| {
        let row = chip
            .iter()
            .find(|r| r["app"] == "sequencer" && r["mode"] == mode);
        row.expect("sequencer row")["globally_equivalent"] == true
    };
    assert!(sequencer("monolithic-8"));
    assert!(
        !sequencer("chiplet-2x4"),
        "a global sequencer cannot survive independent chiplets"
    );
}
