//! The paper's motivating application (§2.3.1, Example 2): a network
//! sequencer stamps a monotonically increasing number into packets.
//! On today's multi-pipeline switches with re-circulation, sequence
//! order breaks (condition C1); on MP5 it is exact.
//!
//! ```sh
//! cargo run --release --example network_sequencer
//! ```

use mp5::banzai::BanzaiSwitch;
use mp5::core::{Mp5Switch, SwitchConfig};
use mp5::sim::c1_violation_fraction;
use mp5::sim::experiments::app_trace;

fn main() {
    let app = &mp5::apps::SEQUENCER;
    println!("{}: {}", app.name, app.description);

    let (program, trace) = app_trace(app, 20_000, 7);
    println!(
        "compiled to {} stages; register arrays: {:?}",
        program.num_stages(),
        program
            .regs
            .iter()
            .map(|r| r.name.as_str())
            .collect::<Vec<_>>()
    );

    // Ground truth: the logical single-pipeline switch.
    let reference = BanzaiSwitch::new(program.clone()).run(trace.clone());

    // MP5 with 4 pipelines.
    let mp5 = Mp5Switch::new(program.clone(), SwitchConfig::mp5(4)).run(trace.clone());
    let mp5_c1 = c1_violation_fraction(&reference.access_log, &mp5.result.access_log);
    println!(
        "MP5          : throughput={:.3}, C1 violations={:.1}%, equivalent={}",
        mp5.normalized_throughput(),
        mp5_c1 * 100.0,
        mp5.result.equivalent_to(&reference)
    );

    // Today's switch: the same engine with static port blocks and
    // recirculation instead of crossbars.
    let rec = Mp5Switch::new(program.clone(), SwitchConfig::recirc(4)).run(trace.clone());
    let rec_c1 = c1_violation_fraction(&reference.access_log, &rec.result.access_log);
    println!(
        "Recirculation: throughput={:.3}, C1 violations={:.1}%, recircs/pkt={:.2}, equivalent={}",
        rec.normalized_throughput(),
        rec_c1 * 100.0,
        rec.steered as f64 / rec.offered as f64,
        rec.result.equivalent_to(&reference)
    );

    // Show a concrete broken sequence, like the paper's Example 2.
    let seq_field = program.field("seq").expect("sequencer output field");
    let mut mismatches = 0;
    let mut example = None;
    for (id, out) in &rec.result.outputs {
        let expect = &reference.outputs[id];
        if out[seq_field.index()] != expect[seq_field.index()] {
            mismatches += 1;
            if example.is_none() {
                example = Some((*id, expect[seq_field.index()], out[seq_field.index()]));
            }
        }
    }
    if let Some((id, want, got)) = example {
        println!(
            "\n{} packets got the wrong sequence number on the recirculation switch;",
            mismatches
        );
        println!(
            "e.g. packet {id} should carry seq {want} but carries {got} — the \
             paper's Example 2 failure, live."
        );
    }
    assert_eq!(mp5_c1, 0.0, "MP5 must never violate C1");
}
