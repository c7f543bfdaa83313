//! Accounting invariants under randomized designs, a slice of the
//! model-based harness (`mp5_sim::harness`): every offered packet
//! completes once or is a drop attributed to its stage, and completions
//! leave in monotone cycle order.

use mp5::sim::harness::*;

#[test]
fn every_packet_is_accounted_for() {
    let pins = Pins {
        program: Some(Program::Fixed),
        design: Some(Design::Random),
        plan: None,
    };
    assert_reached(&sweep(0..24, pins), &["data drops", "steers"]);
}
