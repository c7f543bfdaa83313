//! Crash safety: checkpoint/restore is invisible. A slice of the
//! model-based harness (`tests/harness/mod.rs`) on the fixed programs:
//! each run is checkpointed one cycle before, at or after a remap
//! boundary or anywhere, round-tripped through the snapshot codec and
//! restored, and must finish with the uninterrupted run's report and
//! stitched event-stream hash.

mod harness;

use harness::*;

#[test]
fn restore_is_invisible() {
    let pins = Pins {
        program: Some(Program::Fixed),
        ..Pins::default()
    };
    assert_reached(&sweep(16, pins), &["mid-run restores", "hot swaps"]);
}
