//! The recirculation slice of the model-based harness
//! (`mp5_sim::harness`): generated cases on `SwitchConfig::recirc`,
//! today's multi-pipelined switch (static port blocks, static shards,
//! no phantoms, recirculation instead of crossbars). Every case holds
//! the harness's checks — conservation, a closed fault ledger, traced
//! = untraced, a checkpointed, restored and hot-swapped run equal to
//! the uninterrupted one — and the two it makes of this design: the
//! audit, stitched or not, finds nothing but C1 violations, and with
//! one pipeline nothing recirculates and the run is Banzai's.
//!
//! The slice pins the clean plan and chaos plans. Of a chaos plan's
//! faults this datapath acts on two: a pipeline kill evacuates the
//! killed pipeline's state to the survivors (its ports stay wired to
//! it), and a remap abort is counted. Stage stalls, phantom drops, FIFO
//! overflow and grant delays act on queues, phantoms and crossbars it
//! does not have; they fire and are accounted in the ledger only.

use mp5::sim::harness::*;

const CLEAN: Pins = Pins {
    program: None,
    design: Some(Design::Recirc),
    plan: Some(Plan::Clean),
};

const CHAOS: Pins = Pins {
    plan: Some(Plan::Chaos),
    ..CLEAN
};

/// Every program source recirculates, is restored mid-run and
/// hot-swapped, and one pipeline is Banzai.
#[test]
fn recirculation_holds_the_harness_checks() {
    let tally = sweep(0..40, CLEAN);
    assert_reached(
        &tally,
        &[
            "steers",
            "mid-run restores",
            "hot swaps",
            "checkpoints past stage 64",
            "recirculation at k = 1",
        ],
    );
}

/// Under chaos plans the ledger closes and a killed pipeline's state
/// moves off it.
#[test]
fn recirculation_survives_chaos() {
    let tally = sweep(0..30, CHAOS);
    assert_reached(
        &tally,
        &[
            "steers",
            "faults injected",
            "indexes evacuated off a dead pipeline",
        ],
    );
}
