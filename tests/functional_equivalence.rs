//! The paper's headline claim on the statement-template grammar: MP5,
//! at any pipeline count, ends with the single-pipeline Banzai switch's
//! registers, per-packet outputs and per-state access order (condition
//! C1). Each test is a slice of the model-based harness
//! (`mp5_sim::harness`) with the program drawn from the grammar
//! and one input pinned; every case also runs traced, faulted where
//! drawn, checkpointed and restored.

use mp5::sim::harness::*;

const GRAMMAR: Pins = Pins {
    program: Some(Program::Grammar),
    design: None,
    plan: None,
};

/// The dynamic-sharding design is Banzai on every generated program.
#[test]
fn mp5_is_functionally_equivalent_to_single_pipeline() {
    let pins = Pins {
        design: Some(Design::Mp5),
        plan: Some(Plan::Clean),
        ..GRAMMAR
    };
    assert_reached(&sweep(0..24, pins), &["equivalent to Banzai"]);
}

/// The ideal baseline changes scheduling, never semantics.
#[test]
fn ideal_mp5_is_functionally_equivalent() {
    let pins = Pins {
        design: Some(Design::Ideal),
        plan: Some(Plan::Clean),
        ..GRAMMAR
    };
    assert_reached(&sweep(0..16, pins), &["equivalent to Banzai"]);
}

/// Banzai, the compiled program run serially, agrees with the TAC
/// interpreter on every register and declared field (compiler
/// soundness), under every design and plan.
#[test]
fn compiled_execution_matches_tac_semantics() {
    let tally = sweep(0..24, GRAMMAR);
    assert_reached(&tally, &["packets checked against the TAC semantics"]);
}

/// Negative control: the relation is not vacuous, the no-D4 ablation
/// breaks it on contended programs.
#[test]
fn no_d4_fails_the_equivalence_property() {
    let pins = Pins {
        program: Some(Program::Fixed),
        design: Some(Design::NoD4),
        plan: Some(Plan::Clean),
    };
    assert_reached(&sweep(0..24, pins), &["no-D4 diverged from Banzai"]);
}
