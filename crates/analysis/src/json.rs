//! The `mp5lint --format=json` report, written through the vendored
//! `serde::json::Writer` (the workspace's one JSON emitter; read it
//! back with `serde::json::Value`). Keys and their order are the
//! report's schema, pinned by `tests/golden/lint.json`.

use mp5_compiler::AnalysisReport;
use mp5_lang::{Diagnostic, Severity};
use serde::json::Writer;

/// Writes diagnostics as a JSON array of objects.
pub fn write_diagnostics(w: &mut Writer<'_>, diagnostics: &[Diagnostic]) {
    w.begin_array();
    for d in diagnostics {
        w.element();
        w.begin_object();
        w.field("code", &d.code.to_string());
        w.field(
            "severity",
            match d.severity {
                Severity::Note => "note",
                Severity::Warning => "warning",
                Severity::Error => "error",
            },
        );
        w.field("line", &d.span.line);
        w.field("col", &d.span.col);
        w.field("message", &d.message);
        w.field("notes", &d.notes);
        w.end_object();
    }
    w.end_array();
}

/// Writes an analysis report as a JSON object.
pub fn write_report(w: &mut Writer<'_>, report: &AnalysisReport) {
    w.begin_object();
    w.key("regs");
    w.begin_array();
    for r in &report.regs {
        w.element();
        w.begin_object();
        w.field("name", &r.name);
        w.field("size", &r.size);
        w.field("class", r.class.as_str());
        w.field("culprits", &r.culprits);
        w.field("speculative", &r.speculative);
        w.field("covered", &r.covered);
        w.end_object();
    }
    w.end_array();
    w.key("pressure");
    match &report.pressure {
        None => w.null(),
        Some(p) => {
            w.begin_object();
            w.field("prologue_stages", &p.prologue_stages);
            w.field("body_stages", &p.body_stages);
            w.field("total_stages", &p.total_stages);
            w.field("max_stages", &p.max_stages);
            w.field("peak_stage_ops", &p.peak_stage_ops);
            w.field("max_ops_per_stage", &p.max_ops_per_stage);
            w.field("predicted_merges", &p.predicted_merges);
            w.field("sram_bits", &p.sram_bits);
            w.field("max_sram_bits_per_stage", &p.max_sram_bits_per_stage);
            w.field("fits", &p.fits);
            w.end_object();
        }
    }
    w.key("diagnostics");
    write_diagnostics(w, &report.diagnostics);
    w.end_object();
}
