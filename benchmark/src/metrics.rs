//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound. One table
//! feeds the result line, `--compare` and the test that keeps
//! `BENCHMARK.json` in step with the code.
//!
//! Naming: `sim_*`, `*_cycles` and `*_bt` are *simulated* quantities —
//! pure functions of (program, configuration, seed) that repeat exactly
//! on one commit. Everything else is *host* time or memory and is
//! subject to the sandbox's noise.

use std::collections::BTreeMap;

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may worsen.
    /// Every end-to-end metric has one; of the per-layer metrics only
    /// the two the issue bounds (`--compare` enforces those; the
    /// contract's `per_layer` list has no place for a bound).
    pub bound: Option<f64>,
    pub est: Est,
    /// Per-layer metrics: the end-to-end metric this one should move,
    /// and on which workloads — written down before measuring.
    pub moves: &'static str,
}

/// Which statistic of a run's samples is the metric's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Est {
    /// The best rep: highest throughput / shortest time. On a shared
    /// host interference only ever slows a rep down (README, "Which
    /// statistic of the reps").
    Best,
    /// The median of the samples.
    Median,
    /// Simulated result or exact count: identical on every run of one
    /// commit with one seed, so `--compare` demands equality.
    Exact,
}

impl MetricDef {
    pub fn exact(&self) -> bool {
        self.est == Est::Exact
    }

    /// A host time (or a rate over one): what a noisy host distorts.
    /// Simulated results and memory it does not.
    pub fn host_time(&self) -> bool {
        !self.exact() && self.unit != "MB"
    }

    /// The metric's value given its samples' summary.
    pub fn value(&self, s: &Summary) -> f64 {
        match (self.est, self.better) {
            (Est::Best, Better::Higher) => s.max,
            (Est::Best, Better::Lower) => s.min,
            _ => s.median,
        }
    }

    /// How well the samples support the value, as a share of it: for a
    /// best-of metric the gap to the third best (a best that no two
    /// others came near is one lucky window, not a measurement),
    /// otherwise the interquartile range.
    pub fn spread(&self, s: &Summary) -> f64 {
        let v = self.value(s);
        if v == 0.0 {
            return 0.0;
        }
        match (self.est, self.better) {
            (Est::Best, Better::Higher) => (s.max - s.hi3) / v,
            (Est::Best, Better::Lower) => (s.lo3 - s.min) / v,
            _ => s.rel_iqr(),
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    est: Est,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        est,
        moves: "",
    }
}

const fn timing(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        est: Est::Median,
        moves,
    }
}

/// A per-layer timing the issue bounds. Its samples are one value per
/// traced rep and its value the best of them, for the reason
/// `pkts_per_s` is a best: the reps' median moved 12 % between two
/// runs of one binary, their minimum 0.1 %.
const fn bounded(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        bound: Some(bound),
        est: Est::Best,
        ..timing(name, unit, moves)
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        est: Est::Exact,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
/// The bounds are about three times the ten-seed spread measured on
/// the 2-core sandbox (README, "Spreads"), rounded up; for the
/// simulated metrics that spread is what the seed alone moves, and
/// `--compare` (same seed on both sides) still demands equality.
pub const END_TO_END: &[MetricDef] = &[
    e2e("pkts_per_s", "1/s", Higher, 0.25, Est::Best),
    e2e("setup_s", "s", Lower, 0.25, Est::Best),
    e2e("peak_rss_mb", "MB", Lower, 0.20, Est::Median),
    e2e("sim_norm_throughput", "ratio", Higher, 0.02, Est::Exact),
    e2e("sim_delivered_frac", "ratio", Higher, 0.01, Est::Exact),
];

// What each group of per-layer metrics should move.
const M_NONE: &str = "nothing: describes the instrument";
const M_FRONT: &str = "setup_s everywhere; serve.restore_p50_ms on serve-ckpt (restore recompiles)";
const M_KERNEL: &str = "pkts_per_s on minpkt-uniform, minpkt-hot1; none on dc-flowlet, serve-stdin";
const M_GEN: &str = "setup_s everywhere; pkts_per_s on fabric-dc (generated inline)";
const M_FEED: &str = "setup_s and pkts_per_s on serve-stdin only";
const M_CORE: &str = "pkts_per_s on dc-flowlet, minpkt-uniform, minpkt-hot1";
const M_TICK: &str = "pkts_per_s on dc-flowlet (the fixed cost of a cycle)";
const M_CORE_SIM: &str = "sim_norm_throughput on the switch workloads";
const M_LATENCY: &str =
    "itself: end to end in the issue; under open-loop overload it restates sim_norm_throughput";
const M_SATURATED: &str = "pkts_per_s on minpkt-uniform; none on dc-flowlet";
const M_DEEP: &str = "pkts_per_s on minpkt-hot1, minpkt-uniform; none on dc-flowlet";
const M_WAIT: &str = "core.sim_latency_p50_cycles, core.sim_latency_p99_cycles";
const M_BANZAI: &str = "nothing: the reference, useful work per packet";
const M_EST: &str = "pkts_per_s on the switch workloads, by this share at most";
const M_TOPO: &str = "pkts_per_s on fabric-dc only";
const M_TOPO_SIM: &str = "sim_delivered_frac, sim_norm_throughput on fabric-dc";
const M_SELF: &str = "itself: a user of serve-ckpt sees it";
const M_CKPT: &str = "serve.ckpt_p50_us, pkts_per_s on serve-ckpt only";
const M_RESTORE: &str = "serve.restore_p50_ms, pkts_per_s on serve-ckpt only";
const M_WRITE: &str = "nothing the benchmark times: the fsync'd write is outside the rep";
const M_INGEST: &str = "pkts_per_s on serve-stdin only";
const M_TRACE: &str = "pkts_per_s, peak_rss_mb on traced-audit only";

/// One layer each (layer = crate name = the part before the dot),
/// measured in the traced run. A value of 0 on a timing means the layer
/// is not on that workload's path (or is opaque from outside).
pub const PER_LAYER: &[MetricDef] = &[
    // The instrument itself.
    timing("bench.timer_ns", "ns", M_NONE),
    timing("bench.trace_overhead_ratio", "ratio", M_NONE),
    timing("bench.calib_drift", "ratio", M_NONE),
    // Front end and compiler.
    timing("lang.frontend_ms", "ms", M_FRONT),
    timing("compiler.compile_ms", "ms", M_FRONT),
    timing("compiler.kernel_ns_per_lane", "ns", M_KERNEL),
    // Traffic generation.
    timing("traffic.gen_ns_per_pkt", "ns", M_GEN),
    count("traffic.jsonl_bytes_per_pkt", "B", Lower, M_FEED),
    // The switch core, timed call by call from outside.
    timing("core.new_ms", "ms", M_CORE),
    timing("core.offer_ns_per_pkt", "ns", M_CORE),
    timing("core.tick_ns_per_pkt", "ns", M_CORE),
    timing("core.tick_p50_ns", "ns", M_TICK),
    timing("core.tick_p99_ns", "ns", M_CORE),
    timing("core.drain_ns_per_pkt", "ns", M_CORE),
    timing("core.finish_ms", "ms", M_CORE),
    timing("core.remap_us_per_call", "us", M_CORE),
    timing("core.overhead_vs_banzai", "ratio", M_CORE),
    count("core.cycles", "cycles", Lower, M_CORE_SIM),
    count("core.pkts_per_cycle", "ratio", Higher, M_CORE_SIM),
    count("core.steers_per_pkt", "ratio", Lower, M_CORE_SIM),
    count("core.phantoms_per_pkt", "ratio", Lower, M_CORE_SIM),
    count("core.remap_moves", "count", Lower, M_CORE_SIM),
    count("core.max_queue_depth", "count", Lower, M_CORE_SIM),
    count("core.wasted_cycles", "count", Lower, M_CORE_SIM),
    count("core.drops", "count", Lower, M_CORE_SIM),
    count("core.sim_latency_p50_cycles", "cycles", Lower, M_LATENCY),
    count("core.sim_latency_p99_cycles", "cycles", Lower, M_LATENCY),
    // FIFO banks, crossbar, phantom channel (crate `mp5-fabric`).
    timing("fabric.fifo_shallow_ns_per_op", "ns", M_SATURATED),
    timing("fabric.fifo_deep_ns_per_op", "ns", M_DEEP),
    timing("fabric.xbar_ns_per_route", "ns", M_SATURATED),
    timing("fabric.channel_ns_per_phantom", "ns", M_SATURATED),
    count("fabric.queue_wait_p50_cycles", "cycles", Lower, M_WAIT),
    count("fabric.queue_wait_p99_cycles", "cycles", Lower, M_WAIT),
    // The single-pipeline reference: executing the program once.
    timing("banzai.ns_per_pkt", "ns", M_BANZAI),
    // Outside-in cost shares of `core.tick` busy time.
    timing("est.kernel_share", "ratio", M_EST),
    timing("est.fifo_share", "ratio", M_EST),
    timing("est.xbar_share", "ratio", M_EST),
    timing("est.channel_share", "ratio", M_EST),
    timing("est.remap_share", "ratio", M_EST),
    timing("est.other_share", "ratio", M_EST),
    // The multi-switch fabric (crate `mp5-topo`).
    timing("topo.new_ms", "ms", M_TOPO),
    timing("topo.run_ns_per_tick", "ns", M_TOPO),
    timing("topo.run_ns_per_hop", "ns", M_TOPO),
    timing("topo.link_ns_per_op", "ns", M_TOPO),
    timing("topo.route_ns_per_pick", "ns", M_TOPO),
    count("topo.ticks", "count", Lower, M_TOPO_SIM),
    count("topo.hops_per_pkt", "ratio", Lower, M_TOPO_SIM),
    count("topo.link_drop_share", "ratio", Lower, M_TOPO_SIM),
    count("topo.max_link_util", "ratio", Lower, M_TOPO_SIM),
    count("topo.sim_fct_p50_bt", "bt", Lower, M_TOPO_SIM),
    count("topo.sim_fct_p99_bt", "bt", Lower, M_TOPO_SIM),
    // Live operation: snapshots and ingest (crate `mp5-serve`). The
    // two bounded ones are end-to-end metrics in the issue; here every
    // workload must report every end-to-end metric, and only one
    // workload takes checkpoints.
    bounded("serve.ckpt_p50_us", "us", 0.10, M_SELF),
    timing("serve.ckpt_p99_us", "us", M_CKPT),
    bounded("serve.restore_p50_ms", "ms", 0.10, M_SELF),
    timing("serve.extract_us_p50", "us", M_CKPT),
    timing("serve.encode_us_p50", "us", M_CKPT),
    timing("serve.write_us_p50", "us", M_WRITE),
    timing("serve.decode_us_p50", "us", M_RESTORE),
    timing("serve.restore_us_p50", "us", M_RESTORE),
    count("serve.snapshot_bytes", "B", Lower, M_CKPT),
    timing("serve.ckpt_time_share", "ratio", M_CKPT),
    timing("serve.parse_ns_per_pkt", "ns", M_INGEST),
    timing("serve.proc_start_ms", "ms", M_INGEST),
    timing("serve.ingest_share_est", "ratio", M_INGEST),
    // The event stream (crate `mp5-trace`).
    count("trace.events_per_pkt", "ratio", Lower, M_TRACE),
    count("trace.bytes_per_event", "B", Lower, M_TRACE),
    timing("trace.memsink_overhead_ratio", "ratio", M_TRACE),
    timing("trace.encode_ns_per_event", "ns", M_TRACE),
    timing("trace.decode_ns_per_event", "ns", M_TRACE),
    timing("trace.audit_ns_per_event", "ns", M_TRACE),
    timing("trace.hash_ns_per_event", "ns", M_TRACE),
    timing("trace.rollup_ns_per_event", "ns", M_TRACE),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The measured values of one run, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<&'static str, Summary>);

impl Metrics {
    /// Records a metric measured once (a count, a simulated result, a
    /// single traced rep).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_summary(name, Summary::exact(value));
    }

    pub fn set_summary(&mut self, name: &'static str, s: Summary) {
        debug_assert!(lookup(name).is_some(), "metric {name} is not catalogued");
        self.0.insert(name, s);
    }

    /// The metric's value: the statistic its catalogue entry names.
    pub fn get(&self, name: &str) -> Option<f64> {
        let def = lookup(name)?;
        self.0.get(name).map(|s| def.value(s))
    }

    /// Fills every catalogued metric of `defs` that was not measured
    /// with 0 — "layer not on this workload's path".
    pub fn fill_absent(&mut self, defs: &[MetricDef]) {
        for d in defs {
            self.0.entry(d.name).or_insert_with(|| Summary::exact(0.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` is the contract the driver reads; the tables
    /// above are what the code prints. They must name the same metrics
    /// with the same unit, direction and bound.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc[key].as_array().expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key}: count");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j["name"], d.name);
                assert_eq!(j["unit"], d.unit, "{}", d.name);
                let better = match d.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                assert_eq!(j["better"], better, "{}", d.name);
                // The contract gives `per_layer` entries no bound.
                let listed_bound = (key == "end_to_end").then_some(d.bound).flatten();
                assert_eq!(j["bound"].as_f64(), listed_bound, "{}", d.name);
            }
        }
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(PER_LAYER.iter().all(|d| !d.moves.is_empty()));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }
}
