//! Switch configuration.

/// A structurally invalid [`SwitchConfig`], reported by
/// [`SwitchConfig::validate`] (and by `Mp5Switch::try_new` /
/// `Mp5Switch::try_with_sink`) instead of silently "fixing" the
/// configuration at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `pipelines` was zero.
    ZeroPipelines,
    /// `physical_pipelines` was smaller than the logical pipeline
    /// count. A logical MP5 can only use a *subset* of the chip, so the
    /// physical count must be at least the logical one. (Older versions
    /// silently clamped the value upward, hiding the mistake.)
    PhysicalPipelinesBelowLogical {
        /// The configured physical pipeline count.
        physical: usize,
        /// The logical pipeline count it must at least match.
        logical: usize,
    },
    /// `remap_period` was zero: "every 0 cycles" is no schedule (it used
    /// to be accepted and quietly never remapped).
    ZeroRemapPeriod,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroPipelines => write!(f, "switch needs at least one pipeline"),
            ConfigError::PhysicalPipelinesBelowLogical { physical, logical } => write!(
                f,
                "physical_pipelines ({physical}) is smaller than the logical pipeline \
                 count ({logical}); a logical MP5 cannot outnumber the chip's pipelines"
            ),
            ConfigError::ZeroRemapPeriod => write!(
                f,
                "remap_period is 0; the sharding heuristic needs a period of at least one cycle"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How register state is distributed across pipelines (design principle
/// D2 and its ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ShardingMode {
    /// Paper behaviour: indexes start round-robin across pipelines and
    /// the Figure 6 heuristic re-balances them every
    /// [`SwitchConfig::remap_period`] cycles.
    Dynamic,
    /// D2 ablation: indexes are sharded randomly at "compile time"
    /// (seeded) and never moved.
    Static,
    /// All state pinned to pipeline 0 (the naive design of §3.1 /
    /// challenge #1, and the destination for unshardable arrays).
    Pinned,
    /// Ideal upper bound (§4.3.3): every period, the Figure 6 balancer
    /// iterated to a fixed point over cumulative counters
    /// ([`crate::shard::remap_to_fixpoint`]).
    IdealPeriodic,
}

/// How arriving packets are assigned to pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SprayMode {
    /// Uniformly spray arrivals round-robin over all pipelines (D1).
    RoundRobin,
    /// Send every packet to one pipeline (the naive design: throughput
    /// capped at `1/k` of line rate).
    SinglePipeline(usize),
    /// Today's multi-pipelined switches (§2.3): ports 0–63 map to the
    /// pipelines in contiguous blocks, and there is no crossbar. A
    /// packet whose next stateful stage is owned by another pipeline
    /// finishes its pass, loops back to that pipeline's ingress and
    /// takes its slot ahead of fresh arrivals; it recirculates.
    PortBlocks,
}

/// Full configuration of an [`crate::Mp5Switch`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SwitchConfig {
    /// Number of parallel pipelines `k` (paper default 4).
    pub pipelines: usize,
    /// Per-lane FIFO capacity; `None` = unbounded (the paper's
    /// "dynamically adapt FIFO sizes" mode used for sensitivity
    /// experiments). Paper hardware default: 8.
    pub fifo_capacity: Option<usize>,
    /// Cycles between runs of the sharding heuristic (paper: 100).
    pub remap_period: u64,
    /// State distribution policy.
    pub sharding: ShardingMode,
    /// Enable phantom packets (design principle D4). Disabling yields
    /// the no-D4 ablation, which violates C1.
    pub phantoms: bool,
    /// Ideal-MP5 option: one queue per register index (no head-of-line
    /// blocking, §3.5.2 limitation 2 removed).
    pub per_index_fifos: bool,
    /// Packet-to-pipeline assignment at ingress.
    pub spray: SprayMode,
    /// If set, a queued stateful packet older than this many cycles
    /// causes incoming stateless (tag-free) packets to be dropped in its
    /// favor (§3.4 "Handling starvation").
    pub starvation_threshold: Option<u64>,
    /// If set, mark a data packet's ECN bit when it joins a stateful
    /// stage FIFO whose occupancy exceeds this threshold (§3.4's
    /// backpressure suggestion). Marking never changes processing.
    pub ecn_threshold: Option<usize>,
    /// Seed for the Static sharding shuffle.
    pub seed: u64,
    /// Hard cap on simulated cycles (defense against livelock bugs);
    /// `None` = derived from the trace length.
    pub max_cycles: Option<u64>,
    /// Physical pipeline count governing the clock period (`64·k_phys`
    /// byte-times per cycle). Defaults to `pipelines`. Set by
    /// [`crate::partition`] when this switch is a *logical* MP5 using
    /// only a subset of the chip's pipelines (paper §3.1, footnote 1):
    /// the pipelines still run at the physical chip's rate `N·B/k_phys`.
    /// Must be `>= pipelines` (checked by [`SwitchConfig::validate`]).
    pub physical_pipelines: Option<usize>,
    /// Record per-packet artifacts in the report: the per-packet output
    /// field map, the completion list, and the per-index access log.
    /// Defaults to `true` (the historical behaviour every equivalence
    /// test relies on). Fabric-scale runs — millions of packets across
    /// many switches — turn this off so report memory stays O(registers)
    /// instead of O(packets); aggregate counters (`offered`,
    /// `completed`, drops, ECN marks, …) are always recorded.
    pub record_detail: bool,
}

impl SwitchConfig {
    /// The paper's default MP5 configuration with `k` pipelines and
    /// adaptive (unbounded) FIFOs.
    pub fn mp5(pipelines: usize) -> Self {
        SwitchConfig {
            pipelines,
            fifo_capacity: None,
            remap_period: 100,
            sharding: ShardingMode::Dynamic,
            phantoms: true,
            per_index_fifos: false,
            spray: SprayMode::RoundRobin,
            starvation_threshold: None,
            ecn_threshold: None,
            seed: 0,
            max_cycles: None,
            physical_pipelines: None,
            record_detail: true,
        }
    }

    /// The ideal-MP5 upper bound (§4.3.3's baseline): no head-of-line
    /// blocking, fixed-point re-sharding.
    pub fn ideal(pipelines: usize) -> Self {
        SwitchConfig {
            sharding: ShardingMode::IdealPeriodic,
            per_index_fifos: true,
            ..Self::mp5(pipelines)
        }
    }

    /// The no-D4 ablation (§4.3.2): steering and sharding but no
    /// order enforcement.
    pub fn no_d4(pipelines: usize) -> Self {
        SwitchConfig {
            phantoms: false,
            ..Self::mp5(pipelines)
        }
    }

    /// The static-sharding ablation (§4.3.2).
    pub fn static_shard(pipelines: usize, seed: u64) -> Self {
        SwitchConfig {
            sharding: ShardingMode::Static,
            seed,
            ..Self::mp5(pipelines)
        }
    }

    /// The naive design: all state and all packets on pipeline 0.
    pub fn naive(pipelines: usize) -> Self {
        SwitchConfig {
            sharding: ShardingMode::Pinned,
            spray: SprayMode::SinglePipeline(0),
            ..Self::mp5(pipelines)
        }
    }

    /// Today's hardware (§2.3): static port-to-pipeline blocks, the
    /// static shards of [`SwitchConfig::static_shard`] with seed 0, no
    /// phantoms, and recirculation to the pipeline owning a state.
    pub fn recirc(pipelines: usize) -> Self {
        SwitchConfig {
            spray: SprayMode::PortBlocks,
            phantoms: false,
            ..Self::static_shard(pipelines, 0)
        }
    }

    /// Hardware-faithful FIFO bound (8 per lane, §4.2).
    pub fn with_hardware_fifos(mut self) -> Self {
        self.fifo_capacity = Some(8);
        self
    }

    /// Toggles per-packet report artifacts (builder style); see
    /// [`SwitchConfig::record_detail`].
    pub fn with_record_detail(mut self, on: bool) -> Self {
        self.record_detail = on;
        self
    }

    /// Checks the configuration for structural errors.
    ///
    /// Called by `Mp5Switch::try_new` / `try_with_sink`; the panicking
    /// constructors (`new`, `with_sink`) unwrap its result. Notably,
    /// `physical_pipelines < pipelines` is now a hard error — earlier
    /// versions silently clamped it up to the logical count, which hid
    /// miswired [`crate::partition`] call sites.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pipelines == 0 {
            return Err(ConfigError::ZeroPipelines);
        }
        if let Some(phys) = self.physical_pipelines {
            if phys < self.pipelines {
                return Err(ConfigError::PhysicalPipelinesBelowLogical {
                    physical: phys,
                    logical: self.pipelines,
                });
            }
        }
        if self.remap_period == 0 {
            return Err(ConfigError::ZeroRemapPeriod);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_right_knobs() {
        let mp5 = SwitchConfig::mp5(4);
        assert!(mp5.phantoms);
        assert_eq!(mp5.sharding, ShardingMode::Dynamic);
        assert_eq!(mp5.remap_period, 100);

        let ideal = SwitchConfig::ideal(4);
        assert!(ideal.per_index_fifos);
        assert_eq!(ideal.sharding, ShardingMode::IdealPeriodic);

        assert!(!SwitchConfig::no_d4(4).phantoms);
        assert_eq!(
            SwitchConfig::static_shard(4, 7).sharding,
            ShardingMode::Static
        );

        let naive = SwitchConfig::naive(4);
        assert_eq!(naive.spray, SprayMode::SinglePipeline(0));
        assert_eq!(naive.sharding, ShardingMode::Pinned);

        let recirc = SwitchConfig::recirc(4);
        assert_eq!(recirc.spray, SprayMode::PortBlocks);
        assert_eq!((recirc.sharding, recirc.seed), (ShardingMode::Static, 0));
        assert!(!recirc.phantoms);

        assert_eq!(mp5.with_hardware_fifos().fifo_capacity, Some(8));
    }

    #[test]
    fn validate_catches_structural_errors() {
        assert_eq!(SwitchConfig::mp5(4).validate(), Ok(()));

        let zero = SwitchConfig {
            pipelines: 0,
            ..SwitchConfig::mp5(1)
        };
        assert_eq!(zero.validate(), Err(ConfigError::ZeroPipelines));

        let shrunk = SwitchConfig {
            physical_pipelines: Some(2),
            ..SwitchConfig::mp5(4)
        };
        assert_eq!(
            shrunk.validate(),
            Err(ConfigError::PhysicalPipelinesBelowLogical {
                physical: 2,
                logical: 4
            })
        );
        // Equal or larger is fine (logical partition of a bigger chip).
        let ok = SwitchConfig {
            physical_pipelines: Some(8),
            ..SwitchConfig::mp5(4)
        };
        assert_eq!(ok.validate(), Ok(()));

        let never = SwitchConfig {
            remap_period: 0,
            ..SwitchConfig::mp5(4)
        };
        assert_eq!(never.validate(), Err(ConfigError::ZeroRemapPeriod));
    }
}
