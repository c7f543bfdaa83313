#!/bin/bash
# Regenerates every paper table and figure at full scale.
# Results land in results/*.txt; EXPERIMENTS.md records the comparison.
set -euo pipefail
export MP5_EXP_PACKETS=${MP5_EXP_PACKETS:-20000}
export MP5_EXP_SEEDS=${MP5_EXP_SEEDS:-10}
export MP5_EXP_JSON=${MP5_EXP_JSON:-$(pwd)/results}
cargo build --release -q -p mp5-sim --bin mp5exp
for b in table1 micro_d2 micro_d3 micro_d4 fig7a fig7b fig7c fig7d fig8 \
         ablation_fifo ablation_remap ablation_flow_order ext_chiplet; do
  echo "=== $b ==="
  ./target/release/mp5exp "$b" | tee "results/$b.txt"
done
