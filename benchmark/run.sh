#!/usr/bin/env bash
# The one command of the benchmark: builds `mp5serve` (root workspace)
# and the benchmark package, offline and in release mode, then runs the
# benchmark with the arguments given.
#
#   benchmark/run.sh                                   all workloads, then the traced pass
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --quick                           1/100 size smoke run
#
# Both builds go to $CARGO_TARGET_DIR (default: <repo>/target).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "run.sh: $root does not hold the mp5 sources (Cargo.toml, crates/);" \
         "the benchmark builds the program from source and cannot run without them" >&2
    exit 3
fi

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
export CARGO_NET_OFFLINE=true

build() {
    if ! cargo build --release --offline --quiet "$@" >&2; then
        echo "run.sh: build failed: cargo build --release --offline $*" >&2
        exit 3
    fi
}
build --manifest-path "$root/Cargo.toml" -p mp5-serve --bin mp5serve
build --manifest-path "$here/Cargo.toml"

exec "$target/release/mp5-benchmark" --results-dir "$here/results" "$@"
