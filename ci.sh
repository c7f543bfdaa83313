#!/bin/sh
# CI entry point: build, test, lint, and check formatting for the whole
# workspace. Run from the repository root. Any failure fails the run.
#
# Usage: ./ci.sh [--quick]
#
#   --quick      skip the slow static passes (clippy, rustdoc) — used by
#                the CI smoke job and the pre-push hook (see README).
set -eu

# Single EXIT trap for every temporary this script creates. Individual
# `trap ... EXIT` lines would silently overwrite each other (sh keeps
# one handler per signal), leaking whichever temporaries the earlier
# handlers covered — so steps only fill in the variables below.
TRACE_TMP=""
FABRIC_TMP=""
SERVE_TMP=""
cleanup() {
    if [ -n "$TRACE_TMP" ]; then rm -f "$TRACE_TMP"; fi
    if [ -n "$FABRIC_TMP" ]; then rm -rf "$FABRIC_TMP"; fi
    if [ -n "$SERVE_TMP" ]; then rm -rf "$SERVE_TMP"; fi
}
trap cleanup EXIT

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "ci.sh: unknown argument '$arg' (usage: ./ci.sh [--quick])" >&2; exit 2 ;;
    esac
done

# Fail fast with a clear message if an expected release binary is
# missing (e.g. a renamed [[bin]] target), instead of a confusing
# "not found" halfway through the run.
need_bin() {
    if [ ! -x "target/release/$1" ]; then
        echo "ci.sh: missing release binary target/release/$1 (did the [[bin]] target change?)" >&2
        exit 1
    fi
}

echo "==> cargo build --release --workspace"
# --workspace: the root package depends on the member crates as
# libraries only, so a plain build leaves their binaries (everything
# need_bin checks below) missing or, worse, stale.
cargo build --release --workspace

echo "==> mp5-fabric stays a pure hardware model: no mp5-trace dependency"
# The FIFO, the crossbar and the phantom channel emit nothing; the
# switch's stage queue writes their events from what they return
# (DESIGN.md §2). The tree is captured first so a failing `cargo tree`
# fails the step instead of reading as "no match".
FABRIC_DEPS=$(cargo tree -p mp5-fabric -e normal --offline)
if printf '%s\n' "$FABRIC_DEPS" | grep -q 'mp5-trace'; then
    echo "ci.sh: mp5-fabric depends on mp5-trace:" >&2
    printf '%s\n' "$FABRIC_DEPS" >&2
    exit 1
fi

echo "==> cargo test --workspace"
# --workspace: at a workspace root that is itself a package, a plain
# `cargo test` runs the facade crate's tests only; the member crates'
# own suites (FIFO properties, the switch units in
# crates/core/src/switch/tests.rs, the traffic golden digests, each
# CLI's crates/*/tests/bad_flags.rs) pin the bit-identity contracts and
# the process boundary and must run here.
cargo test -q --workspace

echo "==> vendored crates' own tests"
# vendor/ is excluded from the workspace, so nothing above runs these;
# the codec every snapshot, packet feed and report goes through lives
# there. One shared target dir keeps vendor/ itself clean.
for crate in serde serde_derive serde_json rand; do
    cargo test -q --offline --manifest-path "vendor/$crate/Cargo.toml" \
        --target-dir target/vendor
done

echo "==> benchmark package builds and passes its tests against this vendor/"
# benchmark/ is its own workspace with path deps on crates/ and vendor/:
# a vendored-API break must show here, not in the benchmark run.
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target

if [ "$QUICK" -eq 0 ]; then
    echo "==> cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> the vendored JSON codec: rustfmt, and clippy unless --quick"
# vendor/ is excluded from the workspace, so the two passes above never
# see the codec every snapshot, packet feed, report and trace line
# goes through.
for crate in serde serde_derive serde_json; do
    if [ "$QUICK" -eq 0 ]; then
        cargo clippy -q --offline --manifest-path "vendor/$crate/Cargo.toml" \
            --target-dir target/vendor --all-targets -- -D warnings
    fi
    cargo fmt --manifest-path "vendor/$crate/Cargo.toml" -- --check
done

need_bin mp5lint
need_bin mp5run
need_bin mp5audit
need_bin mp5chaos
need_bin mp5fabric
need_bin mp5serve
need_bin mp5exp

echo "==> every paper table and figure through mp5exp (tiny scale)"
# tests/figures.rs pins their bytes at this scale; this drives the binary
# end to end and fails if a slice's claim does not hold (D4's zero C1
# violations, enforced flow order's zero reordered flows).
MP5_EXP_PACKETS=200 MP5_EXP_SEEDS=1 ./target/release/mp5exp all >/dev/null

echo "==> mp5lint over the program corpus"
./target/release/mp5lint -q crates/apps/programs \
    crates/analysis/fixtures/broken crates/analysis/fixtures/clean
# The targeted fixtures fire only under the target their header names.
./target/release/mp5lint -q --no-pairs \
    crates/analysis/fixtures/targeted/pairs_unsupported.mp5
./target/release/mp5lint -q --max-stages=2 \
    crates/analysis/fixtures/targeted/too_many_stages.mp5

echo "==> traced smoke run through the offline auditor"
TRACE_TMP=$(mktemp -t mp5-ci-trace.XXXXXX)
./target/release/mp5run crates/apps/programs/flowlet.mp5 \
    --packets 4000 --trace "$TRACE_TMP"
./target/release/mp5audit --quiet "$TRACE_TMP"
# The file and stdin readers meet the lines at different buffer edges;
# both must read every line of the file.
AUDIT_FILE=$(./target/release/mp5audit --json "$TRACE_TMP")
AUDIT_STDIN=$(./target/release/mp5audit --json - < "$TRACE_TMP")
if [ "$AUDIT_FILE" != "$AUDIT_STDIN" ]; then
    echo "ci.sh: mp5audit --json reads the trace file and stdin differently" >&2
    exit 1
fi
AUDIT_EVENTS=$(printf '%s\n' "$AUDIT_FILE" | sed -n 's/^{"events":\([0-9]*\),.*/\1/p')
TRACE_LINES=$(wc -l < "$TRACE_TMP" | tr -d ' ')
if [ "$AUDIT_EVENTS" != "$TRACE_LINES" ]; then
    echo "ci.sh: mp5audit read $AUDIT_EVENTS events from $TRACE_LINES lines" >&2
    exit 1
fi

echo "==> chaos smoke: 60 harness cases of the bundled apps under chaos plans"
# Every case holds the model harness's checks (Banzai's relation,
# conservation, the fault ledger, a clean audit, traced = untraced) and
# is checkpointed through the snapshot codec, restored under its live
# fault plan and hot-swapped, and must finish with the uninterrupted
# run's report and stream. Cases 0..60 are fixed, so this cannot flake;
# the nightly CI job sweeps a fresh window.
./target/release/mp5chaos --cases 60

echo "==> faulted replay smoke: chaos seed through mp5run + auditor"
./target/release/mp5run crates/apps/programs/flowlet.mp5 \
    --packets 4000 --chaos-seed 3 --audit

echo "==> fabric smoke: traced 2x2 leaf-spine run, auditor"
FABRIC_TMP=$(mktemp -d -t mp5-ci-fabric.XXXXXX)
./target/release/mp5fabric --leaves 2 --spines 2 --flows 500 \
    --trace-dir "$FABRIC_TMP" --audit --quiet
for f in "$FABRIC_TMP"/sw*.jsonl; do
    ./target/release/mp5audit --quiet "$f"
done

echo "==> fabric smoke: flowlet routing, auditor"
# Flowlet routing keeps (and sweeps) a per-flow table the ECMP run above
# never touches.
./target/release/mp5fabric --leaves 2 --spines 2 --flows 3000 --routing flowlet:2000 \
    --audit --quiet

echo "==> fabric chaos smoke: spine fail-stop mid-run, ledger closed"
./target/release/mp5chaos --fabric --cases 4

echo "==> serve smoke: checkpoint / kill / restore stitches the identical stream"
# A run halted at a checkpoint and restored from the snapshot file must
# emit exactly the event stream of the run that was never interrupted.
# So must the same halt written by the retired parallel engine on the
# retired scalar exec path (tests/golden/par_scalar.snap). Lifecycle
# markers (snapshot/restored/swap) describe operator actions, not
# simulated behaviour, so they are stripped before the byte compare;
# the stitched streams must also satisfy the offline auditor.
SERVE_TMP=$(mktemp -d -t mp5-ci-serve.XXXXXX)
./target/release/mp5serve --app flowlet --packets 800 \
    --trace "$SERVE_TMP/full.jsonl"
./target/release/mp5serve --app flowlet --packets 800 \
    --snapshot "$SERVE_TMP/ckpt.snap" --halt-at 120 \
    --trace "$SERVE_TMP/pre.jsonl"
# mp5serve keeps no per-packet history (record_detail off), so its
# checkpoint carries live state and the unread feed, not the run so far.
for field in '"record_detail":false' '"outputs":[]' '"completions":[]' '"access_log":[]'; do
    grep -qF "$field" "$SERVE_TMP/ckpt.snap" || {
        echo "ci.sh: the mp5serve snapshot lacks $field: it holds per-packet history" >&2
        exit 1
    }
done
for snap in "$SERVE_TMP/ckpt.snap" tests/golden/par_scalar.snap; do
    ./target/release/mp5serve --restore "$snap" --trace "$SERVE_TMP/post.jsonl"
    grep -hv '"k":"snapshot"\|"k":"restored"\|"k":"swap"' \
        "$SERVE_TMP/pre.jsonl" "$SERVE_TMP/post.jsonl" > "$SERVE_TMP/stitched.jsonl"
    cmp "$SERVE_TMP/full.jsonl" "$SERVE_TMP/stitched.jsonl" || {
        echo "ci.sh: the run restored from $snap diverged from the uninterrupted run" >&2
        exit 1
    }
    ./target/release/mp5audit --quiet "$SERVE_TMP/stitched.jsonl"
done

echo "==> serve smoke: a streamed stdin feed, audited and stitched across a halt"
# tests/golden/feed.jsonl was generated under tests/golden/feed.dsl. The
# streamed run must audit clean; a halt at cycle 2 (which ingests the
# rest of the feed into its checkpoint) restored from the snapshot must
# emit the uninterrupted run's stream.
./target/release/mp5serve tests/golden/feed.dsl --stdin \
    --trace "$SERVE_TMP/feed-full.jsonl" < tests/golden/feed.jsonl > "$SERVE_TMP/feed.out"
./target/release/mp5audit --quiet "$SERVE_TMP/feed-full.jsonl"
./target/release/mp5serve tests/golden/feed.dsl --stdin --halt-at 2 \
    --snapshot "$SERVE_TMP/feed.snap" --trace "$SERVE_TMP/feed-pre.jsonl" \
    < tests/golden/feed.jsonl
./target/release/mp5serve --restore "$SERVE_TMP/feed.snap" \
    --trace "$SERVE_TMP/feed-post.jsonl"
grep -hv '"k":"snapshot"\|"k":"restored"\|"k":"swap"' \
    "$SERVE_TMP/feed-pre.jsonl" "$SERVE_TMP/feed-post.jsonl" > "$SERVE_TMP/feed-stitched.jsonl"
cmp "$SERVE_TMP/feed-full.jsonl" "$SERVE_TMP/feed-stitched.jsonl" || {
    echo "ci.sh: the streamed feed restored from its halt diverged from the uninterrupted run" >&2
    exit 1
}

echo "==> serve smoke: a feed line that repeats the one before it is rejected"
# A port delivers at most one packet per byte-time, so two lines with
# the same (arrival, port) are no real input, and the FIFOs cannot order
# them (DESIGN.md §8, defect 7): line 3 repeated as line 4 must stop the
# run with exit 1 and an error naming line 4.
sed '3p' tests/golden/feed.jsonl > "$SERVE_TMP/feed-dup.jsonl"
status=0
./target/release/mp5serve tests/golden/feed.dsl --stdin < "$SERVE_TMP/feed-dup.jsonl" \
    > /dev/null 2> "$SERVE_TMP/feed-dup.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q 'packet feed line 4: ' "$SERVE_TMP/feed-dup.err"; then
    echo "ci.sh: a repeated feed line must exit 1 naming line 4 (exit $status):" >&2
    cat "$SERVE_TMP/feed-dup.err" >&2
    exit 1
fi

echo "==> serve smoke: one id on every packet serves as the original feed"
# Packet ids are labels (DESIGN.md §8, defect 6): with every id of the
# feed set to 7 the run must end in the original's done: line, and a
# halt at cycle 2 restored from its snapshot must emit the relabelled
# run's stream, so a restore does not lean on unique ids either. The
# timeout turns a hang into a failure. The auditor keys its checks by
# packet id, so it does not run on these streams.
sed -E 's/"id":[0-9]+/"id":7/' tests/golden/feed.jsonl > "$SERVE_TMP/feed7.jsonl"
timeout 60 ./target/release/mp5serve tests/golden/feed.dsl --stdin \
    --trace "$SERVE_TMP/feed7-full.jsonl" < "$SERVE_TMP/feed7.jsonl" > "$SERVE_TMP/feed7.out"
grep '^done:' "$SERVE_TMP/feed.out" > "$SERVE_TMP/feed.done"
grep '^done:' "$SERVE_TMP/feed7.out" > "$SERVE_TMP/feed7.done"
cmp "$SERVE_TMP/feed.done" "$SERVE_TMP/feed7.done" || {
    echo "ci.sh: the relabelled feed did not finish as the original" >&2
    exit 1
}
timeout 60 ./target/release/mp5serve tests/golden/feed.dsl --stdin --halt-at 2 \
    --snapshot "$SERVE_TMP/feed7.snap" --trace "$SERVE_TMP/feed7-pre.jsonl" \
    < "$SERVE_TMP/feed7.jsonl"
timeout 60 ./target/release/mp5serve --restore "$SERVE_TMP/feed7.snap" \
    --trace "$SERVE_TMP/feed7-post.jsonl"
grep -hv '"k":"snapshot"\|"k":"restored"\|"k":"swap"' \
    "$SERVE_TMP/feed7-pre.jsonl" "$SERVE_TMP/feed7-post.jsonl" > "$SERVE_TMP/feed7-stitched.jsonl"
cmp "$SERVE_TMP/feed7-full.jsonl" "$SERVE_TMP/feed7-stitched.jsonl" || {
    echo "ci.sh: the relabelled feed restored from its halt diverged from its uninterrupted run" >&2
    exit 1
}

echo "==> serve smoke: zero-downtime hot-swap, ledger closed"
./target/release/mp5serve --app flowlet --packets 800 \
    --swap-at 120 --swap-program crates/apps/programs/flowlet.mp5

if [ "$QUICK" -eq 0 ]; then
    echo "==> cargo doc (deny warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
fi

echo "CI OK"
