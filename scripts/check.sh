#!/bin/sh
# Repo gate: format, build, test (every serve drill included), docs,
# lint, clippy. Run before every commit.
#
# Works fully offline. Clippy is skipped (with a warning) when the
# component is not installed, so the gate degrades gracefully on
# minimal toolchains.
set -eu

cd "$(dirname "$0")/.."

# rustfmt over the root workspace. gesturebench/ is a workspace of its
# own (the benchmark) and keeps its own formatting.
echo "== cargo fmt --all --check =="
cargo fmt --all -- --check

echo "== cargo build --workspace --release =="
cargo build --workspace --release

echo "== cargo test --workspace (quiet) =="
cargo test --workspace -q

# The workspace tests above include every serve drill: the reconnect
# chaos run (tests/loopback.rs), the SIGKILL + --recover drill
# (tests/kill_recover.rs), the two-node kill and handoff drill
# (tests/cluster_drain.rs) and the 256-connection fan-out on each host
# readiness backend (tests/fanout.rs).

# Doc-link gate: a rustdoc warning (a dead or private intra-doc link)
# fails the gate instead of rendering a broken page.
echo "== cargo doc --workspace --no-deps (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The experiments runner prints every EXPERIMENTS.md table. The golden
# test (crates/bench/tests/experiments.rs) pins its seeded tables; running
# it here also executes the wall-clock tables (E4, B1's costs), which no
# test pins. The output lands in target/experiments.txt.
echo "== experiments runner (release) =="
cargo run -q -p grandma-bench --release --bin experiments > target/experiments.txt

# gesturebench (the BENCHMARK.json benchmark) is its own cargo workspace
# built against these crates' public API, so compile it here: an API
# change that breaks the benchmark fails the gate, not the benchmark
# run. The build rewrites gesturebench/Cargo.lock (the committed lock
# lacks grandma-core's grandma-events edge), so the lock is set aside
# first and put back even when the build fails.
echo "== gesturebench build (release) =="
cp gesturebench/Cargo.lock target/gesturebench-Cargo.lock
bench_status=0
cargo build --release --manifest-path gesturebench/Cargo.toml || bench_status=$?
cp target/gesturebench-Cargo.lock gesturebench/Cargo.lock
if [ "$bench_status" -ne 0 ]; then
    echo "gesturebench failed to build" >&2
    exit "$bench_status"
fi

# grandma-lint is the always-on static-analysis gate: panic-freedom,
# wire-protocol lockstep, hot-path alloc/index hygiene, float-comparison
# and unsafe-code policy, plus the interprocedural concurrency rules
# (reactor-blocking-call, lock-order-cycle, guard-across-call) over the
# workspace call graph. Dependency-free, so it runs on any toolchain.
# The machine-readable report lands in target/lint-report.json (schema
# grandma-lint/2, including each finding's call chain) *before* the
# deny-warnings gate, so a red gate still leaves the full report behind
# for tooling. Any finding not covered by lint-baseline.txt (and any
# stale baseline entry) fails the gate; see DESIGN.md §12.
echo "== grandma-lint (json report -> target/lint-report.json) =="
mkdir -p target
cargo run -p grandma-lint --release -- --format json > target/lint-report.json || true
echo "== grandma-lint (static-analysis gate, deny warnings) =="
cargo run -p grandma-lint --release -- --deny-warnings

if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy --workspace --all-targets =="
    cargo clippy --workspace --all-targets -- -D warnings
    # The interaction pipeline must not be able to panic on malformed
    # input: library code (not tests) in the recognition core, the linear
    # algebra kernel, the event substrate, the toolkit, and the serving
    # layer is held to a no-unwrap/no-expect/no-panic standard.
    echo "== clippy panic gate (core, linalg, events, toolkit, serve, cluster lib code) =="
    cargo clippy -p grandma-core -p grandma-linalg \
        -p grandma-events -p grandma-toolkit -p grandma-serve \
        -p grandma-cluster --lib --no-deps -- \
        -D warnings \
        -D clippy::unwrap_used \
        -D clippy::expect_used \
        -D clippy::panic
else
    echo "warning: clippy not installed; skipping lint" >&2
fi

# Non-test line counts per crate and per serve file: a report for
# quoting net lines, not a gate.
echo "== non-test lines (scripts/loc.sh) =="
sh scripts/loc.sh

echo "check.sh: all green"
