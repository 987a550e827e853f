#!/bin/sh
# Repo gate: build, test, chaos suite, lint. Run before every commit.
#
# Works fully offline. Clippy is skipped (with a warning) when the
# component is not installed, so the gate degrades gracefully on
# minimal toolchains.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --workspace --release =="
cargo build --workspace --release

echo "== cargo test --workspace (quiet) =="
cargo test --workspace -q

# The chaos suite already runs as part of the workspace tests above; two
# serve suites are worth calling out by name, and each runs once per
# reactor backend so both sides of the sys::Poller abstraction stay
# green: the loopback suite (64 concurrent TCP sessions held
# byte-identical to the in-process pipeline) and the wire v2 equivalence
# suite (batched EventBatch delivery byte-identical to single-Event
# delivery, over the in-process duplex transport and real TCP).
# An empty backend means the platform default (epoll on Linux).
for backend in "" poll; do
    label="${backend:-default}"
    for suite in loopback batch_equivalence; do
        echo "== serve $suite suite ($label backend) =="
        GRANDMA_POLL_BACKEND="$backend" \
            cargo test -p grandma-serve --test "$suite" -q
    done
done

# Fast-path smoke: a short serve_load run must finish with zero decode
# errors and zero busy rejections on both the batched and unbatched
# client disciplines, and the reactor (default backend: epoll on Linux)
# must hold a 256-connection sweep tier with zero connect failures and
# zero failed round trips.
echo "== serve_load smoke (batched + unbatched + 256-conn sweep) =="
cargo run -p grandma-bench --bin serve_load --release -- --smoke --connections 256

# Crash-safety drill (DESIGN.md §14): the chaos run forces mid-stream
# disconnects against an in-process service and holds the resume
# invariants. The SIGKILL + --recover drill against a real serve child
# is the grandma-serve suite tests/kill_recover.rs, run by the workspace
# tests above.
echo "== serve_load chaos (reconnecting client, forced disconnects) =="
cargo run -p grandma-bench --bin serve_load --release -- --chaos

# Cluster drill (DESIGN.md §15): two registered nodes, consistent-hash
# routing, SIGKILL of the node owning the majority of sessions, WAL
# replay + live snapshot handoff to the ring successor, and every moved
# session must resume on the successor with zero cross-session
# contamination.
echo "== serve_load cluster drill (2 nodes, kill + handoff) =="
cargo run -p grandma-bench --bin serve_load --release -- --cluster 2 --kill-node --smoke

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

echo "check.sh: all green"
