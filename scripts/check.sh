#!/usr/bin/env bash
# Repo gate: formatting, lints, offline build, and the full test suite.
# Everything must pass before a commit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: release build + root-package tests"
cargo build --release --offline
cargo test -q --offline

echo "== full workspace tests"
cargo test --workspace -q --offline

# perfbench is its own workspace, so the steps above never compile it;
# --locked also fails if its frozen Cargo.lock would change.
echo "== benchmark builds against the current crates"
cargo check --offline --locked --manifest-path perfbench/Cargo.toml

# The svt packages only — vendor/ stand-ins are out of scope for the
# documentation gate.
SVT_PKGS=(-p svt -p svt-geom -p svt-litho -p svt-opc -p svt-stdcell
          -p svt-netlist -p svt-place -p svt-sta -p svt-core -p svt-exec
          -p svt-obs -p svt-eco -p svt-bench -p svt-serve -p svt-snap)

echo "== documentation: runnable doctests"
cargo test -q --doc --offline "${SVT_PKGS[@]}"

echo "== documentation: warning-clean rustdoc"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline "${SVT_PKGS[@]}"

echo "== observability: SVT_TRACE=off overhead smoke gate"
SVT_TRACE=off cargo test --release -q -p svt-obs --offline --test overhead

echo "All checks passed."
