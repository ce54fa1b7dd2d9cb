#!/usr/bin/env bash
# The one command: builds the program under test (`setlearn`, from the root
# workspace) and the benchmark (`ledger`, from this package), then runs the
# ledger with the arguments given. No arguments = every workload, untraced
# and traced (`ledger all`). See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# A relative CARGO_TARGET_DIR is relative to the repo root, where we now are.
cargo build --release --offline --quiet -p setlearn-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

export SETLEARN_BIN="${CARGO_TARGET_DIR:-target}/release/setlearn"
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/ledger" "$@"
