#!/usr/bin/env bash
# Builds the release server and the load generator from this checkout,
# then runs one benchmark workload. Arguments pass through to loopbench:
#   bash loopbench/run.sh --workload edit --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/web ]; then
    echo "loopbench: $(pwd) is not a PowerPlay checkout" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin powerplay-cli >&2
cargo build --release --offline --quiet --manifest-path loopbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/loopbench" \
    --server "$CARGO_TARGET_DIR/release/powerplay-cli" \
    --out "$CARGO_TARGET_DIR/loopbench" "$@"
