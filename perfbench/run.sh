#!/usr/bin/env bash
# Builds the coloring daemon and the benchmark from source, then runs the benchmark
# with the arguments given, from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-write --seed 1 --seconds 15 --trace 0
#
# Build output goes to standard error; the benchmark's last line of standard output
# is its JSON result.  CARGO_TARGET_DIR (default: target) holds the builds and the
# generated datasets.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
# Both builds below and the exec line must agree on the directory; perfbench is a
# workspace of its own, so without this its build would land in perfbench/target.
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --manifest-path Cargo.toml -p arbcolor_service --bin serviced >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --serviced "$target/release/serviced" \
    --work-dir "$target/perfbench-work" "$@"
