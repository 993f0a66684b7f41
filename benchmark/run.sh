#!/usr/bin/env bash
# Builds sfbench (release, offline) and runs it with the given arguments.
#
#   benchmark/run.sh                      every workload, one child process each
#   benchmark/run.sh --repeat 2 --trace 1 twice on this build, then compare
#   benchmark/run.sh --quick              a smoke run, never used for claims
#   benchmark/run.sh --workload serve_hot --seed 7 --seconds 10 --trace 0
#
# See benchmark/README.md. Works from any directory; reads and writes only
# inside the checkout (build output, and benchmark/out).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# cargo resolves a relative CARGO_TARGET_DIR against its working
# directory, which is about to change.
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
# .cargo/config.toml points the default build directory at ../target.
target="${CARGO_TARGET_DIR:-$here/../target}"

cd "$here"
cargo build --release --offline --quiet

# Stamped into the report files; a checkout that is not a git repository
# reports "unknown".
SFBENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SFBENCH_GIT_REV

exec "$target/release/sfbench" --out "$here/out" "$@"
