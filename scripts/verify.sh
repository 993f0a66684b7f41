#!/usr/bin/env bash
# Tier-1 verification gate plus lints.
#
# Usage: scripts/verify.sh
# Everything resolves offline: the workspace has no registry
# dependencies (see DESIGN.md §5).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> sfbench smoke (all six workloads, every timed op checked against its set-up run)"
# Exits non-zero if any workload's correctness check fails; the timings
# of a --quick run are never used for claims.
bash benchmark/run.sh --quick

echo "==> sfc lint (golden-clean gate over examples/graphs + tests/corpus)"
# --deny-warnings promotes RACE505 (unprovable write footprint) to an
# error, so this sweep doubles as the race-prover gate: every checked-in
# graph must compile to kernels with statically proven disjoint writes.
for f in examples/graphs/*.sfg tests/corpus/*.sfg; do
    for arch in volta ampere hopper; do
        ./target/release/sfc lint "$f" --arch "$arch" --deny-warnings \
            || { echo "verify: FAIL — $f is not lint-clean on $arch"; exit 1; }
    done
done

echo "==> split-K selection gate (decode attention auto-splits at arch defaults)"
# The tuner must pick a split-K schedule for the decode-shaped zoo
# workload on its own (no pinned blocks, default options) — the lint
# sweep above already proves such schedules pass SLC104 + RACE on every
# arch; this asserts the cost model still *chooses* one where it wins.
./target/release/sfc compile examples/graphs/mha_decode.sfg --arch ampere \
    | grep -q "split-K" \
    || { echo "verify: FAIL — mha_decode no longer compiles to a split-K schedule"; exit 1; }

echo "==> sfc fuzz smoke (50 seeds, differential oracle + verifier)"
./target/release/sfc fuzz --seeds 50 --seed 42 > target/FUZZ_smoke.txt \
    || { echo "verify: FAIL — fuzz smoke found a divergence or verifier error"; \
         cat target/FUZZ_smoke.txt; exit 1; }

echo "==> sfc fuzz determinism (same seeds -> identical report)"
./target/release/sfc fuzz --seeds 50 --seed 42 > target/FUZZ_smoke2.txt
diff target/FUZZ_smoke.txt target/FUZZ_smoke2.txt \
    || { echo "verify: FAIL — fuzz report is not deterministic"; exit 1; }

echo "==> sfc faultsim smoke (25 seeds x 2 plans = 50 fault plans, 0 aborts)"
./target/release/sfc faultsim --seeds 25 --faults 2 > target/FAULTSIM_smoke.txt \
    || { echo "verify: FAIL — faultsim found an abort or a non-bit-exact degradation"; \
         cat target/FAULTSIM_smoke.txt; exit 1; }
grep -q "0 abort(s)" target/FAULTSIM_smoke.txt \
    || { echo "verify: FAIL — faultsim report missing its zero-abort line"; exit 1; }

echo "==> sfc faultsim determinism (same seeds -> identical report)"
./target/release/sfc faultsim --seeds 25 --faults 2 > target/FAULTSIM_smoke2.txt
diff target/FAULTSIM_smoke.txt target/FAULTSIM_smoke2.txt \
    || { echo "verify: FAIL — faultsim report is not deterministic"; exit 1; }

echo "==> sfc serve smoke (daemon + loadgen determinism + warm restart)"
# Two cold loadgen runs must produce byte-identical digests; a restart
# must warm-start the schedule cache from the snapshot (warm_loaded >= 1,
# zero schedule misses); and low load must never shed.
SERVE_SOCK=target/serve-smoke.sock
SERVE_SNAP=target/serve-smoke.sfcache
rm -f "$SERVE_SOCK" "$SERVE_SNAP"
./target/release/sfc serve "$SERVE_SOCK" --workers 4 --snapshot "$SERVE_SNAP" \
    > target/SERVE_daemon1.txt 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ] || { echo "verify: FAIL — serve daemon never bound its socket"; exit 1; }
./target/release/loadgen --socket "$SERVE_SOCK" --seeds 50 --requests 8 \
    --clients 1,4,16 --out target/BENCH_serve.json --digest target/SERVE_digest1.txt \
    > target/SERVE_run1.txt \
    || { echo "verify: FAIL — loadgen run 1 failed"; cat target/SERVE_run1.txt; exit 1; }
./target/release/loadgen --socket "$SERVE_SOCK" --seeds 50 --requests 8 \
    --clients 1,4,16 --digest target/SERVE_digest2.txt > target/SERVE_run2.txt \
    || { echo "verify: FAIL — loadgen run 2 failed"; cat target/SERVE_run2.txt; exit 1; }
diff target/SERVE_digest1.txt target/SERVE_digest2.txt \
    || { echo "verify: FAIL — serve responses are not deterministic across runs"; exit 1; }
./target/release/loadgen --socket "$SERVE_SOCK" --shutdown > /dev/null
wait "$SERVE_PID"

echo "==> sfc serve warm restart (snapshot reload, zero schedule misses)"
./target/release/sfc serve "$SERVE_SOCK" --workers 4 --snapshot "$SERVE_SNAP" \
    > target/SERVE_daemon2.txt 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
./target/release/loadgen --socket "$SERVE_SOCK" --seeds 50 --requests 8 \
    --clients 1,4,16 --digest target/SERVE_digest3.txt > target/SERVE_run3.txt \
    || { echo "verify: FAIL — loadgen warm run failed"; cat target/SERVE_run3.txt; exit 1; }
diff target/SERVE_digest1.txt target/SERVE_digest3.txt \
    || { echo "verify: FAIL — serve responses changed across a daemon restart"; exit 1; }
grep -Eq "^warm_loaded: [1-9]" target/SERVE_run3.txt \
    || { echo "verify: FAIL — restart did not warm-start from the snapshot"; \
         cat target/SERVE_run3.txt; exit 1; }
grep -q "^schedule_misses: 0$" target/SERVE_run3.txt \
    || { echo "verify: FAIL — warm restart recomputed schedules"; \
         cat target/SERVE_run3.txt; exit 1; }
for run in target/SERVE_run1.txt target/SERVE_run2.txt target/SERVE_run3.txt; do
    grep -q "^sheds: 0$" "$run" \
        || { echo "verify: FAIL — daemon shed requests at low load ($run)"; exit 1; }
done
./target/release/loadgen --socket "$SERVE_SOCK" --shutdown > /dev/null
wait "$SERVE_PID"
rm -f "$SERVE_SOCK" "$SERVE_SNAP"

echo "==> sfc chaos smoke (25 seeds x all five serve fault kinds, 0 hangs / 0 aborts)"
CHAOS_SOCK=target/chaos-smoke.sock
rm -f "$CHAOS_SOCK"
./target/release/sfc chaos "$CHAOS_SOCK" --seeds 25 > target/CHAOS_smoke.txt \
    || { echo "verify: FAIL — chaos campaign was not clean"; \
         cat target/CHAOS_smoke.txt; exit 1; }
grep -q "0 hang(s)" target/CHAOS_smoke.txt \
    || { echo "verify: FAIL — chaos report missing its zero-hang line"; exit 1; }
grep -q "0 abort(s)" target/CHAOS_smoke.txt \
    || { echo "verify: FAIL — chaos report missing its zero-abort line"; exit 1; }

echo "==> sfc chaos determinism (same seeds -> identical report)"
./target/release/sfc chaos "$CHAOS_SOCK" --seeds 25 > target/CHAOS_smoke2.txt
diff target/CHAOS_smoke.txt target/CHAOS_smoke2.txt \
    || { echo "verify: FAIL — chaos report is not deterministic"; exit 1; }

echo "==> no-new-unwrap gate (pipeline/, resilience/, serve/, cli deny unwrap/expect)"
for m in pipeline resilience serve; do
    grep -B1 "^pub mod $m;" crates/core/src/lib.rs \
        | grep -q "deny(clippy::unwrap_used, clippy::expect_used)" \
        || { echo "verify: FAIL — lib.rs lost the unwrap/expect deny gate on '$m'"; exit 1; }
done
# The serve gate must keep covering the chaos submodule (the deny
# attribute on `pub mod serve;` applies to the whole subtree).
grep -q "^pub mod chaos;" crates/core/src/serve/mod.rs \
    || { echo "verify: FAIL — serve/mod.rs lost the chaos module"; exit 1; }
# Every module file in crates/cli/src is covered, so a new or renamed
# module cannot slip past the gate; main.rs carries it as an inner
# attribute.
for f in crates/cli/src/*.rs; do
    m=$(basename "$f" .rs)
    case "$m" in
        lib) continue ;;
        main) gate=$(grep "^#!\[deny(" "$f" || true) ;;
        *) gate=$(grep -B1 "^pub mod $m;" crates/cli/src/lib.rs || true) ;;
    esac
    echo "$gate" | grep -q "deny(clippy::unwrap_used, clippy::expect_used)" \
        || { echo "verify: FAIL — cli module '$m' lost the unwrap/expect deny gate"; exit 1; }
done

echo "==> unsafe-docs gate (codegen/ and view deny undocumented unsafe)"
grep -B1 "^pub mod codegen;" crates/core/src/lib.rs \
    | grep -q "deny(clippy::undocumented_unsafe_blocks)" \
    || { echo "verify: FAIL — core lib.rs lost the undocumented-unsafe deny gate on 'codegen'"; exit 1; }
grep -B1 "^pub mod view;" crates/tensor/src/lib.rs \
    | grep -q "deny(clippy::undocumented_unsafe_blocks)" \
    || { echo "verify: FAIL — tensor lib.rs lost the undocumented-unsafe deny gate on 'view'"; exit 1; }

echo "==> corpus freshness (seed_corpus regenerates what is checked in)"
cargo run -q --release --example seed_corpus > /dev/null
git diff --exit-code -- tests/corpus \
    || { echo "verify: FAIL — tests/corpus is stale; run 'cargo run --example seed_corpus'"; exit 1; }

echo "verify: OK"
