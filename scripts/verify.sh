#!/usr/bin/env bash
# Full verification gate: build, tests, lints, formatting.
#
# Usage: scripts/verify.sh
# Runs from the repository root regardless of the invocation directory.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> forced-scalar backend gate (ADAEDGE_SIMD=scalar, full codec suite)"
ADAEDGE_SIMD=scalar cargo test -q -p adaedge-codecs

echo "==> forced-scalar decode-fuzz (reference tier must survive the same corpus)"
ADAEDGE_SIMD=scalar cargo test --release -q -p adaedge-codecs --test decode_fuzz

echo "==> decode-fuzz smoke (fixed seeds, detected SIMD backend)"
cargo test --release -q -p adaedge-codecs --test decode_fuzz

echo "==> kernel equivalence proptests (release)"
cargo test --release -q -p adaedge-codecs --test kernel_equivalence

echo "==> batched scheduling equivalence (K>1 engine smoke, release)"
cargo test --release -q -p adaedge-core --test batch_equivalence

echo "==> shard equivalence + delta-sync staleness (release)"
cargo test --release -q -p adaedge-core --test shard_equivalence

echo "==> sharded runtime unit tests (stealing, spills, worker failure, release)"
cargo test --release -q -p adaedge-core shard::

echo "==> fleet equivalence (1-stream bit-identity, interleaving, evict/restore)"
cargo test --release -q -p adaedge-core --test fleet_equivalence

echo "==> spool crash-recovery fault suite (520 crash points, release)"
cargo test --release -q -p adaedge-storage --test spool_recovery

echo "==> spool store-and-forward integration (48h-disconnect smoke, release)"
cargo test --release -q -p adaedge-core --test spool_integration

echo "==> uplink chaos suite (lossy-link exactly-once, breaker recovery, release)"
cargo test --release -q -p adaedge-core --test uplink_chaos

echo "==> frame packer NACK-requeue proptests"
cargo test --release -q -p adaedge-core --test frame_packer_props

echo "==> spool throughput smoke (--quick)"
cargo run --release -q -p adaedge-bench --bin spool_throughput -- --quick

echo "==> uplink goodput smoke (--quick)"
cargo run --release -q -p adaedge-bench --bin uplink_goodput -- --quick

echo "==> offline figure driver (fig12: mab_mab and the one-arm fixed pairs)"
cargo run --release -q -p adaedge-bench --bin fig12_offline_kmeans

# perfbench is its own workspace (the repo's benchmark), so the steps
# above never compile it; these catch a core API change that breaks it.
# Offline, cargo drops two stale entries from perfbench/Cargo.lock; the
# lockfile is restored on exit and the build goes to target/perfbench,
# so the gate leaves perfbench/ as it found it.
lock_copy="$(mktemp)"
cp perfbench/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" perfbench/Cargo.lock; rm -f "$lock_copy"' EXIT

echo "==> perfbench build (separate workspace, release)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> perfbench unit tests (release)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

# Each workload checks its own outputs (byte conservation, exactly-once
# delivery, the storage budget) and exits non-zero when a check fails.
for workload in engine_shift fleet_gateway uplink_lossy offline_budget; do
    echo "==> perfbench smoke: $workload (1 s, checked outputs)"
    target/perfbench/release/adaedge-perfbench --workload "$workload" --seed 1 --seconds 1 --trace 0
done

echo "verify: OK"
