#!/usr/bin/env bash
# Pre-merge gate: build and test the tree in the two configurations that
# matter before landing a change.
#
#   1. Release        — the configuration benchmarks and users run.
#   2. ASan + UBSan   — catches the memory/UB bugs the fast kernels are most
#                       at risk of (out-of-bounds tile edges, races in the
#                       thread-pool partitioning). LAYERGCN_OBS defaults ON,
#                       so the sanitizers also cover the sharded metrics and
#                       trace-buffer paths.
#   3. TSan           — the training hot path (Adam, autograd backward,
#                       scatter-add, SpMM/GEMM) runs on the shared pool via
#                       the deterministic parallel layer; ThreadSanitizer
#                       gates every test, including the trainer determinism
#                       test, against data races in that layer.
#
# After the release tests, the `obs` stage trains a small synthetic run
# through layergcn_cli with all three observability sinks (--trace-out,
# --metrics-out, --telemetry-out) and gates the outputs with
# validate_jsonl: any malformed JSON/JSONL fails the check.
#
# The `perfbench` stage builds the benchmark (perfbench/, a CMake package
# of its own over ../src) under the build root and runs its self-tests:
# perfbench_checks_test feeds every correctness check a wrong answer, and
# perfbench_smoke_test runs each workload on tiny inputs, traced and
# untraced, and requires exactly the metric names of BENCHMARK.json.
#
# The `obs-serve` stage covers the serving-tier observability surfaces:
# a 1k-request sweep through layergcn_serve with every sink attached
# (access log, Chrome trace, health status, Prometheus exposition,
# metrics) must emit exactly one schema-valid access record per submitted
# request — including a malformed-lines batch — and the bench_diff tool
# must pass a self-compare, flag an injected 20% p99 regression (exit 2),
# and refuse a cross-hardware comparison (exit 3); the committed
# BENCH_perfbench_live.json must self-compare clean and flag an injected
# op_p50_ms regression (exit 2).
#
# The `retrieval` stage serves one trained snapshot in exact and ivf
# retrieval modes (schema-gated access logs with the retrieval/candidates
# fields), runs the bench_retrieval recall + throughput gates on the
# release build, and drives bench_diff across the two mode summaries in
# both directions (improvement one way, regression exit the other).
#
# The `fault` stage re-runs the CLI under ASan/UBSan with each
# LAYERGCN_FAULT injection point armed (torn checkpoint write, short read,
# bit flip, NaN loss). Every injected fault must be handled gracefully —
# exit 0 (recovered) or exit 1 (structured error) — never a crash, abort,
# or sanitizer report.
#
# The `pipeline` stage is the chaos drill for the continuous
# ingest→train→publish→serve loop (DESIGN.md §16). Under ASan/UBSan it
# runs layergcn_pipeline with each pipeline fault point armed (torn WAL
# commit, torn snapshot write, NaN loss, and a torn or bit-flipped first
# snapshot read, which the store's load must catch) — every run must exit
# 0, answer every serve probe (serve.failed == 0), land at least one
# publish, and converge to the clean run's ingest digest. Two more clean runs with the
# same seed must publish at least 2 byte-identical snap-*.lgcn files (cmp)
# and reach the same digest. A copy of one of them with a flipped manifest
# byte is rerun with the same flags: it must cold-start, publish without a
# failure above the first run's final version, and leave every kept
# snapshot of the first run byte-identical. Then it SIGKILLs a
# long-running pipeline mid-flight, clones the surviving directory, and
# restarts both replicas: recovery must replay the WAL (recovered > 0,
# committed = recovered + new) and both replicas must reach bit-identical
# digests. Finally the
# release-build bench_pipeline summary must self-compare clean through
# bench_diff and trip exit 2 on an injected freshness regression.
#
# The `serve` stage builds a UBSan-only config (LAYERGCN_SANITIZE=undefined)
# and smokes the serving subsystem: train 2 synthetic epochs, export a
# snapshot, then serve 1k JSONL requests through layergcn_serve under each
# serve fault point (snapshot bit flip, torn reload, slow scoring) plus a
# malformed-request batch — responses must stay structured JSONL.
#
# The `quant` stage runs under both sanitized builds (ASan+UBSan and
# UBSan-only): export an all-encodings snapshot (f32 + int8 + bf16), push
# 1k requests through layergcn_serve with each --encoding, and run the
# bench_serve_latency quality gates (LAYERGCN_BENCH_QUALITY_ONLY=1 skips
# only the throughput floor, which is meaningless under sanitizers) — the
# bench exits non-zero if any quant encoding loses more than 0.1% relative
# Recall@20/NDCG@20 vs f32, if the f32 path diverges from the offline
# reference ranking, or if the score cache fails to hit or to invalidate
# on hot-swap.
#
# The `overload` stage is the chaos drill for the overload controls
# (DESIGN.md §17): three consecutive sustained-overload storms — a burst
# of 3000 deadline-carrying, priority-mixed requests against a default
# queue of 64, far past what the service can score before the deadlines
# land — through layergcn_serve with --max-inflight=auto and --brownout,
# under both ASan/UBSan and TSan. Every storm must exit gracefully with
# zero unstructured outcomes (every request answered or a structured
# shed/expiry), shed the interactive class no harder than batch, and
# emit exactly one schema-valid access record per request carrying the
# priority and brownout_level fields. The release-build bench_overload
# then gates goodput (adaptive limiter + brownout >= 1.5x the static
# baseline at 3x capacity) and its BENCH_overload.json must self-compare
# clean through bench_diff and trip exit 2 on an injected p99 regression.
#
# Usage: tools/check.sh [build-root]     (default: build-check/)
# Exits non-zero on the first failing build or test.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${1:-${repo_root}/build-check}"
jobs="$(nproc 2>/dev/null || echo 2)"

run_config() {
  local name="$1"; shift
  local dir="${build_root}/${name}"
  echo "=== [${name}] configure ==="
  cmake -S "${repo_root}" -B "${dir}" "$@"
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${jobs}"
  echo "=== [${name}] ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

run_config release -DCMAKE_BUILD_TYPE=Release

run_obs_stage() {
  local dir="${build_root}/release"
  local out="${build_root}/obs-out"
  echo "=== [obs] CLI run with trace/metrics/telemetry sinks ==="
  mkdir -p "${out}"
  "${dir}/tools/layergcn_cli" --dataset=mooc --scale=0.2 --epochs=2 \
    --model=LayerGCN \
    --trace-out="${out}/trace.json" \
    --metrics-out="${out}/metrics.json" \
    --telemetry-out="${out}/telemetry.jsonl"
  echo "=== [obs] validate sink outputs ==="
  "${dir}/tools/validate_jsonl" \
    "${out}/trace.json" "${out}/metrics.json" "${out}/telemetry.jsonl"
}
run_obs_stage

run_perfbench_stage() {
  local dir="${build_root}/perfbench"
  echo "=== [perfbench] configure ==="
  cmake -S "${repo_root}/perfbench" -B "${dir}" -DCMAKE_BUILD_TYPE=Release
  echo "=== [perfbench] build ==="
  cmake --build "${dir}" -j "${jobs}"
  echo "=== [perfbench] self-tests ==="
  ctest --test-dir "${dir}" --output-on-failure
}
run_perfbench_stage

# Serving-tier observability: one instrumented sweep with every sink
# attached, schema-gated end to end, then the bench_diff exit-code matrix
# on synthetic fixtures with identical env stamps.
run_obs_serve_stage() {
  local dir="${build_root}/release"
  local out="${build_root}/obs-serve-out"
  rm -rf "${out}"
  mkdir -p "${out}"
  echo "=== [obs-serve] train 2 epochs + export serving snapshot ==="
  "${dir}/tools/layergcn_cli" --dataset=mooc --scale=0.2 --epochs=2 \
    --model=LayerGCN --export-snapshot="${out}/snaps"

  echo "=== [obs-serve] 1k requests with access/trace/health/prom sinks ==="
  "${dir}/tools/layergcn_serve" --snapshot-dir="${out}/snaps" \
    --random-requests=1000 --seed=13 \
    --access-log="${out}/access.jsonl" \
    --trace-out="${out}/trace.json" \
    --health-out="${out}/health.json" \
    --prom-out="${out}/metrics.prom" \
    --metrics-out="${out}/metrics.json" \
    > "${out}/responses.jsonl"
  "${dir}/tools/validate_jsonl" "${out}/responses.jsonl" \
    "${out}/access.jsonl" "${out}/trace.json" "${out}/health.json" \
    "${out}/metrics.json"
  local records
  records="$(wc -l < "${out}/access.jsonl")"
  if [[ "${records}" -ne 1000 ]]; then
    echo "OBS-SERVE FAILED: access log has ${records} records, want 1000"
    exit 1
  fi
  if ! grep -q '^layergcn_serve_requests' "${out}/metrics.prom"; then
    echo "OBS-SERVE FAILED: no layergcn_serve_requests in ${out}/metrics.prom"
    exit 1
  fi

  # Malformed lines must still produce one access record each, flagged and
  # status-coded, in a stream validate_jsonl accepts.
  echo "=== [obs-serve] malformed request lines hit the access log ==="
  printf '%s\n' \
    '{"user": 0, "k": 5}' \
    'not json at all' \
    '{"user": -3}' \
    | "${dir}/tools/layergcn_serve" --snapshot-dir="${out}/snaps" \
      --access-log="${out}/access-malformed.jsonl" \
      > "${out}/responses-malformed.jsonl"
  "${dir}/tools/validate_jsonl" "${out}/responses-malformed.jsonl" \
    "${out}/access-malformed.jsonl"
  records="$(wc -l < "${out}/access-malformed.jsonl")"
  if [[ "${records}" -ne 3 ]]; then
    echo "OBS-SERVE FAILED: malformed batch logged ${records} records, want 3"
    exit 1
  fi
  if ! grep -q 'INVALID_ARGUMENT' "${out}/access-malformed.jsonl"; then
    echo "OBS-SERVE FAILED: malformed request not status-coded in access log"
    exit 1
  fi

  echo "=== [obs-serve] bench_diff exit-code matrix ==="
  cat > "${out}/bench-base.json" <<'EOF'
{
  "env": {"hardware_concurrency": 8, "compute_pool_threads": 8,
          "compiler": "gcc", "build": "Release", "obs_enabled": true,
          "sanitizer": "none"},
  "bench": "serve_latency",
  "passes": [
    {"pass": "clean", "requests": 1000, "p50_us": 100.0, "p99_us": 500.0,
     "mean_us": 120.0}
  ]
}
EOF
  "${dir}/tools/bench_diff" "${out}/bench-base.json" "${out}/bench-base.json"
  sed 's/"p99_us": 500.0/"p99_us": 600.0/' "${out}/bench-base.json" \
    > "${out}/bench-regressed.json"
  local rc=0
  "${dir}/tools/bench_diff" "${out}/bench-base.json" \
    "${out}/bench-regressed.json" || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "OBS-SERVE FAILED: bench_diff exit ${rc} on 20% regression, want 2"
    exit 1
  fi
  sed 's/"hardware_concurrency": 8/"hardware_concurrency": 16/' \
    "${out}/bench-base.json" > "${out}/bench-othermachine.json"
  rc=0
  "${dir}/tools/bench_diff" "${out}/bench-base.json" \
    "${out}/bench-othermachine.json" || rc=$?
  if [[ "${rc}" -ne 3 ]]; then
    echo "OBS-SERVE FAILED: bench_diff exit ${rc} on env mismatch, want 3"
    exit 1
  fi
  # The committed perfbench result ({"value", "unit"} metrics) must
  # self-compare clean and trip exit 2 on an injected op_p50_ms regression.
  local perf="${repo_root}/BENCH_perfbench_live.json"
  "${dir}/tools/bench_diff" "${perf}" "${perf}"
  sed 's/"op_p50_ms": {"value": [0-9.e+-]*/"op_p50_ms": {"value": 1e9/' \
    "${perf}" > "${out}/perfbench-regressed.json"
  rc=0
  "${dir}/tools/bench_diff" "${perf}" "${out}/perfbench-regressed.json" ||
    rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "OBS-SERVE FAILED: bench_diff exit ${rc} on perfbench op_p50_ms" \
         "regression, want 2"
    exit 1
  fi
}
run_obs_serve_stage

# Two-stage retrieval: serve the same trained snapshot in exact and ivf
# modes (access logs schema-gated — every record must carry the retrieval
# mode and candidate count), run the bench_retrieval recall + per-core
# throughput gates on the release build, and push the exact-vs-ivf mode
# summaries through bench_diff in both directions: exact -> ivf must pass
# (throughput improves, recall within threshold), ivf -> exact must trip
# the regression exit (the throughput it would give up).
run_retrieval_stage() {
  local dir="${build_root}/release"
  local out="${build_root}/retrieval-out"
  rm -rf "${out}"
  mkdir -p "${out}"
  echo "=== [retrieval] train 2 epochs + export serving snapshot ==="
  "${dir}/tools/layergcn_cli" --dataset=mooc --scale=0.2 --epochs=2 \
    --model=LayerGCN --export-snapshot="${out}/snaps"
  for mode in exact ivf; do
    echo "=== [retrieval] 1k requests --retrieval=${mode} ==="
    "${dir}/tools/layergcn_serve" --snapshot-dir="${out}/snaps" \
      --random-requests=1000 --seed=17 --retrieval="${mode}" \
      --cells=32 --nprobe=4 --recall-sample=100 \
      --access-log="${out}/access-${mode}.jsonl" \
      --metrics-out="${out}/metrics-${mode}.json" \
      > "${out}/responses-${mode}.jsonl"
    "${dir}/tools/validate_jsonl" "${out}/responses-${mode}.jsonl" \
      "${out}/access-${mode}.jsonl" "${out}/metrics-${mode}.json"
    if ! grep -q "\"retrieval\":\"${mode}\"" "${out}/access-${mode}.jsonl"; then
      echo "RETRIEVAL STAGE FAILED: no ${mode} records in access log"
      exit 1
    fi
  done
  echo "=== [retrieval] bench_retrieval recall + throughput gates ==="
  ( cd "${out}" && LAYERGCN_BENCH_RETRIEVAL_COMPARE_OUT="${out}/mode" \
      "${dir}/bench/bench_retrieval" )
  echo "=== [retrieval] bench_diff across retrieval modes ==="
  "${dir}/tools/bench_diff" "${out}/mode-exact.json" "${out}/mode-ivf.json"
  local rc=0
  "${dir}/tools/bench_diff" "${out}/mode-ivf.json" "${out}/mode-exact.json" \
    || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "RETRIEVAL STAGE FAILED: bench_diff exit ${rc} on ivf -> exact," \
         "want 2 (throughput regression)"
    exit 1
  fi
}
run_retrieval_stage

run_config asan-ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLAYERGCN_SANITIZE=ON

# Fault-injection sweep: the ASan/UBSan CLI must survive every injection
# point without crashing (exit 0 = recovered, exit 1 = structured error).
run_fault_stage() {
  local dir="${build_root}/asan-ubsan"
  local out="${build_root}/fault-out"
  mkdir -p "${out}"
  local faults=(
    "checkpoint.torn_write"
    "checkpoint.short_read"
    "checkpoint.bit_flip"
    "trainer.nan_loss:2"
    "checkpoint.torn_write,checkpoint.bit_flip"
  )
  for fault in "${faults[@]}"; do
    echo "=== [fault] LAYERGCN_FAULT=${fault} ==="
    local ckpt_dir="${out}/ckpt-${fault//[^a-z0-9_]/-}"
    rm -rf "${ckpt_dir}"
    local rc=0
    LAYERGCN_FAULT="${fault}" \
      "${dir}/tools/layergcn_cli" --dataset=mooc --scale=0.2 --epochs=4 \
      --model=LayerGCN --checkpoint-dir="${ckpt_dir}" \
      --telemetry-out="${out}/telemetry-${fault//[^a-z0-9_]/-}.jsonl" \
      || rc=$?
    if [[ "${rc}" -gt 1 ]]; then
      echo "FAULT STAGE FAILED: LAYERGCN_FAULT=${fault} exited ${rc}" \
           "(expected graceful 0 or 1)"
      exit 1
    fi
    # Whatever happened, the telemetry stream must still be valid JSONL
    # (NaN losses serialize as null) and carry the watchdog counters.
    "${dir}/tools/validate_jsonl" \
      "${out}/telemetry-${fault//[^a-z0-9_]/-}.jsonl"
  done
  # A faulted run must remain resumable: the surviving checkpoints restore.
  echo "=== [fault] resume after injected faults ==="
  LAYERGCN_FAULT="" "${dir}/tools/layergcn_cli" --dataset=mooc --scale=0.2 \
    --epochs=4 --model=LayerGCN \
    --checkpoint-dir="${out}/ckpt-checkpoint-torn_write" --resume
}
run_fault_stage

# Continuous-pipeline chaos drill: crash at every boundary of the
# ingest→train→publish→serve loop under ASan/UBSan; serving must never
# degrade below "every well-formed request answered" and the durable state
# must replay bit-identically.
run_pipeline_stage() {
  local dir="${build_root}/asan-ubsan"
  local out="${build_root}/pipeline-out"
  rm -rf "${out}"
  mkdir -p "${out}"

  # Pulls a top-level or nested integer field out of a one-line summary.
  summary_field() {
    grep -o "\"$2\":[0-9][0-9]*" "$1" | head -1 | cut -d: -f2
  }
  # Asserts the invariants every pipeline run must hold: graceful exit
  # (checked by the caller), all serve probes answered, >= 1 publish.
  check_summary() {
    local summary="$1" label="$2"
    local failed publishes
    failed="$(summary_field "${summary}" failed)"
    publishes="$(summary_field "${summary}" publishes)"
    if [[ "${failed}" -ne 0 ]]; then
      echo "PIPELINE STAGE FAILED: ${label}: ${failed} serve requests failed"
      exit 1
    fi
    if [[ "${publishes}" -lt 1 ]]; then
      echo "PIPELINE STAGE FAILED: ${label}: no snapshot published"
      exit 1
    fi
  }

  echo "=== [pipeline] clean reference run ==="
  "${dir}/tools/layergcn_pipeline" --dir="${out}/clean" \
    --cycles=4 --events-per-cycle=200 --min-train-events=300 \
    --summary-out="${out}/summary-clean.json" --quiet
  check_summary "${out}/summary-clean.json" "clean"
  local ref_digest
  ref_digest="$(summary_field "${out}/summary-clean.json" digest)"

  # Published bytes are a pure function of the seed: two clean runs with
  # the same flags must publish byte-identical snapshots and reach the same
  # ingest digest. Served-request counts depend on timing and are not
  # compared. These flags get fine-tunes past the quality gate, so the
  # comparison covers warm-started snapshots, not just the bootstrap.
  echo "=== [pipeline] two clean runs, same seed: identical snapshots ==="
  local twin
  for twin in same-seed-a same-seed-b; do
    "${dir}/tools/layergcn_pipeline" --dir="${out}/${twin}" \
      --cycles=8 --events-per-cycle=1000 --dim=32 --seed=3 \
      --summary-out="${out}/summary-${twin}.json" --quiet
  done
  local snaps_a snaps_b
  snaps_a="$(cd "${out}/same-seed-a/snapshots" && ls snap-*.lgcn || true)"
  snaps_b="$(cd "${out}/same-seed-b/snapshots" && ls snap-*.lgcn || true)"
  if [[ "${snaps_a}" != "${snaps_b}" ]]; then
    echo "PIPELINE STAGE FAILED: same-seed runs published different" \
         "snapshot sets (${snaps_a//$'\n'/ } vs ${snaps_b//$'\n'/ })"
    exit 1
  fi
  local compared
  compared="$(echo "${snaps_a}" | grep -c . || true)"
  if [[ "${compared}" -lt 2 ]]; then
    echo "PIPELINE STAGE FAILED: same-seed runs published ${compared}" \
         "snapshot(s); the comparison needs at least 2"
    exit 1
  fi
  local snap
  for snap in ${snaps_a}; do
    if ! cmp "${out}/same-seed-a/snapshots/${snap}" \
             "${out}/same-seed-b/snapshots/${snap}"; then
      echo "PIPELINE STAGE FAILED: ${snap} differs between same-seed runs"
      exit 1
    fi
  done
  echo "same-seed runs published ${compared} byte-identical snapshots"
  if [[ "$(summary_field "${out}/summary-same-seed-a.json" digest)" != \
        "$(summary_field "${out}/summary-same-seed-b.json" digest)" ]]; then
    echo "PIPELINE STAGE FAILED: same-seed runs reached different digests"
    exit 1
  fi

  # Manifest-loss drill: the manifest is one of the pipeline's two
  # durability roots. A copy of a finished run with one manifest byte
  # flipped must cold-start, number its publishes above the newest
  # snapshot already in the store, publish without a failure, and leave
  # every snapshot of the first run that retention kept byte-identical.
  echo "=== [pipeline] manifest loss: cold start publishes above the store ==="
  cp -r "${out}/same-seed-a" "${out}/manifest-loss"
  local manifest="${out}/manifest-loss/manifest.txt" byte
  byte="$(od -An -tu1 -j16 -N1 "${manifest}" | tr -d ' ')"
  printf "$(printf '\\%03o' $((byte ^ 1)))" |
    dd of="${manifest}" bs=1 seek=16 conv=notrunc status=none
  "${dir}/tools/layergcn_pipeline" --dir="${out}/manifest-loss" \
    --cycles=8 --events-per-cycle=1000 --dim=32 --seed=3 \
    --summary-out="${out}/summary-manifest-loss.json" --quiet
  local loss_failures loss_publishes loss_version first_version
  loss_failures="$(summary_field "${out}/summary-manifest-loss.json" \
                   publish_failures)"
  loss_publishes="$(summary_field "${out}/summary-manifest-loss.json" \
                    publishes)"
  loss_version="$(summary_field "${out}/summary-manifest-loss.json" \
                  final_version)"
  first_version="$(summary_field "${out}/summary-same-seed-a.json" \
                   final_version)"
  if [[ "${loss_failures}" -ne 0 || "${loss_publishes}" -lt 1 ||
        "${loss_version}" -le "${first_version}" ]]; then
    echo "PIPELINE STAGE FAILED: after manifest loss: ${loss_publishes}" \
         "publishes, ${loss_failures} publish failures, final version" \
         "${loss_version} (first run ended at ${first_version})"
    exit 1
  fi
  for snap in ${snaps_a}; do
    local kept="${out}/manifest-loss/snapshots/${snap}"
    if [[ -e "${kept}" ]] &&
       ! cmp "${out}/same-seed-a/snapshots/${snap}" "${kept}"; then
      echo "PIPELINE STAGE FAILED: ${snap} changed after manifest loss"
      exit 1
    fi
  done
  echo "manifest loss: ${loss_publishes} publish(es) above version" \
       "${first_version}, final version ${loss_version}"

  # Fault sweep: same workload with each pipeline fault point armed. The
  # injected crash must be absorbed (exit 0, no serve failure, a publish
  # still lands) and the committed event stream must converge to the
  # clean run's digest — recovery is lossless, not merely survivable.
  # The store's load is a publish's only validation: the two serve.*
  # read faults damage the bootstrap publish's first snapshot read, the
  # store skips the file, and the publisher's retry rewrites it.
  local pipeline_faults=(
    "wal.torn_write"
    "wal.torn_write:2"
    "publish.torn_rename"
    "trainer.nan_loss:2"
    "wal.torn_write,publish.torn_rename"
    "serve.reload_torn_read"
    "serve.snapshot_bit_flip"
  )
  for fault in "${pipeline_faults[@]}"; do
    local tag="${fault//[^a-z0-9_]/-}"
    echo "=== [pipeline] LAYERGCN_FAULT=${fault} ==="
    local rc=0
    LAYERGCN_FAULT="${fault}" "${dir}/tools/layergcn_pipeline" \
      --dir="${out}/fault-${tag}" \
      --cycles=4 --events-per-cycle=200 --min-train-events=300 \
      --summary-out="${out}/summary-${tag}.json" --quiet || rc=$?
    if [[ "${rc}" -ne 0 ]]; then
      echo "PIPELINE STAGE FAILED: LAYERGCN_FAULT=${fault} exited ${rc}"
      exit 1
    fi
    check_summary "${out}/summary-${tag}.json" "LAYERGCN_FAULT=${fault}"
    local digest
    digest="$(summary_field "${out}/summary-${tag}.json" digest)"
    if [[ "${digest}" != "${ref_digest}" ]]; then
      echo "PIPELINE STAGE FAILED: LAYERGCN_FAULT=${fault} digest" \
           "${digest} != clean ${ref_digest} (recovery lost events)"
      exit 1
    fi
  done

  # Crash-restart drill: SIGKILL a long-running pipeline mid-flight, clone
  # the surviving directory, and restart both replicas. Start() must
  # replay the WAL (truncating any torn tail) and both replicas — being
  # pure functions of the same durable state — must finish bit-identical.
  echo "=== [pipeline] SIGKILL mid-run + twin restart ==="
  "${dir}/tools/layergcn_pipeline" --dir="${out}/kill" \
    --cycles=100000 --events-per-cycle=100 --min-train-events=300 \
    --cycle-sleep-ms=10 --quiet > /dev/null 2>&1 &
  local pid=$!
  sleep 6
  kill -9 "${pid}" 2>/dev/null || true
  wait "${pid}" 2>/dev/null || true
  cp -r "${out}/kill" "${out}/kill-twin"
  for replica in kill kill-twin; do
    local rc=0
    "${dir}/tools/layergcn_pipeline" --dir="${out}/${replica}" \
      --cycles=3 --events-per-cycle=100 --min-train-events=300 \
      --summary-out="${out}/summary-${replica}.json" --quiet || rc=$?
    if [[ "${rc}" -ne 0 ]]; then
      echo "PIPELINE STAGE FAILED: restart of ${replica} exited ${rc}"
      exit 1
    fi
    if [[ "$(summary_field "${out}/summary-${replica}.json" failed)" -ne 0 ]]
    then
      echo "PIPELINE STAGE FAILED: ${replica} restart dropped serve requests"
      exit 1
    fi
    local recovered committed
    recovered="$(summary_field "${out}/summary-${replica}.json" \
                 recovered_records)"
    committed="$(summary_field "${out}/summary-${replica}.json" \
                 events_committed)"
    if [[ "${recovered}" -lt 1 ]]; then
      echo "PIPELINE STAGE FAILED: ${replica} restart recovered nothing"
      exit 1
    fi
    if [[ "${committed}" -ne $((recovered + 300)) ]]; then
      echo "PIPELINE STAGE FAILED: ${replica} committed ${committed}," \
           "want recovered ${recovered} + 300"
      exit 1
    fi
  done
  local twin_a twin_b
  twin_a="$(summary_field "${out}/summary-kill.json" digest)"
  twin_b="$(summary_field "${out}/summary-kill-twin.json" digest)"
  if [[ "${twin_a}" != "${twin_b}" ]]; then
    echo "PIPELINE STAGE FAILED: twin restarts diverged" \
         "(${twin_a} vs ${twin_b})"
    exit 1
  fi

  # Freshness bench (release build — latencies under ASan are noise):
  # self-compare must pass, an injected 25% freshness regression must trip
  # bench_diff's regression exit.
  echo "=== [pipeline] bench_pipeline + bench_diff gates ==="
  ( cd "${out}" && "${build_root}/release/bench/bench_pipeline" )
  "${build_root}/release/tools/bench_diff" \
    "${out}/BENCH_pipeline.json" "${out}/BENCH_pipeline.json"
  sed 's/"freshness": {"cycles": \([0-9]*\), "batch_events": \([0-9]*\), "p50_us": \([0-9]*\)/"freshness": {"cycles": \1, "batch_events": \2, "p50_us": \3000/' \
    "${out}/BENCH_pipeline.json" > "${out}/BENCH_pipeline_regressed.json"
  local rc=0
  "${build_root}/release/tools/bench_diff" "${out}/BENCH_pipeline.json" \
    "${out}/BENCH_pipeline_regressed.json" || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "PIPELINE STAGE FAILED: bench_diff exit ${rc} on injected" \
         "freshness regression, want 2"
    exit 1
  fi
}
run_pipeline_stage

# Quantized-serving sweep: export a snapshot carrying every encoding, serve
# the same 1k-request stream with each scoring kernel (responses must stay
# structured JSONL), then let bench_serve_latency assert the quality gates
# under the sanitizer. Takes the build config name as its argument so both
# sanitized builds run it.
run_quant_stage() {
  local name="$1"
  local dir="${build_root}/${name}"
  local out="${build_root}/quant-out-${name}"
  rm -rf "${out}"
  mkdir -p "${out}"
  echo "=== [quant/${name}] train 2 epochs + export all-encodings snapshot ==="
  "${dir}/tools/layergcn_cli" --dataset=mooc --scale=0.2 --epochs=2 \
    --model=LayerGCN --export-snapshot="${out}/snaps" \
    --snapshot-encoding=all
  for enc in f32 int8 bf16; do
    echo "=== [quant/${name}] 1k requests --encoding=${enc} ==="
    "${dir}/tools/layergcn_serve" --snapshot-dir="${out}/snaps" \
      --random-requests=1000 --seed=11 --encoding="${enc}" \
      --metrics-out="${out}/metrics-${enc}.json" \
      > "${out}/responses-${enc}.jsonl"
    "${dir}/tools/validate_jsonl" "${out}/responses-${enc}.jsonl" \
      "${out}/metrics-${enc}.json"
  done
  echo "=== [quant/${name}] bench_serve_latency quality gates ==="
  ( cd "${out}" && LAYERGCN_BENCH_QUALITY_ONLY=1 \
      "${dir}/bench/bench_serve_latency" )
}
run_quant_stage asan-ubsan

# Overload chaos drill: sustained storms far past capacity through a
# sanitized layergcn_serve. The serving tier is what is under test, so
# the snapshot is trained once with the release CLI and shared across
# the sanitized invocations.
run_overload_stage() {
  local name="$1"
  local dir="${build_root}/${name}"
  local out="${build_root}/overload-out-${name}"
  local snaps="${build_root}/overload-snaps"
  rm -rf "${out}"
  mkdir -p "${out}"
  if [[ ! -d "${snaps}" ]]; then
    echo "=== [overload] train 2 epochs + export serving snapshot ==="
    "${build_root}/release/tools/layergcn_cli" --dataset=mooc --scale=0.2 \
      --epochs=2 --model=LayerGCN --export-snapshot="${snaps}"
  fi
  local storm
  for storm in 1 2 3; do
    echo "=== [overload/${name}] sustained overload storm ${storm}/3 ==="
    local rc=0
    "${dir}/tools/layergcn_serve" --snapshot-dir="${snaps}" \
      --random-requests=3000 --burst --seed=$((22 + storm)) \
      --max-inflight=auto --brownout --priority-mix --deadline-us=5000 \
      --access-log="${out}/access-${storm}.jsonl" \
      --metrics-out="${out}/metrics-${storm}.json" \
      --health-out="${out}/health-${storm}.json" \
      --quiet 2> "${out}/summary-${storm}.txt" || rc=$?
    cat "${out}/summary-${storm}.txt"
    if [[ "${rc}" -gt 1 ]]; then
      echo "OVERLOAD STAGE FAILED: storm ${storm} exited ${rc}" \
           "(expected graceful 0 or 1)"
      exit 1
    fi
    # 100% answered-or-structured-shed: every offered request tallied,
    # nothing invalid or unstructured.
    if ! grep -q "^served 3000 requests:" "${out}/summary-${storm}.txt"; then
      echo "OVERLOAD STAGE FAILED: storm ${storm} did not tally all 3000"
      exit 1
    fi
    if ! grep -Fq " 0 invalid (0 malformed), 0 other" \
         "${out}/summary-${storm}.txt"; then
      echo "OVERLOAD STAGE FAILED: storm ${storm} had unstructured outcomes"
      exit 1
    fi
    # The storm must actually overload (something shed), and strict
    # priority must protect the interactive class: with equal per-class
    # offered counts, interactive sheds must not exceed batch sheds.
    local interactive_shed batch_shed
    interactive_shed="$(sed -n 's/.*interactive \([0-9]*\)\/.*/\1/p' \
                        "${out}/summary-${storm}.txt")"
    batch_shed="$(sed -n 's/.*batch \([0-9]*\)\/.*/\1/p' \
                  "${out}/summary-${storm}.txt")"
    if [[ -z "${interactive_shed}" || -z "${batch_shed}" ]]; then
      echo "OVERLOAD STAGE FAILED: storm ${storm} shed nothing at 3x load"
      exit 1
    fi
    if [[ "${interactive_shed}" -gt "${batch_shed}" ]]; then
      echo "OVERLOAD STAGE FAILED: storm ${storm} shed interactive" \
           "${interactive_shed} > batch ${batch_shed}"
      exit 1
    fi
    # One schema-valid access record per request, with the overload
    # fields present (validate_jsonl enforces their domains).
    "${dir}/tools/validate_jsonl" "${out}/access-${storm}.jsonl" \
      "${out}/metrics-${storm}.json" "${out}/health-${storm}.json"
    local records
    records="$(wc -l < "${out}/access-${storm}.jsonl")"
    if [[ "${records}" -ne 3000 ]]; then
      echo "OVERLOAD STAGE FAILED: storm ${storm} access log has" \
           "${records} records, want 3000"
      exit 1
    fi
    if ! grep -q '"priority":' "${out}/access-${storm}.jsonl" || \
       ! grep -q '"brownout_level":' "${out}/access-${storm}.jsonl"; then
      echo "OVERLOAD STAGE FAILED: storm ${storm} access records missing" \
           "priority/brownout_level"
      exit 1
    fi
  done
}
run_overload_stage asan-ubsan

# Goodput gates on the release build (sanitizer timing would be noise),
# then the bench_diff matrix over BENCH_overload.json: self-compare must
# pass, an injected p99 regression must trip the regression exit.
run_overload_bench_gate() {
  local out="${build_root}/overload-out-bench"
  rm -rf "${out}"
  mkdir -p "${out}"
  echo "=== [overload] bench_overload goodput gates ==="
  ( cd "${out}" && "${build_root}/release/bench/bench_overload" )
  echo "=== [overload] bench_diff over BENCH_overload.json ==="
  "${build_root}/release/tools/bench_diff" \
    "${out}/BENCH_overload.json" "${out}/BENCH_overload.json"
  sed 's/"p99_us": \([0-9]*\)/"p99_us": \1000/' \
    "${out}/BENCH_overload.json" > "${out}/BENCH_overload_regressed.json"
  local rc=0
  "${build_root}/release/tools/bench_diff" "${out}/BENCH_overload.json" \
    "${out}/BENCH_overload_regressed.json" || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "OVERLOAD STAGE FAILED: bench_diff exit ${rc} on injected p99" \
         "regression, want 2"
    exit 1
  fi
}
run_overload_bench_gate

# UBSan-only build (LAYERGCN_SANITIZE=undefined): cheap enough to drive the
# serving subsystem end to end. The serve smoke trains a small synthetic
# run, exports a serving snapshot, plants an older copy as the fallback
# target, and pushes 1k requests through layergcn_serve under every serve
# fault point. Graceful outcomes only: exit 0 (every request answered) or
# 1 (structured setup error) — never a crash or a sanitizer report; the
# response stream must stay valid JSONL throughout.
run_config ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLAYERGCN_SANITIZE=undefined

run_serve_stage() {
  local dir="${build_root}/ubsan"
  local out="${build_root}/serve-out"
  rm -rf "${out}"
  mkdir -p "${out}"
  echo "=== [serve] train 2 epochs + export serving snapshot ==="
  "${dir}/tools/layergcn_cli" --dataset=mooc --scale=0.2 --epochs=2 \
    --model=LayerGCN --export-snapshot="${out}/snaps"
  # Plant the exported snapshot again under a higher version: the fault
  # sweep corrupts the newest file first, so serving must fall back to the
  # original underneath it.
  local newest
  newest="$(ls "${out}/snaps" | sort | tail -1)"
  cp "${out}/snaps/${newest}" "${out}/snaps/snap-000099.lgcn"

  local serve_faults=(
    ""
    "serve.snapshot_bit_flip"
    "serve.reload_torn_read"
    "serve.slow_score"
    "serve.snapshot_bit_flip,serve.slow_score"
  )
  for fault in "${serve_faults[@]}"; do
    echo "=== [serve] LAYERGCN_FAULT='${fault}' 1k requests ==="
    local tag="${fault//[^a-z0-9_]/-}"
    local rc=0
    LAYERGCN_FAULT="${fault}" "${dir}/tools/layergcn_serve" \
      --snapshot-dir="${out}/snaps" --random-requests=1000 \
      --deadline-us=2000 --seed=7 \
      --metrics-out="${out}/metrics-${tag:-clean}.json" \
      > "${out}/responses-${tag:-clean}.jsonl" || rc=$?
    if [[ "${rc}" -gt 1 ]]; then
      echo "SERVE STAGE FAILED: LAYERGCN_FAULT=${fault} exited ${rc}" \
           "(expected graceful 0 or 1)"
      exit 1
    fi
    "${dir}/tools/validate_jsonl" "${out}/responses-${tag:-clean}.jsonl" \
      "${out}/metrics-${tag:-clean}.json"
  done

  # Malformed request lines must come back as structured error responses
  # in a still-valid JSONL stream, with the valid requests served.
  echo "=== [serve] malformed request lines ==="
  printf '%s\n' \
    '{"user": 0, "k": 5}' \
    'not json at all' \
    '{"user": -3}' \
    '{"user": 1, "k": 999999}' \
    '{"user": 2, "k": 5, "budget_us": 2000}' \
    | "${dir}/tools/layergcn_serve" --snapshot-dir="${out}/snaps" \
      > "${out}/responses-malformed.jsonl"
  "${dir}/tools/validate_jsonl" "${out}/responses-malformed.jsonl"
}
run_serve_stage
run_quant_stage ubsan

# LAYERGCN_SANITIZE=thread exercises the parallel layer under TSan with a
# pool wide enough to interleave even on small CI machines.
LAYERGCN_NUM_THREADS=4 \
  run_config tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLAYERGCN_SANITIZE=thread

run_overload_stage tsan

echo "=== all checks passed ==="
