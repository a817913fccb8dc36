#!/usr/bin/env bash
# Test tiers for CI and pre-merge runs:
#
#   release   Release build, full ctest suite (includes the obs, cli, fault,
#             fuzz, and paper labels at their default scale).
#   perfbench The repository benchmark's self-test (python3 perfbench/run.py
#             --self-test): builds perfbench/, which compiles src/ in
#             Release, into .bench_build/; runs p2pbench_tests; then runs
#             every BENCHMARK.json workload at test size untraced and
#             traced. Fails on a build error, a failed operation, traced
#             output that differs from the untraced run, or a metric whose
#             name or unit BENCHMARK.json does not declare — so a src/
#             change that breaks the benchmark fails here first.
#   sanitize  Sanitizer build (address,undefined), wire-format + trace-store
#             + fault-corruption fuzz suite with the mutation loops scaled up
#             via P2P_FUZZ_ROUNDS.
#   replay    Replay determinism: record a quick study of each network as a
#             trace file, replay it offline, and require the replayed JSON
#             report to be byte-identical to the live one.
#   tsan      ThreadSanitizer build (-DP2P_SANITIZE=thread); runs the sweep,
#             fault, shard, and kad suites plus the Payload refcount stress,
#             a sharded (--shards 4) full-fidelity legacy quick study of
#             each sharded network and a quick KAD honeypot study — the
#             concurrency-bearing layers under their real workload.
#   bench     Simulation-core microbench (bench_sim_core --check): asserts
#             the >=2x scheduling and >=5x copy-reduction floors hold and
#             leaves bench_sim_core.json behind as a CI artifact. Also runs
#             bench_shard --check (sharded-engine scaling + million-peer
#             capacity; the >=2x 4-shard speedup floor is enforced on
#             >=4-core hosts), bench_trace --check (out-of-core segment
#             replay throughput floor + peak-RSS ceiling, byte-identical
#             reports across jobs counts), bench_legacy_engine --check
#             (legacy study on the sharded engine: interned query hot-path
#             ratio, 1-shard events/sec floor, 1-vs-4-shard determinism,
#             and the >=2x study speedup floor on >=4-core hosts),
#             and bench_obs_overhead --check
#             in the release
#             build AND in a -DP2P_OBS_DISABLED=ON build, pinning the
#             per-op cost ceilings of the observability primitives in both
#             flavors.
#   chaos     Faulted --quick studies of all three networks: bit-reproducible
#             under a fixed seed + fault plan, degradation counters obey
#             their accounting invariants, unknown --faults specs exit
#             non-zero, and a faulted sweep is --jobs invariant.
#   longhaul  Ten-simulated-week KAD honeypot capture into a segment
#             directory (~2.5M records, out of core), parallel replay at
#             1 and 4 jobs byte-identical to each other and to the live
#             report, and a bit-flipped segment contained (replay still
#             succeeds, damage counted) while MANIFEST damage stays fatal.
#             Leaves the MANIFEST, rolling-window CSV, and reports in
#             ci-longhaul/ for artifact upload.
#   experiments
#             Paper tables: bench/experiments --check EXPERIMENTS.md
#             regenerates every generated block of the committed file
#             (both standard studies, the A2–A4 crawls and two 16-seed
#             standard sweeps, on every core) and fails naming each block
#             that differs.
#
# The default order runs bench after longhaul: bench's speedup floors fail
# on hosts with 4 or more cores, and set -e would otherwise skip longhaul.
#
# Usage: ci/run_tiers.sh [jobs] [tier ...]
#   A leading integer sets the job count (default: nproc); remaining
#   arguments select tiers, in order. No tier arguments = all tiers.
#   Unknown tier names fail fast (exit 2) before any tier runs.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc)"
if [[ $# -gt 0 && "$1" =~ ^[0-9]+$ ]]; then
  JOBS="$1"
  shift
fi
TIERS=("$@")
if [[ ${#TIERS[@]} -eq 0 ]]; then
  TIERS=(release perfbench sanitize replay tsan chaos longhaul bench experiments)
fi

# Validate every tier name up front: a typo in the third tier must not cost
# a full run of the first two before failing.
KNOWN_TIERS="release perfbench sanitize replay tsan chaos longhaul bench experiments"
for tier in "${TIERS[@]}"; do
  case " ${KNOWN_TIERS} " in
    *" ${tier} "*) ;;
    *)
      echo "unknown tier: ${tier} (known: ${KNOWN_TIERS})" >&2
      exit 2
      ;;
  esac
done

build_release() {
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci-release -j "${JOBS}"
}

tier_release() {
  echo "== tier release: Release build + full suite =="
  build_release
  (
    cd build-ci-release
    ctest -L obs --output-on-failure
    ctest -L paper --output-on-failure
    ctest -j "${JOBS}" --output-on-failure
  )
}

tier_perfbench() {
  echo "== tier perfbench: the repository benchmark builds and self-tests =="
  python3 perfbench/run.py --self-test
}

tier_sanitize() {
  echo "== tier sanitize: asan/ubsan build + scaled fuzz suite =="
  cmake -B build-ci-sanitize -S . -DCMAKE_BUILD_TYPE=Debug \
    -DP2P_SANITIZE=address,undefined
  cmake --build build-ci-sanitize -j "${JOBS}"
  (
    cd build-ci-sanitize
    # Callers (or CI variables) can raise the mutation budget; 2000 rounds
    # is the default scale for the wire/trace/fault/segment-index targets.
    P2P_FUZZ_ROUNDS="${P2P_FUZZ_ROUNDS:-2000}" \
      ctest -L fuzz -j "${JOBS}" --output-on-failure
    # The zero-copy payload layer is all refcounts and aliasing — exactly
    # what asan/ubsan are for; the shard queue's slab recycling, the
    # word-at-a-time QRP codec and SHA-1 kernel, the fetch pipeline all
    # three crawlers share and the OpenFT/KAD transfer codec ride along.
    ctest -R 'Payload|ShardQueue|^Task|QueryRouteTable|QrpHash|Sha1|FetchPipeline|TransferCodec' \
      -j "${JOBS}" --output-on-failure
  )
}

tier_replay() {
  echo "== tier replay: record/replay determinism =="
  [[ -d build-ci-release ]] || build_release
  (
    cd build-ci-release
    rm -rf ci-replay && mkdir ci-replay && cd ci-replay
    for network in limewire openft kad; do
      ../examples/trace record --network "${network}" --quick --seed 7 \
        "${network}.p2pt" > /dev/null
      ../examples/trace inspect "${network}.p2pt"
      ../examples/trace replay "${network}.p2pt" \
        --json "${network}_replayed.json" > /dev/null
    done
    ../examples/limewire_study --quick --seed 7 --json limewire_live.json \
      > /dev/null
    ../examples/openft_study --quick --seed 7 --json openft_live.json > /dev/null
    ../examples/kad_study --quick --seed 7 --json kad_live.json > /dev/null
    cmp limewire_live.json limewire_replayed.json
    cmp openft_live.json openft_replayed.json
    cmp kad_live.json kad_replayed.json
    echo "replayed reports are byte-identical to live runs"
  )
}

tier_tsan() {
  echo "== tier tsan: ThreadSanitizer build + sweep/fault/shard suites =="
  cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DP2P_SANITIZE=thread
  cmake --build build-ci-tsan -j "${JOBS}" \
    --target p2p_tests p2p_fault_tests p2p_shard_tests p2p_kad_tests \
             limewire_study openft_study kad_study
  (
    cd build-ci-tsan
    ctest -L fault -j "${JOBS}" --output-on-failure
    ctest -R '^Sweep' -j "${JOBS}" --output-on-failure
    # Payload refcounts cross sweep worker threads; the stress test hammers
    # concurrent copy/destroy so TSan can see any missing ordering.
    ctest -R 'Payload' -j "${JOBS}" --output-on-failure
    # The sharded engine is the most concurrency-dense layer: worker pool,
    # window barriers, cross-shard outbox drains. Run its differential and
    # lookahead-property suite plus a full sharded quick study of each
    # network — --shards now runs the full-fidelity legacy model (servents,
    # crawler, scanner on worker threads), so TSan sees the real study
    # workload, not just the harness.
    ctest -L shard -j "${JOBS}" --output-on-failure
    for network in limewire openft; do
      ./examples/${network}_study --quick --seed 7 --shards 4 \
        --json "tsan_${network}_sharded.json" > /dev/null
    done
    # KAD's study tests run under the sweep worker pool; a standalone quick
    # study keeps the CLI path covered too.
    ctest -L kad -j "${JOBS}" --output-on-failure
    ./examples/kad_study --quick --seed 7 --json tsan_kad.json > /dev/null
  )
}

tier_chaos() {
  echo "== tier chaos: faulted studies, invariants, jobs invariance =="
  [[ -d build-ci-release ]] || build_release
  (
    cd build-ci-release
    rm -rf ci-chaos && mkdir ci-chaos && cd ci-chaos

    echo "-- faulted runs are bit-reproducible"
    for network in limewire openft kad; do
      ../examples/${network}_study --quick --seed 7 --faults moderate \
        --json "${network}_a.json" > /dev/null
      ../examples/${network}_study --quick --seed 7 --faults moderate \
        --json "${network}_b.json" > /dev/null
      cmp "${network}_a.json" "${network}_b.json"
    done

    echo "-- fault appendix present iff faults were injected"
    ../examples/limewire_study --quick --seed 7 --json clean.json > /dev/null
    grep -q '"faults"' limewire_a.json
    grep -q '"faults"' openft_a.json
    grep -q '"faults"' kad_a.json
    ! grep -q '"faults"' clean.json

    echo "-- faulted KAD honeypot stream still yields the coverage appendix"
    grep -q '"honeypots"' kad_a.json

    echo "-- degradation counters obey their accounting invariants"
    for network in limewire openft kad; do
      python3 - "${network}_a.json" <<'PY'
import json, sys
f = json.load(open(sys.argv[1]))["faults"]
deg, inj = f["degradation"], f["injected"]
assert deg["downloads_started"] >= (
    deg["downloads_ok"] + deg["downloads_failed"] + deg["downloads_abandoned"]
), "resolutions exceed started downloads"
assert inj["downloads_stalled"] <= deg["downloads_started"], "stalls exceed fetches"
assert deg["downloads_ok"] > 0, "faulted study collapsed (no downloads)"
assert inj["messages_dropped"] > 0, "moderate preset injected nothing"
print(f"   {sys.argv[1]}: ok")
PY
    done

    echo "-- unknown fault specs are rejected"
    for tool in limewire_study openft_study kad_study sweep; do
      if ../examples/${tool} --faults not-a-preset > /dev/null 2>&1; then
        echo "${tool} accepted an unknown --faults spec" >&2
        exit 1
      fi
    done

    echo "-- faulted sweep JSON is identical across --jobs"
    ../examples/sweep --quick --seeds 3 --faults moderate --jobs 1 \
      --json sweep_j1.json > /dev/null
    ../examples/sweep --quick --seeds 3 --faults moderate --jobs 4 \
      --json sweep_j4.json > /dev/null
    cmp sweep_j1.json sweep_j4.json

    echo "-- time-resolved telemetry of a faulted run (artifacts + determinism)"
    # One fully-instrumented faulted study: the hourly time series and the
    # span profile land in ci-chaos/ for artifact upload, and the series
    # (standalone and embedded in the report) is bit-reproducible.
    ../examples/limewire_study --quick --seed 7 --faults moderate \
      --timeseries limewire_faulted.timeseries.jsonl --window 1h \
      --profile limewire_faulted.trace.json \
      --json limewire_ts_a.json > /dev/null
    ../examples/limewire_study --quick --seed 7 --faults moderate \
      --timeseries limewire_ts_b.jsonl --window 1h \
      --json limewire_ts_b.json > /dev/null
    cmp limewire_faulted.timeseries.jsonl limewire_ts_b.jsonl
    cmp limewire_ts_a.json limewire_ts_b.json
    grep -q '"timeseries"' limewire_ts_a.json
    python3 - limewire_faulted.trace.json <<'PY'
import json, sys
t = json.load(open(sys.argv[1]))
events = t["traceEvents"]
assert events, "profile captured no spans"
assert all(e["ph"] == "X" and e["ts"] >= 0 and e["dur"] >= 0 for e in events)
print(f"   {sys.argv[1]}: {len(events)} spans ok")
PY
    echo "chaos tier passed"
  )
}

tier_bench() {
  echo "== tier bench: simulation-core perf floors =="
  [[ -d build-ci-release ]] || build_release
  (
    cd build-ci-release
    # --check enforces the floors pinned in BENCH_sim_core.json at the repo
    # root (>=2x events/sec, >=5x fewer copied bytes on a 30-neighbor
    # broadcast); the JSON lands next to the binary for artifact upload.
    ./bench/bench_sim_core --check --json bench_sim_core.json

    # Sharded-engine scaling: events/sec at 1/2/4/8 shards plus the
    # million-peer --quick capacity run. --check asserts executed-event
    # counts are identical at every shard count and, on >=4-core hosts,
    # that 4 shards clear a >=2x speedup floor over 1 shard.
    ./bench/bench_shard --check --json bench_shard.json

    # Out-of-core trace storage: a synthetic twelve-week capture recorded
    # straight into a segment directory, replayed at 1/4 jobs. --check pins
    # the replay-throughput floor and the peak-RSS ceiling that back the
    # out-of-core claim; byte-identical reports are asserted either way.
    ./bench/bench_trace --check --json bench_trace.json

    # Full-fidelity legacy study on the sharded engine: interned-vs-
    # reference query hot-path ratio (>= 1.3x), 1-shard events/sec floor,
    # identical 1/4-shard record streams, and — on >=4-core hosts only —
    # the >=2x 4-shard study speedup floor. A smaller host prints
    # "1-core host: parallel speedup floor skipped" instead of failing.
    ./bench/bench_legacy_engine --check --json bench_legacy_engine.json

    echo "-- obs overhead ceilings (enabled flavor)"
    ./bench/bench_obs_overhead --check | tee bench_obs_overhead.txt
  )

  echo "-- obs overhead ceilings (P2P_OBS_DISABLED flavor)"
  cmake -B build-ci-obsoff -S . -DCMAKE_BUILD_TYPE=Release -DP2P_OBS_DISABLED=ON
  cmake --build build-ci-obsoff -j "${JOBS}" --target bench_obs_overhead
  (
    cd build-ci-obsoff
    ./bench/bench_obs_overhead --check \
      | tee ../build-ci-release/bench_obs_overhead_disabled.txt
  )
}

tier_longhaul() {
  echo "== tier longhaul: ten-week segmented capture + out-of-core replay =="
  [[ -d build-ci-release ]] || build_release
  (
    cd build-ci-release
    rm -rf ci-longhaul && mkdir ci-longhaul && cd ci-longhaul

    echo "-- record ten simulated weeks into a segment directory"
    ../examples/kad_study --longhaul --seed 7 --record-dir capture.p2ps \
      --json longhaul_live.json > /dev/null
    ../examples/trace inspect capture.p2ps

    echo "-- parallel replay is byte-identical (1 vs 4 jobs, and vs live)"
    ../examples/kad_study --replay-dir capture.p2ps --replay-jobs 1 \
      --json longhaul_replay_j1.json --windows longhaul_windows.csv > /dev/null
    ../examples/kad_study --replay-dir capture.p2ps --replay-jobs 4 \
      --json longhaul_replay_j4.json --windows longhaul_windows_j4.csv \
      > /dev/null
    cmp longhaul_replay_j1.json longhaul_replay_j4.json
    cmp longhaul_windows.csv longhaul_windows_j4.csv
    cmp longhaul_live.json longhaul_replay_j1.json
    echo "   replayed reports and window CSVs are byte-identical"

    echo "-- a bit-flipped segment is contained, not fatal"
    cp -r capture.p2ps damaged.p2ps
    python3 - <<'PY'
import pathlib
segs = sorted(pathlib.Path("damaged.p2ps").glob("seg-*.p2pt"))
victim = segs[len(segs) // 2]
data = bytearray(victim.read_bytes())
data[len(data) // 2] ^= 0x40
victim.write_bytes(data)
print(f"   flipped one byte in {victim.name}")
PY
    ../examples/kad_study --replay-dir damaged.p2ps --replay-jobs 4 \
      --json longhaul_damaged.json | grep "damage contained"

    echo "-- MANIFEST damage stays a hard error"
    python3 - <<'PY'
import pathlib
manifest = pathlib.Path("damaged.p2ps/MANIFEST")
data = bytearray(manifest.read_bytes())
data[len(data) // 2] ^= 0x01
manifest.write_bytes(data)
PY
    if ../examples/kad_study --replay-dir damaged.p2ps \
        --json /dev/null > /dev/null 2>&1; then
      echo "replay accepted a corrupted MANIFEST" >&2
      exit 1
    fi
    rm -rf damaged.p2ps
    echo "longhaul tier passed"
  )
}

tier_experiments() {
  echo "== tier experiments: EXPERIMENTS.md matches a fresh regeneration =="
  [[ -d build-ci-release ]] || build_release
  ./build-ci-release/bench/experiments --check EXPERIMENTS.md
}

for tier in "${TIERS[@]}"; do
  case "${tier}" in
    release)  tier_release ;;
    perfbench) tier_perfbench ;;
    sanitize) tier_sanitize ;;
    replay)   tier_replay ;;
    tsan)     tier_tsan ;;
    chaos)    tier_chaos ;;
    bench)    tier_bench ;;
    longhaul) tier_longhaul ;;
    experiments) tier_experiments ;;
  esac
done

echo "== all selected tiers passed =="
