#!/usr/bin/env bash
# Repository CI. Two stages, both offline against the vendored crates:
#
#   ./ci.sh checks   build, full test suite (the integration-test profile
#                    runs the coherence invariant checker — see
#                    tests/invariant_checker.rs and tests/fault_injection.rs),
#                    the benchmark's own tests (perfbench/: a seeded defect
#                    is counted, work counters repeat), lints, and
#                    formatting (of the workspace and of perfbench/)
#   ./ci.sh smoke    kill/resume drill: SIGKILL a tiny benchmark campaign
#                    mid-flight, resume it, and require the resumed report
#                    to be bit-identical to an uninterrupted reference
#   ./ci.sh bench    build and smoke-run the criterion hot-path suite
#                    (--test mode: every benchmark body executes once, no
#                    timing gate), then emit BENCH_hotpath.json at tiny
#                    scale so the workflow can archive it
#   ./ci.sh obs      observability gate: golden-stats snapshots,
#                    cross-protocol consistency checks, the release-mode
#                    throughput guard against BENCH_hotpath.json, and an
#                    end-to-end trace export validated with obs_lint
#                    (obs_trace_ci/ is left behind for the workflow to
#                    archive)
#   ./ci.sh serve    simulation-service gate: the serve wire-protocol and
#                    cache/soak test suites, then a release loadgen run
#                    against an in-process server over a Unix socket —
#                    every response digest-checked against a direct
#                    simulation, the request timeline validated with
#                    obs_lint, and serve_metrics_ci.json left behind for
#                    the workflow to archive
#   ./ci.sh chaos    fault-tolerance gate: the same conformance suite
#                    driven through the seeded fault-injecting proxy
#                    (torn frames, partial writes, byte delays,
#                    slow-loris, resets) by resilient clients — once
#                    with a Unix-socket upstream and once over TCP.
#                    Every response must still match its oracle digest,
#                    the drained server must show no leaked work, the
#                    cache must respect its byte budget, the timeline is
#                    obs_lint-validated, and chaos_metrics_ci.json is
#                    left behind for the workflow to archive
#   ./ci.sh durable  durability gate: a cold loadgen run populates the
#                    crash-safe disk tier, the server is SIGKILLed and
#                    restarted on the same directory, and a warm run must
#                    serve every repeat bit-identically from disk with
#                    zero re-simulations (durable_metrics_ci.json is left
#                    behind for the workflow to archive); then the full
#                    conformance suite runs once more with seeded storage
#                    faults (torn writes, ENOSPC, corrupt reads, crashes
#                    around rename) injected under the disk tier
#   ./ci.sh protocols  protocol-zoo gate: the full tiny campaign runs once
#                    with --protocols all and the invariant checker on
#                    (the campaign layer fails the run if any protocol's
#                    memory image diverges or any invariant trips), the
#                    protocol-zoo differential suite and per-protocol
#                    golden stats run, and a per-protocol replay report
#                    is written into protocols_report_ci/ for the
#                    workflow to archive; bench_guard re-confirms the
#                    MESI/WARDen replay throughput envelope
#   ./ci.sh fuzz     differential fuzz gate: the workload-generator test
#                    suites, then 50 seeded synthetic workloads × every
#                    registered protocol with the invariant checker on —
#                    zero disagreements required — then the same gate with
#                    a deliberately mutated protocol, which must be caught
#                    and its shrunk reproducer archived + replayed
#                    (fuzz_ci/ is left behind for the workflow to
#                    archive); finally the coherence-atlas sweep is
#                    regenerated and diffed against the committed
#                    figures/coherence_atlas_tiny.* files
#   ./ci.sh          all of the above
set -euo pipefail
cd "$(dirname "$0")"

checks() {
  echo "== build (release) =="
  cargo build --release --offline

  echo "== tests (workspace) =="
  cargo test -q --workspace --offline

  echo "== tests (benchmark) =="
  cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

  echo "== clippy (deny warnings) =="
  cargo clippy --workspace --all-targets --offline -- -D warnings

  echo "== clippy (benchmark, deny warnings) =="
  cargo clippy --all-targets --offline --manifest-path perfbench/Cargo.toml -- -D warnings

  echo "== rustfmt (check) =="
  cargo fmt --check

  echo "== rustfmt (benchmark, check) =="
  cargo fmt --check --manifest-path perfbench/Cargo.toml
}

# Completed-run records in a campaign directory: its top-level `*.rec`
# result entries, not the quarantined ones (0 before the supervisor has
# created the directory).
count_records() {
  if [ -d "$1" ]; then
    find "$1" -maxdepth 1 -name '*.rec' | wc -l
  else
    echo 0
  fi
}

smoke() {
  echo "== kill/resume smoke test =="
  cargo build -q --release --offline -p warden-bench --bin all_figures
  local bin=target/release/all_figures
  local dir
  dir="$(mktemp -d)"

  # Uninterrupted reference campaign.
  "$bin" --scale tiny --quiet --campaign-dir "$dir/ref" >"$dir/ref.out" 2>/dev/null
  local total
  total=$(count_records "$dir/ref")

  # Victim: the same campaign on one worker, SIGKILLed once a few runs have
  # been recorded. Retry in case the kill lands after completion (the tiny
  # campaign only takes a second or two).
  local n=0 pid attempt
  for attempt in 1 2 3 4 5; do
    rm -rf "$dir/victim"
    "$bin" --scale tiny --quiet --jobs 1 --campaign-dir "$dir/victim" \
      >/dev/null 2>&1 &
    pid=$!
    while kill -0 "$pid" 2>/dev/null; do
      n=$(count_records "$dir/victim")
      if [ "$n" -ge 5 ]; then
        break
      fi
      sleep 0.01
    done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    n=$(count_records "$dir/victim")
    if [ "$n" -gt 0 ] && [ "$n" -lt "$total" ]; then
      echo "   SIGKILLed mid-flight with $n/$total runs recorded (attempt $attempt)"
      break
    fi
    echo "   kill landed too late ($n/$total records), retrying"
    n=0
  done
  if [ "$n" -le 0 ] || [ "$n" -ge "$total" ]; then
    echo "FAILED: could not SIGKILL the campaign mid-flight" >&2
    rm -rf "$dir"
    exit 1
  fi

  # Resume: the identical command must reuse the survivors' records, finish
  # the rest, and print a bit-identical report.
  "$bin" --scale tiny --quiet --jobs 1 --campaign-dir "$dir/victim" \
    >"$dir/resumed.out" 2>/dev/null
  if ! diff -u "$dir/ref.out" "$dir/resumed.out"; then
    echo "FAILED: resumed report differs from the uninterrupted reference" >&2
    rm -rf "$dir"
    exit 1
  fi
  if [ "$(count_records "$dir/victim")" -ne "$total" ]; then
    echo "FAILED: resumed campaign is missing result records" >&2
    rm -rf "$dir"
    exit 1
  fi
  if ! grep -q '"status": "done"' "$dir/victim/manifest.json"; then
    echo "FAILED: manifest.json records no completed runs" >&2
    rm -rf "$dir"
    exit 1
  fi
  echo "   resumed report is bit-identical to the uninterrupted reference"
  rm -rf "$dir"
}

bench() {
  echo "== hot-path criterion suite (smoke, --test mode) =="
  cargo bench -q --offline -p warden-bench --bench hotpath -- --test

  echo "== hot-path throughput report (tiny scale) =="
  cargo build -q --release --offline -p warden-bench --bin bench_baseline
  target/release/bench_baseline --scale tiny --runs 3 --out BENCH_hotpath_ci.json
  test -s BENCH_hotpath_ci.json
  echo "   wrote BENCH_hotpath_ci.json"
}

obs() {
  echo "== golden-stats snapshots + cross-protocol consistency =="
  cargo test -q --offline --test golden_stats --test stats_consistency

  echo "== throughput guard (obs compiled in, disabled) =="
  cargo test -q --release --offline -p warden-bench --test bench_guard

  echo "== trace export + validation =="
  cargo build -q --release --offline -p warden-bench \
    --bin replay --bin record --bin obs_lint
  local dir=obs_trace_ci
  rm -rf "$dir"
  mkdir -p "$dir"
  target/release/record suffix-array "$dir/suffix-array.trace" --scale tiny
  target/release/replay "$dir/suffix-array.trace" dual-socket --obs "$dir" \
    >/dev/null
  target/release/obs_lint "$dir"/*.trace.json
  test -s "$dir/suffix_array-warden.epochs.txt"
  echo "   exported and validated $(ls "$dir"/*.trace.json | wc -l) traces in $dir/"
}

serve() {
  echo "== serve protocol + cache + soak test suites =="
  cargo test -q --offline -p warden-serve
  cargo test -q --offline --test proptest_serve --test serve_soak

  echo "== loadgen conformance run (in-process server, Unix socket) =="
  cargo build -q --release --offline -p warden-bench --bin loadgen --bin obs_lint
  local dir=serve_ci
  rm -rf "$dir"
  mkdir -p "$dir"
  target/release/loadgen --spawn --uds "$dir/warden.sock" --scale tiny \
    --clients 8 --iters 6 --quiet \
    --out serve_metrics_ci.json --obs "$dir"
  target/release/obs_lint "$dir/loadgen.trace.json"
  test -s serve_metrics_ci.json
  # The run must have exercised the cache: a zero hit count would mean the
  # content addressing silently stopped working.
  if ! grep -qE '"cache_hits": [1-9]' serve_metrics_ci.json; then
    echo "FAILED: loadgen reports no cache hits" >&2
    exit 1
  fi
  echo "   wrote serve_metrics_ci.json and validated $dir/loadgen.trace.json"
}

chaos() {
  echo "== chaos conformance (seeded fault-injecting proxy) =="
  cargo build -q --release --offline -p warden-bench --bin loadgen --bin obs_lint
  local dir=chaos_ci
  rm -rf "$dir"
  mkdir -p "$dir"

  echo "   -- Unix-socket upstream --"
  target/release/loadgen --spawn --chaos --chaos-seed 7 \
    --uds "$dir/warden.sock" --scale tiny --clients 8 --iters 6 --quiet \
    --request-deadline-ms 30000 --cache-budget 4096 \
    --out chaos_metrics_ci.json --obs "$dir"
  target/release/obs_lint "$dir/loadgen.trace.json"
  test -s chaos_metrics_ci.json
  # The resilient clients must have been exercised: a chaos run in which
  # no client ever reconnected means the proxy injected nothing.
  if ! grep -qE '"reconnects": [1-9]' chaos_metrics_ci.json; then
    echo "FAILED: chaos run reports no client reconnects" >&2
    exit 1
  fi
  if ! grep -qE '"cache_hits": [1-9]' chaos_metrics_ci.json; then
    echo "FAILED: chaos run reports no cache hits" >&2
    exit 1
  fi
  # The budget sits below the 5,480 B working set, so the cache must evict;
  # otherwise the "peak within budget" audit above checks nothing.
  if ! grep -qE '"cache_evictions": [1-9]' chaos_metrics_ci.json; then
    echo "FAILED: chaos run never evicted under its cache budget" >&2
    exit 1
  fi

  echo "   -- TCP upstream --"
  target/release/loadgen --spawn --chaos --chaos-seed 11 \
    --scale tiny --clients 8 --iters 6 --quiet \
    --request-deadline-ms 30000 --cache-budget 4096
  echo "   wrote chaos_metrics_ci.json and validated $dir/loadgen.trace.json"
}

# Poll a server's captured stdout for its bound TCP address.
serve_addr() {
  local out="$1" addr="" i
  for i in $(seq 1 200); do
    addr=$(sed -n 's/^serve: listening on \([0-9.]*:[0-9]*\).*/\1/p' "$out")
    if [ -n "$addr" ]; then
      echo "$addr"
      return 0
    fi
    sleep 0.05
  done
  return 1
}

durable() {
  echo "== durable serving: restart-warm drill + storage chaos =="
  cargo build -q --release --offline -p warden-bench --bin serve --bin loadgen
  local dir=durable_ci
  rm -rf "$dir"
  mkdir -p "$dir"

  echo "   -- cold run: populate the disk tier --"
  # The serve daemon drains on stdin EOF, so each instance reads a fifo
  # that the script holds open until it wants the server gone.
  mkfifo "$dir/ctl1"
  target/release/serve --addr 127.0.0.1:0 --disk-cache "$dir/tier" \
    <"$dir/ctl1" >"$dir/serve1.out" 2>/dev/null &
  local pid=$!
  exec 3>"$dir/ctl1"
  local addr
  if ! addr=$(serve_addr "$dir/serve1.out"); then
    echo "FAILED: cold server never reported its address" >&2
    exit 1
  fi
  target/release/loadgen --addr "$addr" --scale tiny --clients 4 --iters 4 \
    --quiet --out "$dir/cold_metrics.json"

  # Results are durable on disk before each reply is sent, so SIGKILL —
  # not a drain — must lose nothing.
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  exec 3>&-
  echo "   SIGKILLed the populated server"

  echo "   -- warm run: restart on the same tier --"
  mkfifo "$dir/ctl2"
  target/release/serve --addr 127.0.0.1:0 --disk-cache "$dir/tier" \
    <"$dir/ctl2" >"$dir/serve2.out" 2>/dev/null &
  pid=$!
  exec 4>"$dir/ctl2"
  if ! addr=$(serve_addr "$dir/serve2.out"); then
    echo "FAILED: restarted server never reported its address" >&2
    exit 1
  fi
  # Conformance inside loadgen re-checks every response against its oracle
  # digest, so "served from disk" and "bit-identical" are proved together.
  target/release/loadgen --addr "$addr" --scale tiny --clients 4 --iters 4 \
    --quiet --out durable_metrics_ci.json
  echo quit >&4
  exec 4>&-
  wait "$pid" 2>/dev/null || true
  test -s durable_metrics_ci.json
  if ! grep -qE '"disk_hits": [1-9]' durable_metrics_ci.json; then
    echo "FAILED: restarted server served nothing from the disk tier" >&2
    exit 1
  fi
  if grep -qE '"serve_full_sims": [1-9]' durable_metrics_ci.json; then
    echo "FAILED: restarted server re-simulated instead of serving from disk" >&2
    exit 1
  fi
  echo "   restart-warm OK: disk hits, zero re-simulations, digests conform"

  echo "   -- seeded storage-fault conformance run --"
  target/release/loadgen --spawn --scale tiny --clients 6 --iters 6 --quiet \
    --disk-cache "$dir/chaos-tier" --storage-chaos --storage-chaos-seed 7 \
    --out "$dir/storage_chaos_metrics.json"
  if ! grep -qE '"storage_faults_injected": [1-9]' "$dir/storage_chaos_metrics.json"; then
    echo "FAILED: storage-chaos run injected no faults" >&2
    exit 1
  fi
  echo "   wrote durable_metrics_ci.json and $dir/storage_chaos_metrics.json"
}

protocols() {
  echo "== protocol zoo: differential suite + per-protocol goldens =="
  cargo test -q --offline --test protocol_zoo --test golden_stats

  echo "== protocol zoo: full campaign, every registered protocol, checker on =="
  cargo build -q --release --offline -p warden-bench \
    --bin all_figures --bin record --bin replay
  local dir=protocols_report_ci
  rm -rf "$dir"
  mkdir -p "$dir"
  # One combined run: the campaign layer enforces that every protocol's
  # final memory image matches the reference and that the invariant
  # checker stays clean on all of them.
  target/release/all_figures --scale tiny --quiet --check --protocols all \
    >"$dir/zoo_campaign.txt" 2>/dev/null
  grep -q "Protocol zoo" "$dir/zoo_campaign.txt"

  # Per-protocol replay reports: one file per registered protocol, each a
  # checker-on replay of the same recorded trace.
  target/release/record msort "$dir/msort.trace" --scale tiny >/dev/null
  local p
  for p in msi mesi warden si dls; do
    target/release/replay "$dir/msort.trace" dual-socket --check \
      --protocols "$p" >"$dir/report-$p.txt"
    grep -q "invariant checker: clean" "$dir/report-$p.txt"
  done
  echo "   zoo campaign + $(ls "$dir"/report-*.txt | wc -l) per-protocol reports in $dir/"

  echo "== throughput envelope unchanged (bench_guard) =="
  cargo test -q --release --offline -p warden-bench --test bench_guard
}

fuzz() {
  echo "== workload generator + differential gate test suites =="
  cargo test -q --offline --test proptest_workload --test fuzz_differential

  echo "== differential fuzz gate: 50 workloads x all protocols, checker on =="
  cargo build -q --release --offline -p warden-bench --bin fuzzgen
  local bin=target/release/fuzzgen
  local dir=fuzz_ci
  rm -rf "$dir"
  mkdir -p "$dir"
  "$bin" --fuzz-workloads 50 --fuzz-seed 2023 --protocols all --quiet \
    --artifacts "$dir/artifacts" >"$dir/gate.txt"
  grep -q "disagreements: 0" "$dir/gate.txt"
  echo "   $(grep 'fuzz gate:' "$dir/gate.txt")"

  echo "== mutation gate: a deliberately broken protocol must be caught =="
  "$bin" --fuzz-workloads 10 --fuzz-seed 2023 --protocols all --quiet \
    --mutate si:skip-self-invalidate --artifacts "$dir/artifacts" \
    >"$dir/mutation.txt"
  grep -q "^caught:" "$dir/mutation.txt"
  local seed_file
  seed_file=$(find "$dir/artifacts" -name '*.seed' | head -1)
  if [ -z "$seed_file" ]; then
    echo "FAILED: the mutation gate archived no shrunk reproducer" >&2
    exit 1
  fi
  # The archived token replays: clean without the mutation, caught with it.
  local token
  token=$(sed -n 's/^token: //p' "$seed_file")
  "$bin" --replay "$token" --quiet >/dev/null
  "$bin" --replay "$token" --mutate si:skip-self-invalidate --quiet \
    >"$dir/replay.txt"
  grep -q "^caught:" "$dir/replay.txt"
  echo "   caught + archived $(find "$dir/artifacts" -name '*.seed' | wc -l) shrunk seeds; replayed $token"

  echo "== coherence atlas: regenerate and diff against committed figures =="
  "$bin" --atlas "$dir/atlas" --quiet >/dev/null
  if ! diff -u figures/coherence_atlas_tiny.records "$dir/atlas/coherence_atlas.records"; then
    echo "FAILED: regenerated atlas records differ from figures/coherence_atlas_tiny.records" >&2
    exit 1
  fi
  if ! diff -u figures/coherence_atlas_tiny.txt "$dir/atlas/coherence_atlas.txt"; then
    echo "FAILED: regenerated atlas figure differs from figures/coherence_atlas_tiny.txt" >&2
    exit 1
  fi
  echo "   atlas is byte-identical to the committed figure data"
}

stage="${1:-all}"
case "$stage" in
  checks) checks ;;
  smoke) smoke ;;
  bench) bench ;;
  obs) obs ;;
  serve) serve ;;
  chaos) chaos ;;
  durable) durable ;;
  protocols) protocols ;;
  fuzz) fuzz ;;
  all)
    checks
    smoke
    bench
    obs
    serve
    chaos
    durable
    protocols
    fuzz
    ;;
  *)
    echo "usage: ci.sh [checks|smoke|bench|obs|serve|chaos|durable|protocols|fuzz|all]" >&2
    exit 2
    ;;
esac

echo "CI OK"
