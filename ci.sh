#!/usr/bin/env bash
# Repository CI. Five stages, all offline against the vendored crates:
#
#   ./ci.sh checks   build, full test suite (the integration-test profile
#                    runs the coherence invariant checker — see
#                    tests/invariant_checker.rs and tests/fault_injection.rs),
#                    the benchmark's own tests (perfbench/: a seeded defect
#                    is counted, work counters repeat), lints, and
#                    formatting (of the workspace and of perfbench/);
#                    perfbench/Cargo.lock, which building the benchmark
#                    rewrites, is restored when the script exits
#   ./ci.sh smoke    kill/resume drill: run a tiny benchmark campaign as the
#                    reference (it must print exactly one `campaign:`
#                    line, which is echoed with its record count and
#                    total record bytes), SIGKILL a copy of it
#                    mid-flight, resume it, and require the resumed report
#                    to be bit-identical to an uninterrupted reference
#                    (whose progress output must carry no manifest-write
#                    warning) and the resumed campaign to have quarantined
#                    nothing (every survivor's entry must read back);
#                    finally a leak guard: without --campaign-dir,
#                    all_figures and a small fuzz gate run under an empty
#                    TMPDIR and must leave nothing in it
#   ./ci.sh obs      observability gate: golden-stats snapshots,
#                    cross-protocol consistency checks, the release-mode
#                    exact-work guard (tests/exact_work.rs: both benchmark
#                    workloads at paper scale replay exactly the pinned
#                    work), the release-mode trace-bytes guard
#                    (tests/trace_bytes.rs: the 14 paper-scale captures
#                    encode exactly the pinned bytes), and an end-to-end
#                    trace export validated with obs_lint (obs_trace_ci/
#                    is left behind for the workflow to archive)
#   ./ci.sh protocols  protocol-zoo gate: the full tiny campaign, which
#                    runs every registered protocol, runs once with the
#                    invariant checker on (the campaign layer fails the
#                    run if any protocol's memory image diverges or any
#                    invariant trips), the
#                    protocol-zoo differential suite and per-protocol
#                    golden stats run, and a per-protocol replay report
#                    is written into protocols_report_ci/ for the
#                    workflow to archive; finally the paper-scale
#                    figures are regenerated and must be a line-for-line
#                    prefix of the committed EXPERIMENTS.md
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
  # Building the benchmark rewrites perfbench/Cargo.lock. Keep a copy and
  # put it back when the script exits, pass or fail, so this stage leaves
  # perfbench/ as it found it.
  local saved_lock
  saved_lock="$(mktemp)"
  cp perfbench/Cargo.lock "$saved_lock"
  trap "cp '$saved_lock' perfbench/Cargo.lock; rm -f '$saved_lock'" EXIT

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

# Total bytes of those records (0 when there are none).
record_bytes() {
  find "$1" -maxdepth 1 -name '*.rec' -exec cat {} + | wc -c
}

smoke() {
  echo "== kill/resume smoke test =="
  cargo build -q --release --offline -p warden-bench --bin all_figures --bin fuzzgen
  local bin=target/release/all_figures
  local dir
  dir="$(mktemp -d)"

  # Uninterrupted reference campaign, with its progress lines kept: the
  # concurrent workers must persist every manifest update.
  "$bin" --scale tiny --campaign-dir "$dir/ref" >"$dir/ref.out" 2>"$dir/ref.err"
  if grep 'cannot write manifest' "$dir/ref.err" >&2; then
    echo "FAILED: the reference campaign could not write its manifest" >&2
    rm -rf "$dir"
    exit 1
  fi
  # The whole report is one campaign, capturing each workload once.
  local campaign_lines
  campaign_lines=$(grep -c '^campaign:' "$dir/ref.err" || true)
  if [ "$campaign_lines" -ne 1 ]; then
    echo "FAILED: the reference report ran $campaign_lines campaigns, not one" >&2
    rm -rf "$dir"
    exit 1
  fi
  echo "   reference $(grep '^campaign:' "$dir/ref.err")"
  local total
  total=$(count_records "$dir/ref")
  echo "   reference campaign: $total records, $(record_bytes "$dir/ref") bytes of records"

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
  # A survivor's entry the resumed campaign cannot read is quarantined and
  # recomputed to the same report, so an encoder/decoder mismatch would
  # pass every check above: require that nothing was set aside.
  if [ -n "$(ls -A "$dir/victim/quarantine" 2>/dev/null)" ]; then
    echo "FAILED: the resumed campaign quarantined entries:" >&2
    ls -A "$dir/victim/quarantine" >&2
    rm -rf "$dir"
    exit 1
  fi
  echo "   resumed report is bit-identical to the uninterrupted reference;" \
    "nothing quarantined"

  echo "== leak guard: no campaign state without --campaign-dir =="
  mkdir "$dir/tmp"
  TMPDIR="$dir/tmp" "$bin" --scale tiny --quiet >/dev/null
  TMPDIR="$dir/tmp" target/release/fuzzgen --fuzz-workloads 5 --quiet >/dev/null
  if [ -n "$(ls -A "$dir/tmp")" ]; then
    echo "FAILED: runs without --campaign-dir left files in TMPDIR:" >&2
    ls -A "$dir/tmp" >&2
    rm -rf "$dir"
    exit 1
  fi
  echo "   all_figures and a 5-workload fuzz gate left TMPDIR empty"
  rm -rf "$dir"
}

obs() {
  echo "== golden-stats snapshots + cross-protocol consistency =="
  cargo test -q --offline --test golden_stats --test stats_consistency

  echo "== exact work and trace bytes of the benchmark (release, paper scale) =="
  cargo test -q --release --offline --test exact_work --test trace_bytes

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
  target/release/all_figures --scale tiny --quiet --check \
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

  echo "== paper figures: regenerate and match EXPERIMENTS.md =="
  # The generated report is the head of EXPERIMENTS.md; the hand-written
  # sections follow it.
  target/release/all_figures --scale paper --quiet \
    --markdown "$dir/paper_figures.md" >/dev/null 2>"$dir/paper_figures.err"
  local lines
  lines=$(wc -l <"$dir/paper_figures.md")
  if ! head -n "$lines" EXPERIMENTS.md | diff -u --label EXPERIMENTS.md \
    --label "$dir/paper_figures.md" - "$dir/paper_figures.md"; then
    echo "FAILED: regenerated paper figures differ from EXPERIMENTS.md" >&2
    exit 1
  fi
  echo "   $lines generated lines match the head of EXPERIMENTS.md"
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
  obs) obs ;;
  protocols) protocols ;;
  fuzz) fuzz ;;
  all)
    checks
    smoke
    obs
    protocols
    fuzz
    ;;
  *)
    echo "usage: ci.sh [checks|smoke|obs|protocols|fuzz|all]" >&2
    exit 2
    ;;
esac

echo "CI OK"
