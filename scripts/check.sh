#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 test suite.
# Run from anywhere; operates on the workspace root.
#
# --bench-smoke additionally runs the simulation and FRAIG-sweep benches
# with a single sample each, so hot-path regressions (a bench that panics,
# an accidental O(n^2) blowup) fail fast without the cost of a real
# measurement run.
#
# --fuzz-smoke additionally replays the tests/corpus regression set and
# runs a short differential fuzzing campaign (200 fixed-seed cases with
# shrinking) through the eco-fuzz binary; any oracle failure fails the
# gate with the shrunk case printed.
#
# --degrade-smoke additionally drives the eco-patch binary against a
# starvation budget (zero deadline, one-conflict allowance) and asserts
# the graceful-degradation contract: exit code 4, a per-cluster partial
# report, well-formed governor counters in --stats=json, and a partial
# patch netlist only under --allow-partial. It also runs a 200-case
# budgeted differential campaign through eco-fuzz.
#
# --batch-smoke additionally generates a 12-job manifest with
# eco-workgen, runs it cold then warm through eco-batch over one shared
# memo cache (--repeat 2), and asserts every job is proven equivalent,
# the warm pass reports nonzero cache hits, and the JSONL report is
# byte-identical for --jobs 1 vs --jobs 4. A duplicate leg runs a
# manifest listing every job twice, cold, at --jobs 1 and --jobs 2: the
# memo hits/misses on stderr and the two JSONL reports must be
# identical. A journal leg then runs the manifest with --journal and
# again with --resume on the same state directory: the resumed report
# must replay all 12 jobs and be byte-identical to the uninterrupted
# one. Cold/warm wall times are recorded in crates/bench/BENCH_batch.json.
#
# --scale-smoke additionally emits the 100k-gate scale AIGs end-to-end
# through eco-workgen --scale, then runs the release scale harness on
# the 100k preset under a governor deadline. When a checked-in
# crates/bench/BENCH_scale.json exists, simulation throughput is
# compared against it and a >20% regression fails the gate; the 100k
# rows of the tracked file are refreshed on success.
#
# --serve-smoke additionally exercises the eco-serve daemon end to end:
# a 12-job request stream (from eco-workgen --requests) is replayed cold
# then warm against one daemon over a unix socket. The warm replay must
# hit the process-lifetime memo cache (daemon stats op), finish in <10%
# of the cold stream's wall time, and return byte-identical responses; a
# second daemon with --jobs 1 must produce the same bytes as --jobs 4.
# Both drain paths are proven clean (protocol shutdown and SIGTERM, exit
# 0, socket file removed, all admitted jobs answered). Cold/warm
# throughput and p50/p99 round-trip latencies are recorded in
# crates/bench/BENCH_serve.json.
#
# The seq smoke is part of the DEFAULT gate (seconds): it generates
# a latch-bearing case with eco-workgen --seq, rectifies it through
# eco-patch --unroll at several frame depths (generate → unroll →
# rectify → fold → verify, exit 0 each time), asserts the folded patch
# parses and carries no frame-indexed names, cross-checks the format hub
# with a byte-fixpoint conversion cycle and a short eco-fuzz --formats
# round-trip campaign, and records unroll-depth wall times, frames/sec,
# and patch sizes in crates/bench/BENCH_seq.json. Skip it with
# --no-seq-smoke.
#
# The chaos smoke is also part of the DEFAULT gate (seconds): it runs
# the seeded fault-injection campaign (eco-workgen --chaos-campaign),
# 240 in-process fault sweeps with a differential oracle plus the
# kill-mid-stream drill (SIGKILL a real eco-serve daemon, recover with
# --resume, union of responses must equal the fault-free run, warm
# restart must hit the durable memo). Recovery wall time, journal
# replay rate, and store recovery counts are merged into
# crates/bench/BENCH_chaos.json. Skip it with --no-chaos-smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

bench_smoke=0
fuzz_smoke=0
degrade_smoke=0
batch_smoke=0
scale_smoke=0
serve_smoke=0
chaos_smoke=1
seq_smoke=1
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    --fuzz-smoke) fuzz_smoke=1 ;;
    --degrade-smoke) degrade_smoke=1 ;;
    --batch-smoke) batch_smoke=1 ;;
    --scale-smoke) scale_smoke=1 ;;
    --serve-smoke) serve_smoke=1 ;;
    --chaos-smoke) chaos_smoke=1 ;;
    --no-chaos-smoke) chaos_smoke=0 ;;
    --seq-smoke) seq_smoke=1 ;;
    --no-seq-smoke) seq_smoke=0 ;;
    *) echo "usage: $0 [--bench-smoke] [--fuzz-smoke] [--degrade-smoke] [--batch-smoke] [--scale-smoke] [--serve-smoke] [--no-chaos-smoke] [--no-seq-smoke]" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test -q"
cargo test -q --workspace

if [ "$chaos_smoke" -eq 1 ]; then
  echo "== chaos smoke: 240 seeded fault sweeps + kill-mid-stream recovery drill"
  chtmp="$(mktemp -d)"
  trap 'rm -rf "${chtmp:-}"' EXIT
  # The campaign fails on any crash, any wrong answer (differential
  # oracle), a lost response across the SIGKILL, or a warm restart that
  # misses the durable memo store.
  target/release/eco-workgen --chaos-campaign --out "$chtmp" --seed 1 \
    --bench-out crates/bench/BENCH_chaos.json -q \
    || { echo "chaos smoke: campaign failed"; exit 1; }
  for row in 'chaos/sweep/wall' 'chaos/kill12/recovery_wall' 'chaos/kill12/warm_replay_wall'; do
    grep -q "\"name\": \"$row\"" crates/bench/BENCH_chaos.json \
      || { echo "chaos smoke: bench file missing $row"; cat crates/bench/BENCH_chaos.json; exit 1; }
  done
  grep -q '0 crashes, 0 wrong answers' crates/bench/BENCH_chaos.json \
    || { echo "chaos smoke: bench file missing oracle note"; cat crates/bench/BENCH_chaos.json; exit 1; }
  echo "chaos smoke: ok"
fi

if [ "$seq_smoke" -eq 1 ]; then
  echo "== seq smoke: generate -> unroll -> rectify -> fold -> verify at several depths"
  sqtmp="$(mktemp -d)"
  trap 'rm -rf "${chtmp:-}" "${sqtmp:-}"' EXIT
  target/release/eco-workgen --seq 1 --out "$sqtmp" --seed 5 -q

  # seq000 is the first shift-register unit (seed 5: 4 latches, 1
  # target); its fault sits in the output cone, so the fold succeeds at
  # any depth that covers the state.
  targets=$(tr '\n' ',' < "$sqtmp/seq000.targets" | sed 's/,$//')
  bench_rows=""
  bench_notes=""
  for k in 2 4 6; do
    t0=$(date +%s%N)
    target/release/eco-patch \
      -f "$sqtmp/seq000_faulty.btor2" -g "$sqtmp/seq000_golden.btor2" \
      -w "$sqtmp/seq000.weights" -t "$targets" --unroll "$k" \
      -o "$sqtmp/patch_k$k.v" 2> "$sqtmp/stderr_k$k.txt" \
      || { echo "seq smoke: --unroll $k run failed"; cat "$sqtmp/stderr_k$k.txt"; exit 1; }
    t1=$(date +%s%N)
    wall=$((t1 - t0))
    grep -q "patched and verified over $k frames" "$sqtmp/stderr_k$k.txt" \
      || { echo "seq smoke: --unroll $k did not verify"; cat "$sqtmp/stderr_k$k.txt"; exit 1; }
    grep -q 'module patch' "$sqtmp/patch_k$k.v" \
      || { echo "seq smoke: --unroll $k wrote a malformed patch"; cat "$sqtmp/patch_k$k.v"; exit 1; }
    ! grep -q '@' "$sqtmp/patch_k$k.v" \
      || { echo "seq smoke: frame-indexed name leaked into the folded patch"; cat "$sqtmp/patch_k$k.v"; exit 1; }
    size=$(sed -n "s/.*cost [0-9]*, size \([0-9]*\).*/\1/p" "$sqtmp/stderr_k$k.txt")
    fps=$(awk -v k="$k" -v w="$wall" 'BEGIN { printf "%.1f", k / (w / 1e9) }')
    bench_rows="$bench_rows  {\"name\": \"seq/unroll$k/wall\", \"samples\": 1, \"mean_ns\": $wall, \"median_ns\": $wall, \"min_ns\": $wall, \"max_ns\": $wall},
"
    bench_notes="$bench_notes  \"unroll $k: ${fps} frames/s, patch size $size ANDs\",
"
  done

  # Format-hub cross-checks: the canonical BTOR2 writer is a byte
  # fixpoint through its own parser, the design survives a blif hop
  # with its latches intact, and a short differential round-trip
  # campaign over all format pairs comes back clean.
  target/release/eco-convert -i "$sqtmp/seq000_golden.btor2" -o "$sqtmp/rt.btor2" 2> /dev/null \
    || { echo "seq smoke: btor2 -> btor2 conversion failed"; exit 1; }
  cmp -s "$sqtmp/seq000_golden.btor2" "$sqtmp/rt.btor2" \
    || { echo "seq smoke: btor2 -> btor2 is not a byte fixpoint"; diff "$sqtmp/seq000_golden.btor2" "$sqtmp/rt.btor2" || true; exit 1; }
  target/release/eco-convert -i "$sqtmp/seq000_golden.btor2" -o "$sqtmp/rt.blif" 2> "$sqtmp/convert.txt" \
    || { echo "seq smoke: btor2 -> blif conversion failed"; cat "$sqtmp/convert.txt"; exit 1; }
  grep -q '4 latches' "$sqtmp/convert.txt" \
    || { echo "seq smoke: conversion lost latches"; cat "$sqtmp/convert.txt"; exit 1; }
  target/release/eco-fuzz --formats 15 --seed 1 --shrink > /dev/null \
    || { echo "seq smoke: format round-trip campaign failed"; exit 1; }

  cat > crates/bench/BENCH_seq.json <<EOF
{"benches": [
${bench_rows%,
}
], "notes": [
  "cold eco-patch --unroll process wall (parse + unroll + rectify + fold + k-frame re-proof)",
${bench_notes%,
}
]}
EOF
  echo "seq smoke: ok"
fi

if [ "$bench_smoke" -eq 1 ]; then
  echo "== bench smoke (1 sample): sim_throughput"
  ECO_BENCH_SAMPLES=1 cargo bench -p eco-bench --bench sim_throughput
  echo "== bench smoke (1 sample): fraig_sweep"
  ECO_BENCH_SAMPLES=1 cargo bench -p eco-bench --bench fraig_sweep
fi

if [ "$fuzz_smoke" -eq 1 ]; then
  echo "== fuzz smoke: corpus replay"
  target/release/eco-fuzz --replay tests/corpus
  echo "== fuzz smoke: 200-case campaign (seed 1)"
  target/release/eco-fuzz --iters 200 --seed 1 --shrink
fi

if [ "$degrade_smoke" -eq 1 ]; then
  echo "== degrade smoke: starved eco-patch run must exit 4 with a well-formed partial result"
  tmp="$(mktemp -d)"
  trap 'rm -rf "${chtmp:-}" "${sqtmp:-}" "$tmp"' EXIT
  # A tiny two-cluster workload: two independent targets, each cut to a
  # floating pseudo-input in the faulty circuit.
  cat > "$tmp/golden.v" <<'EOF'
module g (a, b, c, y, z);
input a, b, c;
output y, z;
wire t1, t2;
xor g1 (t1, a, b);
and g2 (y, t1, c);
or  g3 (t2, b, c);
buf g4 (z, t2);
endmodule
EOF
  cat > "$tmp/faulty.v" <<'EOF'
module f (a, b, c, t1, t2, y, z);
input a, b, c, t1, t2;
output y, z;
and g2 (y, t1, c);
buf g4 (z, t2);
endmodule
EOF

  run_patch() {
    set +e
    target/release/eco-patch -f "$tmp/faulty.v" -g "$tmp/golden.v" -t t1,t2 "$@" \
      -o "$tmp/patch.v" 2> "$tmp/stderr.txt"
    rc=$?
    set -e
  }

  # Zero deadline plus a one-conflict allowance: every cluster must be
  # diagnosed, the run must exit 4, and no netlist appears without
  # --allow-partial.
  rm -f "$tmp/patch.v"
  run_patch --timeout 0 --conflict-budget 1 --stats=json
  [ "$rc" -eq 4 ] || { echo "degrade smoke: expected exit 4, got $rc"; cat "$tmp/stderr.txt"; exit 1; }
  grep -q 'PARTIAL result:' "$tmp/stderr.txt" || { echo "degrade smoke: no partial report"; cat "$tmp/stderr.txt"; exit 1; }
  grep -q '"governor"' "$tmp/stderr.txt" || { echo "degrade smoke: no governor stats object"; cat "$tmp/stderr.txt"; exit 1; }
  for key in clusters_patched clusters_budget_exhausted clusters_deadline clusters_panicked escalations; do
    grep -q "\"$key\"" "$tmp/stderr.txt" || { echo "degrade smoke: missing governor counter $key"; cat "$tmp/stderr.txt"; exit 1; }
  done
  grep -q '"clusters_panicked": 0' "$tmp/stderr.txt" || { echo "degrade smoke: clusters panicked"; cat "$tmp/stderr.txt"; exit 1; }
  [ ! -e "$tmp/patch.v" ] || { echo "degrade smoke: netlist written without --allow-partial"; exit 1; }

  # With --allow-partial the completed (possibly empty) patch netlist is
  # written and must still re-parse.
  run_patch --timeout 0 --conflict-budget 1 --allow-partial
  [ "$rc" -eq 4 ] || { echo "degrade smoke: expected exit 4, got $rc"; cat "$tmp/stderr.txt"; exit 1; }
  [ -s "$tmp/patch.v" ] || { echo "degrade smoke: --allow-partial wrote no netlist"; exit 1; }
  grep -q 'module patch' "$tmp/patch.v" || { echo "degrade smoke: malformed partial netlist"; cat "$tmp/patch.v"; exit 1; }

  # The same workload without a budget must still complete with exit 0.
  run_patch -q
  [ "$rc" -eq 0 ] || { echo "degrade smoke: ungoverned run failed ($rc)"; cat "$tmp/stderr.txt"; exit 1; }

  echo "== degrade smoke: 200-case budgeted differential campaign (seed 1)"
  target/release/eco-fuzz --budget-campaign --iters 200 --seed 1
fi

if [ "$batch_smoke" -eq 1 ]; then
  echo "== batch smoke: 12-job manifest, cold + warm over one shared memo cache"
  btmp="$(mktemp -d)"
  trap 'rm -rf "${chtmp:-}" "${sqtmp:-}" "${tmp:-}" "${btmp:-}"' EXIT
  target/release/eco-workgen --suite --count 12 --out "$btmp" --manifest "$btmp/manifest.toml" -q

  run_batch_on() {
    local manifest="$1"
    shift
    set +e
    target/release/eco-batch run "$manifest" "$@" 2> "$btmp/stderr.txt"
    rc=$?
    set -e
  }
  run_batch() { run_batch_on "$btmp/manifest.toml" "$@"; }

  # Cold then warm in one process (--repeat 2): every job must be proven
  # equivalent in both passes, and the warm pass must actually hit the
  # shared cache.
  run_batch --jobs 4 --repeat 2 --report "$btmp/report.jsonl" --stats=json -q
  [ "$rc" -eq 0 ] || { echo "batch smoke: expected exit 0, got $rc"; cat "$btmp/stderr.txt"; exit 1; }
  complete=$(grep -c '"status": "complete"' "$btmp/report.jsonl" || true)
  [ "$complete" -eq 24 ] || { echo "batch smoke: expected 24 complete records, got $complete"; cat "$btmp/report.jsonl"; exit 1; }
  ! grep -q '"verified": false' "$btmp/report.jsonl" || { echo "batch smoke: unverified job in report"; cat "$btmp/report.jsonl"; exit 1; }
  hits=$(sed -n 's/.*"memo": {"hits": \([0-9]*\).*/\1/p' "$btmp/stderr.txt")
  [ -n "$hits" ] && [ "$hits" -gt 0 ] || { echo "batch smoke: warm run reported no cache hits"; cat "$btmp/stderr.txt"; exit 1; }
  walls=$(sed -n 's/.*"pass_wall_s": \[\([0-9.]*\), \([0-9.]*\)\].*/\1 \2/p' "$btmp/stderr.txt")
  cold_ns=$(echo "$walls" | awk 'NF == 2 {printf "%.0f", $1 * 1e9}')
  warm_ns=$(echo "$walls" | awk 'NF == 2 {printf "%.0f", $2 * 1e9}')
  [ -n "$cold_ns" ] && [ -n "$warm_ns" ] || { echo "batch smoke: could not parse pass wall times"; cat "$btmp/stderr.txt"; exit 1; }

  # The JSONL report must be byte-identical for any --jobs value.
  run_batch --jobs 1 --report "$btmp/report_j1.jsonl" -q
  [ "$rc" -eq 0 ] || { echo "batch smoke: --jobs 1 run failed ($rc)"; cat "$btmp/stderr.txt"; exit 1; }
  run_batch --jobs 4 --report "$btmp/report_j4.jsonl" -q
  [ "$rc" -eq 0 ] || { echo "batch smoke: --jobs 4 run failed ($rc)"; cat "$btmp/stderr.txt"; exit 1; }
  cmp -s "$btmp/report_j1.jsonl" "$btmp/report_j4.jsonl" \
    || { echo "batch smoke: JSONL differs between --jobs 1 and --jobs 4"; diff "$btmp/report_j1.jsonl" "$btmp/report_j4.jsonl" || true; exit 1; }

  # Duplicate leg: every job listed twice, back to back, on a cold
  # cache. Single-flight memo lookups make the hit/miss counters
  # independent of scheduling, so --jobs 1 and --jobs 2 must report the
  # same counters as well as the same bytes.
  awk 'BEGIN { RS = ""; ORS = "\n\n" } /\[\[job\]\]/ { print; dup = $0; sub(/name = "[^"]*/, "&-dup", dup); print dup }' \
    "$btmp/manifest.toml" > "$btmp/manifest_dup.toml"
  for j in 1 2; do
    run_batch_on "$btmp/manifest_dup.toml" --jobs "$j" --report "$btmp/report_dup_j$j.jsonl" --stats=json -q
    [ "$rc" -eq 0 ] || { echo "batch smoke: duplicate manifest --jobs $j failed ($rc)"; cat "$btmp/stderr.txt"; exit 1; }
    counters=$(sed -n 's/.*"memo": {"hits": \([0-9]*\), "misses": \([0-9]*\),.*/\1 \2/p' "$btmp/stderr.txt")
    [ -n "$counters" ] || { echo "batch smoke: no memo counters in duplicate --jobs $j stats"; cat "$btmp/stderr.txt"; exit 1; }
    eval "dup_counters_j$j=\"\$counters\""
  done
  [ "$dup_counters_j1" = "$dup_counters_j2" ] \
    || { echo "batch smoke: memo hits/misses differ on the duplicate manifest: --jobs 1 '$dup_counters_j1', --jobs 2 '$dup_counters_j2'"; exit 1; }
  cmp -s "$btmp/report_dup_j1.jsonl" "$btmp/report_dup_j2.jsonl" \
    || { echo "batch smoke: duplicate-manifest JSONL differs between --jobs 1 and --jobs 2"; diff "$btmp/report_dup_j1.jsonl" "$btmp/report_dup_j2.jsonl" || true; exit 1; }

  # Journal leg: a journaled run, then --resume over the same state
  # directory, which must replay every job from the journal and
  # reproduce the uninterrupted report byte for byte.
  run_batch --jobs 4 --journal "$btmp/state" --report "$btmp/report_journal.jsonl" -q
  [ "$rc" -eq 0 ] || { echo "batch smoke: --journal run failed ($rc)"; cat "$btmp/stderr.txt"; exit 1; }
  run_batch --jobs 4 --journal "$btmp/state" --resume --report "$btmp/report_resumed.jsonl"
  [ "$rc" -eq 0 ] || { echo "batch smoke: --resume run failed ($rc)"; cat "$btmp/stderr.txt"; exit 1; }
  for report in report_journal report_resumed; do
    cmp -s "$btmp/report_j1.jsonl" "$btmp/$report.jsonl" \
      || { echo "batch smoke: $report.jsonl differs from the uninterrupted report"; diff "$btmp/report_j1.jsonl" "$btmp/$report.jsonl" || true; exit 1; }
  done
  grep -q '^journal: 12 replayed,' "$btmp/stderr.txt" \
    || { echo "batch smoke: --resume did not replay all 12 jobs"; cat "$btmp/stderr.txt"; exit 1; }

  # Record cold-vs-warm wall times for the tracked bench file.
  cat > crates/bench/BENCH_batch.json <<EOF
{"benches": [
  {"name": "batch/suite12/cold", "samples": 1, "mean_ns": $cold_ns, "median_ns": $cold_ns, "min_ns": $cold_ns, "max_ns": $cold_ns},
  {"name": "batch/suite12/warm", "samples": 1, "mean_ns": $warm_ns, "median_ns": $warm_ns, "min_ns": $warm_ns, "max_ns": $warm_ns}
]}
EOF
  echo "batch smoke: cold ${cold_ns}ns, warm ${warm_ns}ns, $hits cache hits; duplicate manifest hits/misses $dup_counters_j1 at --jobs 1 and 2"
fi

if [ "$scale_smoke" -eq 1 ]; then
  echo "== scale smoke: 100k preset end-to-end under a 300s governor deadline"
  stmp="$(mktemp -d)"
  trap 'rm -rf "${chtmp:-}" "${sqtmp:-}" "${tmp:-}" "${btmp:-}" "${stmp:-}"' EXIT

  # The generator CLI path: both 100k AIGs must emit and re-parse.
  target/release/eco-workgen --scale 100k --out "$stmp" -q
  for shape in datapath randdag; do
    [ -s "$stmp/scale_${shape}_100k.aig" ] \
      || { echo "scale smoke: missing scale_${shape}_100k.aig"; exit 1; }
  done

  # The harness itself, gated against the tracked baseline when present
  # (exit 3 = >20% throughput regression).
  baseline_args=()
  if [ -s crates/bench/BENCH_scale.json ]; then
    baseline_args=(--baseline crates/bench/BENCH_scale.json)
  fi
  set +e
  target/release/scale --presets 100k --timeout-s 300 \
    --json "$stmp/BENCH_scale_100k.json" "${baseline_args[@]}"
  rc=$?
  set -e
  [ "$rc" -ne 3 ] && [ "$rc" -eq 0 ] \
    || { echo "scale smoke: scale harness failed (exit $rc)"; exit 1; }
  grep -q '"name": "scale/datapath_100k"' "$stmp/BENCH_scale_100k.json" \
    || { echo "scale smoke: dump missing datapath row"; cat "$stmp/BENCH_scale_100k.json"; exit 1; }

  # Refresh the tracked file's 100k rows only when no baseline existed
  # yet (bootstrap); otherwise the full-preset run owns the file.
  if [ ! -s crates/bench/BENCH_scale.json ]; then
    target/release/scale --json crates/bench/BENCH_scale.json
  fi
  echo "scale smoke: ok"
fi

if [ "$serve_smoke" -eq 1 ]; then
  echo "== serve smoke: daemon cold+warm 12-job replay, worker-count determinism, drain"
  svtmp="$(mktemp -d)"
  serve_pids=""
  serve_cleanup() {
    # shellcheck disable=SC2086
    [ -n "$serve_pids" ] && kill $serve_pids 2> /dev/null || true
    rm -rf "${chtmp:-}" "${tmp:-}" "${btmp:-}" "${stmp:-}" "${svtmp:-}"
  }
  trap serve_cleanup EXIT
  target/release/eco-workgen --suite --count 12 --out "$svtmp/cases" \
    --manifest "$svtmp/manifest.toml" --requests "$svtmp/requests.jsonl" -q

  wait_sock() { # <path>
    for _ in $(seq 1 100); do
      [ -S "$1" ] && return 0
      sleep 0.1
    done
    echo "serve smoke: daemon socket $1 never appeared"
    exit 1
  }
  run_replay() { # <socket> <out> <timing> [extra client flags...]
    sock="$1" out="$2" timing="$3"
    shift 3
    set +e
    target/release/eco-serve client --socket "$sock" \
      --input "$svtmp/requests.jsonl" --timing "$@" \
      > "$out" 2> "$timing"
    rc=$?
    set -e
  }

  # Daemon A (4 workers): cold replay, warm replay, stats, protocol drain.
  target/release/eco-serve --socket "$svtmp/a.sock" --jobs 4 --stats \
    2> "$svtmp/a_stats.json" &
  pid_a=$!
  serve_pids="$pid_a"
  wait_sock "$svtmp/a.sock"

  run_replay "$svtmp/a.sock" "$svtmp/cold.out" "$svtmp/cold_timing.json"
  [ "$rc" -eq 0 ] || { echo "serve smoke: cold replay failed ($rc)"; cat "$svtmp/cold_timing.json"; exit 1; }
  run_replay "$svtmp/a.sock" "$svtmp/warm.out" "$svtmp/warm_timing.json"
  [ "$rc" -eq 0 ] || { echo "serve smoke: warm replay failed ($rc)"; cat "$svtmp/warm_timing.json"; exit 1; }

  # Warm responses must be byte-identical to cold, all complete+verified.
  cmp -s "$svtmp/cold.out" "$svtmp/warm.out" \
    || { echo "serve smoke: warm responses differ from cold"; diff "$svtmp/cold.out" "$svtmp/warm.out" || true; exit 1; }
  complete=$(grep -c '"status": "complete"' "$svtmp/cold.out" || true)
  [ "$complete" -eq 12 ] || { echo "serve smoke: expected 12 complete responses, got $complete"; cat "$svtmp/cold.out"; exit 1; }
  ! grep -q '"verified": false' "$svtmp/cold.out" \
    || { echo "serve smoke: unverified response"; cat "$svtmp/cold.out"; exit 1; }

  # The warm replay must have hit the daemon's process-lifetime cache.
  printf '{"op": "stats", "id": "smoke"}\n' \
    | target/release/eco-serve client --socket "$svtmp/a.sock" > "$svtmp/stats.out"
  hits=$(sed -n 's/.*"hits": \([0-9]*\).*/\1/p' "$svtmp/stats.out")
  [ -n "$hits" ] && [ "$hits" -gt 0 ] \
    || { echo "serve smoke: warm replay reported no cache hits"; cat "$svtmp/stats.out"; exit 1; }

  # Warm stream wall time must be under 10% of cold.
  cold_s=$(sed -n 's/.*"wall_s": \([0-9.]*\).*/\1/p' "$svtmp/cold_timing.json")
  warm_s=$(sed -n 's/.*"wall_s": \([0-9.]*\).*/\1/p' "$svtmp/warm_timing.json")
  [ -n "$cold_s" ] && [ -n "$warm_s" ] \
    || { echo "serve smoke: could not parse client wall times"; cat "$svtmp/cold_timing.json" "$svtmp/warm_timing.json"; exit 1; }
  awk -v c="$cold_s" -v w="$warm_s" 'BEGIN { exit !(w < c * 0.10) }' \
    || { echo "serve smoke: warm stream not <10% of cold (cold ${cold_s}s, warm ${warm_s}s)"; exit 1; }

  # Graceful drain via a protocol shutdown request: acknowledged,
  # exit 0, socket file removed, stats summary on stderr.
  target/release/eco-serve client --socket "$svtmp/a.sock" --shutdown \
    < /dev/null > "$svtmp/shutdown.out"
  grep -q '"draining": true' "$svtmp/shutdown.out" \
    || { echo "serve smoke: shutdown not acknowledged"; cat "$svtmp/shutdown.out"; exit 1; }
  set +e
  wait "$pid_a"
  rc=$?
  set -e
  serve_pids=""
  [ "$rc" -eq 0 ] || { echo "serve smoke: daemon A exited $rc after shutdown"; cat "$svtmp/a_stats.json"; exit 1; }
  [ ! -e "$svtmp/a.sock" ] || { echo "serve smoke: socket file not removed on drain"; exit 1; }
  grep -q '"served": 24' "$svtmp/a_stats.json" \
    || { echo "serve smoke: daemon A summary missing 24 served jobs"; cat "$svtmp/a_stats.json"; exit 1; }

  # Daemon B (1 worker): responses must be byte-identical to daemon A's,
  # and a SIGTERM must drain it cleanly too.
  target/release/eco-serve --socket "$svtmp/b.sock" --jobs 1 --stats \
    2> "$svtmp/b_stats.json" &
  pid_b=$!
  serve_pids="$pid_b"
  wait_sock "$svtmp/b.sock"
  run_replay "$svtmp/b.sock" "$svtmp/b.out" "$svtmp/b_timing.json"
  [ "$rc" -eq 0 ] || { echo "serve smoke: --jobs 1 replay failed ($rc)"; cat "$svtmp/b_timing.json"; exit 1; }
  cmp -s "$svtmp/cold.out" "$svtmp/b.out" \
    || { echo "serve smoke: responses differ between --jobs 4 and --jobs 1"; diff "$svtmp/cold.out" "$svtmp/b.out" || true; exit 1; }
  kill -TERM "$pid_b"
  set +e
  wait "$pid_b"
  rc=$?
  set -e
  serve_pids=""
  [ "$rc" -eq 0 ] || { echo "serve smoke: daemon B exited $rc after SIGTERM"; cat "$svtmp/b_stats.json"; exit 1; }
  [ ! -e "$svtmp/b.sock" ] || { echo "serve smoke: socket file not removed after SIGTERM"; exit 1; }
  grep -q '"served": 12' "$svtmp/b_stats.json" \
    || { echo "serve smoke: daemon B summary missing 12 served jobs"; cat "$svtmp/b_stats.json"; exit 1; }

  # Record cold-vs-warm throughput and round-trip latency percentiles.
  field() { sed -n "s/.*\"$2\": \([0-9.]*\).*/\1/p" "$1"; }
  ns() { awk -v s="$1" 'BEGIN { printf "%.0f", s * 1e9 }'; }
  cold_ns=$(ns "$cold_s")
  warm_ns=$(ns "$warm_s")
  cold_p50_ns=$((1000 * $(field "$svtmp/cold_timing.json" p50_us)))
  cold_p99_ns=$((1000 * $(field "$svtmp/cold_timing.json" p99_us)))
  warm_p50_ns=$((1000 * $(field "$svtmp/warm_timing.json" p50_us)))
  warm_p99_ns=$((1000 * $(field "$svtmp/warm_timing.json" p99_us)))
  cold_rps=$(field "$svtmp/cold_timing.json" rps)
  warm_rps=$(field "$svtmp/warm_timing.json" rps)
  cat > crates/bench/BENCH_serve.json <<EOF
{"benches": [
  {"name": "serve/suite12/cold_stream", "samples": 1, "mean_ns": $cold_ns, "median_ns": $cold_ns, "min_ns": $cold_ns, "max_ns": $cold_ns},
  {"name": "serve/suite12/warm_stream", "samples": 1, "mean_ns": $warm_ns, "median_ns": $warm_ns, "min_ns": $warm_ns, "max_ns": $warm_ns},
  {"name": "serve/suite12/cold_p50", "samples": 12, "mean_ns": $cold_p50_ns, "median_ns": $cold_p50_ns, "min_ns": $cold_p50_ns, "max_ns": $cold_p99_ns},
  {"name": "serve/suite12/warm_p50", "samples": 12, "mean_ns": $warm_p50_ns, "median_ns": $warm_p50_ns, "min_ns": $warm_p50_ns, "max_ns": $warm_p99_ns},
  {"name": "serve/suite12/cold_p99", "samples": 12, "mean_ns": $cold_p99_ns, "median_ns": $cold_p99_ns, "min_ns": $cold_p50_ns, "max_ns": $cold_p99_ns},
  {"name": "serve/suite12/warm_p99", "samples": 12, "mean_ns": $warm_p99_ns, "median_ns": $warm_p99_ns, "min_ns": $warm_p50_ns, "max_ns": $warm_p99_ns}
], "notes": [
  "single sequential client over a unix socket, 12-job suite stream",
  "cold ${cold_rps} req/s, warm ${warm_rps} req/s; one daemon, shared memo cache"
]}
EOF
  echo "serve smoke: cold ${cold_s}s (${cold_rps} rps), warm ${warm_s}s (${warm_rps} rps), $hits cache hits"
fi

echo "all checks passed"
