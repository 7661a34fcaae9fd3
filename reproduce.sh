#!/usr/bin/env bash
# Full reproduction pipeline for the HotNets'17 DR paper.
# Everything is deterministic: same machine or not, same numbers.
#
# Usage:
#   ./reproduce.sh       — full pipeline (build, tests, figures, examples)
#   ./reproduce.sh ci    — hermetic CI check only: offline release build +
#                          offline test suite (plus ddn-stats on the
#                          optimized build), proving the workspace needs
#                          nothing from crates.io
#   ./reproduce.sh bench-pin — re-run the CI-sized bench smokes and re-pin
#                          the bench_floors.json regression floors from
#                          the fresh numbers (x pin_margin). Run after an
#                          intentional perf change, commit the new floors.
set -euo pipefail
cd "$(dirname "$0")"

# Runs the CI-sized bench smokes into $1 (a bench dir). Shared verbatim
# between the ci gate and bench-pin so pinned floors and gated values are
# always measured under identical sizing.
run_bench_smokes() {
  local dir="$1"
  DDN_BENCH_WARMUP=0 DDN_BENCH_ITERS=1 DDN_STREAM_RUNS=2000 \
  DDN_BENCH_DIR="$dir" \
    cargo bench --offline -p ddn-bench --bench stream_ingest
  DDN_BENCH_WARMUP=0 DDN_BENCH_ITERS=1 DDN_WAL_RUNS=2000 \
  DDN_BENCH_DIR="$dir" \
    cargo bench --offline -p ddn-bench --bench wal
  DDN_BENCH_WARMUP=0 DDN_BENCH_ITERS=1 DDN_SOAK_RUNS=2000 \
  DDN_BENCH_DIR="$dir" \
    cargo bench --offline -p ddn-bench --bench soak
  # The perf bench carries the estimator-menu throughput section
  # (menu.seqdr_records_per_sec is floored in bench_floors.json); the
  # eval_batch stage inside it is sized down to smoke scale.
  DDN_BENCH_WARMUP=0 DDN_BENCH_ITERS=1 \
  DDN_EVAL_BATCH_RUNS=1 DDN_EVAL_BATCH_CLIENTS=100 \
  DDN_BENCH_DIR="$dir" \
    cargo bench --offline -p ddn-bench --bench perf
  ./target/release/ddn loadgen --smoke --bench-json "$dir/BENCH_loadgen.json" \
    | tee "$dir/loadgen_smoke.txt"
}

if [[ "${1:-}" == "bench-pin" ]]; then
  echo "== bench-pin: offline release build =="
  cargo build --workspace --release --offline
  pin_dir="$(mktemp -d -t ddn-bench-pin-XXXXXX)"
  trap 'rm -rf "$pin_dir"' EXIT
  echo "== bench-pin: CI-sized bench smokes =="
  run_bench_smokes "$pin_dir"
  echo "== bench-pin: re-pinning bench_floors.json =="
  ./target/release/ddn bench-diff "$pin_dir" --floors bench_floors.json --pin
  echo "bench-pin ok: commit the updated bench_floors.json"
  exit 0
fi

if [[ "${1:-}" == "ci" ]]; then
  echo "== ci: hermetic offline build =="
  cargo build --workspace --release --offline
  echo "== ci: hermetic offline tests =="
  cargo test --workspace -q --offline
  echo "== ci: clippy, every target, warnings are errors =="
  cargo clippy --all-targets --offline -- -D warnings
  echo "== ci: rustfmt, the whole workspace is formatted =="
  cargo fmt --all --check
  echo "== ci: ddn-stats tests on the optimized build =="
  # The suite above is a debug build, which does not auto-vectorize; the
  # PELT scan must still match its oracle once the compiler vectorizes
  # it, and the release build also runs the oracle's full case grid.
  cargo test --release --offline -p ddn-stats
  echo "== ci: servebench builds and passes its tests =="
  # servebench/ is a workspace of its own, linked against the ddn-serve
  # API by path, so neither command above compiles it: without this step
  # a change that breaks an API it uses passes ci and fails only the
  # benchmark run.
  cargo test --release --offline --manifest-path servebench/Cargo.toml
  echo "== ci: telemetry smoke (selftest --telemetry + telemetry-check) =="
  # One small instrumented scenario: the health suite exercises every
  # estimator, writes a telemetry snapshot, and telemetry-check re-parses
  # it with the in-repo JSON parser and asserts the required health keys
  # (ess, clip_rate, acceptance_rate, coverage) are present.
  telemetry_file="$(mktemp -t ddn-telemetry-XXXXXX.json)"
  trap 'rm -f "$telemetry_file"' EXIT
  cargo run --release --offline -p ddn-cli --bin ddn -- \
    selftest --runs 3 --telemetry "$telemetry_file" > /dev/null
  cargo run --release --offline -p ddn-cli --bin ddn -- \
    telemetry-check "$telemetry_file"
  echo "== ci: figures reproduce figures_output.txt (plus eval_batch bench smoke) =="
  bench_dir="$(mktemp -d -t ddn-bench-XXXXXX)"
  trap 'rm -f "$telemetry_file"; rm -rf "$bench_dir"' EXIT
  # Every Figure 7 panel and ablation end to end: the figures binary must
  # print the committed figures_output.txt byte for byte (about a minute
  # on two cores). 7a and 7c score each seed through one EvalBatch, so
  # this also pins the batch path's numbers.
  cargo run --release --offline -p ddn-bench --bin figures > "$bench_dir/figures.txt"
  if ! cmp -s figures_output.txt "$bench_dir/figures.txt"; then
    echo "FAIL: figures output differs from figures_output.txt" >&2
    diff figures_output.txt "$bench_dir/figures.txt" >&2 || true
    exit 1
  fi
  # Tiny eval_batch bench smoke: one warmup-free iteration, sized down,
  # writing BENCH_eval_batch.json into a scratch dir. This checks the
  # timing harness end-to-end, not the speedup ratio (CI boxes are noisy;
  # the pinned ratio lives in BENCH_perf.json from full bench runs).
  DDN_BENCH_WARMUP=0 DDN_BENCH_ITERS=1 DDN_BENCH_DIR="$bench_dir" \
  DDN_EVAL_BATCH_RUNS=1 DDN_EVAL_BATCH_CLIENTS=100 \
    cargo bench --offline -p ddn-bench --bench eval_batch
  test -s "$bench_dir/BENCH_eval_batch.json"
  grep -q '"speedup"' "$bench_dir/BENCH_eval_batch.json"
  echo "== ci: estimator-menu smoke (figure7 --panel menu, challengers win) =="
  # The menu ablation panel (DESIGN.md §16): three scenarios engineered to
  # break the incumbent estimators, each won by its menu extension. The
  # greps pin the panel's headline verdict lines — a "no" means a
  # challenger stopped beating the scenario built for it.
  menu_out="$(cargo run --release --offline -p ddn-cli --bin ddn -- \
    figure7 --panel menu --runs 2)"
  printf '%s\n' "$menu_out" | grep -q 'scenario adaptive (AdaptiveDR vs IPS, SNIPS)'
  printf '%s\n' "$menu_out" | grep -q 'scenario marginalized (MarginalizedDR vs IPS, DR)'
  printf '%s\n' "$menu_out" | grep -q 'scenario sequential (SeqDR vs TrajIPS, StepDR)'
  if printf '%s\n' "$menu_out" | grep -q 'does NOT beat'; then
    echo "FAIL: a menu challenger lost its own breaking scenario" >&2
    printf '%s\n' "$menu_out" >&2
    exit 1
  fi
  printf '%s\n' "$menu_out" | grep -c 'beats every incumbent' | grep -qx 3
  echo "== ci: streaming serve smoke (replay-to == offline evaluate) =="
  # End-to-end over a real socket: start the server on an ephemeral port,
  # stream a generated trace into it, and require the online estimate to
  # render *identically* to the offline `ddn evaluate` line — the serve
  # layer's bit-identity contract, checked at the user-facing surface.
  serve_trace="$(mktemp -t ddn-serve-trace-XXXXXX.jsonl)"
  port_file="$(mktemp -t ddn-serve-port-XXXXXX)"
  trap 'rm -f "$telemetry_file" "$serve_trace" "$port_file"; rm -rf "$bench_dir"' EXIT
  ./target/release/ddn generate "$serve_trace" --world cfa --n 300 --seed 7 > /dev/null
  : > "$port_file"
  ./target/release/ddn serve --port-file "$port_file" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.05
  done
  test -s "$port_file" || { echo "FAIL: server never wrote its port" >&2; exit 1; }
  addr="$(cat "$port_file")"
  replay_out="$(./target/release/ddn replay-to "$serve_trace" \
    --addr "$addr" --decision cdn1/br2 --estimator ips --shutdown)"
  offline_out="$(./target/release/ddn evaluate "$serve_trace" \
    --decision cdn1/br2 --estimator ips)"
  # The shutdown verb must stop the server cleanly (exit 0, no kill).
  wait "$serve_pid"
  online_line="$(printf '%s\n' "$replay_out" | grep '^estimate:')"
  offline_line="$(printf '%s\n' "$offline_out" | grep '^estimate:')"
  if [[ "$online_line" != "$offline_line" ]]; then
    echo "FAIL: streamed estimate differs from offline evaluate" >&2
    echo "  online:  $online_line" >&2
    echo "  offline: $offline_line" >&2
    exit 1
  fi
  printf '%s\n' "$replay_out" | grep -q 'streamed 300 records'
  printf '%s\n' "$replay_out" | grep -q 'server shutdown requested'
  echo "== ci: binary-protocol smoke (binary replay-to == offline evaluate) =="
  # The same bit-identity contract over the binary columnar batch frame
  # (DESIGN.md §14): stream the trace with --binary and require the
  # estimate line to match the offline `ddn evaluate` output exactly.
  : > "$port_file"
  ./target/release/ddn serve --port-file "$port_file" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.05
  done
  test -s "$port_file" || { echo "FAIL: binary-smoke server never wrote its port" >&2; exit 1; }
  addr="$(cat "$port_file")"
  binary_out="$(./target/release/ddn replay-to "$serve_trace" \
    --addr "$addr" --decision cdn1/br2 --estimator ips --binary --shutdown)"
  wait "$serve_pid"
  binary_line="$(printf '%s\n' "$binary_out" | grep '^estimate:')"
  if [[ "$binary_line" != "$offline_line" ]]; then
    echo "FAIL: binary-frame estimate differs from offline evaluate" >&2
    echo "  binary:  $binary_line" >&2
    echo "  offline: $offline_line" >&2
    exit 1
  fi
  printf '%s\n' "$binary_out" | grep -q 'streamed 300 records over binary frames'
  echo "== ci: crash-resume smoke (kill -9, restart, identical estimate) =="
  # The durability contract at the user-facing surface (DESIGN.md §12):
  # stream a trace into a WAL-backed server — once cumulative, once into
  # a windowed session — query the estimates, kill the process with
  # SIGKILL (no graceful shutdown, no final snapshot), restart on the
  # same data dir, and require `ddn query` to render both recovered
  # sessions *identically* — same estimate bits, same record count, with
  # no re-initialization — and every shard's snapshot to be format v2.
  data_dir="$(mktemp -d -t ddn-serve-data-XXXXXX)"
  trap 'rm -f "$telemetry_file" "$serve_trace" "$port_file"; rm -rf "$bench_dir" "$data_dir"' EXIT
  : > "$port_file"
  ./target/release/ddn serve --port-file "$port_file" \
    --data-dir "$data_dir" --snapshot-every 32 &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.05
  done
  test -s "$port_file" || { echo "FAIL: durable server never wrote its port" >&2; exit 1; }
  addr="$(cat "$port_file")"
  ./target/release/ddn replay-to "$serve_trace" \
    --addr "$addr" --decision cdn1/br2 --estimator ips > /dev/null
  ./target/release/ddn replay-to "$serve_trace" --addr "$addr" \
    --decision cdn1/br2 --estimator ips --session win --window 64 > /dev/null
  before_query="$(./target/release/ddn query --addr "$addr" --session replay)"
  printf '%s\n' "$before_query" | grep -q 'session: replay (300 records)'
  before_win="$(./target/release/ddn query --addr "$addr" --session win)"
  printf '%s\n' "$before_win" | grep -q 'session: win (300 records)'
  kill -9 "$serve_pid"
  wait "$serve_pid" 2>/dev/null || true
  : > "$port_file"
  ./target/release/ddn serve --port-file "$port_file" \
    --data-dir "$data_dir" --snapshot-every 32 &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.05
  done
  test -s "$port_file" || { echo "FAIL: restarted server never wrote its port" >&2; exit 1; }
  addr="$(cat "$port_file")"
  after_win="$(./target/release/ddn query --addr "$addr" --session win)"
  after_query="$(./target/release/ddn query --addr "$addr" --session replay --shutdown)"
  wait "$serve_pid"
  after_sans_shutdown="$(printf '%s\n' "$after_query" | grep -v '^server shutdown')"
  if [[ "$before_query" != "$after_sans_shutdown" ]]; then
    echo "FAIL: estimate after kill -9 + restart differs from before" >&2
    diff <(printf '%s\n' "$before_query") <(printf '%s\n' "$after_sans_shutdown") >&2 || true
    exit 1
  fi
  if [[ "$before_win" != "$after_win" ]]; then
    echo "FAIL: windowed estimate after kill -9 + restart differs from before" >&2
    diff <(printf '%s\n' "$before_win") <(printf '%s\n' "$after_win") >&2 || true
    exit 1
  fi
  for snap in "$data_dir"/shard-*.snap; do
    if [[ "$(head -c 8 "$snap")" != "DDNSNAP2" ]]; then
      echo "FAIL: $snap is not a v2 (DDNSNAP2) snapshot" >&2
      exit 1
    fi
  done
  echo "== ci: observability smoke (stats verb, ddn top, flight recorder) =="
  # The live observability plane (DESIGN.md §13) at the user-facing
  # surface: stream a trace into a fresh server, then require `ddn top
  # --once --json` to report the exact request counts and ingest tally
  # the workload implies. replay-to sends 300 records in two batches of
  # 256 plus one init and one estimate.
  : > "$port_file"
  ./target/release/ddn serve --port-file "$port_file" --data-dir "$data_dir" \
    --failpoint boom &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.05
  done
  test -s "$port_file" || { echo "FAIL: observed server never wrote its port" >&2; exit 1; }
  addr="$(cat "$port_file")"
  ./target/release/ddn replay-to "$serve_trace" \
    --addr "$addr" --decision cdn1/br2 --estimator ips > /dev/null
  top_json="$(./target/release/ddn top --addr "$addr" --once --json)"
  printf '%s\n' "$top_json" | grep -q '"serve.req.init":1'
  printf '%s\n' "$top_json" | grep -q '"serve.req.ingest":2'
  printf '%s\n' "$top_json" | grep -q '"serve.req.estimate":1'
  printf '%s\n' "$top_json" | grep -q '"serve.ingest.records":300'
  top_table="$(./target/release/ddn top --addr "$addr" --once)"
  printf '%s\n' "$top_table" | grep -q 'p99 handle'
  printf '%s\n' "$top_table" | grep -q 'ingested 300 records'
  # Flight recorder: a session matching the failpoint panics its worker,
  # which must dump the pre-panic request ring to the data dir — final
  # requests in order, ending in the panic — and `ddn flight` must
  # validate it (consecutive indices, parseable lines).
  ./target/release/ddn replay-to "$serve_trace" \
    --addr "$addr" --decision cdn1/br2 --estimator ips --session boom \
    > /dev/null 2>&1 && { echo "FAIL: failpoint session did not fail" >&2; exit 1; }
  flight_dump="$(ls "$data_dir"/flightrec-*.jsonl)"
  grep -q '"outcome":"panic"' "$flight_dump"
  flight_out="$(./target/release/ddn flight "$flight_dump")"
  printf '%s\n' "$flight_out" | grep -q 'consecutive'
  printf '%s\n' "$flight_out" | grep -q 'panic 1'
  ./target/release/ddn top --addr "$addr" --once --shutdown > /dev/null
  wait "$serve_pid"
  rm -f "$data_dir"/flightrec-*.jsonl
  # Tiny observability-overhead bench smoke: traced vs untraced ingest
  # throughput through real sockets, checking the harness and the pinned
  # within_5pct key end-to-end (the ratio itself is pinned by full runs).
  DDN_BENCH_WARMUP=0 DDN_BENCH_ITERS=1 DDN_OBSERVE_RUNS=2000 \
  DDN_BENCH_DIR="$bench_dir" \
    cargo bench --offline -p ddn-bench --bench observe
  test -s "$bench_dir/BENCH_observe.json"
  grep -q '"within_5pct"' "$bench_dir/BENCH_observe.json"
  grep -q '"traced_records_per_sec"' "$bench_dir/BENCH_observe.json"
  echo "== ci: chaos smoke (fault injection, exactly-once, retry/dedup) =="
  # A fixed-seed fault plan (disconnects guaranteed by construction)
  # against an in-process server: the command exits non-zero unless every
  # acknowledged record is counted exactly once AND the streamed estimate
  # is bit-identical to the offline estimator (DESIGN.md §11).
  chaos_out="$(./target/release/ddn chaos --seed 7 --faults 0.01 --duration-records 5000)"
  printf '%s\n' "$chaos_out" | grep -q 'exactly-once: ok'
  printf '%s\n' "$chaos_out" | grep -q 'estimate parity: ok'
  echo "== ci: parking smoke (busy shards, faults, exactly-once) =="
  # With eight clients and two shards, many requests find their shard
  # busy and wait in its FIFO for the thread holding it, some behind
  # another waiting request (a stall; DESIGN.md §14). The run must still
  # count every record exactly once and match every offline estimate,
  # and it must really have stalled and handed requests off: otherwise
  # the idle-shard fast path could hide a broken busy-shard path.
  park_out="$(./target/release/ddn loadgen --sessions 3000 --shards 2 \
    --workers 8 --rate 200000 --faults 0.01)"
  printf '%s\n' "$park_out" | grep -q 'exactly-once: ok'
  printf '%s\n' "$park_out" | grep -q 'estimate parity: ok'
  stalls="$(printf '%s\n' "$park_out" | sed -n 's/^server: \([0-9]*\) backpressure stalls.*/\1/p')"
  [[ "${stalls:-0}" -gt 0 ]] || {
    echo "FAIL: the parking loadgen run stalled no request" >&2
    printf '%s\n' "$park_out" >&2
    exit 1
  }
  handoffs="$(printf '%s\n' "$park_out" | sed -n 's/^server: [0-9]* backpressure stalls, \([0-9]*\) shard handoffs.*/\1/p')"
  [[ "${handoffs:-0}" -gt 0 ]] || {
    echo "FAIL: the parking loadgen run handed no request to a busy shard's thread" >&2
    printf '%s\n' "$park_out" >&2
    exit 1
  }
  echo "== ci: perf trajectory (bench smokes + loadgen smoke + bench-diff gate) =="
  # All four CI-sized bench smokes run through run_bench_smokes — the
  # same function bench-pin uses — so every value the gate compares was
  # measured under exactly the sizing its floor was pinned under.
  run_bench_smokes "$bench_dir"
  # Per-suite sanity: the harnesses wrote their files and the in-bench
  # self-pinned keys held.
  test -s "$bench_dir/BENCH_stream.json"
  grep -q '"tcp_replay_binary_records_per_sec"' "$bench_dir/BENCH_stream.json"
  grep -q '"meets_floor":true' "$bench_dir/BENCH_stream.json" || {
    echo "FAIL: stream ingest throughput fell below the recorded floor" >&2
    grep -o '"stream":{[^}]*}' "$bench_dir/BENCH_stream.json" >&2 || true
    exit 1
  }
  grep -q '"meets_binary_floor":true' "$bench_dir/BENCH_stream.json" || {
    echo "FAIL: binary-over-JSON throughput ratio fell below the 5x floor" >&2
    grep -o '"stream":{[^}]*}' "$bench_dir/BENCH_stream.json" >&2 || true
    exit 1
  }
  test -s "$bench_dir/BENCH_wal.json"
  grep -q '"wal_on_records_per_sec"' "$bench_dir/BENCH_wal.json"
  test -s "$bench_dir/BENCH_soak.json"
  grep -q '"records_per_sec"' "$bench_dir/BENCH_soak.json"
  test -s "$bench_dir/BENCH_perf.json"
  grep -q '"seqdr_records_per_sec"' "$bench_dir/BENCH_perf.json"
  # Loadgen smoke (DESIGN.md §15): a seeded mixed ABR/CDN/relay fleet
  # over both wire framings with a nonzero fault rate, against an
  # ephemeral multi-shard server. The command itself exits non-zero
  # unless the server counted every record exactly once and every
  # session's streamed estimate is bit-identical to the offline
  # estimator; the greps pin the human-facing contract lines.
  grep -q 'estimate parity: ok' "$bench_dir/loadgen_smoke.txt"
  grep -q 'exactly-once: ok' "$bench_dir/loadgen_smoke.txt"
  grep -q 'determinism: ok' "$bench_dir/loadgen_smoke.txt"
  test -s "$bench_dir/BENCH_loadgen.json"
  grep -q '"parity_mismatches":0' "$bench_dir/BENCH_loadgen.json"
  grep -q '"schedule_digest"' "$bench_dir/BENCH_loadgen.json"
  # The regression gate proper: every metric pinned in bench_floors.json
  # must sit at or above its floor, or ci fails here.
  ./target/release/ddn bench-diff "$bench_dir" --floors bench_floors.json
  echo "ci ok: built, tested, servebench-tested, telemetry-smoked, figures-checked, serve-smoked, binary-protocol-smoked, crash-resume-smoked, chaos-smoked, parking-smoked, loadgen-smoked, and bench-diff-gated with zero external dependencies"
  exit 0
fi

echo "== build =="
cargo build --workspace --release

echo "== tests (unit + integration + property) =="
cargo test --workspace --release

echo "== figures: paper Figure 7a/7b/7c + ablations A-I (~1 min) =="
cargo run --release -p ddn-bench --bin figures | tee figures_output.txt

echo "== examples =="
for e in quickstart abr_evaluation relay_selection cdn_whatif \
         nonstationary_replay state_aware_evaluation policy_tournament trace_io; do
  echo "--- example: $e ---"
  cargo run --release --example "$e"
done

echo "== benches (optional, slow; write BENCH_*.json) =="
echo "run: cargo bench -p ddn-bench"
echo
echo "done; see EXPERIMENTS.md for the paper-vs-measured comparison."
