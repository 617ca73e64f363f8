#!/usr/bin/env bash
# bench.sh — run the paper's benchmark families and record the results as a
# dated JSON trajectory point (BENCH_<date>.json, via `go test -json`).
#
# Usage:
#   ./bench.sh                 # full benchmark suite
#   ./bench.sh 'Fig8a'         # one family
#   ./bench.sh 'Batch'         # steady-state ForwardBatch vs unbatched loop
#   ./bench.sh --tuned         # autotuner A-B: estimate vs measured conv length
#   BENCHTIME=5s ./bench.sh    # longer per-benchmark budget
set -euo pipefail
cd "$(dirname "$0")"

benchtime="${BENCHTIME:-2s}"
out="BENCH_$(date +%Y%m%d).json"

if [[ "${1:-}" == "--tuned" ]]; then
  # Autotuner mode: only the Bluestein convolution length is tuned. The
  # BenchmarkTuned* families run a Bluestein transform under the estimate
  # heuristic and under freshly measured wisdom (one sub-benchmark per mode),
  # plus the per-candidate convolution ladder (BenchmarkConv4099) — the
  # estimate-vs-measured A-B pairs land in the dated snapshot automatically
  # instead of being assembled by hand.
  go test -run '^$' -bench 'Tuned' -benchmem -benchtime "$benchtime" -json . | tee "$out"
  go test -run '^$' -bench 'BenchmarkConv4099' -benchmem -benchtime "$benchtime" -json ./internal/tune/ | tee -a "$out"
  echo "wrote $out (tuned A-B)" >&2
  exit 0
fi

pattern="${1:-.}"

# Root package: the paper's figure/table families, the public kernel pair
# (BenchmarkKernelRFFT vs BenchmarkKernelComplexSameLength), the
# BenchmarkServe* service family (sustained multi-client QPS with p50/p99
# request latencies, mixed-traffic plan-cache multiplexing, unloaded round
# trip vs the in-process local baseline), and the BenchmarkWire* transport
# family (chan shared/message vs the unix-socket codec — star and mesh —
# vs the shm ring wire, plus the BenchmarkWireBatch* rows pricing
# epoch-pipelined ForwardBatch over each wire); then the fft engine's
# BenchmarkKernel* micro family (flat vs recursive, in-place, Bluestein
# convolution-length chooser).
go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -json . ./internal/fft/ | tee "$out"
echo "wrote $out" >&2
