#!/bin/sh
# Regenerates bench_output.txt: every paper figure/table at full
# settings (paper_figures prints Fig 3, Table I and Fig 8, which run no
# simulation, then the nine simulated ones from one sweep), the
# ablations (one sweep) and mix_study on a representative subset, then
# the perf_queue and perf_banshee extension benches (simulated results,
# not host time; the simulator's own speed is perfbench/'s job).
# Set CAMEO_BENCH_JOBS=$(nproc) to run each bench's simulation grid on
# all cores; tables are bit-identical to a serial run. The whole suite
# took 43-49 s over two runs at CAMEO_BENCH_JOBS=4 on a 4-vCPU Xeon VM
# (RelWithDebInfo, g++ 12.2; paper_figures 17-20 s, ablations 10-12 s,
# perf_banshee 10-12 s).
#
# Every bench runs even when an earlier one fails; the script exits
# nonzero at the end listing every failed bench, so one broken figure
# neither hides later failures nor silently yields a partial output
# that exits 0.
set -u
cd "$(dirname "$0")"

# Fail fast with a clear message when the bench binaries are missing
# or stale-configured, instead of erroring mid-run on the first ./
# invocation.
if [ ! -d build/bench ]; then
    echo "error: build/bench not found." >&2
    echo "Build first:  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
fi
for b in paper_figures ablations mix_study perf_queue perf_banshee; do
    if [ ! -x "build/bench/$b" ]; then
        echo "error: build/bench/$b missing or not executable." >&2
        echo "Rebuild:  cmake --build build -j" >&2
        exit 1
    fi
done

failed=""
timings=""

# run_bench LABEL NAME [ARGS...]: banner, run, record wall-clock and
# failures instead of aborting the sweep.
run_bench() {
    _label="$1"
    _b="$2"
    shift 2
    echo "===================================================================="
    echo "===== $_label"
    echo "===================================================================="
    _start=$(date +%s)
    if "./build/bench/$_b" "$@"; then
        _status=ok
    else
        _rc=$?
        _status="FAILED($_rc)"
        echo "***** bench/$_b FAILED with exit status $_rc" >&2
        failed="$failed $_b"
    fi
    _secs=$(( $(date +%s) - _start ))
    echo "----- bench/$_b: ${_secs}s ($_status)"
    timings="$timings$_b $_secs $_status\n"
    echo
}

run_bench "bench/paper_figures" paper_figures
export CAMEO_BENCH_WORKLOADS=mcf,GemsFDTD,zeusmp,milc,soplex,libquantum,omnetpp,leslie3d
for b in ablations mix_study; do
    run_bench "bench/$b (workload subset: $CAMEO_BENCH_WORKLOADS)" "$b"
done
unset CAMEO_BENCH_WORKLOADS
run_bench "bench/perf_queue (extension bench -> BENCH_queue.json)" perf_queue
run_bench "bench/perf_banshee (extension bench -> BENCH_banshee.json)" \
    perf_banshee

echo "===================================================================="
echo "===== wall-clock summary"
echo "===================================================================="
printf "$timings" | awk '
    { printf "  %-28s %6ss  %s\n", $1, $2, $3; total += $2 }
    END { printf "  %-28s %6ss\n", "TOTAL", total }'

if [ -n "$failed" ]; then
    echo "error: failed benches:$failed" >&2
    exit 1
fi
