#!/usr/bin/env bash
# Kill-and-resume smoke test for the crash-safe sweep engine.
#
# Runs a checkpointing bench to completion for a reference output, then
# starts the same sweep again, SIGKILLs it once at least one cell has
# been journaled, resumes from the checkpoint, and requires the resumed
# run's stdout to be byte-identical to the uninterrupted reference.
#
# Usage: kill_resume_smoke.sh [<bench-binary> [bench args...]]
# Example: kill_resume_smoke.sh build/bench/fig6_cold_starts --jobs 2
#
# With no arguments, smokes at least one bench per checkpoint flavour
# (SimResult, PlatformResult, ClusterResult, ElasticResult), all from
# ./build/bench; see the list at the bottom.
set -u

smoke_one() {
    local bench=$1
    shift

    local work
    work=$(mktemp -d)
    local ckpt=$work/sweep.ckpt

    echo "=== $bench $*"
    echo "== reference run (uninterrupted, checkpointing)"
    "$bench" "$@" --ckpt "$ckpt" > "$work/reference.out" || {
        echo "FAIL: reference run exited non-zero" >&2
        rm -rf "$work"
        return 1
    }
    local total
    total=$(grep -c '^cell ' "$ckpt")
    echo "   $total cells journaled"

    echo "== interrupted run (SIGKILL once a cell is journaled)"
    rm -f "$ckpt"
    "$bench" "$@" --ckpt "$ckpt" > "$work/killed.out" 2> "$work/killed.err" &
    local pid=$!

    # Wait (up to ~30 s) for the journal to hold at least one record,
    # then SIGKILL mid-sweep. If the bench wins the race and finishes
    # first, the resume below still has to reproduce the reference
    # byte-for-byte.
    for _ in $(seq 1 300); do
        if ! kill -0 "$pid" 2>/dev/null; then
            break
        fi
        if [ -f "$ckpt" ] && [ "$(grep -c '^cell ' "$ckpt" 2>/dev/null)" -ge 1 ]; then
            kill -9 "$pid" 2>/dev/null
            break
        fi
        sleep 0.1
    done
    wait "$pid" 2>/dev/null
    local done_cells
    done_cells=$(grep -c '^cell ' "$ckpt" 2>/dev/null || echo 0)
    echo "   killed with $done_cells of $total cells journaled"

    echo "== resumed run"
    "$bench" "$@" --ckpt "$ckpt" --resume > "$work/resumed.out" 2> "$work/resumed.err" || {
        echo "FAIL: resumed run exited non-zero" >&2
        cat "$work/resumed.err" >&2
        rm -rf "$work"
        return 1
    }

    if ! cmp -s "$work/reference.out" "$work/resumed.out"; then
        echo "FAIL: resumed output differs from the uninterrupted run" >&2
        diff "$work/reference.out" "$work/resumed.out" | head -40 >&2
        rm -rf "$work"
        return 1
    fi
    echo "PASS: resumed output is byte-identical to the uninterrupted run"
    rm -rf "$work"
    return 0
}

if [ $# -ge 1 ]; then
    smoke_one "$@"
    exit $?
fi

# Default: one sim-sweep bench (in both trace shapes: materialized,
# then --streamed mmap-backed .ftrace cells whose portable workload
# fingerprint must survive the SIGKILL/resume cycle), two
# platform-sweep benches (fig7, plus fig8 whose overloaded single
# invoker exercises the dense platform hot path under checkpointing),
# one cluster-sweep bench (fig_overload, whose cells carry the
# overload counters), and the elastic-sweep bench (fig9, whose
# ElasticResult payload embeds a SimResult), so every checkpoint
# flavour gets the SIGKILL treatment. The fig_overload sweep runs
# twice, at --shards 1 and at --shards 4: each cell's cluster runs on
# one and on four worker threads, and both runs' payloads must survive
# the SIGKILL/resume cycle byte-for-byte.
ROOT=$(cd "$(dirname "$0")/.." && pwd)
STATUS=0
smoke_one "$ROOT/build/bench/fig6_cold_starts" --jobs 2 || STATUS=1
smoke_one "$ROOT/build/bench/fig6_cold_starts" --streamed --jobs 2 || STATUS=1
smoke_one "$ROOT/build/bench/fig7_skewed_workloads" --jobs 2 || STATUS=1
smoke_one "$ROOT/build/bench/fig8_server_load" --jobs 2 || STATUS=1
smoke_one "$ROOT/build/bench/fig_overload" --smoke --jobs 2 --shards 1 || STATUS=1
smoke_one "$ROOT/build/bench/fig_overload" --smoke --jobs 2 --shards 4 || STATUS=1
smoke_one "$ROOT/build/bench/fig9_dynamic_scaling" --jobs 2 || STATUS=1
exit $STATUS
