#!/usr/bin/env bash
# clang-tidy gate (readability / bugprone / performance; see .clang-tidy).
#
# Scope: the shared event engine (src/engine/), the core hot path
# (src/core/), the trace substrate (src/trace/ — the .ftrace
# mmap reader parses untrusted bytes, so it stays permanently in
# scope), the sharded cluster engine (src/platform/cluster_shard.cc
# — barrier/mailbox concurrency deserves standing static analysis),
# and the invoker model (src/platform/server.cc — the one driver every
# standalone and cluster server runs, with its tick parking), plus the
# sources this branch touches relative to the merge base —
# the files a PR is responsible for — instead of the whole tree, so
# the gate stays fast and PRs are not penalized for pre-existing
# findings elsewhere.
#
# Usage: run_clang_tidy.sh [build-dir] [base-ref]
#   build-dir  CMake build directory with compile_commands.json
#              (default: build)
#   base-ref   Git ref to diff against for the touched-file list
#              (default: origin/main, falling back to HEAD~1, falling
#              back to engine-only scope)
#
# Degrades gracefully: exits 0 with a notice when clang-tidy is not
# installed (developer machines); CI installs it and enforces findings.
set -u

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${1:-"$ROOT/build"}
BASE_REF=${2:-origin/main}

if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "run_clang_tidy: clang-tidy not installed; skipping (CI runs it)"
    exit 0
fi

if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "run_clang_tidy: $BUILD_DIR/compile_commands.json missing;" \
         "configure with cmake first (CMAKE_EXPORT_COMPILE_COMMANDS is on)" >&2
    exit 2
fi

cd "$ROOT"

# The engine, the core hot path (slab pool, policies), the trace
# substrate (.ftrace parsing of untrusted bytes), the sharded cluster
# engine (cross-thread barrier/mailbox protocol) and the invoker model
# (the single server driver) are always in scope; add the branch's
# touched C++ sources.
FILES=$(ls src/engine/*.cc src/core/*.cc src/trace/*.cc \
           src/platform/cluster_shard.cc src/platform/server.cc \
           2>/dev/null)
if git rev-parse --verify --quiet "$BASE_REF" >/dev/null; then
    DIFF_BASE=$BASE_REF
elif git rev-parse --verify --quiet HEAD~1 >/dev/null; then
    DIFF_BASE=HEAD~1
else
    DIFF_BASE=""
fi
if [ -n "$DIFF_BASE" ]; then
    TOUCHED=$(git diff --name-only --diff-filter=d "$DIFF_BASE" -- \
                  'src/*.cc' 'bench/*.cc' 'tests/*.cc')
    FILES=$(printf '%s\n%s\n' "$FILES" "$TOUCHED" | sort -u | sed '/^$/d')
fi

if [ -z "$FILES" ]; then
    echo "run_clang_tidy: nothing in scope"
    exit 0
fi

echo "run_clang_tidy: checking:"
echo "$FILES" | sed 's/^/  /'

STATUS=0
for f in $FILES; do
    [ -f "$f" ] || continue
    clang-tidy -p "$BUILD_DIR" --quiet "$f" || STATUS=1
done
exit $STATUS
