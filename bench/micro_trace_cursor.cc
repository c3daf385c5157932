/**
 * @file
 * Micro-benchmark of the streaming trace layer (DESIGN.md §4h): one
 * FtraceCursor streamed over a multi-chunk `.ftrace` mapping the way a
 * cluster shard consumes it — peek at the next arrival, then take it
 * with next(). Reports per_inv, the host time of one peek + next
 * pair, at the default chunk capacity and at a small one where chunk
 * entries are frequent. Chunk verification happens once per mapping,
 * in the untimed warm-up pass, as it does for every shard but the
 * first to touch a chunk.
 *
 *   ./build/bench/micro_trace_cursor
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "trace/azure_model.h"
#include "trace/ftrace_format.h"
#include "trace/invocation_source.h"

using namespace faascache;

namespace {

/** The trace, compiled once per chunk capacity; removed at exit. */
class CompiledTrace
{
  public:
    explicit CompiledTrace(std::uint32_t chunk_capacity)
        : path_((std::filesystem::temp_directory_path() /
                 ("faascache_micro_cursor_" +
                  std::to_string(chunk_capacity) + ".ftrace"))
                    .string())
    {
        AzureModelConfig config;
        config.seed = 5;
        config.num_functions = 300;
        config.duration_us = 2 * kHour;
        config.iat_median_sec = 30.0;
        const Trace trace = generateAzureTrace(config);
        TraceSource source(trace);
        invocations_ = writeFtraceFile(path_, source, chunk_capacity);
        region_ = FtraceRegion::open(path_);
    }
    ~CompiledTrace() { std::remove(path_.c_str()); }

    CompiledTrace(const CompiledTrace&) = delete;
    CompiledTrace& operator=(const CompiledTrace&) = delete;

    FtraceRegion& region() { return *region_; }
    std::size_t invocations() const { return invocations_; }

  private:
    std::string path_;
    std::size_t invocations_ = 0;
    std::shared_ptr<FtraceRegion> region_;
};

CompiledTrace&
compiled(std::uint32_t chunk_capacity)
{
    static CompiledTrace kDefault(ftrace::kDefaultChunkCapacity);
    static CompiledTrace kSmall(64);
    return chunk_capacity == 64 ? kSmall : kDefault;
}

void
BM_FtraceCursorPeekNext(benchmark::State& state)
{
    CompiledTrace& trace =
        compiled(static_cast<std::uint32_t>(state.range(0)));
    std::unique_ptr<FtraceCursor> cursor = trace.region().makeCursor();
    Invocation inv;
    while (cursor->next(inv)) {
    }
    for (auto _ : state) {
        cursor->reset();
        while (cursor->peek(inv)) {
            benchmark::DoNotOptimize(inv);
            cursor->next(inv);
            benchmark::DoNotOptimize(inv);
        }
    }
    state.counters["chunks"] = static_cast<double>(
        trace.region().numChunks());
    state.counters["per_inv"] = benchmark::Counter(
        static_cast<double>(trace.invocations()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

}  // namespace

BENCHMARK(BM_FtraceCursorPeekNext)
    ->Arg(ftrace::kDefaultChunkCapacity)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
