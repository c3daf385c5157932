// Cursor-contract battery for the streaming trace substrate
// (DESIGN.md §4h): every InvocationSource implementation must honor
// the peek/next/reset contract, report honest count hints, and — for
// the streamed twins of materialized operations (subset, samplers,
// generators, fingerprints, sweep cells) — reproduce the materialized
// result exactly.
#include "trace/invocation_source.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sweep_checkpoint.h"
#include "sim/sweep_runner.h"
#include "trace/azure_model.h"
#include "trace/function_spec.h"
#include "trace/generated_source.h"
#include "trace/patterns.h"
#include "trace/samplers.h"
#include "trace/trace.h"

namespace faascache {
namespace {

Trace
smallTrace()
{
    std::vector<FunctionSpec> specs;
    std::vector<TimeUs> iats;
    for (FunctionId id = 0; id < 6; ++id) {
        specs.push_back(makeFunction(
            id, "fn" + std::to_string(id),
            64.0 + 32.0 * static_cast<double>(id), fromMillis(100),
            fromMillis(500)));
        iats.push_back(fromSeconds(2 + id));
    }
    return makePoissonTrace(specs, iats, 3 * kMinute, 0xC0FFEEu,
                            "source-contract");
}

void
expectTracesEqual(const Trace& got, const Trace& want)
{
    EXPECT_EQ(got.name(), want.name());
    ASSERT_EQ(got.functions().size(), want.functions().size());
    for (std::size_t i = 0; i < want.functions().size(); ++i) {
        const FunctionSpec& g = got.functions()[i];
        const FunctionSpec& w = want.functions()[i];
        EXPECT_EQ(g.id, w.id);
        EXPECT_EQ(g.name, w.name);
        EXPECT_EQ(g.mem_mb, w.mem_mb);
        EXPECT_EQ(g.cpu_units, w.cpu_units);
        EXPECT_EQ(g.io_units, w.io_units);
        EXPECT_EQ(g.warm_us, w.warm_us);
        EXPECT_EQ(g.cold_us, w.cold_us);
    }
    ASSERT_EQ(got.invocations().size(), want.invocations().size());
    for (std::size_t i = 0; i < want.invocations().size(); ++i)
        EXPECT_EQ(got.invocations()[i], want.invocations()[i])
            << "invocation " << i;
}

TEST(TraceSourceContract, PeekNextResetAndHint)
{
    const Trace trace = smallTrace();
    TraceSource source(trace);

    EXPECT_EQ(source.name(), trace.name());
    EXPECT_EQ(source.functions().size(), trace.functions().size());
    EXPECT_TRUE(source.countHint().exact);
    EXPECT_EQ(source.countHint().count, trace.invocations().size());

    Invocation peeked, consumed;
    ASSERT_TRUE(source.peek(peeked));
    // peek is idempotent and does not consume.
    Invocation peeked_again;
    ASSERT_TRUE(source.peek(peeked_again));
    EXPECT_EQ(peeked, peeked_again);
    ASSERT_TRUE(source.next(consumed));
    EXPECT_EQ(peeked, consumed);
    EXPECT_EQ(consumed, trace.invocations()[0]);

    // Drain; stream must be non-decreasing and exactly the trace.
    std::size_t count = 1;
    TimeUs prev = consumed.arrival_us;
    while (source.next(consumed)) {
        EXPECT_GE(consumed.arrival_us, prev);
        EXPECT_EQ(consumed, trace.invocations()[count]);
        prev = consumed.arrival_us;
        ++count;
    }
    EXPECT_EQ(count, trace.invocations().size());
    // Exhausted: peek and next fail and leave `out` untouched.
    Invocation untouched = consumed;
    EXPECT_FALSE(source.peek(untouched));
    EXPECT_FALSE(source.next(untouched));
    EXPECT_EQ(untouched, consumed);

    // reset() rewinds fully, any number of times.
    for (int round = 0; round < 2; ++round) {
        source.reset();
        ASSERT_TRUE(source.next(consumed));
        EXPECT_EQ(consumed, trace.invocations()[0]);
    }
}

TEST(TraceSourceContract, MaterializeRoundTrips)
{
    const Trace trace = smallTrace();
    TraceSource source(trace);
    // Partially consume first: materialize must reset before draining.
    Invocation inv;
    ASSERT_TRUE(source.next(inv));
    expectTracesEqual(materializeSource(source), trace);
    // ... and reset after, so the source is reusable.
    ASSERT_TRUE(source.peek(inv));
    EXPECT_EQ(inv, trace.invocations()[0]);
}

TEST(TraceSourceContract, CountsPerFunctionMatchTrace)
{
    const Trace trace = smallTrace();
    TraceSource source(trace);
    EXPECT_EQ(countInvocationsPerFunction(source),
              trace.invocationCounts());
}

TEST(TeeSourceContract, ObserverFiresOnNextOnly)
{
    const Trace trace = smallTrace();
    TraceSource inner(trace);
    std::vector<Invocation> seen;
    TeeSource tee(inner,
                  [&seen](const Invocation& inv) { seen.push_back(inv); });

    Invocation inv;
    ASSERT_TRUE(tee.peek(inv));
    EXPECT_TRUE(seen.empty()) << "peek must not observe";
    while (tee.next(inv)) {
    }
    ASSERT_EQ(seen.size(), trace.invocations().size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], trace.invocations()[i]);
}

TEST(SubsetSourceContract, MatchesMaterializedSubset)
{
    const Trace trace = smallTrace();
    const std::vector<FunctionId> keep = {1, 3, 4};
    const Trace want = trace.subset(keep, "sub");

    TraceSource inner(trace);
    SubsetSource subset(inner, keep, "sub");
    EXPECT_TRUE(subset.countHint().exact);
    EXPECT_EQ(subset.countHint().count, want.invocations().size());
    expectTracesEqual(materializeSource(subset), want);
}

TEST(SubsetSourceContract, DuplicateKeepEntriesAreSkipped)
{
    const Trace trace = smallTrace();
    const Trace want = trace.subset({2, 5}, "dup");
    TraceSource inner(trace);
    SubsetSource subset(inner, {2, 5, 2, 5, 5}, "dup");
    expectTracesEqual(materializeSource(subset), want);
}

TEST(SubsetSourceContract, UnknownFunctionIdThrows)
{
    const Trace trace = smallTrace();
    TraceSource inner(trace);
    EXPECT_THROW(SubsetSource(inner, {99}, "bad"), std::out_of_range);
    EXPECT_THROW(trace.subset({99}, "bad"), std::out_of_range);
}

// Satellite regression: subset() with an empty keep list is a valid
// boundary — zero functions, zero invocations, not a crash.
TEST(SubsetBoundary, ZeroKeptFunctions)
{
    const Trace trace = smallTrace();
    const Trace empty = trace.subset({}, "none");
    EXPECT_TRUE(empty.validate());
    EXPECT_EQ(empty.functions().size(), 0u);
    EXPECT_EQ(empty.invocations().size(), 0u);

    TraceSource inner(trace);
    SubsetSource subset(inner, {}, "none");
    EXPECT_EQ(subset.countHint().count, 0u);
    Invocation inv;
    EXPECT_FALSE(subset.peek(inv));
    EXPECT_FALSE(subset.next(inv));
}

TEST(Samplers, StreamingIdsMatchMaterializedSamples)
{
    AzureModelConfig config;
    config.seed = 11;
    config.num_functions = 200;
    config.duration_us = 30 * kMinute;
    config.iat_median_sec = 20.0;
    const Trace pop = generateAzureTrace(config);
    TraceSource source(pop);

    expectTracesEqual(
        pop.subset(sampleRareIds(source, 40, 7), "rare"),
        sampleRare(pop, 40, 7));
    expectTracesEqual(
        pop.subset(sampleRepresentativeIds(source, 40, 7),
                   "representative"),
        sampleRepresentative(pop, 40, 7));
    expectTracesEqual(
        pop.subset(sampleRandomIds(source, 40, 7), "random"),
        sampleRandom(pop, 40, 7));
}

TEST(GeneratedSources, AzureMatchesMaterializedGenerator)
{
    struct Row
    {
        const char* label;
        bool diurnal;
        bool drop_single;
        double iat_median_sec;
    };
    // Busy and single-invocation minutes, flat and diurnal cells, the
    // drop-single filter on and off, and a catalog it mostly empties.
    const Row rows[] = {
        {"flat", false, true, 15.0},
        {"diurnal", true, true, 15.0},
        {"keep-single", false, false, 15.0},
        {"sparse", false, true, 7200.0},
    };
    for (const Row& row : rows) {
        SCOPED_TRACE(row.label);
        AzureModelConfig config;
        config.seed = 23;
        config.num_functions = 120;
        config.duration_us = 20 * kMinute;
        config.iat_median_sec = row.iat_median_sec;
        config.diurnal = row.diurnal;
        config.diurnal_peak_to_mean = 3.0;
        config.diurnal_period_us = 10 * kMinute;
        config.drop_single_invocation_functions = row.drop_single;
        const Trace want = generateAzureTrace(config);
        if (!row.drop_single) {
            EXPECT_EQ(want.functions().size(), config.num_functions);
        }
        if (row.iat_median_sec > 600.0) {
            EXPECT_LT(want.functions().size(), config.num_functions / 2);
        }
        const auto source = makeAzureSource(config);
        EXPECT_TRUE(source->countHint().exact);
        EXPECT_EQ(source->countHint().count, want.invocations().size());
        expectTracesEqual(materializeSource(*source), want);
    }
}

TEST(Fingerprints, SourceFingerprintEqualsTraceFingerprint)
{
    const Trace trace = smallTrace();
    TraceSource source(trace);
    // Consume a little first: sourceFingerprint must reset.
    Invocation inv;
    ASSERT_TRUE(source.next(inv));
    EXPECT_EQ(sourceFingerprint(source), traceFingerprint(trace));
    // Left reset afterwards.
    ASSERT_TRUE(source.peek(inv));
    EXPECT_EQ(inv, trace.invocations()[0]);

    // Sensitive to the stream, not just the catalog.
    const Trace other = trace.subset({0, 1, 2, 3, 4}, trace.name());
    EXPECT_NE(traceFingerprint(other), traceFingerprint(trace));
}

TEST(SweepStreamCells, StreamedCellMatchesTraceCell)
{
    const Trace trace = smallTrace();

    std::vector<SweepCell> trace_cells;
    std::vector<SweepCell> stream_cells;
    for (const MemMb memory : {512.0, 1024.0}) {
        trace_cells.push_back(
            makeCell(trace, PolicyKind::GreedyDual, memory));
        stream_cells.push_back(makeStreamCell(
            [&trace]() { return std::make_unique<TraceSource>(trace); },
            PolicyKind::GreedyDual, memory));
    }
    const std::vector<SimResult> want = runSweep(trace_cells, 2);
    const std::vector<SimResult> got = runSweep(stream_cells, 2);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(encodeCheckpointPayload("cell", got[i]),
                  encodeCheckpointPayload("cell", want[i]))
            << "cell " << i;
}

TEST(SweepStreamCells, GridValidationRejectsMalformedCells)
{
    const Trace trace = smallTrace();
    SweepCell both = makeCell(trace, PolicyKind::GreedyDual, 512.0);
    both.make_source = [&trace]() {
        return std::make_unique<TraceSource>(trace);
    };
    EXPECT_THROW(runSweep({both}), std::invalid_argument);

    SweepCell neither;
    neither.make_policy = []() {
        return makePolicy(PolicyKind::GreedyDual, {});
    };
    EXPECT_THROW(runSweep({neither}), std::invalid_argument);
}

}  // namespace
}  // namespace faascache
