// Hardening battery for the `.ftrace` on-disk format (DESIGN.md §4h):
// write/read round-trips, named-field rejection of every class of
// header/table/chunk corruption, and a seeded fuzz sweep reusing the
// checkpoint-journal mutator so thousands of corrupted files either
// read back the original stream exactly or are refused with an
// "ftrace: <path>: <field>: ..." error — never a crash, never a
// silently different trace.
#include "trace/ftrace_format.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/function_spec.h"
#include "trace/invocation_source.h"
#include "trace/patterns.h"
#include "trace/trace.h"
#include "util/checkpoint_journal.h"
#include "support/journal_mutator.h"
#include "util/rng.h"

namespace faascache {
namespace {

class TempFtrace
{
  public:
    explicit TempFtrace(const std::string& tag)
        : path_(std::string(::testing::TempDir()) + "faascache_" + tag +
                ".ftrace")
    {
        std::remove(path_.c_str());
    }
    ~TempFtrace() { std::remove(path_.c_str()); }

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

Trace
workload()
{
    std::vector<FunctionSpec> specs;
    std::vector<TimeUs> iats;
    for (FunctionId id = 0; id < 10; ++id) {
        specs.push_back(makeFunction(
            id, "fn-" + std::to_string(id),
            96.0 + 16.0 * static_cast<double>(id), fromMillis(60 + id),
            fromMillis(420 + 10 * id)));
        iats.push_back(fromSeconds(1 + id % 4));
    }
    return makePoissonTrace(specs, iats, 3 * kMinute, 0xF7ACEu,
                            "ftrace-workload");
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Compile `trace` to `path`, small chunks so multi-chunk paths run. */
void
compile(const Trace& trace, const std::string& path,
        std::uint32_t chunk_capacity = 64)
{
    TraceSource source(trace);
    writeFtraceFile(path, source, chunk_capacity);
}

void
expectStreamsEqual(FtraceSource& got, const Trace& want)
{
    EXPECT_EQ(got.name(), want.name());
    ASSERT_EQ(got.functions().size(), want.functions().size());
    Invocation inv;
    std::size_t i = 0;
    while (got.next(inv)) {
        ASSERT_LT(i, want.invocations().size());
        EXPECT_EQ(inv, want.invocations()[i]) << "invocation " << i;
        ++i;
    }
    EXPECT_EQ(i, want.invocations().size());
}

TEST(FtraceRoundTrip, MultiChunkStreamIsIdentical)
{
    const Trace trace = workload();
    TempFtrace file("roundtrip");
    compile(trace, file.path());

    FtraceSource source(file.path());
    EXPECT_GT(source.numChunks(), 1u) << "want the multi-chunk path";
    EXPECT_TRUE(source.countHint().exact);
    EXPECT_EQ(source.countHint().count, trace.invocations().size());
    expectStreamsEqual(source, trace);

    // Catalog round-trips bit-exactly (doubles stored as raw bits).
    for (std::size_t f = 0; f < trace.functions().size(); ++f) {
        EXPECT_EQ(source.functions()[f].name, trace.functions()[f].name);
        EXPECT_EQ(source.functions()[f].mem_mb,
                  trace.functions()[f].mem_mb);
        EXPECT_EQ(source.functions()[f].warm_us,
                  trace.functions()[f].warm_us);
    }

    // reset() restarts the stream from chunk 0.
    source.reset();
    expectStreamsEqual(source, trace);
}

// One mapping per path per process: sources and cursors on the same
// file share a single FtraceRegion, and every cursor streams the full
// trace independently (the sharded cluster fans one region out to all
// shards instead of re-opening the file per consumer).
TEST(FtraceRoundTrip, RegionIsSharedAndCursorsAreIndependent)
{
    const Trace trace = workload();
    TempFtrace file("region");
    compile(trace, file.path());

    std::shared_ptr<FtraceRegion> region = FtraceRegion::open(file.path());
    EXPECT_EQ(FtraceRegion::open(file.path()).get(), region.get())
        << "same path must reuse the live mapping";
    FtraceSource source(file.path());
    EXPECT_EQ(source.region().get(), region.get())
        << "FtraceSource must join the shared region too";

    // Interleaved cursors do not disturb each other: advance one past
    // a chunk boundary (triggering the release watermark scan), then
    // stream both to completion.
    std::unique_ptr<FtraceCursor> a = region->makeCursor();
    std::unique_ptr<FtraceCursor> b = region->makeCursor();
    Invocation inv;
    for (std::uint64_t i = 0; i < region->chunkCapacity() + 3; ++i) {
        ASSERT_TRUE(a->next(inv));
        EXPECT_EQ(inv, trace.invocations()[i]);
    }
    std::size_t got_b = 0;
    while (b->next(inv)) {
        ASSERT_LT(got_b, trace.invocations().size());
        EXPECT_EQ(inv, trace.invocations()[got_b]) << "cursor b @" << got_b;
        ++got_b;
    }
    EXPECT_EQ(got_b, trace.invocations().size());
    while (a->next(inv)) {
    }

    // reset() behind the release watermark re-faults pages correctly.
    b->reset();
    std::size_t again = 0;
    while (b->next(inv)) {
        ASSERT_LT(again, trace.invocations().size());
        EXPECT_EQ(inv, trace.invocations()[again]) << "post-reset @" << again;
        ++again;
    }
    EXPECT_EQ(again, trace.invocations().size());

    // After heavy cursor churn a re-open still streams the same bytes.
    a.reset();
    b.reset();
    region.reset();
    {
        FtraceSource reopened(file.path());
        expectStreamsEqual(reopened, trace);
    }
}

// The cursor's cached chunk columns: a seeded mix of peek, next and
// reset must read exactly what a TraceSource over the same trace reads,
// for a one-invocation chunk, a chunk size that leaves a partial last
// chunk, and one that divides the trace evenly. The release watermark
// advances only when next() completes a chunk, to the number of chunks
// the cursor has consumed, and never moves back after a reset.
TEST(FtraceCursor, ChunkCacheMatchesTraceSourceAcrossBoundaries)
{
    const Trace trace = workload();
    const std::uint64_t total = trace.invocations().size();
    ASSERT_GT(total, 200u);
    std::uint32_t dividing = 0;
    for (std::uint32_t c = 2; c < 64 && dividing == 0; ++c) {
        if (total % c == 0)
            dividing = c;
    }
    std::vector<std::uint32_t> capacities = {1, 7, 64};
    if (dividing != 0)
        capacities.push_back(dividing);
    for (std::uint32_t capacity : capacities) {
        SCOPED_TRACE("chunk capacity " + std::to_string(capacity));
        TempFtrace file("cursor_cache_" + std::to_string(capacity));
        compile(trace, file.path(), capacity);
        std::shared_ptr<FtraceRegion> region =
            FtraceRegion::open(file.path());
        ASSERT_EQ(region->chunkCapacity(), capacity);
        std::unique_ptr<FtraceCursor> cursor = region->makeCursor();
        TraceSource want(trace);

        Rng rng(0xC0A5E + capacity);
        std::uint64_t consumed = 0;
        std::uint64_t released = 0;
        std::size_t resets = 0;
        for (int step = 0; step < 6000; ++step) {
            const std::uint64_t op = rng.uniformInt(1000);
            Invocation got;
            Invocation expect;
            if (op < 4 && consumed > capacity) {
                cursor->reset();
                want.reset();
                consumed = 0;
                ++resets;
            } else if (op < 300) {
                const bool has = want.peek(expect);
                ASSERT_EQ(cursor->peek(got), has) << "step " << step;
                if (has) {
                    EXPECT_EQ(got, expect) << "peek @" << consumed;
                }
            } else {
                const bool has = want.next(expect);
                ASSERT_EQ(cursor->next(got), has) << "step " << step;
                if (has) {
                    EXPECT_EQ(got, expect) << "next @" << consumed;
                    ++consumed;
                    if (consumed % capacity == 0)
                        released = std::max(released, consumed / capacity);
                }
            }
            ASSERT_EQ(region->releasedChunks(), released)
                << "step " << step << ", consumed " << consumed;
        }
        EXPECT_GT(resets, 0u);
        // Drain to the end: past-the-end peeks and nexts stay false.
        cursor->reset();
        Invocation inv;
        std::uint64_t n = 0;
        while (cursor->next(inv))
            ++n;
        EXPECT_EQ(n, total);
        EXPECT_FALSE(cursor->peek(inv));
        EXPECT_FALSE(cursor->next(inv));
        EXPECT_EQ(region->releasedChunks(),
                  std::max(released, total / capacity));
    }
}

TEST(FtraceWriter, RejectsContractViolations)
{
    TempFtrace file("writer-contract");
    std::vector<FunctionSpec> specs = {
        makeFunction(0, "a", 128.0, fromMillis(50), fromMillis(200))};
    FtraceWriter writer(file.path(), "w", specs, 16);
    writer.append(Invocation{0, 100});
    // Out-of-order arrival.
    EXPECT_THROW(writer.append(Invocation{0, 50}), std::runtime_error);
    // Unknown function id.
    EXPECT_THROW(writer.append(Invocation{7, 200}), std::runtime_error);
    writer.finish();
    writer.finish();  // idempotent
    EXPECT_THROW(writer.append(Invocation{0, 300}), std::runtime_error);
}

TEST(FtraceValidation, UnfinishedFileIsRejected)
{
    TempFtrace file("unfinished");
    std::vector<FunctionSpec> specs = {
        makeFunction(0, "a", 128.0, fromMillis(50), fromMillis(200))};
    {
        FtraceWriter writer(file.path(), "w", specs, 16);
        writer.append(Invocation{0, 100});
        // No finish(): provisional header, zeroed checksum.
    }
    try {
        FtraceSource source(file.path());
        FAIL() << "unfinished file accepted";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("header_checksum"),
                  std::string::npos)
            << error.what();
    }
}

/** Expect opening (or fully draining) `path` to throw an error naming
 *  `field`. */
void
expectRejectedNaming(const std::string& path, const std::string& field)
{
    try {
        FtraceSource source(path);
        Invocation inv;
        while (source.next(inv)) {
        }
        FAIL() << "corrupted file accepted (wanted '" << field << "')";
    } catch (const std::runtime_error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("ftrace: "), std::string::npos) << what;
        EXPECT_NE(what.find(field), std::string::npos)
            << "error '" << what << "' does not name field '" << field
            << "'";
    }
}

TEST(FtraceValidation, NamedFieldRejections)
{
    const Trace trace = workload();
    TempFtrace file("corrupt");
    compile(trace, file.path());
    const std::string good = readFile(file.path());

    struct Case
    {
        const char* field;
        std::size_t offset;
        unsigned char value;
    };
    const std::vector<Case> cases = {
        {"magic", 0, 'X'},
        {"endianness", 4, 0x43},  // byte-swapped marker
        {"version", 8, 0x7f},
        {"header_checksum", 56, 0x00},
    };
    for (const Case& c : cases) {
        std::string bad = good;
        ASSERT_LT(c.offset, bad.size());
        if (static_cast<unsigned char>(bad[c.offset]) == c.value)
            ++const_cast<Case&>(c).value;
        bad[c.offset] = static_cast<char>(c.value);
        writeFile(file.path(), bad);
        expectRejectedNaming(file.path(), c.field);
    }

    // chunk_capacity above the reader's stride-overflow guard, with the
    // header checksum re-patched so the field's own validation (not the
    // checksum) is what rejects the file.
    {
        std::string bad = good;
        const std::uint32_t huge = ftrace::kMaxChunkCapacity + 1;
        std::memcpy(&bad[12], &huge, sizeof huge);
        const std::uint64_t checksum =
            fnv1a64(std::string_view(bad.data(), 56));
        std::memcpy(&bad[56], &checksum, sizeof checksum);
        writeFile(file.path(), bad);
        expectRejectedNaming(file.path(), "chunk_capacity");
    }

    // A function whose cold span passes kMaxArrivalUs, with the table
    // checksum re-patched, is refused by the function table check.
    {
        std::string bad = good;
        std::uint32_t name_bytes = 0;
        std::uint64_t table_bytes = 0;
        std::memcpy(&name_bytes, &bad[16], sizeof name_bytes);
        std::memcpy(&table_bytes, &bad[48], sizeof table_bytes);
        const std::size_t table = ftrace::kHeaderBytes + name_bytes;
        std::uint32_t name_len = 0;
        std::memcpy(&name_len, &bad[table], sizeof name_len);
        const TimeUs oversized = kMaxArrivalUs + 1;
        std::memcpy(&bad[table + 4 + name_len + 32], &oversized,
                    sizeof oversized);
        const std::uint64_t checksum =
            fnv1a64(std::string_view(bad.data() + table, table_bytes));
        std::memcpy(&bad[table + table_bytes], &checksum, sizeof checksum);
        writeFile(file.path(), bad);
        expectRejectedNaming(file.path(), "function_table");
        // So is a writer handed such a function.
        FunctionSpec spec = trace.functions()[0];
        spec.cold_us = oversized;
        EXPECT_THROW(FtraceWriter(file.path(), "w", {spec}, 16),
                     std::runtime_error);
    }

    // Truncation below the header size names the header.
    writeFile(file.path(), good.substr(0, 32));
    expectRejectedNaming(file.path(), "header");

    // Truncating the last chunk names the file size check.
    writeFile(file.path(), good.substr(0, good.size() - 9));
    expectRejectedNaming(file.path(), "file");

    // Flipping one payload byte in the final chunk trips that chunk's
    // checksum (lazily, on first touch of the chunk).
    std::string bad = good;
    bad[good.size() - 20] = static_cast<char>(bad[good.size() - 20] ^ 0x10);
    writeFile(file.path(), bad);
    expectRejectedNaming(file.path(), "chunk");

    // Restore and confirm the baseline still reads (the harness above
    // really was testing the mutation, not a broken fixture).
    writeFile(file.path(), good);
    FtraceSource source(file.path());
    expectStreamsEqual(source, trace);
}

// Seeded fuzz: mutate the compiled bytes with the checkpoint-journal
// mutator (bit flips, truncation, duplicated/deleted/swapped spans,
// header corruption, appended garbage) and require the contract: the
// reader either yields the exact original stream or throws a named
// ftrace error. Any crash or silent divergence fails the test.
TEST(FtraceFuzz, MutatedFilesNeverCrashOrSilentlyDiverge)
{
    const Trace trace = workload();
    TempFtrace file("fuzz");
    compile(trace, file.path());
    const std::string good = readFile(file.path());

    int accepted = 0, rejected = 0;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        JournalMutation mutation;
        const std::string mutated =
            mutateJournal(good, seed, &mutation);
        writeFile(file.path(), mutated);
        try {
            FtraceSource source(file.path());
            Invocation inv;
            std::size_t i = 0;
            bool diverged =
                source.name() != trace.name() ||
                source.functions().size() != trace.functions().size();
            while (!diverged && source.next(inv)) {
                if (i >= trace.invocations().size() ||
                    !(inv == trace.invocations()[i])) {
                    diverged = true;
                    break;
                }
                ++i;
            }
            if (!diverged)
                diverged = i != trace.invocations().size();
            EXPECT_FALSE(diverged)
                << "seed " << seed << " (" << mutation.format()
                << "): mutated file read back a different stream";
            ++accepted;
        } catch (const std::runtime_error& error) {
            EXPECT_NE(std::string(error.what()).find("ftrace: "),
                      std::string::npos)
                << "seed " << seed << " (" << mutation.format()
                << "): unnamed error: " << error.what();
            ++rejected;
        }
        // Any other exception type (or a crash) escapes and fails.
    }
    // The mutator must actually have produced rejectable corruption.
    EXPECT_GT(rejected, 0);
    // Identity mutations (or mutations confined to slack bytes) may
    // legitimately still read back clean; both tallies just document
    // the split.
    (void)accepted;
}

}  // namespace
}  // namespace faascache
