// The append-only sweep checkpoint journal: full-fidelity payload codec
// (hexfloat doubles, percent-escaped keys), header/fingerprint checks,
// per-record checksums, and torn-tail recovery after a mid-write kill.
#include "sim/sweep_checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/checkpoint_journal.h"

namespace faascache {
namespace {

/** Unique temp path per test; removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string& tag)
        : path_(std::string(::testing::TempDir()) + "faascache_ckpt_" +
                tag + ".txt")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

std::string
readAll(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeAll(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** A result touching every encoded field with awkward values. */
SimResult
trickyResult()
{
    SimResult r;
    r.policy_name = "GD with spaces %and\npercent\x7f";
    r.memory_mb = 0.1;  // not exactly representable in binary
    r.warm_starts = 123456789012345;
    r.cold_starts = 42;
    r.dropped = 7;
    r.evictions = 9;
    r.expirations = 11;
    r.prewarms = 13;
    r.eviction_rounds = 17;
    r.background_reclaims = 19;
    r.actual_exec_us = 23456789;
    r.baseline_exec_us = 12345678;
    r.per_function = {{1, 2, 3}, {0, 0, 0}, {10, 20, 30}};
    r.memory_usage = {{0, 0.0}, {60'000'000, 1.0 / 3.0},
                      {120'000'000, 12345.6789}};
    return r;
}

TEST(Fnv1a64, MatchesReferenceValues)
{
    // FNV-1a reference vectors: empty input is the offset basis, and
    // "a" folds 0x61 in with the 64-bit FNV prime.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_NE(fnv1a64("abc"), fnv1a64("acb"));
}

TEST(CheckpointCodec, RoundTripsEveryField)
{
    const SimResult original = trickyResult();
    const std::string key = "trace with space/GD %1\t#2";
    const std::string payload = encodeCheckpointPayload(key, original);
    // The journal is line-oriented: no raw control bytes may survive
    // escaping.
    EXPECT_EQ(payload.find('\n'), std::string::npos);
    EXPECT_EQ(payload.find('\t'), std::string::npos);

    std::string decoded_key;
    SimResult decoded;
    ASSERT_TRUE(decodeCheckpointPayload(payload, &decoded_key, &decoded));
    EXPECT_EQ(decoded_key, key);
    // Bit-exact equality, doubles included: this is what makes a
    // resumed sweep byte-identical to an uninterrupted one.
    EXPECT_TRUE(decoded == original);
}

TEST(CheckpointCodec, RoundTripsEmptyContainersAndNames)
{
    SimResult r;
    r.policy_name = "";
    const std::string payload = encodeCheckpointPayload("k", r);
    std::string key;
    SimResult decoded;
    ASSERT_TRUE(decodeCheckpointPayload(payload, &key, &decoded));
    EXPECT_EQ(key, "k");
    EXPECT_TRUE(decoded == r);
}

TEST(CheckpointCodec, RejectsMalformedPayloads)
{
    // Torn-write truncation at arbitrary byte offsets is caught by the
    // journal's per-record checksum (a shortened hexfloat can still be
    // a valid double); the codec itself must reject structural damage.
    const std::string good =
        encodeCheckpointPayload("key", trickyResult());
    std::string key;
    SimResult result;
    EXPECT_FALSE(decodeCheckpointPayload("", &key, &result));
    EXPECT_FALSE(decodeCheckpointPayload("key-only", &key, &result));
    EXPECT_FALSE(
        decodeCheckpointPayload(good + " trailing", &key, &result));
    // Counter field replaced by a non-number.
    EXPECT_FALSE(decodeCheckpointPayload(
        "k p 0x1p+1 a 0 0 0 0 0 0 0 0 0 0 0", &key, &result));
    // per_function count without its triples.
    EXPECT_FALSE(decodeCheckpointPayload(
        "k p 0x1p+1 0 0 0 0 0 0 0 0 0 0 2 1 1 1", &key, &result));
    // Negative and absurdly large counts are rejected outright.
    EXPECT_FALSE(decodeCheckpointPayload(
        "k p 0x1p+1 0 0 0 0 0 0 0 0 0 0 -1 0", &key, &result));
    EXPECT_FALSE(decodeCheckpointPayload(
        "k p 0x1p+1 0 0 0 0 0 0 0 0 0 0 99999999999 0", &key, &result));
    // Dangling percent-escape in the key.
    EXPECT_FALSE(decodeCheckpointPayload(
        "k%2 p 0x1p+1 0 0 0 0 0 0 0 0 0 0 0 0", &key, &result));
    // The original still decodes after all that prodding.
    EXPECT_TRUE(decodeCheckpointPayload(good, &key, &result));
}

/** A journal record decoded with the SimResult codec. */
struct DecodedRecord
{
    std::string key;
    SimResult result;
};

/** Every record of `load`, decoded; fails the test on a bad payload. */
std::vector<DecodedRecord>
decodeAll(const CheckpointJournalLoad& load)
{
    std::vector<DecodedRecord> out(load.records.size());
    for (std::size_t i = 0; i < load.records.size(); ++i)
        EXPECT_TRUE(decodeCheckpointPayload(load.records[i].payload,
                                            &out[i].key, &out[i].result));
    return out;
}

void
append(CheckpointJournalWriter& writer, const std::string& key,
       const SimResult& result)
{
    writer.append(encodeCheckpointPayload(key, result));
}

TEST(CheckpointJournal, WriterThenLoaderRoundTrips)
{
    TempFile file("round_trip");
    const SimResult result = trickyResult();
    {
        CheckpointJournalWriter writer = CheckpointJournalWriter::beginFresh(
            file.path(), 0xdeadbeefcafef00dULL);
        append(writer, "cell-a", result);
        append(writer, "cell-b", SimResult{});
    }
    const CheckpointJournalLoad load = loadCheckpointJournal(file.path());
    EXPECT_EQ(load.fingerprint, 0xdeadbeefcafef00dULL);
    EXPECT_FALSE(load.torn_tail);
    EXPECT_EQ(load.valid_bytes, readAll(file.path()).size());
    const std::vector<DecodedRecord> records = decodeAll(load);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].key, "cell-a");
    EXPECT_TRUE(records[0].result == result);
    EXPECT_EQ(records[1].key, "cell-b");
    EXPECT_TRUE(records[1].result == SimResult{});
}

TEST(CheckpointJournal, TornTailIsTruncatedToValidPrefix)
{
    TempFile file("torn_tail");
    {
        CheckpointJournalWriter writer =
            CheckpointJournalWriter::beginFresh(file.path(), 1);
        append(writer, "done", trickyResult());
    }
    const std::string intact = readAll(file.path());
    // A SIGKILL mid-append leaves an unterminated half record.
    writeAll(file.path(), intact + "cell 0123456789abcdef half-writ");

    const CheckpointJournalLoad load = loadCheckpointJournal(file.path());
    EXPECT_TRUE(load.torn_tail);
    EXPECT_EQ(load.valid_bytes, intact.size());
    ASSERT_EQ(load.records.size(), 1u);
    EXPECT_EQ(decodeAll(load)[0].key, "done");

    // continueAt() truncates the tail; appending after it yields a
    // journal identical to one that never tore.
    {
        CheckpointJournalWriter writer = CheckpointJournalWriter::continueAt(
            file.path(), load.valid_bytes);
        append(writer, "after", SimResult{});
    }
    const CheckpointJournalLoad repaired =
        loadCheckpointJournal(file.path());
    EXPECT_FALSE(repaired.torn_tail);
    ASSERT_EQ(repaired.records.size(), 2u);
    EXPECT_EQ(decodeAll(repaired)[1].key, "after");
}

TEST(CheckpointJournal, BadChecksumEndsTheValidPrefix)
{
    TempFile file("bad_checksum");
    {
        CheckpointJournalWriter writer =
            CheckpointJournalWriter::beginFresh(file.path(), 1);
        append(writer, "first", SimResult{});
        append(writer, "second", SimResult{});
    }
    std::string bytes = readAll(file.path());
    // Corrupt one payload byte of the second record: its checksum no
    // longer matches, so the valid prefix ends after the first record.
    const std::size_t second = bytes.find("second");
    ASSERT_NE(second, std::string::npos);
    bytes[second] = 'X';
    writeAll(file.path(), bytes);

    const CheckpointJournalLoad load = loadCheckpointJournal(file.path());
    EXPECT_TRUE(load.torn_tail);
    ASSERT_EQ(load.records.size(), 1u);
    EXPECT_EQ(decodeAll(load)[0].key, "first");
}

TEST(CheckpointJournal, DuplicateKeysKeepFileOrder)
{
    TempFile file("duplicates");
    SimResult newer;
    newer.warm_starts = 99;
    {
        CheckpointJournalWriter writer =
            CheckpointJournalWriter::beginFresh(file.path(), 1);
        append(writer, "cell", SimResult{});
        append(writer, "cell", newer);
    }
    // The loader reports records in file order; the driver's restore
    // pass collapses duplicates last-record-wins.
    const std::vector<DecodedRecord> records =
        decodeAll(loadCheckpointJournal(file.path()));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].key, "cell");
    EXPECT_EQ(records[1].key, "cell");
    EXPECT_EQ(records[1].result.warm_starts, 99);
}

TEST(CheckpointJournal, RejectsMissingFileAndForeignHeaders)
{
    TempFile file("bad_header");
    EXPECT_THROW(loadCheckpointJournal(file.path()), std::runtime_error);

    writeAll(file.path(), "not a checkpoint\n");
    EXPECT_THROW(loadCheckpointJournal(file.path()), std::runtime_error);

    writeAll(file.path(), "faascache-sweep-ckpt v1 fp=nothex\n");
    EXPECT_THROW(loadCheckpointJournal(file.path()), std::runtime_error);
}

TEST(CheckpointJournal, HeaderOnlyJournalIsEmptyAndIntact)
{
    TempFile file("header_only");
    { CheckpointJournalWriter::beginFresh(file.path(), 77); }
    const CheckpointJournalLoad load = loadCheckpointJournal(file.path());
    EXPECT_EQ(load.fingerprint, 77u);
    EXPECT_TRUE(load.records.empty());
    EXPECT_FALSE(load.torn_tail);
}

}  // namespace
}  // namespace faascache
