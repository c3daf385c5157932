/**
 * @file
 * Compiled columnar `.ftrace` trace files (DESIGN.md §4h).
 *
 * On-disk layout (all integers little-endian, doubles stored as their
 * raw IEEE-754 bit pattern, so round-trips are bit-exact):
 *
 *   [64-byte header]
 *     magic           4 B  "FTRC"
 *     endianness      u32  0x01020304 as written by the producer; a
 *                          reader on the other endianness sees
 *                          0x04030201 and rejects the file
 *     version         u32  1
 *     chunk_capacity  u32  invocations per chunk (default 4096)
 *     name_bytes      u32  length of the trace name
 *     reserved        u32  zero
 *     num_functions   u64
 *     num_invocations u64
 *     num_chunks      u64  == ceil(num_invocations / chunk_capacity)
 *     fn_table_bytes  u64  serialized function-table length
 *     header_checksum u64  fnv1a64 over the preceding 56 bytes
 *   [trace name        name_bytes]
 *   [function table    fn_table_bytes]   per function: name_len u32,
 *                          name, mem_mb/cpu_units/io_units f64,
 *                          warm_us/cold_us i64
 *   [fn_table_checksum u64]              fnv1a64 over the table bytes
 *   [chunk 0] ... [chunk num_chunks-1]   fixed stride:
 *     count           u32  live entries (== capacity except the last)
 *     pad             u32  zero
 *     arrival_us      i64 × capacity     (column; unused slots zero)
 *     function        u32 × capacity     (column; unused slots zero)
 *     chunk_checksum  u64  fnv1a64 over the preceding stride-8 bytes
 *
 * The reader validates header fields, the function table, and the
 * total file size eagerly at open (named-field errors), and each
 * chunk's checksum/count/sortedness lazily on first touch, so opening
 * a multi-GB file stays O(catalog). Consumed chunks are released back
 * to the kernel with madvise(MADV_DONTNEED), keeping peak RSS at
 * O(chunk) no matter the trace length.
 */
#ifndef FAASCACHE_TRACE_FTRACE_FORMAT_H_
#define FAASCACHE_TRACE_FTRACE_FORMAT_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/invocation_source.h"
#include "trace/trace.h"

namespace faascache {

/** `.ftrace` format constants shared by writer, reader, and tests. */
namespace ftrace {

inline constexpr char kMagic[4] = {'F', 'T', 'R', 'C'};
inline constexpr std::uint32_t kEndianness = 0x01020304u;
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::uint32_t kDefaultChunkCapacity = 4096;
/** Upper bound on chunk_capacity a reader will accept (guards
 *  stride-overflow on hostile headers). */
inline constexpr std::uint32_t kMaxChunkCapacity = 1u << 22;
inline constexpr std::size_t kHeaderBytes = 64;

/** Bytes of one chunk for a given capacity (count+pad+columns+checksum). */
constexpr std::size_t chunkStride(std::uint32_t capacity)
{
    return 8 + std::size_t{capacity} * 12 + 8;
}

}  // namespace ftrace

/**
 * Streaming `.ftrace` writer: catalog up front, invocations appended
 * in time order, finish() seals the file (back-patches the header with
 * the final counts). A writer that is destroyed without finish()
 * leaves a file that readers reject (zeroed header checksum).
 */
class FtraceWriter
{
  public:
    /**
     * Opens `path` for writing and emits the provisional header, name,
     * and function table.
     * @throws std::runtime_error on IO failure or invalid catalog.
     */
    FtraceWriter(const std::string& path, std::string name,
                 std::vector<FunctionSpec> functions,
                 std::uint32_t chunk_capacity =
                     ftrace::kDefaultChunkCapacity);

    FtraceWriter(const FtraceWriter&) = delete;
    FtraceWriter& operator=(const FtraceWriter&) = delete;

    /**
     * Append one invocation.
     * @throws std::runtime_error on out-of-order arrival, unknown
     *         function id, or append after finish().
     */
    void append(const Invocation& inv);

    /** Flush the tail chunk and back-patch the header. Idempotent. */
    void finish();

    std::size_t appended() const { return appended_; }

  private:
    void flushChunk();

    std::string path_;
    std::ofstream out_;
    std::uint32_t chunk_capacity_;
    std::size_t num_functions_;
    std::size_t name_bytes_cache_ = 0;
    std::size_t fn_table_bytes_cache_ = 0;
    std::size_t appended_ = 0;
    std::uint64_t num_chunks_ = 0;
    TimeUs prev_arrival_ = 0;
    bool finished_ = false;
    /** Buffered chunk: parallel columns, flushed when full. */
    std::vector<TimeUs> arrivals_;
    std::vector<FunctionId> funcs_;
};

/**
 * Compile an entire source to `path` in one pass (resets the source
 * before and after).
 * @return number of invocations written.
 */
std::size_t writeFtraceFile(const std::string& path,
                            InvocationSource& source,
                            std::uint32_t chunk_capacity =
                                ftrace::kDefaultChunkCapacity);

class FtraceCursor;

/**
 * One process-shared memory mapping of a `.ftrace` file plus every
 * piece of per-file state that consumers can share: the validated
 * catalog, the lazy chunk-verification watermark, and the registry of
 * active cursors.
 *
 * open() hands out the same region for the same path (a process-wide
 * weak registry keyed by the path string), so N shards streaming the
 * same trace touch one mapping instead of N — the file is opened and
 * mmapped once per process, and its pages are shared by every cursor.
 *
 * Header, name, function table, and file size are validated eagerly in
 * open(); chunk payloads are checksum-verified lazily on first touch
 * (lock-free fast path for already-verified chunks, a mutex serializes
 * first-touch verification, so concurrent cursors are safe). A chunk
 * is released back to the kernel with madvise(MADV_DONTNEED) only once
 * EVERY registered cursor has streamed past it — the minimum cursor
 * position gates the release watermark — keeping peak RSS at O(chunk)
 * for a fleet of shard cursors no matter the trace length.
 *
 * All failures throw std::runtime_error with messages of the form
 * "ftrace: <path>: <field>: <problem>".
 */
class FtraceRegion : public std::enable_shared_from_this<FtraceRegion>
{
  public:
    /** Shared handle to the process-wide region for `path` (creates and
     *  validates it on first open; later opens reuse the live mapping).
     *  The registry key is the path string as given. */
    static std::shared_ptr<FtraceRegion> open(const std::string& path);

    ~FtraceRegion();

    FtraceRegion(const FtraceRegion&) = delete;
    FtraceRegion& operator=(const FtraceRegion&) = delete;

    const std::string& path() const { return path_; }
    const std::string& name() const { return name_; }
    const std::vector<FunctionSpec>& functions() const
    {
        return functions_;
    }
    std::uint32_t chunkCapacity() const { return chunk_capacity_; }
    std::uint64_t numChunks() const { return num_chunks_; }
    std::uint64_t numInvocations() const { return num_invocations_; }

    /** New independent cursor at position 0 over this mapping. */
    std::unique_ptr<FtraceCursor> makeCursor();

    /** Chunks handed back to the kernel so far: the release watermark
     *  (tests and introspection). */
    std::uint64_t releasedChunks() const;

  private:
    friend class FtraceCursor;

    explicit FtraceRegion(const std::string& path);

    [[noreturn]] void fail(const std::string& field,
                           const std::string& problem) const;
    /** Validate chunks [verified, chunk] (thread-safe, lazy). */
    void touchChunk(std::uint64_t chunk);
    /** Release chunks every registered cursor has passed. */
    void releaseConsumed();
    void registerCursor(const FtraceCursor* cursor);
    void unregisterCursor(const FtraceCursor* cursor);

    std::string path_;
    std::string name_;
    std::vector<FunctionSpec> functions_;
    const unsigned char* map_ = nullptr;
    std::size_t map_bytes_ = 0;
    std::size_t chunks_off_ = 0;
    std::uint32_t chunk_capacity_ = 0;
    std::uint64_t num_invocations_ = 0;
    std::uint64_t num_chunks_ = 0;

    /** Chunks [0, verified_chunks_) passed checksum/count/sortedness.
     *  Atomic so concurrent cursors skip the mutex once verified. */
    std::atomic<std::uint64_t> verified_chunks_{0};
    /** Serializes first-touch verification; guards the tail arrival. */
    std::mutex verify_mutex_;
    /** Arrival at the end of the last verified chunk (cross-chunk
     *  sortedness check); guarded by verify_mutex_. */
    TimeUs verified_tail_arrival_ = 0;

    /** Guards the cursor registry and the release watermark. */
    mutable std::mutex cursors_mutex_;
    std::vector<const FtraceCursor*> cursors_;
    /** Chunks [0, released_chunks_) have been madvised away. */
    std::uint64_t released_chunks_ = 0;
};

/**
 * One streaming position over a shared FtraceRegion. Cheap to create —
 * no file open, no re-validation — and safe to drive from its own
 * thread concurrently with other cursors on the same region (this is
 * how the sharded cluster fans one mapping out to N shard threads).
 * Keeps the region alive; registers itself so the region's release
 * watermark never overtakes it.
 *
 * The cursor caches the column pointers of the chunk it is in, so a
 * peek or next inside a verified chunk is two loads: the chunk is
 * located and verified (touchChunk) only when the cursor enters it.
 */
class FtraceCursor final : public InvocationSource
{
  public:
    explicit FtraceCursor(std::shared_ptr<FtraceRegion> region);
    ~FtraceCursor() override;

    FtraceCursor(const FtraceCursor&) = delete;
    FtraceCursor& operator=(const FtraceCursor&) = delete;

    const std::string& name() const override { return region_->name(); }
    const std::vector<FunctionSpec>& functions() const override
    {
        return region_->functions();
    }
    bool peek(Invocation& out) override;
    bool next(Invocation& out) override;
    void reset() override;
    SourceCountHint countHint() const override
    {
        return SourceCountHint{region_->numInvocations(), true};
    }

  private:
    friend class FtraceRegion;

    /** Point the chunk cache at the chunk holding `pos`, verifying it
     *  on first touch; false past the end of the trace. */
    bool enterChunk(std::uint64_t pos);

    std::shared_ptr<FtraceRegion> region_;
    /** Atomic: read by the region's release scan from other threads. */
    std::atomic<std::uint64_t> pos_{0};

    /** Cached columns of the current (verified) chunk, which holds
     *  positions [chunk_begin_, chunk_end_); empty after reset(). */
    const unsigned char* arrivals_ = nullptr;
    const unsigned char* functions_ = nullptr;
    std::uint64_t chunk_begin_ = 0;
    std::uint64_t chunk_end_ = 0;
};

/**
 * Memory-mapped streaming reader over a `.ftrace` file: a facade over
 * FtraceRegion::open() + one FtraceCursor, preserving the historical
 * single-object API. Constructing several FtraceSources for the same
 * path shares one mapping (they are independent cursors over the same
 * FtraceRegion); validation errors are unchanged,
 * "ftrace: <path>: <field>: <problem>".
 */
class FtraceSource final : public InvocationSource
{
  public:
    explicit FtraceSource(const std::string& path);

    FtraceSource(const FtraceSource&) = delete;
    FtraceSource& operator=(const FtraceSource&) = delete;

    const std::string& name() const override { return cursor_->name(); }
    const std::vector<FunctionSpec>& functions() const override
    {
        return cursor_->functions();
    }
    bool peek(Invocation& out) override { return cursor_->peek(out); }
    bool next(Invocation& out) override { return cursor_->next(out); }
    void reset() override { cursor_->reset(); }
    SourceCountHint countHint() const override
    {
        return cursor_->countHint();
    }

    std::uint32_t chunkCapacity() const
    {
        return region_->chunkCapacity();
    }
    std::uint64_t numChunks() const { return region_->numChunks(); }

    /** The shared mapping backing this source (for fan-out: hand the
     *  region to ShardedWorkload factories instead of reopening). */
    const std::shared_ptr<FtraceRegion>& region() const { return region_; }

  private:
    std::shared_ptr<FtraceRegion> region_;
    std::unique_ptr<FtraceCursor> cursor_;
};

}  // namespace faascache

#endif  // FAASCACHE_TRACE_FTRACE_FORMAT_H_
