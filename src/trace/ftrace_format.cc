#include "trace/ftrace_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "util/checkpoint_journal.h"

namespace faascache {
namespace {

void putBytes(std::string& buf, const void* p, std::size_t n)
{
    buf.append(static_cast<const char*>(p), n);
}

void putU32(std::string& buf, std::uint32_t v) { putBytes(buf, &v, 4); }
void putU64(std::string& buf, std::uint64_t v) { putBytes(buf, &v, 8); }
void putI64(std::string& buf, std::int64_t v) { putBytes(buf, &v, 8); }
void putF64(std::string& buf, double v) { putBytes(buf, &v, 8); }

std::uint32_t loadU32(const unsigned char* p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

std::uint64_t loadU64(const unsigned char* p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

std::int64_t loadI64(const unsigned char* p)
{
    std::int64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

double loadF64(const unsigned char* p)
{
    double v;
    std::memcpy(&v, p, 8);
    return v;
}

std::string serializeFunctionTable(const std::vector<FunctionSpec>& fns)
{
    std::string table;
    for (const FunctionSpec& fn : fns) {
        putU32(table, static_cast<std::uint32_t>(fn.name.size()));
        putBytes(table, fn.name.data(), fn.name.size());
        putF64(table, fn.mem_mb);
        putF64(table, fn.cpu_units);
        putF64(table, fn.io_units);
        putI64(table, fn.warm_us);
        putI64(table, fn.cold_us);
    }
    return table;
}

/** Header bytes with the given final counts; checksum over first 56. */
std::string buildHeader(std::uint32_t chunk_capacity,
                        std::uint32_t name_bytes,
                        std::uint64_t num_functions,
                        std::uint64_t num_invocations,
                        std::uint64_t num_chunks,
                        std::uint64_t fn_table_bytes, bool sealed)
{
    std::string h;
    h.reserve(ftrace::kHeaderBytes);
    putBytes(h, ftrace::kMagic, 4);
    putU32(h, ftrace::kEndianness);
    putU32(h, ftrace::kVersion);
    putU32(h, chunk_capacity);
    putU32(h, name_bytes);
    putU32(h, 0);  // reserved
    putU64(h, num_functions);
    putU64(h, num_invocations);
    putU64(h, num_chunks);
    putU64(h, fn_table_bytes);
    putU64(h, sealed ? fnv1a64(std::string_view(h.data(), h.size())) : 0);
    return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer

FtraceWriter::FtraceWriter(const std::string& path, std::string name,
                           std::vector<FunctionSpec> functions,
                           std::uint32_t chunk_capacity)
    : path_(path), chunk_capacity_(chunk_capacity),
      num_functions_(functions.size())
{
    if (chunk_capacity_ == 0 || chunk_capacity_ > ftrace::kMaxChunkCapacity)
        throw std::runtime_error("ftrace: " + path_ +
                                 ": chunk_capacity: out of range");
    for (std::size_t i = 0; i < functions.size(); ++i) {
        if (functions[i].id != i)
            throw std::runtime_error(
                "ftrace: " + path_ + ": function table: id " +
                std::to_string(functions[i].id) + " at index " +
                std::to_string(i) + " (ids must be dense)");
        if (!functions[i].valid())
            throw std::runtime_error("ftrace: " + path_ +
                                     ": function table: function " +
                                     std::to_string(i) + " has invalid spec");
    }

    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_)
        throw std::runtime_error("ftrace: " + path_ + ": cannot open for write");

    const std::string table = serializeFunctionTable(functions);
    // Provisional header: zero checksum, so an unfinished file is rejected.
    const std::string header = buildHeader(
        chunk_capacity_, static_cast<std::uint32_t>(name.size()),
        num_functions_, 0, 0, table.size(), /*sealed=*/false);
    out_.write(header.data(), static_cast<std::streamsize>(header.size()));
    out_.write(name.data(), static_cast<std::streamsize>(name.size()));
    out_.write(table.data(), static_cast<std::streamsize>(table.size()));
    const std::uint64_t table_sum =
        fnv1a64(std::string_view(table.data(), table.size()));
    out_.write(reinterpret_cast<const char*>(&table_sum), 8);
    if (!out_)
        throw std::runtime_error("ftrace: " + path_ + ": write failed");

    name_bytes_cache_ = name.size();
    fn_table_bytes_cache_ = table.size();
    arrivals_.reserve(chunk_capacity_);
    funcs_.reserve(chunk_capacity_);
}

void FtraceWriter::append(const Invocation& inv)
{
    if (finished_)
        throw std::runtime_error("ftrace: " + path_ +
                                 ": append after finish()");
    if (inv.function >= num_functions_)
        throw std::runtime_error(
            "ftrace: " + path_ + ": append: function id " +
            std::to_string(inv.function) + " out of range (catalog " +
            std::to_string(num_functions_) + ")");
    if (appended_ > 0 && inv.arrival_us < prev_arrival_)
        throw std::runtime_error(
            "ftrace: " + path_ + ": append: arrival " +
            std::to_string(inv.arrival_us) + " out of order (previous " +
            std::to_string(prev_arrival_) + ")");
    prev_arrival_ = inv.arrival_us;
    arrivals_.push_back(inv.arrival_us);
    funcs_.push_back(inv.function);
    ++appended_;
    if (arrivals_.size() == chunk_capacity_)
        flushChunk();
}

void FtraceWriter::flushChunk()
{
    std::string chunk;
    chunk.reserve(ftrace::chunkStride(chunk_capacity_));
    putU32(chunk, static_cast<std::uint32_t>(arrivals_.size()));
    putU32(chunk, 0);
    for (TimeUs t : arrivals_)
        putI64(chunk, t);
    chunk.append((chunk_capacity_ - arrivals_.size()) * 8, '\0');
    for (FunctionId f : funcs_)
        putU32(chunk, f);
    chunk.append((chunk_capacity_ - funcs_.size()) * 4, '\0');
    putU64(chunk, fnv1a64(std::string_view(chunk.data(), chunk.size())));
    out_.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    if (!out_)
        throw std::runtime_error("ftrace: " + path_ + ": chunk write failed");
    ++num_chunks_;
    arrivals_.clear();
    funcs_.clear();
}

void FtraceWriter::finish()
{
    if (finished_)
        return;
    if (!arrivals_.empty())
        flushChunk();
    const std::string header = buildHeader(
        chunk_capacity_, static_cast<std::uint32_t>(name_bytes_cache_),
        num_functions_, appended_, num_chunks_, fn_table_bytes_cache_,
        /*sealed=*/true);
    out_.seekp(0);
    out_.write(header.data(), static_cast<std::streamsize>(header.size()));
    out_.flush();
    if (!out_)
        throw std::runtime_error("ftrace: " + path_ + ": header patch failed");
    out_.close();
    finished_ = true;
}

std::size_t writeFtraceFile(const std::string& path,
                            InvocationSource& source,
                            std::uint32_t chunk_capacity)
{
    source.reset();
    FtraceWriter writer(path, source.name(), source.functions(),
                        chunk_capacity);
    Invocation inv;
    while (source.next(inv))
        writer.append(inv);
    writer.finish();
    source.reset();
    return writer.appended();
}

// ---------------------------------------------------------------------------
// Region (the process-shared mapping)

namespace {

/** Process-wide registry: one live FtraceRegion per path string. */
std::mutex& regionRegistryMutex()
{
    static std::mutex m;
    return m;
}

std::unordered_map<std::string, std::weak_ptr<FtraceRegion>>&
regionRegistry()
{
    static std::unordered_map<std::string, std::weak_ptr<FtraceRegion>> r;
    return r;
}

}  // namespace

std::shared_ptr<FtraceRegion> FtraceRegion::open(const std::string& path)
{
    std::lock_guard<std::mutex> lock(regionRegistryMutex());
    auto& registry = regionRegistry();
    if (auto it = registry.find(path); it != registry.end()) {
        if (std::shared_ptr<FtraceRegion> live = it->second.lock())
            return live;
    }
    // Constructor may throw (validation); the registry is only updated
    // once the region is fully built.
    std::shared_ptr<FtraceRegion> region(new FtraceRegion(path));
    registry[path] = region;
    return region;
}

void FtraceRegion::fail(const std::string& field,
                        const std::string& problem) const
{
    throw std::runtime_error("ftrace: " + path_ + ": " + field + ": " +
                             problem);
}

FtraceRegion::FtraceRegion(const std::string& path) : path_(path)
{
    const int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0)
        fail("file", "cannot open");
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fail("file", "cannot stat");
    }
    map_bytes_ = static_cast<std::size_t>(st.st_size);
    if (map_bytes_ < ftrace::kHeaderBytes) {
        ::close(fd);
        fail("header", "truncated (" + std::to_string(map_bytes_) +
                           " bytes, need " +
                           std::to_string(ftrace::kHeaderBytes) + ")");
    }
    void* m = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (m == MAP_FAILED)
        fail("file", "mmap failed");
    map_ = static_cast<const unsigned char*>(m);

    const unsigned char* h = map_;
    if (std::memcmp(h, ftrace::kMagic, 4) != 0)
        fail("magic", "not an .ftrace file (want \"FTRC\")");
    const std::uint32_t endianness = loadU32(h + 4);
    if (endianness != ftrace::kEndianness) {
        if (endianness == 0x04030201u)
            fail("endianness",
                 "byte-swapped (file written on opposite-endian machine)");
        fail("endianness", "unrecognized marker " +
                               std::to_string(endianness));
    }
    const std::uint32_t version = loadU32(h + 8);
    if (version != ftrace::kVersion)
        fail("version", "unsupported version " + std::to_string(version) +
                            " (reader supports " +
                            std::to_string(ftrace::kVersion) + ")");
    chunk_capacity_ = loadU32(h + 12);
    if (chunk_capacity_ == 0 ||
        chunk_capacity_ > ftrace::kMaxChunkCapacity)
        fail("chunk_capacity",
             "out of range (" + std::to_string(chunk_capacity_) + ")");
    const std::uint32_t name_bytes = loadU32(h + 16);
    const std::uint64_t num_functions = loadU64(h + 24);
    num_invocations_ = loadU64(h + 32);
    num_chunks_ = loadU64(h + 40);
    const std::uint64_t fn_table_bytes = loadU64(h + 48);
    const std::uint64_t header_sum = loadU64(h + 56);
    const std::uint64_t expect_sum = fnv1a64(
        std::string_view(reinterpret_cast<const char*>(h), 56));
    if (header_sum != expect_sum)
        fail("header_checksum", "mismatch (file corrupt or unfinished)");

    const std::uint64_t expect_chunks =
        num_invocations_ == 0
            ? 0
            : (num_invocations_ + chunk_capacity_ - 1) / chunk_capacity_;
    if (num_chunks_ != expect_chunks)
        fail("num_chunks", "inconsistent with num_invocations (" +
                               std::to_string(num_chunks_) + " chunks for " +
                               std::to_string(num_invocations_) +
                               " invocations, expected " +
                               std::to_string(expect_chunks) + ")");

    const std::uint64_t stride = ftrace::chunkStride(chunk_capacity_);
    const std::uint64_t meta_bytes = ftrace::kHeaderBytes +
                                     std::uint64_t{name_bytes} +
                                     fn_table_bytes + 8;
    const std::uint64_t expect_size = meta_bytes + num_chunks_ * stride;
    if (map_bytes_ != expect_size)
        fail("file", "size mismatch (" + std::to_string(map_bytes_) +
                         " bytes, header implies " +
                         std::to_string(expect_size) + ")");

    name_.assign(reinterpret_cast<const char*>(map_) + ftrace::kHeaderBytes,
                 name_bytes);

    const unsigned char* table = map_ + ftrace::kHeaderBytes + name_bytes;
    const std::uint64_t table_sum = loadU64(table + fn_table_bytes);
    const std::uint64_t table_expect = fnv1a64(std::string_view(
        reinterpret_cast<const char*>(table), fn_table_bytes));
    if (table_sum != table_expect)
        fail("function_table_checksum", "mismatch");
    functions_.reserve(num_functions);
    std::uint64_t off = 0;
    for (std::uint64_t i = 0; i < num_functions; ++i) {
        if (off + 4 > fn_table_bytes)
            fail("function_table", "truncated at function " +
                                       std::to_string(i));
        const std::uint32_t name_len = loadU32(table + off);
        off += 4;
        if (off + name_len + 40 > fn_table_bytes)
            fail("function_table", "truncated at function " +
                                       std::to_string(i));
        FunctionSpec fn;
        fn.id = static_cast<FunctionId>(i);
        fn.name.assign(reinterpret_cast<const char*>(table) + off, name_len);
        off += name_len;
        fn.mem_mb = loadF64(table + off);
        fn.cpu_units = loadF64(table + off + 8);
        fn.io_units = loadF64(table + off + 16);
        fn.warm_us = loadI64(table + off + 24);
        fn.cold_us = loadI64(table + off + 32);
        off += 40;
        if (!fn.valid())
            fail("function_table",
                 "function " + std::to_string(i) + " has invalid spec");
        functions_.push_back(std::move(fn));
    }
    if (off != fn_table_bytes)
        fail("fn_table_bytes", "trailing bytes after last function (" +
                                   std::to_string(fn_table_bytes - off) +
                                   ")");
    chunks_off_ = static_cast<std::size_t>(meta_bytes);
}

FtraceRegion::~FtraceRegion()
{
    if (map_ != nullptr)
        ::munmap(const_cast<unsigned char*>(map_), map_bytes_);
}

void FtraceRegion::touchChunk(std::uint64_t chunk)
{
    // Fast path: chunks below the watermark are immutable once verified,
    // so a plain acquire load suffices and concurrent cursors never
    // contend after first touch.
    if (chunk < verified_chunks_.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lock(verify_mutex_);
    const std::uint64_t stride = ftrace::chunkStride(chunk_capacity_);
    while (verified_chunks_.load(std::memory_order_relaxed) <= chunk) {
        const std::uint64_t c =
            verified_chunks_.load(std::memory_order_relaxed);
        const unsigned char* base = map_ + chunks_off_ + c * stride;
        const std::uint64_t sum = loadU64(base + stride - 8);
        const std::uint64_t expect = fnv1a64(std::string_view(
            reinterpret_cast<const char*>(base), stride - 8));
        if (sum != expect)
            fail("chunk " + std::to_string(c), "checksum mismatch");
        const std::uint32_t count = loadU32(base);
        const std::uint64_t expect_count =
            c + 1 < num_chunks_
                ? chunk_capacity_
                : num_invocations_ - (num_chunks_ - 1) * chunk_capacity_;
        if (count != expect_count)
            fail("chunk " + std::to_string(c),
                 "bad count (" + std::to_string(count) + ", expected " +
                     std::to_string(expect_count) + ")");
        const unsigned char* arrivals = base + 8;
        const unsigned char* fns = base + 8 + std::uint64_t{chunk_capacity_} * 8;
        // verified_tail_arrival_ starts at 0, which doubles as the
        // arrival_us >= 0 floor Trace::validate() enforces.
        TimeUs prev = verified_tail_arrival_;
        for (std::uint32_t i = 0; i < count; ++i) {
            const TimeUs t = loadI64(arrivals + std::uint64_t{i} * 8);
            if (t < prev)
                fail("chunk " + std::to_string(c),
                     "arrivals out of order at entry " + std::to_string(i));
            prev = t;
            const FunctionId f = loadU32(fns + std::uint64_t{i} * 4);
            if (f >= functions_.size())
                fail("chunk " + std::to_string(c),
                     "function id " + std::to_string(f) +
                         " out of range at entry " + std::to_string(i));
        }
        verified_tail_arrival_ = prev;
        verified_chunks_.store(c + 1, std::memory_order_release);
    }
}

void FtraceRegion::releaseConsumed()
{
    // Release up to the slowest cursor: dropping pages a peer is still
    // streaming would be correct (they re-fault from the file) but would
    // defeat the point of sharing the mapping. A cursor that reset()
    // behind the watermark simply stalls further releases until it
    // catches up; its re-reads fault the pages back in.
    std::lock_guard<std::mutex> lock(cursors_mutex_);
    std::uint64_t min_pos = num_invocations_;
    for (const FtraceCursor* cursor : cursors_)
        min_pos = std::min(
            min_pos, cursor->pos_.load(std::memory_order_acquire));
    const std::uint64_t min_chunk = min_pos / chunk_capacity_;
    if (min_chunk <= released_chunks_)
        return;
    const std::uint64_t stride = ftrace::chunkStride(chunk_capacity_);
    const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t begin =
        (chunks_off_ + released_chunks_ * stride) / page * page;
    const std::size_t end =
        (chunks_off_ + min_chunk * stride) / page * page;
    if (end > begin)
        ::madvise(const_cast<unsigned char*>(map_) + begin, end - begin,
                  MADV_DONTNEED);
    released_chunks_ = min_chunk;
}

std::uint64_t FtraceRegion::releasedChunks() const
{
    std::lock_guard<std::mutex> lock(cursors_mutex_);
    return released_chunks_;
}

void FtraceRegion::registerCursor(const FtraceCursor* cursor)
{
    std::lock_guard<std::mutex> lock(cursors_mutex_);
    cursors_.push_back(cursor);
}

void FtraceRegion::unregisterCursor(const FtraceCursor* cursor)
{
    std::lock_guard<std::mutex> lock(cursors_mutex_);
    cursors_.erase(std::remove(cursors_.begin(), cursors_.end(), cursor),
                   cursors_.end());
}

std::unique_ptr<FtraceCursor> FtraceRegion::makeCursor()
{
    // open() is the only way to obtain a region and returns shared_ptr,
    // so shared_from_this() always has a control block to share.
    return std::make_unique<FtraceCursor>(shared_from_this());
}

// ---------------------------------------------------------------------------
// Cursor

FtraceCursor::FtraceCursor(std::shared_ptr<FtraceRegion> region)
    : region_(std::move(region))
{
    region_->registerCursor(this);
}

FtraceCursor::~FtraceCursor() { region_->unregisterCursor(this); }

bool FtraceCursor::enterChunk(std::uint64_t pos)
{
    const FtraceRegion& r = *region_;
    if (pos >= r.num_invocations_)
        return false;
    const std::uint64_t chunk = pos / r.chunk_capacity_;
    region_->touchChunk(chunk);
    const unsigned char* base = r.map_ + r.chunks_off_ +
        chunk * ftrace::chunkStride(r.chunk_capacity_);
    arrivals_ = base + 8;
    functions_ = base + 8 + std::uint64_t{r.chunk_capacity_} * 8;
    chunk_begin_ = chunk * r.chunk_capacity_;
    chunk_end_ =
        std::min(chunk_begin_ + r.chunk_capacity_, r.num_invocations_);
    return true;
}

bool FtraceCursor::peek(Invocation& out)
{
    const std::uint64_t pos = pos_.load(std::memory_order_relaxed);
    // Positions only move forward between resets, and reset() empties
    // the cache, so leaving the cached chunk means passing its end.
    if (pos >= chunk_end_ && !enterChunk(pos))
        return false;
    const std::uint64_t off = pos - chunk_begin_;
    out.arrival_us = loadI64(arrivals_ + off * 8);
    out.function = loadU32(functions_ + off * 4);
    return true;
}

bool FtraceCursor::next(Invocation& out)
{
    const std::uint64_t pos = pos_.load(std::memory_order_relaxed);
    if (!peek(out))
        return false;
    pos_.store(pos + 1, std::memory_order_release);
    // Crossing a chunk boundary: try to hand fully consumed chunks back
    // to the kernel so resident memory stays O(chunk) regardless of the
    // trace length. The region only drops chunks every cursor has passed.
    if (pos + 1 == chunk_begin_ + region_->chunk_capacity_)
        region_->releaseConsumed();
    return true;
}

void FtraceCursor::reset()
{
    pos_.store(0, std::memory_order_release);
    chunk_begin_ = 0;
    chunk_end_ = 0;
}

// ---------------------------------------------------------------------------
// Facade

FtraceSource::FtraceSource(const std::string& path)
    : region_(FtraceRegion::open(path)), cursor_(region_->makeCursor())
{
}

}  // namespace faascache
