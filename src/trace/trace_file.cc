#include "trace/trace_file.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/mmap_file.hh"

namespace cameo
{

namespace
{

constexpr std::size_t kRawHeaderBytes = 8 + 4 + 8 + 4;
constexpr std::size_t kRawRecordBytes = 8 + 8 + 4 + 1 + 3;
constexpr std::size_t kPackedHeaderBytes = 8 + 4 + 8 + 8 + 4 + 4 + 4 + 4;
constexpr std::size_t kCheckpointBytes = 8 + 8 + 8;

void
put32(void *dst, std::uint32_t v)
{
    std::memcpy(dst, &v, sizeof(v));
}

void
put64(void *dst, std::uint64_t v)
{
    std::memcpy(dst, &v, sizeof(v));
}

std::uint32_t
get32(const void *src)
{
    std::uint32_t v;
    std::memcpy(&v, src, sizeof(v));
    return v;
}

std::uint64_t
get64(const void *src)
{
    std::uint64_t v;
    std::memcpy(&v, src, sizeof(v));
    return v;
}

Access
decodeRawRecord(const std::uint8_t *rec)
{
    Access a;
    a.pc = get64(rec);
    a.vaddr = get64(rec + 8);
    a.gapInstructions = get32(rec + 16);
    a.isWrite = (rec[20] & 1) != 0;
    a.dependsOnPrev = (rec[20] & 2) != 0;
    return a;
}

/** Printable rendering of the magic actually found in a bad file. */
std::string
renderBytes(const std::uint8_t *data, std::size_t n)
{
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
        const char c = static_cast<char>(data[i]);
        if (c >= 0x20 && c < 0x7f) {
            out += c;
        } else {
            char hex[8];
            std::snprintf(hex, sizeof(hex), "\\x%02x", data[i]);
            out += hex;
        }
    }
    return out;
}

bool
setError(std::string *error, const std::string &path,
         const std::string &detail)
{
    if (error != nullptr)
        *error = "trace file " + path + ": " + detail;
    return false;
}

/** Map @p path whole; nullptr (with @p error filled) on failure. */
std::shared_ptr<MmapFile>
mapTraceFile(const std::string &path, std::string *error)
{
    auto map = std::make_shared<MmapFile>(path);
    if (!map->valid()) {
        setError(error, path, map->error());
        return nullptr;
    }
    return map;
}

/** Decoded header of either format. */
struct ParsedHeader
{
    TraceFormat format = TraceFormat::Raw;
    std::uint64_t count = 0;
    std::uint64_t payloadBytes = 0;    // Packed only.
    std::uint32_t checkpointCount = 0; // Packed only.
    std::uint32_t metaLength = 0;      // Packed only.
    std::size_t headerBytes = 0;
};

bool
parseHeader(const std::string &path, const std::uint8_t *data,
            std::size_t size, ParsedHeader *out, std::string *error)
{
    if (size < 12) {
        return setError(error, path,
                        "expected at least 12 header bytes (magic + "
                        "version), found " +
                            std::to_string(size));
    }
    if (std::memcmp(data, kTraceMagic, 8) != 0) {
        return setError(error, path,
                        "bad magic at offset 0: expected \"CAMEOTRC\", "
                        "found \"" +
                            renderBytes(data, 8) + "\"");
    }
    const std::uint32_t version = get32(data + 8);

    if (version == static_cast<std::uint32_t>(TraceFormat::Raw)) {
        if (size < kRawHeaderBytes) {
            return setError(error, path,
                            "truncated header: version-1 header needs " +
                                std::to_string(kRawHeaderBytes) +
                                " bytes, found " + std::to_string(size));
        }
        out->format = TraceFormat::Raw;
        out->count = get64(data + 12);
        out->headerBytes = kRawHeaderBytes;
        if (out->count == 0)
            return setError(error, path, "empty trace (0 records)");
        const std::uint64_t expected =
            kRawHeaderBytes + out->count * kRawRecordBytes;
        if (size < expected) {
            const std::uint64_t record =
                (size - kRawHeaderBytes) / kRawRecordBytes;
            return setError(
                error, path,
                "truncated at offset " + std::to_string(size) +
                    ": record " + std::to_string(record) + " of " +
                    std::to_string(out->count) + " is incomplete (" +
                    std::to_string(out->count) + " records need " +
                    std::to_string(expected) + " bytes, found " +
                    std::to_string(size) + ")");
        }
        if (size > expected) {
            return setError(error, path,
                            std::to_string(size - expected) +
                                " trailing bytes after the last record "
                                "at offset " +
                                std::to_string(expected));
        }
        return true;
    }

    if (version == static_cast<std::uint32_t>(TraceFormat::Packed)) {
        if (size < kPackedHeaderBytes) {
            return setError(error, path,
                            "truncated header: version-2 header needs " +
                                std::to_string(kPackedHeaderBytes) +
                                " bytes, found " + std::to_string(size));
        }
        out->format = TraceFormat::Packed;
        out->count = get64(data + 12);
        out->payloadBytes = get64(data + 20);
        out->checkpointCount = get32(data + 28);
        const std::uint32_t interval = get32(data + 32);
        out->metaLength = get32(data + 36);
        out->headerBytes = kPackedHeaderBytes;
        if (out->count == 0)
            return setError(error, path, "empty trace (0 records)");
        if (interval != kTraceCheckpointInterval) {
            return setError(error, path,
                            "unsupported checkpoint interval " +
                                std::to_string(interval) +
                                " at offset 32 (this build uses " +
                                std::to_string(kTraceCheckpointInterval) +
                                ")");
        }
        const std::uint64_t expected =
            kPackedHeaderBytes + out->metaLength +
            static_cast<std::uint64_t>(out->checkpointCount) *
                kCheckpointBytes +
            out->payloadBytes;
        if (size != expected) {
            return setError(
                error, path,
                "body size mismatch: header promises " +
                    std::to_string(expected) + " bytes (meta " +
                    std::to_string(out->metaLength) + " + " +
                    std::to_string(out->checkpointCount) +
                    " checkpoints + payload " +
                    std::to_string(out->payloadBytes) + "), found " +
                    std::to_string(size));
        }
        return true;
    }

    return setError(error, path,
                    "unsupported trace version " +
                        std::to_string(version) +
                        " at offset 8 (this build reads 1 and 2)");
}

/**
 * Fill @p out from a mapped, header-parsed version-2 file: it keeps
 * the mapping and copies out only the checkpoint table.
 */
bool
parsePackedBody(const std::string &path, std::shared_ptr<MmapFile> map,
                const ParsedHeader &header, PackedTraceFile *out,
                std::string *error)
{
    assert(header.format == TraceFormat::Packed);
    const std::uint8_t *cursor = map->data() + header.headerBytes;
    out->meta.assign(reinterpret_cast<const char *>(cursor),
                     header.metaLength);
    cursor += header.metaLength;

    std::vector<TraceCheckpoint> checkpoints(header.checkpointCount);
    for (std::uint32_t i = 0; i < header.checkpointCount; ++i) {
        checkpoints[i].byteOffset = get64(cursor);
        checkpoints[i].pc = get64(cursor + 8);
        checkpoints[i].vaddr = get64(cursor + 16);
        cursor += kCheckpointBytes;
    }

    out->map = std::move(map);
    out->checkpoints = std::move(checkpoints);
    out->view = PackedTraceView{cursor, header.payloadBytes,
                                out->checkpoints.data(),
                                out->checkpoints.size(), header.count};

    std::string detail;
    if (!validatePackedTrace(out->view, &detail))
        return setError(error, path, detail);
    return true;
}

/** Serialize a version-2 file body into @p out_stream. */
bool
writePackedBytes(std::ofstream &out_stream, const PackedTraceView &view,
                 const std::string &meta)
{
    std::array<char, kPackedHeaderBytes> header{};
    std::memcpy(header.data(), kTraceMagic, 8);
    put32(header.data() + 8,
          static_cast<std::uint32_t>(TraceFormat::Packed));
    put64(header.data() + 12, view.count);
    put64(header.data() + 20, view.byteSize);
    put32(header.data() + 28,
          static_cast<std::uint32_t>(view.numCheckpoints));
    put32(header.data() + 32,
          static_cast<std::uint32_t>(kTraceCheckpointInterval));
    put32(header.data() + 36,
          static_cast<std::uint32_t>(meta.size()));
    put32(header.data() + 40, 0); // reserved
    out_stream.write(header.data(), header.size());
    out_stream.write(meta.data(),
                     static_cast<std::streamsize>(meta.size()));
    for (std::uint64_t i = 0; i < view.numCheckpoints; ++i) {
        std::array<char, kCheckpointBytes> cp{};
        put64(cp.data(), view.checkpoints[i].byteOffset);
        put64(cp.data() + 8, view.checkpoints[i].pc);
        put64(cp.data() + 16, view.checkpoints[i].vaddr);
        out_stream.write(cp.data(), cp.size());
    }
    out_stream.write(reinterpret_cast<const char *>(view.bytes),
                     static_cast<std::streamsize>(view.byteSize));
    return out_stream.good();
}

} // namespace

TraceWriter::TraceWriter(const std::string &path, TraceFormat format,
                         std::string meta)
    : out_(path, std::ios::binary | std::ios::trunc), format_(format),
      meta_(std::move(meta))
{
    if (!out_)
        return;
    if (format_ == TraceFormat::Raw) {
        std::array<char, kRawHeaderBytes> header{};
        std::memcpy(header.data(), kTraceMagic, 8);
        put32(header.data() + 8,
              static_cast<std::uint32_t>(TraceFormat::Raw));
        put64(header.data() + 12, 0); // record count patched on close
        put32(header.data() + 20, 0); // reserved
        out_.write(header.data(), header.size());
    }
    good_ = out_.good();
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const Access &access)
{
    if (!good_ || closed_)
        return;
    if (format_ == TraceFormat::Packed) {
        encoder_.append(access);
        ++count_;
        return;
    }
    std::array<char, kRawRecordBytes> rec{};
    put64(rec.data(), access.pc);
    put64(rec.data() + 8, access.vaddr);
    put32(rec.data() + 16, access.gapInstructions);
    rec[20] = static_cast<char>((access.isWrite ? 1 : 0) |
                                (access.dependsOnPrev ? 2 : 0));
    out_.write(rec.data(), rec.size());
    ++count_;
}

void
TraceWriter::close()
{
    if (closed_ || !good_)
        return;
    closed_ = true;
    if (format_ == TraceFormat::Packed) {
        const PackedTrace packed = encoder_.take();
        good_ = writePackedBytes(out_, packed.view(), meta_);
        out_.close();
        good_ = good_ && !out_.fail();
        return;
    }
    // Patch the record count into the header.
    out_.seekp(12, std::ios::beg);
    std::array<char, 8> count_bytes{};
    put64(count_bytes.data(), count_);
    out_.write(count_bytes.data(), count_bytes.size());
    out_.close();
    good_ = !out_.fail();
}

TraceReader::TraceReader(const std::string &path)
{
    std::string error;
    std::shared_ptr<MmapFile> map = mapTraceFile(path, &error);
    if (map == nullptr)
        throw std::runtime_error(error);

    ParsedHeader header;
    if (!parseHeader(path, map->data(), map->size(), &header, &error))
        throw std::runtime_error(error);
    format_ = header.format;
    count_ = header.count;

    if (format_ == TraceFormat::Raw) {
        rawBase_ = map->data() + header.headerBytes;
        map_ = std::move(map);
        return;
    }

    PackedTraceFile file;
    if (!parsePackedBody(path, std::move(map), header, &file, &error))
        throw std::runtime_error(error);
    meta_ = std::move(file.meta);
    map_ = std::move(file.map);
    checkpoints_ = std::move(file.checkpoints);
    // Rebuild the view against the member the checkpoints now live in.
    view_ = PackedTraceView{file.view.bytes, file.view.byteSize,
                            checkpoints_.data(), checkpoints_.size(),
                            count_};
    packedCursor_.emplace(view_);
}

TraceReader::~TraceReader() = default;

void
TraceReader::refill(Access *buf, std::size_t n)
{
    if (format_ == TraceFormat::Packed) {
        packedCursor_->refill(buf, n);
        return;
    }
    // Raw records decode straight out of the mapping.
    for (std::size_t i = 0; i < n; ++i) {
        buf[i] = decodeRawRecord(rawBase_ + cursor_ * kRawRecordBytes);
        if (++cursor_ == count_)
            cursor_ = 0;
    }
}

void
TraceReader::skip(std::uint64_t n)
{
    if (format_ == TraceFormat::Packed) {
        packedCursor_->skip(n);
        return;
    }
    // Raw records are fixed-width: a skip is cursor arithmetic.
    cursor_ = (cursor_ + n) % count_;
}

void
TraceReader::rewind()
{
    cursor_ = 0;
    if (packedCursor_)
        packedCursor_->rewind();
}

bool
writePackedTraceFile(const std::string &path, const PackedTraceView &view,
                     const std::string &meta, std::string *error)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return setError(error, path, "cannot open for writing");
    if (!writePackedBytes(out, view, meta))
        return setError(error, path, "write failed");
    out.close();
    if (out.fail())
        return setError(error, path, "close failed");
    return true;
}

bool
loadPackedTraceFile(const std::string &path, PackedTraceFile *out,
                    std::string *error)
{
    std::shared_ptr<MmapFile> map = mapTraceFile(path, error);
    if (map == nullptr)
        return false;
    ParsedHeader header;
    if (!parseHeader(path, map->data(), map->size(), &header, error))
        return false;
    if (header.format != TraceFormat::Packed) {
        return setError(error, path,
                        "is a version-1 raw trace; expected a packed "
                        "(version-2) trace");
    }
    return parsePackedBody(path, std::move(map), header, out, error);
}

std::uint64_t
recordTrace(AccessSource &source, const std::string &path,
            std::uint64_t count, TraceFormat format)
{
    TraceWriter writer(path, format);
    if (!writer.good())
        return 0;
    std::array<Access, 256> chunk;
    std::uint64_t left = count;
    while (left > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, chunk.size()));
        source.refill(chunk.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            writer.append(chunk[i]);
        left -= n;
    }
    writer.close();
    return writer.good() ? writer.recordsWritten() : 0;
}

} // namespace cameo
