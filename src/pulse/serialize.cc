#include "pulse/serialize.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unistd.h>

namespace qpc {

namespace {

constexpr char kMagic[4] = {'Q', 'P', 'L', 'S'};

void
storeU32(std::uint8_t* p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
storeU64(std::uint8_t* p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
storeF64(std::uint8_t* p, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    storeU64(p, bits);
}

std::uint32_t
getU32(const std::uint8_t* p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t* p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

double
getF64(const std::uint8_t* p)
{
    const std::uint64_t bits = getU64(p);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

// Version 2 appends the calibration epoch (counter + model hash) to
// the version-1 header; everything before it is layout-identical so
// v1 records parse with the same offsets.
constexpr std::size_t kHeaderBytesV1 = 4 + 4 + 8 + 4 + 8;
constexpr std::size_t kHeaderBytes = kHeaderBytesV1 + 8 + 8;
static_assert(kHeaderBytes == kPulseRecordHeaderBytes,
              "PulseSchedule::serializedBytes() must track the record "
              "header size");

} // namespace

void
appendPulseSchedule(std::vector<std::uint8_t>& out,
                    const PulseSchedule& schedule,
                    const CalibrationEpoch& epoch)
{
    const int channels = schedule.numChannels();
    const std::size_t at = out.size();
    out.resize(at + schedule.serializedBytes());
    std::uint8_t* p = out.data() + at;
    std::memcpy(p, kMagic, 4);
    storeU32(p + 4, kPulseFormatVersion);
    storeF64(p + 8, schedule.dt());
    storeU32(p + 16, static_cast<std::uint32_t>(channels));
    storeU64(p + 20, static_cast<std::uint64_t>(schedule.numSamples()));
    storeU64(p + 28, epoch.counter);
    storeU64(p + 36, epoch.modelHash);
    p += kHeaderBytes;
    for (int c = 0; c < channels; ++c)
        for (double v : schedule.channel(c)) {
            storeF64(p, v);
            p += 8;
        }
}

std::vector<std::uint8_t>
serializePulseSchedule(const PulseSchedule& schedule,
                       const CalibrationEpoch& epoch)
{
    std::vector<std::uint8_t> out;
    appendPulseSchedule(out, schedule, epoch);
    return out;
}

std::optional<PulseSchedule>
deserializePulseSchedule(const std::uint8_t* data, std::size_t size,
                         CalibrationEpoch* epoch)
{
    if (data == nullptr || size < kHeaderBytesV1)
        return std::nullopt;
    if (std::memcmp(data, kMagic, 4) != 0)
        return std::nullopt;
    const std::uint32_t version = getU32(data + 4);
    if (version != 1 && version != kPulseFormatVersion)
        return std::nullopt;
    const std::size_t header =
        version == 1 ? kHeaderBytesV1 : kHeaderBytes;
    if (size < header)
        return std::nullopt;
    const double dt = getF64(data + 8);
    const std::uint64_t channels = getU32(data + 16);
    const std::uint64_t samples = getU64(data + 20);
    CalibrationEpoch meta;
    if (version != 1) {
        meta.counter = getU64(data + 28);
        meta.modelHash = getU64(data + 36);
    }

    // Guard the multiplication, and both int casts below: a record
    // whose counts overflow int must read as malformed, not abort in
    // the PulseSchedule constructor.
    if (channels > (1u << 20) ||
        samples > static_cast<std::uint64_t>(INT32_MAX))
        return std::nullopt;
    const std::uint64_t payload = channels * samples * 8;
    if (size != header + payload)
        return std::nullopt;

    if (channels == 0) {
        // The empty schedule round-trips to the default object.
        if (dt != 0.0)
            return std::nullopt;
        if (epoch != nullptr)
            *epoch = meta;
        return PulseSchedule();
    }
    if (!(dt > 0.0))
        return std::nullopt;

    PulseSchedule schedule(static_cast<int>(channels),
                           static_cast<int>(samples), dt);
    const std::uint8_t* p = data + header;
    for (std::uint64_t c = 0; c < channels; ++c) {
        std::vector<double>& ch = schedule.channel(static_cast<int>(c));
        for (std::uint64_t s = 0; s < samples; ++s, p += 8)
            ch[s] = getF64(p);
    }
    if (epoch != nullptr)
        *epoch = meta;
    return schedule;
}

std::optional<PulseSchedule>
deserializePulseSchedule(const std::vector<std::uint8_t>& bytes,
                         CalibrationEpoch* epoch)
{
    return deserializePulseSchedule(bytes.data(), bytes.size(), epoch);
}

bool
savePulseSchedule(const std::string& path, const PulseSchedule& schedule,
                  const CalibrationEpoch& epoch)
{
    const std::vector<std::uint8_t> bytes =
        serializePulseSchedule(schedule, epoch);
    // Unique temp name per writer: concurrent savers of the same path
    // (two processes sharing a cache directory, or two threads racing
    // past the single-flight map) must never interleave into one temp
    // file, or the atomic-rename guarantee publishes garbage.
    static std::atomic<std::uint64_t> save_counter{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(save_counter.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            // The open may still have created an empty file (e.g. a
            // permission change between create and write); removing a
            // nonexistent path is harmless.
            std::remove(tmp.c_str());
            return false;
        }
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out) {
            // A failed write (disk full, quota, rlimit) must not leak
            // the unique temp file: nothing else ever renames or
            // removes it, so an unremoved temp accumulates forever in
            // the cache directory.
            out.close();
            std::remove(tmp.c_str());
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::optional<PulseSchedule>
loadPulseSchedule(const std::string& path, CalibrationEpoch* epoch)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof())
        return std::nullopt;
    return deserializePulseSchedule(bytes, epoch);
}

std::optional<CalibrationEpoch>
peekPulseRecordEpoch(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::uint8_t header[kHeaderBytes];
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got < kHeaderBytesV1)
        return std::nullopt;
    if (std::memcmp(header, kMagic, 4) != 0)
        return std::nullopt;
    const std::uint32_t version = getU32(header + 4);
    if (version == 1)
        return CalibrationEpoch{};
    if (version != kPulseFormatVersion || got < kHeaderBytes)
        return std::nullopt;
    CalibrationEpoch epoch;
    epoch.counter = getU64(header + 28);
    epoch.modelHash = getU64(header + 36);
    return epoch;
}

} // namespace qpc
