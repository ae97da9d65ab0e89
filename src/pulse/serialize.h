/**
 * @file
 * Binary (de)serialization of PulseSchedule.
 *
 * Format "QPLS" version 2, little-endian, bit-exact doubles:
 *
 *   bytes 0..3   magic "QPLS"
 *   u32          format version (currently 2)
 *   u64          IEEE-754 bits of dt
 *   u32          number of channels
 *   u64          samples per channel
 *   u64          calibration epoch counter        (v2)
 *   u64          device model hash                (v2)
 *   f64[]        channel samples, channel-major, raw IEEE-754 bits
 *
 * Version 1 records (no epoch fields, 28-byte header) still load and
 * report the zero epoch {0, 0}, so a pre-epoch disk tier stays
 * readable. Writers always emit version 2.
 *
 * Doubles travel as their raw bit patterns, so a round trip is exact
 * to the last ulp (including signed zeros and NaN payloads) — the
 * property the content-addressed pulse cache relies on. Deserialization
 * never trusts its input: malformed bytes yield nullopt, not a crash,
 * so a corrupt cache file degrades to a cache miss.
 */

#ifndef QPC_PULSE_SERIALIZE_H
#define QPC_PULSE_SERIALIZE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/calibration.h"
#include "pulse/schedule.h"

namespace qpc {

/** Current on-disk format version written by serializePulseSchedule. */
inline constexpr std::uint32_t kPulseFormatVersion = 2;

/**
 * Encode a schedule into the versioned binary format, stamping the
 * calibration epoch the pulse was synthesized against (the zero epoch
 * when epochs are not in use).
 */
std::vector<std::uint8_t>
serializePulseSchedule(const PulseSchedule& schedule,
                       const CalibrationEpoch& epoch = {});

/**
 * Append a schedule's record (exactly schedule.serializedBytes()
 * bytes, identical to serializePulseSchedule's) to `out` in place,
 * so a record can be encoded straight into a larger message body.
 */
void appendPulseSchedule(std::vector<std::uint8_t>& out,
                         const PulseSchedule& schedule,
                         const CalibrationEpoch& epoch = {});

/**
 * Decode a schedule; nullopt when the bytes are not a well-formed
 * version-1 or version-2 record (bad magic, unsupported version, size
 * mismatch, non-positive dt with channels present). When `epoch` is
 * non-null it receives the record's stamped calibration epoch (the
 * zero epoch for version-1 records).
 */
std::optional<PulseSchedule>
deserializePulseSchedule(const std::uint8_t* data, std::size_t size,
                         CalibrationEpoch* epoch = nullptr);

/** Convenience overload over a byte vector. */
std::optional<PulseSchedule>
deserializePulseSchedule(const std::vector<std::uint8_t>& bytes,
                         CalibrationEpoch* epoch = nullptr);

/**
 * Write a schedule to a file (atomically: temp file + rename, so a
 * concurrent reader never observes a half-written record). Returns
 * false on I/O failure.
 */
bool savePulseSchedule(const std::string& path,
                       const PulseSchedule& schedule,
                       const CalibrationEpoch& epoch = {});

/** Read a schedule from a file; nullopt on I/O error or bad bytes. */
std::optional<PulseSchedule>
loadPulseSchedule(const std::string& path,
                  CalibrationEpoch* epoch = nullptr);

/**
 * Read just the calibration epoch from a record's header without
 * loading the payload — the cheap probe disk-tier adoption uses to
 * decide whether an existing record is servable. Returns the zero
 * epoch for version-1 records, nullopt when the header is truncated,
 * has bad magic, or an unknown version.
 */
std::optional<CalibrationEpoch>
peekPulseRecordEpoch(const std::string& path);

} // namespace qpc

#endif // QPC_PULSE_SERIALIZE_H
