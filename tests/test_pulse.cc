#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sys/resource.h>
#include <unistd.h>

#include "linalg/random_unitary.h"
#include "linalg/su2.h"
#include "linalg/weyl.h"
#include "pulse/device.h"
#include "pulse/evolve.h"
#include "pulse/library.h"
#include "pulse/schedule.h"
#include "pulse/serialize.h"
#include "sim/statevector.h"
#include "testutil.h"

namespace {

using namespace qpc;
using namespace qpc::testutil;

const double kPi = 3.14159265358979323846;

TEST(Device, GmonLineShape)
{
    const DeviceModel dev = DeviceModel::gmonLine(3);
    EXPECT_EQ(dev.dim(), 8);
    EXPECT_EQ(dev.couplings().size(), 2u);
    // charge + flux per qubit plus one coupler per edge.
    EXPECT_EQ(dev.numControls(), 8);
}

TEST(Device, ControlsAreHermitianAndBounded)
{
    for (int levels : {2, 3}) {
        const DeviceModel dev = DeviceModel::gmonLine(2, levels);
        for (const ControlChannel& ch : dev.controls()) {
            EXPECT_TRUE(ch.op.isHermitian(1e-12)) << ch.name;
            EXPECT_GT(ch.maxAmp, 0.0) << ch.name;
        }
    }
}

TEST(Device, AmplitudeAsymmetryIs15x)
{
    const DeviceModel dev = DeviceModel::gmonLine(1);
    const double charge = dev.controls()[0].maxAmp;
    const double flux = dev.controls()[1].maxAmp;
    EXPECT_NEAR(flux / charge, 15.0, 1e-9);
}

TEST(Device, QubitDriftIsZeroQutritAnharmonic)
{
    const DeviceModel qubit = DeviceModel::gmonLine(2, 2);
    EXPECT_NEAR(qubit.drift().maxAbs(), 0.0, 1e-12);
    const DeviceModel qutrit = DeviceModel::gmonLine(1, 3);
    EXPECT_NEAR(qutrit.drift()(2, 2).real(),
                qutrit.limits().anharmonicity, 1e-12);
}

TEST(Device, ComputationalIndices)
{
    const DeviceModel qutrit = DeviceModel::gmonLine(2, 3);
    const std::vector<int> comp = qutrit.computationalIndices();
    // Base-3 digit strings with digits < 2: 00,01,10,11 ->
    // 0, 1, 3, 4.
    ASSERT_EQ(comp.size(), 4u);
    EXPECT_EQ(comp[0], 0);
    EXPECT_EQ(comp[1], 1);
    EXPECT_EQ(comp[2], 3);
    EXPECT_EQ(comp[3], 4);
}

TEST(Device, EmbedUnitaryKeepsLeakageIdentity)
{
    const DeviceModel qutrit = DeviceModel::gmonLine(1, 3);
    const CMatrix embedded = qutrit.embedUnitary(pauliX());
    EXPECT_TRUE(embedded.isUnitary(1e-12));
    EXPECT_NEAR(std::abs(embedded(2, 2) - Complex{1.0, 0.0}), 0.0,
                1e-12);
    EXPECT_NEAR(std::abs(embedded(0, 1) - Complex{1.0, 0.0}), 0.0,
                1e-12);
}

TEST(Schedule, AppendConcatenates)
{
    PulseSchedule a(2, 3, 0.1);
    PulseSchedule b(2, 2, 0.1);
    a.channel(0)[0] = 1.0;
    b.channel(1)[1] = -2.0;
    a.append(b);
    EXPECT_EQ(a.numSamples(), 5);
    EXPECT_NEAR(a.durationNs(), 0.5, 1e-12);
    EXPECT_NEAR(a.channel(1)[4], -2.0, 1e-12);
    EXPECT_NEAR(a.maxAbsSample(), 2.0, 1e-12);
}

TEST(Schedule, RoughnessOfSmoothVsJagged)
{
    PulseSchedule smooth(1, 32, 1.0);
    PulseSchedule jagged(1, 32, 1.0);
    for (int k = 0; k < 32; ++k) {
        smooth.channel(0)[k] = 0.5;
        jagged.channel(0)[k] = (k % 2) ? 1.0 : -1.0;
    }
    EXPECT_NEAR(smooth.roughness(), 0.0, 1e-12);
    EXPECT_GT(jagged.roughness(), 1.0);
}

TEST(Evolve, ZeroPulseIsIdentity)
{
    const DeviceModel dev = DeviceModel::gmonLine(2);
    const PulseSchedule zeros(dev.numControls(), 10, 0.1);
    EXPECT_TRUE(evolveUnitary(dev, zeros)
                    .approxEqual(CMatrix::identity(4), 1e-10));
}

TEST(Evolve, TraceFidelityIsPhaseInvariant)
{
    Rng rng(61);
    const CMatrix u = haarUnitary(4, rng);
    EXPECT_NEAR(traceFidelity(u, u), 1.0, 1e-10);
    EXPECT_NEAR(traceFidelity(u, u * std::polar(1.0, 1.1)), 1.0,
                1e-10);
    EXPECT_LT(traceFidelity(u, haarUnitary(4, rng)), 0.9);
}

TEST(Library, RzPulsesAllAngles)
{
    const DeviceModel dev = DeviceModel::gmonLine(1);
    const GatePulseLibrary lib(dev, 0.01);
    for (double theta : {0.2, -0.7, 2.9, kPi}) {
        const CMatrix realized = evolveUnitary(dev, lib.rz(0, theta));
        EXPECT_GT(traceFidelity(rzMatrix(theta), realized), 0.9999)
            << "theta " << theta;
    }
}

TEST(Library, RxPulsesAllAngles)
{
    const DeviceModel dev = DeviceModel::gmonLine(1);
    const GatePulseLibrary lib(dev, 0.01);
    for (double theta : {0.2, -0.7, 2.9, kPi}) {
        const CMatrix realized = evolveUnitary(dev, lib.rx(0, theta));
        EXPECT_GT(traceFidelity(rxMatrix(theta), realized), 0.9999)
            << "theta " << theta;
    }
}

TEST(Library, RotationPulsesWrapWholeTurns)
{
    // Rz/Rx(theta + 2 pi k) is Rz/Rx(theta) up to global phase, so the
    // pulse is that of theta: same fidelity, same (short) duration, no
    // matter how many turns the binding carries.
    const DeviceModel dev = DeviceModel::gmonLine(1);
    const GatePulseLibrary lib(dev, 0.01);
    for (double theta : {0.5, -2.9}) {
        const int rz_samples = lib.rz(0, theta).numSamples();
        const int rx_samples = lib.rx(0, theta).numSamples();
        for (double k : {1.0, -3.0, 1e4, 1e6}) {
            const double turned = theta + 2.0 * kPi * k;
            const PulseSchedule rz = lib.rz(0, turned);
            const PulseSchedule rx = lib.rx(0, turned);
            EXPECT_EQ(rz.numSamples(), rz_samples) << turned;
            EXPECT_EQ(rx.numSamples(), rx_samples) << turned;
            EXPECT_GT(traceFidelity(rzMatrix(turned),
                                    evolveUnitary(dev, rz)),
                      0.9999)
                << turned;
            EXPECT_GT(traceFidelity(rxMatrix(turned),
                                    evolveUnitary(dev, rx)),
                      0.9999)
                << turned;
        }
    }
}

// Rx(0), Rz(0) and Rx(-0.0) are one identity rotation and share one
// cache entry, so they must serialize to the same bytes: no sample may
// carry a -0.0 whose sign follows the spelling of the angle.
TEST(Library, IdentityRotationsServeIdenticalBytes)
{
    const DeviceModel dev = DeviceModel::gmonLine(2);
    const GatePulseLibrary lib(dev, 0.01);
    const PulseSchedule pulses[] = {lib.rx(0, 0.0), lib.rz(0, 0.0),
                                    lib.rx(0, -0.0), lib.rz(0, -0.0),
                                    lib.xx(0, 1, 0.0), lib.xx(0, 1, -0.0)};
    for (const PulseSchedule& pulse : pulses)
        for (int c = 0; c < pulse.numChannels(); ++c)
            for (double v : pulse.channel(c))
                EXPECT_FALSE(std::signbit(v)) << "channel " << c;

    const std::vector<std::uint8_t> rx0 = serializePulseSchedule(pulses[0]);
    EXPECT_EQ(serializePulseSchedule(pulses[1]), rx0);
    EXPECT_EQ(serializePulseSchedule(pulses[2]), rx0);
    EXPECT_EQ(serializePulseSchedule(pulses[3]), rx0);
}

TEST(Library, PulsesRespectAmplitudeBounds)
{
    const DeviceModel dev = DeviceModel::gmonLine(2);
    const GatePulseLibrary lib(dev, 0.02);
    const PulseSchedule cx = lib.cx(0, 1);
    for (int c = 0; c < dev.numControls(); ++c) {
        const double bound = dev.controls()[c].maxAmp;
        for (double v : cx.channel(c))
            EXPECT_LE(std::abs(v), bound * (1.0 + 1e-9));
    }
}

TEST(Library, XxPulseHasCxClass)
{
    const DeviceModel dev = DeviceModel::gmonLine(2);
    const GatePulseLibrary lib(dev, 0.01);
    const CMatrix realized =
        evolveUnitary(dev, lib.xx(0, 1, -kPi / 4));
    const WeylCoords w = weylCoordinates(realized);
    EXPECT_NEAR(w.c1, kPi / 4, 1e-6);
    EXPECT_NEAR(w.c2, 0.0, 1e-6);
}

TEST(Library, CzAndSwapAreExact)
{
    const DeviceModel dev = DeviceModel::gmonLine(2);
    const GatePulseLibrary lib(dev, 0.01);
    EXPECT_GT(traceFidelity(gateMatrix(GateKind::CZ),
                            evolveUnitary(dev, lib.cz(0, 1))),
              0.999);
    EXPECT_GT(traceFidelity(gateMatrix(GateKind::SWAP),
                            evolveUnitary(dev, lib.swapGate(0, 1))),
              0.998);
}

TEST(Library, CompileCircuitMatchesCircuitUnitary)
{
    const DeviceModel dev = DeviceModel::gmonLine(2);
    const GatePulseLibrary lib(dev, 0.01);
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.rz(1, 0.7);
    c.ry(0, -0.4);
    const CMatrix target = circuitUnitary(c);
    const CMatrix realized =
        evolveUnitary(dev, lib.compileCircuit(c));
    EXPECT_GT(traceFidelity(target, realized), 0.998);
}

TEST(Schedule, SetChannelPreservesSampleCount)
{
    PulseSchedule pulse(2, 4, 0.1);
    pulse.setChannel(1, {1.0, 2.0, 3.0, 4.0});
    EXPECT_NEAR(pulse.channel(1)[3], 4.0, 1e-12);
    EXPECT_EQ(pulse.numSamples(), 4);
}

TEST(ScheduleDeathTest, RaggedChannelsPanic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    PulseSchedule pulse(2, 4, 0.1);
    // Desynchronize one channel through the mutable reference; the
    // invariant check in numSamples() must refuse to guess.
    pulse.channel(1).push_back(0.0);
    EXPECT_DEATH(pulse.numSamples(), "sample counts diverged");

    PulseSchedule other(2, 4, 0.1);
    EXPECT_DEATH(other.setChannel(0, {1.0, 2.0}),
                 "preserve the shared sample count");
}

TEST(Serialize, RoundTripIsBitExact)
{
    PulseSchedule pulse(3, 29, 0.05);
    Rng rng(17);
    for (int c = 0; c < 3; ++c)
        for (double& v : pulse.channel(c))
            v = rng.normal() * 1e3;
    // Values a lossy text format would mangle.
    pulse.channel(0)[0] = 1.0 / 3.0;
    pulse.channel(1)[1] = -0.0;
    pulse.channel(2)[2] = 5e-324; // Smallest subnormal.

    const std::vector<uint8_t> bytes = serializePulseSchedule(pulse);
    const auto back = deserializePulseSchedule(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->numChannels(), 3);
    EXPECT_EQ(back->numSamples(), 29);
    EXPECT_EQ(back->dt(), 0.05);
    for (int c = 0; c < 3; ++c)
        for (int s = 0; s < 29; ++s)
            EXPECT_EQ(back->channel(c)[s], pulse.channel(c)[s])
                << "channel " << c << " sample " << s;
    // Signed zero survives with its sign.
    EXPECT_TRUE(std::signbit(back->channel(1)[1]));
}

TEST(Serialize, EmptyScheduleRoundTrips)
{
    const PulseSchedule empty;
    const auto back =
        deserializePulseSchedule(serializePulseSchedule(empty));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->numChannels(), 0);
    EXPECT_EQ(back->numSamples(), 0);
}

TEST(Serialize, ZeroSampleScheduleRoundTrips)
{
    const PulseSchedule pulse(2, 0, 0.05);
    const auto back =
        deserializePulseSchedule(serializePulseSchedule(pulse));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->numChannels(), 2);
    EXPECT_EQ(back->numSamples(), 0);
    EXPECT_EQ(back->dt(), 0.05);
}

TEST(Serialize, RejectsMalformedBytes)
{
    const PulseSchedule pulse(2, 8, 0.05);
    std::vector<uint8_t> bytes = serializePulseSchedule(pulse);

    // Truncation.
    std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 1);
    EXPECT_FALSE(deserializePulseSchedule(truncated).has_value());
    // Bad magic.
    std::vector<uint8_t> magic = bytes;
    magic[0] ^= 0xff;
    EXPECT_FALSE(deserializePulseSchedule(magic).has_value());
    // Unknown version.
    std::vector<uint8_t> version = bytes;
    version[4] = 99;
    EXPECT_FALSE(deserializePulseSchedule(version).has_value());
    // Header shorter than the fixed fields.
    std::vector<uint8_t> stub(bytes.begin(), bytes.begin() + 10);
    EXPECT_FALSE(deserializePulseSchedule(stub).has_value());
    // Channel count inflated past the payload.
    std::vector<uint8_t> inflated = bytes;
    inflated[16] += 1;
    EXPECT_FALSE(deserializePulseSchedule(inflated).has_value());

    // The pristine copy still parses.
    EXPECT_TRUE(deserializePulseSchedule(bytes).has_value());
}

TEST(Serialize, EpochMetadataRoundTrips)
{
    const PulseSchedule pulse(2, 8, 0.05);
    const CalibrationEpoch stamped{42, 0xfeedULL};
    const std::vector<uint8_t> bytes =
        serializePulseSchedule(pulse, stamped);

    CalibrationEpoch back;
    const auto decoded = deserializePulseSchedule(bytes, &back);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(back, stamped);

    // Default stamp is the zero epoch.
    CalibrationEpoch zero{9, 9};
    ASSERT_TRUE(deserializePulseSchedule(serializePulseSchedule(pulse),
                                         &zero)
                    .has_value());
    EXPECT_EQ(zero, CalibrationEpoch{});
}

/** A version-1 record for `pulse`: the v2 header truncated to the
 * pre-epoch fields with the version field rewritten, then the
 * payload. Stands in for a record written before epoch keying. */
std::vector<uint8_t>
craftV1Record(const PulseSchedule& pulse)
{
    const std::vector<uint8_t> v2 = serializePulseSchedule(pulse);
    std::vector<uint8_t> v1;
    v1.reserve(v2.size() - 16);
    for (size_t i = 0; i < v2.size(); ++i)
        if (i < 28 || i >= 44) // Drop the epoch fields (28..43).
            v1.push_back(v2[i]);
    v1[4] = 1; // Version field (little-endian u32).
    return v1;
}

TEST(Serialize, VersionOneRecordsStillDeserialize)
{
    PulseSchedule pulse(2, 8, 0.05);
    pulse.channel(0)[3] = 1.0 / 3.0;
    const std::vector<uint8_t> v1 = craftV1Record(pulse);

    CalibrationEpoch epoch{7, 7};
    const auto back = deserializePulseSchedule(v1, &epoch);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->numChannels(), 2);
    EXPECT_EQ(back->numSamples(), 8);
    EXPECT_EQ(back->channel(0)[3], 1.0 / 3.0);
    // Pre-epoch records carry the zero epoch.
    EXPECT_EQ(epoch, CalibrationEpoch{});

    // Truncation rules hold for v1 exactly as for v2.
    std::vector<uint8_t> truncated(v1.begin(), v1.end() - 1);
    EXPECT_FALSE(deserializePulseSchedule(truncated).has_value());
}

TEST(Serialize, PeekEpochReadsOnlyTheHeader)
{
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "qpc_peek_epoch").string();
    fs::create_directories(dir);

    const PulseSchedule pulse(1, 10, 0.05);
    const CalibrationEpoch stamped{5, 77};
    ASSERT_TRUE(
        savePulseSchedule(dir + "/v2.qpulse", pulse, stamped));
    const auto peeked = peekPulseRecordEpoch(dir + "/v2.qpulse");
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(*peeked, stamped);

    // v1 records peek as the zero epoch.
    const std::vector<uint8_t> v1 = craftV1Record(pulse);
    {
        std::ofstream out(dir + "/v1.qpulse", std::ios::binary);
        out.write(reinterpret_cast<const char*>(v1.data()),
                  static_cast<std::streamsize>(v1.size()));
    }
    const auto legacy = peekPulseRecordEpoch(dir + "/v1.qpulse");
    ASSERT_TRUE(legacy.has_value());
    EXPECT_EQ(*legacy, CalibrationEpoch{});

    // Hostile headers peek as nullopt: truncated, bad magic, and a
    // v2 header cut off before its epoch fields.
    {
        std::ofstream out(dir + "/short.qpulse", std::ios::binary);
        out.write("QPL", 3);
    }
    EXPECT_FALSE(peekPulseRecordEpoch(dir + "/short.qpulse"));
    {
        const std::vector<uint8_t> v2 =
            serializePulseSchedule(pulse, stamped);
        std::ofstream out(dir + "/cut.qpulse", std::ios::binary);
        out.write(reinterpret_cast<const char*>(v2.data()), 30);
    }
    EXPECT_FALSE(peekPulseRecordEpoch(dir + "/cut.qpulse"));
    {
        std::vector<uint8_t> bad = craftV1Record(pulse);
        bad[0] ^= 0xff;
        std::ofstream out(dir + "/magic.qpulse", std::ios::binary);
        out.write(reinterpret_cast<const char*>(bad.data()),
                  static_cast<std::streamsize>(bad.size()));
    }
    EXPECT_FALSE(peekPulseRecordEpoch(dir + "/magic.qpulse"));
    EXPECT_FALSE(peekPulseRecordEpoch(dir + "/absent.qpulse"));

    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Fuzz-style corruption: malformed bytes must read as errors, never
// crash, and never produce a partially-loaded schedule — a corrupt
// cache record has to degrade to a cache miss.
// ---------------------------------------------------------------------

PulseSchedule
fuzzSeedPulse()
{
    PulseSchedule pulse(3, 13, 0.05);
    Rng rng(23);
    for (int c = 0; c < 3; ++c)
        for (double& v : pulse.channel(c))
            v = rng.normal();
    return pulse;
}

TEST(SerializeFuzz, EveryTruncationIsRejected)
{
    const std::vector<uint8_t> bytes =
        serializePulseSchedule(fuzzSeedPulse());
    // Exhaustive: every proper prefix of a valid record is malformed
    // (the header's channel/sample counts pin the exact payload size).
    for (size_t len = 0; len < bytes.size(); ++len) {
        const auto back = deserializePulseSchedule(bytes.data(), len);
        EXPECT_FALSE(back.has_value()) << "prefix length " << len;
    }
    EXPECT_TRUE(deserializePulseSchedule(bytes).has_value());
}

TEST(SerializeFuzz, FlippedVersionBytesAreRejected)
{
    const std::vector<uint8_t> bytes =
        serializePulseSchedule(fuzzSeedPulse());
    Rng rng(29);
    // Any single-bit disturbance of the 4 version bytes (offsets
    // 4..7) yields a version that is neither 1 nor 2 (flips of 2 give
    // {0, 3, 6, 10, ...}) and must be rejected, whichever byte and
    // bit.
    for (int offset = 4; offset < 8; ++offset)
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> flipped = bytes;
            flipped[offset] ^= static_cast<uint8_t>(1u << bit);
            EXPECT_FALSE(
                deserializePulseSchedule(flipped).has_value())
                << "version byte " << offset << " bit " << bit;
        }
}

TEST(SerializeFuzz, RaggedChannelCountsAreRejected)
{
    const std::vector<uint8_t> bytes =
        serializePulseSchedule(fuzzSeedPulse());
    // Rewrite the channel-count field (little-endian u32 at offset
    // 16) to every plausible lie: fewer channels than the payload
    // holds, more, zero, and absurdly many.
    for (uint32_t lie : {0u, 1u, 2u, 4u, 5u, 64u, 0x7fffffffu,
                         0xffffffffu}) {
        std::vector<uint8_t> ragged = bytes;
        for (int i = 0; i < 4; ++i)
            ragged[16 + i] = static_cast<uint8_t>(lie >> (8 * i));
        EXPECT_FALSE(deserializePulseSchedule(ragged).has_value())
            << "channel count " << lie;
    }
    // Same treatment for the sample count (u64 at offset 20).
    for (uint64_t lie : {0ull, 1ull, 12ull, 14ull, 1ull << 40}) {
        std::vector<uint8_t> ragged = bytes;
        for (int i = 0; i < 8; ++i)
            ragged[20 + i] = static_cast<uint8_t>(lie >> (8 * i));
        EXPECT_FALSE(deserializePulseSchedule(ragged).has_value())
            << "sample count " << lie;
    }
}

TEST(SerializeFuzz, RandomCorruptionNeverCrashesOrPartiallyLoads)
{
    const PulseSchedule original = fuzzSeedPulse();
    const std::vector<uint8_t> bytes =
        serializePulseSchedule(original);
    Rng rng(31);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<uint8_t> mutated = bytes;
        // 1-4 random byte flips anywhere in the record, plus an
        // occasional random resize.
        const int flips = 1 + rng.randint(0, 3);
        for (int f = 0; f < flips; ++f) {
            const int at =
                rng.randint(0, static_cast<int>(mutated.size()) - 1);
            mutated[at] ^= static_cast<uint8_t>(
                1u << rng.randint(0, 7));
        }
        if (rng.bernoulli(0.3))
            mutated.resize(
                rng.randint(0, static_cast<int>(mutated.size())));

        const auto back = deserializePulseSchedule(mutated);
        if (!back.has_value())
            continue;
        // A record that still parses must be *internally* whole:
        // header-consistent shape, usable without panics. (Payload
        // flips legitimately survive — bit-exact doubles carry no
        // checksum — but they can never yield a ragged schedule.)
        EXPECT_EQ(back->numChannels(), original.numChannels());
        EXPECT_EQ(back->numSamples(), original.numSamples());
        for (int c = 0; c < back->numChannels(); ++c)
            EXPECT_EQ(back->channel(c).size(),
                      static_cast<size_t>(back->numSamples()));
    }
}

TEST(SerializeFuzz, CorruptFilesLoadAsErrors)
{
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() /
         ("qpc_fuzz_files." + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    fs::create_directories(dir);

    const PulseSchedule pulse = fuzzSeedPulse();
    const std::string good = dir + "/good.qpulse";
    ASSERT_TRUE(savePulseSchedule(good, pulse));
    ASSERT_TRUE(loadPulseSchedule(good).has_value());

    // Truncated on disk.
    const std::string truncated = dir + "/truncated.qpulse";
    ASSERT_TRUE(savePulseSchedule(truncated, pulse));
    fs::resize_file(truncated, 21);
    EXPECT_FALSE(loadPulseSchedule(truncated).has_value());

    // Empty file, garbage file, missing file.
    const std::string empty = dir + "/empty.qpulse";
    std::ofstream(empty, std::ios::binary).close();
    EXPECT_FALSE(loadPulseSchedule(empty).has_value());
    const std::string garbage = dir + "/garbage.qpulse";
    {
        std::ofstream out(garbage, std::ios::binary);
        out << "this is not a pulse record at all, sorry";
    }
    EXPECT_FALSE(loadPulseSchedule(garbage).has_value());
    EXPECT_FALSE(
        loadPulseSchedule(dir + "/missing.qpulse").has_value());

    fs::remove_all(dir);
}

TEST(Serialize, FailedSavesLeaveNoTempFiles)
{
    // Regression: savePulseSchedule writes through a unique temp file,
    // so an error path that forgets to remove it leaks one orphan per
    // failure into the cache directory — forever, since nothing else
    // ever touches that name. Drive every failure mode and assert the
    // directory stays clean.
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() /
         ("qpc_save_fail." + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    fs::create_directories(dir);

    const auto tmp_files = [&dir] {
        int n = 0;
        for (const auto& entry : fs::directory_iterator(dir))
            if (entry.path().filename().string().find(".tmp.") !=
                std::string::npos)
                ++n;
        return n;
    };
    const PulseSchedule pulse(2, 64, 0.1);

    // Open failure: the parent directory does not exist.
    EXPECT_FALSE(
        savePulseSchedule(dir + "/no-such-dir/p.qpulse", pulse));

    // Rename failure: the target path is an existing directory, so
    // the temp file is written fine but cannot be published.
    fs::create_directories(dir + "/taken.qpulse");
    EXPECT_FALSE(savePulseSchedule(dir + "/taken.qpulse", pulse));
    EXPECT_EQ(tmp_files(), 0);

    // Write failure: a file-size rlimit below the record size makes
    // the temp-file write itself fail (SIGXFSZ ignored so it surfaces
    // as EFBIG on the write instead of killing the process).
    const PulseSchedule big(4, 8192, 0.1); // ~256 KiB record
    struct rlimit old_limit;
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
    struct rlimit small_limit = old_limit;
    small_limit.rlim_cur = 4096;
    auto prev_handler = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small_limit), 0);
    EXPECT_FALSE(savePulseSchedule(dir + "/big.qpulse", big));
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
    std::signal(SIGXFSZ, prev_handler);

    EXPECT_FALSE(fs::exists(dir + "/big.qpulse"));
    EXPECT_EQ(tmp_files(), 0);

    // The path still works once the obstacles are gone.
    EXPECT_TRUE(savePulseSchedule(dir + "/ok.qpulse", big));
    EXPECT_TRUE(loadPulseSchedule(dir + "/ok.qpulse").has_value());
    fs::remove_all(dir);
}

TEST(Evolve, SubspaceFidelityDetectsLeakage)
{
    const DeviceModel qutrit = DeviceModel::gmonLine(1, 3);
    // A pulse driving hard 1<->2 transitions leaks; identity target
    // fidelity on the subspace must drop below 1.
    PulseSchedule pulse(qutrit.numControls(), 50, 0.1);
    for (double& v : pulse.channel(0))
        v = qutrit.limits().chargeMax;
    const CMatrix realized = evolveUnitary(qutrit, pulse);
    const double fid =
        subspaceFidelity(qutrit, CMatrix::identity(2), realized);
    EXPECT_LT(fid, 0.99);
    EXPECT_GE(fid, 0.0);
}

} // namespace
