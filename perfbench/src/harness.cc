#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

namespace perfbench {

void
RunResult::invalidate(const std::string& why)
{
    correct = false;
    notes.push_back("check could not complete: " + why);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

void
idlePause()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {

std::uint64_t
fnvMix(std::uint64_t h, const void* data, std::size_t size)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

std::uint64_t
pulseDigest(const qpc::PulseSchedule& pulse, std::uint64_t h)
{
    const double dt = pulse.dt();
    const int channels = pulse.numChannels();
    h = fnvMix(h, &dt, sizeof dt);
    h = fnvMix(h, &channels, sizeof channels);
    for (int c = 0; c < channels; ++c) {
        const std::vector<double>& samples = pulse.channel(c);
        const std::size_t n = samples.size();
        h = fnvMix(h, &n, sizeof n);
        for (double v : samples) {
            // -0.0 + 0.0 == +0.0: a zero sample hashes the same
            // whatever its sign (see pulseDigest in harness.h).
            const double canonical = v + 0.0;
            h = fnvMix(h, &canonical, sizeof canonical);
        }
    }
    return h;
}

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 finalizer: nearby (seed, stream) pairs give unrelated
    // engine seeds.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench
