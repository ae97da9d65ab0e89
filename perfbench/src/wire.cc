/**
 * @file
 * wire_serve and wire_pulses: the warm serve path over the unix socket.
 *
 * A closed loop of two tenants, one connection each, no think time,
 * against `qpc_serverd --quantize --workers=2` at its default cache
 * size. Each client serves uniformly random bindings of the QAOA
 * MAXCUT benchmark template (6-node 3-regular graph, p = 2).
 * wire_pulses sets want_pulses on every Serve, as a client that plays
 * the pulses on hardware must, so each reply carries ~1.5 MB of pulse
 * records: the same layers as wire_serve, used for bulk replies.
 *
 * Output check: a seeded sample of the replies is compared with an
 * in-process CompileService::serve of the same binding on an
 * identically prepared plan (pulse duration, segment count, snap
 * bound and, for wire_pulses, every decoded sample bit). A refused,
 * failed or mismatched serve counts as a failed operation.
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/benchcommon.h"
#include "harness.h"
#include "partial/strict.h"
#include "qaoa/maxcut.h"
#include "runtime/service.h"
#include "server/client.h"
#include "server/protocol.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace qpc;

constexpr int kTenants = 2;
/** Daemon set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 16;
/** Replies each tenant keeps for the output check: its first
 * kSampleHead serves (their mean duration is pulse_ns), then every
 * kSampleStride-th serve up to kSampleMax. */
constexpr int kSampleHead = 16;
constexpr int kSampleStride = 64;
constexpr int kSampleMax = 32;
/** The measured closed loop runs on kSegments fresh daemons, each cut
 * into kWindowsPerSegment time windows (see Windows). */
constexpr int kSegments = 4;
constexpr int kWindowsPerSegment = 10;

/** The QAOA MAXCUT template every tenant uploads. */
Circuit
wireTemplate()
{
    return bench::qaoaBenchmarkCircuit(
        bench::qaoaBenchmarkGraph("3reg", 6, 11), 2);
}

/** Service options identical to the daemon's command line below. */
CompileServiceOptions
daemonServiceOptions()
{
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.maxQueuedJobs = 64;
    options.quantization.enabled = true;
    options.quantization.bins = 1024;
    return options;
}

/** One spawned qpc_serverd, stopped (SIGTERM, then SIGKILL) and
 * reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string& binary, const std::string& socket)
    {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe2 failed");
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
        const std::string socket_arg = "--socket=" + socket;
        const char* argv[] = {binary.c_str(), socket_arg.c_str(),
                              "--quantize", "--workers=2",
                              "--log-level=warn", nullptr};
        const int rc = posix_spawn(&pid_, binary.c_str(), &actions,
                                   nullptr,
                                   const_cast<char* const*>(argv),
                                   environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(fds[1]);
        out_ = fds[0];
        if (rc != 0) {
            pid_ = -1;
            ::close(out_);
            out_ = -1;
            throw std::runtime_error("cannot spawn " + binary + ": " +
                                     std::strerror(rc));
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Block until the daemon prints its listening line. */
    bool waitListening(int timeout_ms)
    {
        std::string seen;
        const Clock::time_point t0 = Clock::now();
        while (seen.find("listening") == std::string::npos) {
            const int left =
                timeout_ms -
                static_cast<int>(secondsSince(t0) * 1000.0);
            pollfd pfd{out_, POLLIN, 0};
            if (left <= 0 || ::poll(&pfd, 1, left) <= 0)
                return false;
            char buf[256];
            const ssize_t n = ::read(out_, buf, sizeof buf);
            if (n <= 0)
                return false;
            seen.append(buf, static_cast<std::size_t>(n));
        }
        // Nothing else on stdout matters; the daemon ignores SIGPIPE.
        ::close(out_);
        out_ = -1;
        return true;
    }

    void stop()
    {
        if (out_ >= 0) {
            ::close(out_);
            out_ = -1;
        }
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        int status = 0;
        for (int i = 0; i < 1000; ++i) {
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            ::usleep(10000);
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
    int out_ = -1;
};

/** A listening daemon plus one prepared, prewarmed connection per
 * tenant. */
struct WireSession
{
    std::unique_ptr<Daemon> daemon;
    std::string socket;
    std::unique_ptr<CompileClient> clients[kTenants];
    std::uint64_t plans[kTenants] = {};
};

/** Spawn until listening, then Hello, PrepareServing and Prewarm for
 * every tenant: everything a user pays before the first serve. */
void
setUp(WireSession& s, const RunConfig& config, const Circuit& circuit,
      int rep)
{
    s.socket = config.outDir + "/qpcd-" + std::to_string(::getpid()) +
               "-" + std::to_string(rep) + ".sock";
    ::unlink(s.socket.c_str());
    s.daemon = std::make_unique<Daemon>(config.daemon, s.socket);
    if (!s.daemon->waitListening(30000))
        throw std::runtime_error("daemon did not start listening");
    for (int t = 0; t < kTenants; ++t) {
        auto client = std::make_unique<CompileClient>();
        if (!client->connectUnix(s.socket) ||
            !client->hello("tenant-" + std::to_string(t)))
            throw std::runtime_error("connect/hello failed: " +
                                     client->lastError());
        const auto prep = client->prepareServing(circuit);
        if (!prep || !client->prewarm(prep->planId))
            throw std::runtime_error("prepare/prewarm failed: " +
                                     client->lastError());
        s.plans[t] = prep->planId;
        s.clients[t] = std::move(client);
    }
}

void
tearDown(WireSession& s)
{
    for (auto& client : s.clients)
        client.reset();
    if (s.daemon)
        s.daemon->stop();
    s.daemon.reset();
    ::unlink(s.socket.c_str());
}

/** One reply kept for the output check. */
struct SampledReply
{
    std::vector<double> theta;
    double pulseNs = 0.0;
    std::uint32_t numSegments = 0;
    double quantErrorBound = 0.0;
    std::uint64_t digest = 0;
    bool head = false; ///< Among the tenant's first kSampleHead serves.
};

/** Digest of a served program's segments, in program order. */
template <class Pulses, class Get>
std::uint64_t
programDigest(const Pulses& pulses, Get get)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const auto& p : pulses)
        h = pulseDigest(get(p), h);
    return h;
}

/** What one closed-loop phase observed. */
struct LoopStats
{
    std::vector<double> latencyNs; ///< Successful serves only.
    std::vector<double> doneS;     ///< Their completion, s from start.
    std::uint64_t attempted = 0;
    std::uint64_t refused = 0;
    std::uint64_t quantMisses = 0;
    double wallSeconds = 0.0;
    std::vector<SampledReply> sampled;

    /** Fold another phase's serves in (wallSeconds is left alone). */
    void merge(LoopStats&& other)
    {
        latencyNs.insert(latencyNs.end(), other.latencyNs.begin(),
                         other.latencyNs.end());
        doneS.insert(doneS.end(), other.doneS.begin(), other.doneS.end());
        attempted += other.attempted;
        refused += other.refused;
        quantMisses += other.quantMisses;
        for (SampledReply& r : other.sampled)
            sampled.push_back(std::move(r));
    }
};

/**
 * Closed loop: every tenant serves its own seeded binding stream back
 * to back until the deadline (or, when max_serves > 0, for exactly
 * that many serves). Stream `phase` keeps the phases of one run on
 * distinct bindings.
 */
LoopStats
closedLoop(WireSession& s, int tenants, int num_params,
           const RunConfig& config, std::uint64_t phase, double seconds,
           int max_serves, bool want_pulses)
{
    std::vector<LoopStats> per(static_cast<std::size_t>(tenants));
    std::atomic<bool> stop{false};
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int t = 0; t < tenants; ++t) {
        threads.emplace_back([&, t] {
            LoopStats& out = per[static_cast<std::size_t>(t)];
            CompileClient& client = *s.clients[t];
            Rng rng(streamSeed(config.seed, phase * 16 + t));
            int kept = 0;
            for (int i = 0; max_serves > 0 ? i < max_serves
                                           : !stop.load();
                 ++i) {
                const std::vector<double> theta =
                    rng.angles(num_params);
                std::optional<CompileClient::ServeReply> reply;
                const double ns = timedSpan("client.serve", [&] {
                    reply = client.serve(s.plans[t], theta, want_pulses);
                });
                ++out.attempted;
                if (!reply) {
                    ++out.refused;
                } else {
                    out.latencyNs.push_back(ns);
                    out.doneS.push_back(secondsSince(t0));
                    out.quantMisses += reply->quantMisses;
                    const bool head = i < kSampleHead;
                    if (kept < kSampleMax &&
                        (head || i % kSampleStride == 0)) {
                        SampledReply r;
                        r.theta = theta;
                        r.pulseNs = reply->pulseNs;
                        r.numSegments = reply->numSegments;
                        r.quantErrorBound = reply->quantErrorBound;
                        r.head = head;
                        if (want_pulses)
                            r.digest = programDigest(
                                reply->pulses,
                                [](const PulseSchedule& p)
                                    -> const PulseSchedule& {
                                    return p;
                                });
                        out.sampled.push_back(std::move(r));
                        ++kept;
                    }
                }
                if (max_serves <= 0 && Clock::now() >= deadline)
                    stop.store(true);
            }
        });
    }
    for (std::thread& th : threads)
        th.join();
    LoopStats all;
    all.wallSeconds = secondsSince(t0);
    for (LoopStats& p : per)
        all.merge(std::move(p));
    return all;
}

/**
 * Per-window p50, p99 and completed serves per second of closed-loop
 * phases cut into equal time windows. The reported figures are their
 * medians across windows, so a host hiccup shorter than half the
 * measurement moves a few windows, not the figure.
 */
struct Windows
{
    std::vector<double> p50Ns, p99Ns, perSecond;

    Windows() = default;
    Windows(const LoopStats& loop, int windows) { add(loop, windows); }

    void add(const LoopStats& loop, int windows)
    {
        const double len = loop.wallSeconds / windows;
        std::vector<std::vector<double>> lat(
            static_cast<std::size_t>(windows));
        for (std::size_t i = 0; i < loop.latencyNs.size(); ++i) {
            const int w = std::min(windows - 1,
                                   static_cast<int>(loop.doneS[i] / len));
            lat[static_cast<std::size_t>(w)].push_back(loop.latencyNs[i]);
        }
        for (const std::vector<double>& l : lat) {
            p50Ns.push_back(quantile(l, 0.5));
            p99Ns.push_back(quantile(l, 0.99));
            perSecond.push_back(static_cast<double>(l.size()) / len);
        }
    }

    std::string rates() const
    {
        std::string out;
        for (double r : perSecond)
            out += " " + std::to_string(static_cast<long>(r));
        return out;
    }
};

/** The in-process reference: same options, template and prewarm as
 * the daemon. */
struct Mirror
{
    Mirror()
        : service(daemonServiceOptions()),
          plan(service.prepareServing(strictPartition(wireTemplate())))
    {
        service.precompilePlan(plan);
        service.prewarmQuantizedBins(plan);
        prewarmEvictions = service.cacheStats().evictions;
    }
    CompileService service;
    ServingPlan plan;
    /** Entries the prewarm itself pushed out of the default-sized
     * cache: its shard skew, before a single serve. */
    std::uint64_t prewarmEvictions = 0;
};

/** Compare sampled wire replies with in-process serves; returns the
 * number of mismatches. */
std::uint64_t
checkReplies(Mirror& mirror, const std::vector<SampledReply>& sampled,
             bool want_pulses, RunResult& result)
{
    std::uint64_t mismatches = 0;
    for (const SampledReply& r : sampled) {
        const ServedPulse ref = mirror.service.serve(mirror.plan, r.theta);
        bool ok = r.pulseNs == ref.pulseNs &&
                  r.numSegments == ref.segments.size() &&
                  r.quantErrorBound == ref.quantErrorBound;
        if (want_pulses)
            ok = ok && r.digest == programDigest(
                                       ref.segments,
                                       [](const PulsePtr& p)
                                           -> const PulseSchedule& {
                                           return *p;
                                       });
        if (!ok && ++mismatches <= 3) {
            char line[200];
            std::snprintf(line, sizeof line,
                          "reply differs: pulse_ns %.17g vs %.17g, "
                          "segments %u vs %zu, bound %.17g vs %.17g",
                          r.pulseNs, ref.pulseNs, r.numSegments,
                          ref.segments.size(), r.quantErrorBound,
                          ref.quantErrorBound);
            result.note(line);
        }
    }
    if (mismatches)
        result.note(std::to_string(mismatches) + " of " +
                    std::to_string(sampled.size()) +
                    " sampled replies differ from the in-process serve");
    return mismatches;
}

/** Mean pulse duration of the tenants' first serves: the same
 * bindings for a given seed, so the value is deterministic. */
double
headPulseNs(const std::vector<SampledReply>& sampled)
{
    double sum = 0.0;
    int n = 0;
    for (const SampledReply& r : sampled)
        if (r.head) {
            sum += r.pulseNs;
            ++n;
        }
    return n ? sum / n : 0.0;
}

/** Histogram of a Metrics frame by exact name (empty if absent). */
HistogramSnapshot
findHistogram(const MetricsSnapshot& m, const std::string& name)
{
    for (const auto& h : m.histograms)
        if (h.name == name)
            return h.histogram;
    return {};
}

/** Account a phase's serves and checks into the result. */
void
account(RunResult& result, const LoopStats& loop, Mirror& mirror,
        bool want_pulses)
{
    result.attempted += loop.attempted;
    result.failed +=
        loop.refused + checkReplies(mirror, loop.sampled, want_pulses,
                                    result);
    if (loop.refused)
        result.note(std::to_string(loop.refused) + " serves refused");
    if (loop.sampled.empty())
        result.invalidate("no reply was sampled for the output check");
}

} // namespace

RunResult
runWireWorkload(const RunConfig& config, bool want_pulses)
{
    if (config.daemon.empty())
        throw std::runtime_error("wire workloads need --daemon");
    RunResult result;
    const Circuit circuit = wireTemplate();
    const int num_params = circuit.numParams();

    // Set-up: setup_s is the median of kSetupReps full daemon
    // set-ups. An untraced run measures on the last kSegments of them,
    // a traced run on the last of the others.
    WireSession session;
    std::vector<double> setups;
    const auto freshDaemon = [&] {
        tearDown(session);
        const int rep = static_cast<int>(setups.size());
        idlePause();
        setups.push_back(timedSpan("bench.setup", [&] {
                             setUp(session, config, circuit, rep);
                         }) /
                         1e9);
    };
    for (int rep = 0; rep < kSetupReps - kSegments; ++rep)
        freshDaemon();

    if (!config.trace) {
        // The measured loop is split over kSegments daemons, so one
        // daemon's luck in memory placement or core assignment moves a
        // share of the windows, not the figure.
        Windows windows;
        LoopStats all;
        for (int seg = 0; seg < kSegments; ++seg) {
            freshDaemon();
            LoopStats loop =
                closedLoop(session, kTenants, num_params, config,
                           static_cast<std::uint64_t>(seg),
                           config.seconds / kSegments, 0, want_pulses);
            windows.add(loop, kWindowsPerSegment);
            all.merge(std::move(loop));
        }
        tearDown(session);
        Mirror mirror;
        account(result, all, mirror, want_pulses);
        EndToEnd e;
        e.setupS = median(setups);
        e.latencyMs = median(windows.p50Ns) / 1e6;
        e.throughputPerS = median(windows.perSecond);
        e.pulseNs = headPulseNs(all.sampled);
        addEndToEnd(result, e);
        result.note("serve samples: " +
                    std::to_string(all.latencyNs.size()) + " in " +
                    std::to_string(windows.perSecond.size()) +
                    " windows, serves/s:" + windows.rates());
        return result;
    }

    // Traced run, on the last set-up's daemon. First the miss count:
    // one tenant, a fixed binding stream, straight after the prewarm.
    const int counted = want_pulses ? 1000 : 3000;
    qpc::setTraceEnabled(false);
    const LoopStats fixed = closedLoop(session, 1, num_params, config,
                                       kSegments, 0.0, counted, want_pulses);
    // Untraced and traced halves of the closed loop; their p50 ratio
    // is the tracing overhead.
    const LoopStats plain =
        closedLoop(session, kTenants, num_params, config, kSegments + 1,
                   config.seconds / 2, 0, want_pulses);
    qpc::setTraceEnabled(true);
    const LoopStats traced =
        closedLoop(session, kTenants, num_params, config, kSegments + 2,
                   config.seconds / 2, 0, want_pulses);

    // The ServeOk payload size of a prebuilt Serve, as the raw
    // protocol carries it.
    WireWriter w = beginMessage(MsgType::Serve);
    w.u64(session.plans[0]);
    w.u8(want_pulses ? 1 : 0);
    Rng payload_rng(streamSeed(config.seed, 77));
    const std::vector<double> payload_theta =
        payload_rng.angles(num_params);
    w.u32(static_cast<std::uint32_t>(num_params));
    for (double t : payload_theta)
        w.f64(t);
    const std::vector<std::uint8_t> payload = w.take();
    std::optional<std::vector<std::uint8_t>> raw;
    timedSpan("protocol.roundtrip",
              [&] { raw = session.clients[0]->roundTrip(payload); });
    ++result.attempted;
    if (!raw || peekMessage(*raw) != MsgType::ServeOk)
        ++result.failed;

    const std::optional<MetricsSnapshot> server =
        session.clients[0]->metrics();
    if (!server)
        result.invalidate("Metrics frame failed");
    tearDown(session);
    const MetricsSnapshot metrics = server.value_or(MetricsSnapshot{});
    const double span_p50 =
        findHistogram(metrics, "qpc_serve_us").percentileNs(50);
    const double handle_p50 =
        findHistogram(metrics, "qpc_server_handle_us{type=\"Serve\"}")
            .percentileNs(50);

    // In-process layers on an identically prepared plan.
    Mirror mirror;
    for (const LoopStats* loop : {&fixed, &plain, &traced})
        account(result, *loop, mirror, want_pulses);
    Layers layers;
    const PauliHamiltonian hamiltonian =
        maxcutCostHamiltonian(bench::qaoaBenchmarkGraph("3reg", 6, 11));
    probeLayers({wireTemplate, daemonServiceOptions(), &mirror.service,
                 &mirror.plan, &hamiltonian, config.seed},
                layers, result);

    // Shares of the untraced client p50. The service span and the
    // handler around it (frame decode, gate, reply encode and write)
    // come from the daemon's histograms; the client's own decode is
    // the pulse records it deserializes, none on wire_serve. The rest
    // -- socket syscalls, wake-ups, session scheduling -- is not
    // attributed to any layer.
    const double client_p50 = quantile(plain.latencyNs, 0.5);
    layers.runtimeShare = span_p50 / client_p50;
    layers.serverShare = (handle_p50 - span_p50) / client_p50;
    if (want_pulses)
        layers.decodeShare = layers.deserializeUs * 1e3 / client_p50;
    // The client tail has no regression bound: it follows the host's
    // preemptions more than the program.
    layers.latencyP99Ms =
        median(Windows(plain, kWindowsPerSegment).p99Ns) / 1e6;
    layers.traceOverheadShare =
        quantile(traced.latencyNs, 0.5) / client_p50 - 1.0;
    layers.quantMisses = static_cast<double>(fixed.quantMisses);
    layers.cacheEvictions = static_cast<double>(mirror.prewarmEvictions);
    layers.replyBytes = raw ? static_cast<double>(raw->size()) : 0.0;
    addLayers(result, layers);
    result.note("cache.quant_misses counted over " +
                std::to_string(counted) + " serves of one tenant");
    return result;
}

} // namespace perfbench
