/**
 * @file
 * txn_bench — host cost of one simulated transaction attempt.
 *
 * Builds one workload::Cluster (classic single-simulator mode), populates
 * it, warms it up, and drives a closed-loop workload::RetwisWorkload
 * through a measured window of simulated time. It reports the host time,
 * heap traffic and memory that window cost per transaction attempt
 * (commit or abort), and checks the simulated outputs.
 *
 *   txn_bench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Each run sets the same cluster up three times (A, B, C, same seed) and
 * measures one window on each. A and C advance the window in fixed
 * simulated slices, each slice timed; B advances it with one runUntil.
 * All three must produce the same sim digest: A vs C checks that a seed
 * repeats, A vs B checks that slicing does not perturb the simulation.
 *
 * Host times of A and C and all set-ups are corrected for host-speed
 * drift by an interleaved reference computation (DriftGauge); the raw
 * times are printed too.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 additionally runs
 * the window once more with the cluster's trace log, metrics registry
 * and InvariantMonitor on, times one call into each layer's public API
 * on a small fixture (the ladder), and prints the per-layer metrics.
 *
 * Every layer is measured from outside: heap traffic through an
 * interposed operator new, counters through the public StatSet
 * accessors and the metrics registry, spans through the trace log's
 * observer hook. The last line of stdout is one JSON object:
 *   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory_resource>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "clocksync/sync.hh"
#include "common/histogram.hh"
#include "common/invariant_monitor.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "flash/ssd.hh"
#include "ftl/dram.hh"
#include "ftl/mftl.hh"
#include "net/network.hh"
#include "semel/client.hh"
#include "semel/server.hh"
#include "semel/shard_map.hh"
#include "sim/future.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

// ---------------------------------------------------------------------
// Interposed allocation counter (the sim_core/store_core idiom): every
// global new/delete in this binary funnels through here, so allocation
// counts are exact.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_allocCalls{0};
std::atomic<std::uint64_t> g_allocBytes{0};

void *
countedAlloc(std::size_t size)
{
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(size, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        std::abort();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

using common::Duration;
using common::kMicrosecond;
using common::kMillisecond;
using common::kSecond;
using common::Time;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;

using HostClock = std::chrono::steady_clock;

double
secondsSince(HostClock::time_point start)
{
    return std::chrono::duration<double>(HostClock::now() - start).count();
}

// ---------------------------------------------------------------------
// Host-speed drift correction
// ---------------------------------------------------------------------

/**
 * On a shared host (a VM with busy neighbours) the speed available to
 * one process can drift by tens of percent over seconds to minutes, so
 * raw host times of one seed differ that much between runs, however
 * long each run measures. The gauge runs a fixed reference computation
 * (ordered-map churn and table reads, the shape of the simulator's own
 * work) between groups of measured slices and scales the host time
 * measured next to it by kNominalSeconds / (the reference's time). Host
 * times are reported in seconds of a host that runs the reference chunk
 * in kNominalSeconds; raw times are printed beside them.
 *
 * The reference allocates from a private arena, never through global
 * operator new, so it does not disturb the counted heap. It warms its
 * cache-resident working set (~1 MB) before each timed chunk, and its
 * memory reads go to a 64 MB table no cache holds, so its time does not
 * depend on what the simulator left in the caches.
 */
class DriftGauge
{
  public:
    /** The timed chunk's duration on the VM of README.md when calm. */
    static constexpr double kNominalSeconds = 1.5e-3;

    DriftGauge()
    {
        for (std::size_t i = 0; i < table_.size(); ++i)
            table_[i] = i * 2654435761u;
    }

    /**
     * Run one reference chunk; returns the correction factor for the
     * host time measured since the previous sample. The factor uses
     * the median of the last kWindow chunk times: the drift moves over
     * hundreds of milliseconds, one chunk's time is noisier than that.
     */
    double
    sample()
    {
        step(kWarmOps);
        const auto t0 = HostClock::now();
        step(kTimedOps);
        const double secs = secondsSince(t0);
        sampled_ += secs;
        recent_[samples_ % kWindow] = secs;
        ++samples_;
        const std::size_t n = std::min<std::uint64_t>(samples_, kWindow);
        std::array<double, kWindow> sorted = recent_;
        std::sort(sorted.begin(), sorted.begin() + n);
        return kNominalSeconds / sorted[n / 2];
    }

    /** Mean reference chunk time so far (the printed drift). */
    double meanSeconds() const { return samples_ ? sampled_ / samples_ : 0; }

  private:
    static constexpr int kWarmOps = 1000;
    static constexpr int kTimedOps = 4000;
    static constexpr std::size_t kWindow = 5;

    void
    step(int n)
    {
        for (int i = 0; i < n; ++i) {
            x_ ^= x_ << 13;
            x_ ^= x_ >> 7;
            x_ ^= x_ << 17;
            map_[x_ & 0x3fff] = x_;
            if (i & 1)
                map_.erase((x_ >> 20) & 0x3fff);
            sink_ += table_[(x_ >> 3) & (table_.size() - 1)];
            // Every fourth step, one dependent read far outside any
            // cache: the simulator's time depends on memory latency too.
            if ((i & 3) == 0)
                chase_ = (chase_ * 0x9E3779B97F4A7C15ull +
                          far_[chase_ & (far_.size() - 1)]) >>
                         7;
        }
        sink_ += chase_;
        if (sink_ == 42) // keep the reads observable
            std::fputc(' ', stderr);
    }

    std::vector<std::byte> arena_ = std::vector<std::byte>(16u << 20);
    std::pmr::monotonic_buffer_resource upstream_{
        arena_.data(), arena_.size(), std::pmr::null_memory_resource()};
    std::pmr::unsynchronized_pool_resource pool_{&upstream_};
    std::pmr::map<std::uint64_t, std::uint64_t> map_{&pool_};
    std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(1u << 16);
    std::vector<std::uint64_t> far_ =
        std::vector<std::uint64_t>(8u << 20, 12345); // 64 MB
    std::uint64_t chase_ = 1;
    std::uint64_t x_ = 88172645463325252ull;
    std::uint64_t sink_ = 0;
    std::array<double, kWindow> recent_{};
    double sampled_ = 0;
    std::uint64_t samples_ = 0;
};

/** Slices per drift-gauge sample in a sliced window. */
constexpr int kSlicesPerGauge = 5;

/** Simulated warm-up before the measured window (paper: 1 s). */
constexpr Duration kWarmup = kSecond;
/** Measured windows start and end on multiples of this, so the
 *  metrics registry's windows tile the measured window exactly. */
constexpr Duration kMetricsInterval = 100 * kMillisecond;
/** Simulated length of one timed slice of a sliced window. */
constexpr Duration kSlice = 10 * kMillisecond;

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload
{
    std::string name;
    ClusterConfig cluster;
    RetwisConfig retwis;
    /**
     * Simulated seconds of measured window per requested host second,
     * calibrated on the VM README.md describes: a run of --seconds S
     * simulates three windows of S * simPerHostSecond / 3 each, so
     * the measured host time is about S there. Fixed per workload, so
     * a given (workload, seed, seconds) always simulates the same span.
     */
    double simPerHostSecond = 1.0;
};

std::optional<Workload>
findWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    ClusterConfig &c = w.cluster;
    RetwisConfig &r = w.retwis;
    if (name == "replicated_mixed") {
        // ROADMAP's reference cell: every layer active.
        c.numShards = 3;
        c.replicasPerShard = 3;
        c.numClients = 16;
        c.backend = BackendKind::Mftl;
        c.clocks = ClockKind::PtpSw;
        c.numKeys = 50'000;
        r.alpha = 0.8;
        w.simPerHostSecond = 1.25;
    } else if (name == "contended_single") {
        // Figure 6's single-node cell at high contention.
        c.numShards = 1;
        c.replicasPerShard = 1;
        c.numClients = 32;
        c.backend = BackendKind::Mftl;
        c.clocks = ClockKind::Perfect;
        c.numKeys = 20'000;
        c.net.oneWayMean = 5 * kMicrosecond;
        c.net.oneWaySigma = 1 * kMicrosecond;
        c.net.minLatency = 1 * kMicrosecond;
        r.alpha = 0.99;
        w.simPerHostSecond = 5.5;
    } else if (name == "readheavy_dram_ntp") {
        // Figure 7/8's worst clock case on a flash-free store.
        c.numShards = 3;
        c.replicasPerShard = 3;
        c.numClients = 16;
        c.backend = BackendKind::Dram;
        c.clocks = ClockKind::Ntp;
        c.numKeys = 50'000;
        c.localValidation = true;
        r.alpha = 0.8;
        r.readHeavy = true;
        w.simPerHostSecond = 2.4;
    } else {
        return std::nullopt;
    }
    r.numKeys = c.numKeys;
    return w;
}

// ---------------------------------------------------------------------
// Counters, read by name through the public StatSet accessors
// ---------------------------------------------------------------------

using Counters = std::map<std::string, std::uint64_t>;

void
addAll(Counters &out, const std::string &prefix, const common::StatSet &s)
{
    for (const auto &[name, counter] : s.counters())
        out[prefix + name] += counter.value();
}

/**
 * Every StatSet counter the benchmark reads, flattened under a source
 * prefix: client., server., net., clock., and ftl.primary./ftl.backup.
 * for the storage backends behind primaries and backups.
 */
Counters
readCounters(Cluster &cluster)
{
    Counters out;
    addAll(out, "client.", cluster.clientStats());
    addAll(out, "server.", cluster.serverStats());
    addAll(out, "net.", cluster.network().stats());
    addAll(out, "clock.", cluster.clockStats());
    for (std::size_t i = 0; i < cluster.numServers(); ++i) {
        milana::MilanaServer &server = cluster.server(i);
        const bool primary =
            cluster.master().primaryOf(server.shard()) == server.nodeId();
        addAll(out, primary ? "ftl.primary." : "ftl.backup.",
               server.backend().stats());
    }
    return out;
}

Counters
minus(const Counters &after, const Counters &before)
{
    Counters out = after;
    for (const auto &[name, value] : before)
        out[name] -= std::min(out[name], value);
    return out;
}

std::uint64_t
get(const Counters &c, const std::string &name)
{
    const auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
}

/** Sum of counters whose names start with @p prefix and end with
 *  @p suffix (e.g. every backend's ".puts"). */
std::uint64_t
sumMatching(const Counters &c, const std::string &prefix,
            const std::string &suffix)
{
    std::uint64_t total = 0;
    for (const auto &[name, value] : c) {
        if (name.size() >= prefix.size() + suffix.size() &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            total += value;
    }
    return total;
}

/**
 * Flash counters summed over every SSD. The devices are private to
 * Cluster, so they are read from the metrics registry's flash.* series
 * (counter deltas per window), over the windows that start at or after
 * @p from. The one place that knows those series names.
 */
struct FlashCounts
{
    double reads = 0;
    double programs = 0;
    double erases = 0;
};

FlashCounts
readFlashCounters(const common::TimeSeriesLog &log, Time from)
{
    FlashCounts out;
    for (const common::TimeSeriesLog::Series *s : log.sorted()) {
        double *slot = s->name == "flash.ssd.reads"      ? &out.reads
                       : s->name == "flash.ssd.programs" ? &out.programs
                       : s->name == "flash.ssd.erases"   ? &out.erases
                                                         : nullptr;
        if (slot == nullptr)
            continue;
        if (s->dropped() != 0) {
            std::fprintf(stderr, "txn_bench: metrics ring dropped %s "
                                 "windows\n",
                         s->name.c_str());
            std::exit(3);
        }
        for (const common::MetricPoint &p : s->points())
            if (p.windowStart >= from)
                *slot += p.value;
    }
    return out;
}

// ---------------------------------------------------------------------
// Sim digest
// ---------------------------------------------------------------------

struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    void
    add(const std::string &s)
    {
        for (const unsigned char ch : s) {
            h ^= ch;
            h *= 1099511628211ull;
        }
        add(s.size());
    }
};

/** Commits, aborts by reason, events executed and the latency
 *  histogram of one measured window. */
std::uint64_t
simDigest(std::uint64_t commits, std::uint64_t aborts,
          std::uint64_t events, const common::StatSet &clients,
          const common::Histogram &latency)
{
    Fnv f;
    f.add(commits);
    f.add(aborts);
    f.add(events);
    for (const auto &[name, counter] : clients.counters()) {
        if (name.rfind("txn.abort.", 0) == 0) {
            f.add(name);
            f.add(counter.value());
        }
    }
    f.add(latency.count());
    f.add(static_cast<std::uint64_t>(latency.min()));
    f.add(static_cast<std::uint64_t>(latency.max()));
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999})
        f.add(static_cast<std::uint64_t>(latency.quantile(q)));
    const double mean = latency.mean();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &mean, sizeof bits);
    f.add(bits);
    return f.h;
}

// ---------------------------------------------------------------------
// Span self time (traced run)
// ---------------------------------------------------------------------

/**
 * Per-layer simulated self time from the trace stream: a span's
 * duration minus the part of it covered by its child spans (children
 * still open when the parent ends count up to the parent's end). The
 * layer is the span name's first component (net, semel, milana, flash).
 */
class SpanSelfTime
{
  public:
    void
    onEvent(const common::TraceEvent &e, bool measuring)
    {
        if (e.kind == common::TraceKind::SpanBegin) {
            if (!measuring)
                return;
            Open &o = open_[e.span];
            o.layer = e.name.substr(0, e.name.find('.'));
            o.begin = e.trueTime;
            o.parent = e.parentSpan;
            if (auto it = open_.find(e.parentSpan); it != open_.end())
                it->second.openKids.push_back(e.span);
        } else if (e.kind == common::TraceKind::SpanEnd) {
            const auto it = open_.find(e.span);
            if (it == open_.end())
                return;
            Open o = std::move(it->second);
            open_.erase(it);
            const Time end = e.trueTime;
            if (auto p = open_.find(o.parent); p != open_.end()) {
                auto &kids = p->second.openKids;
                kids.erase(std::remove(kids.begin(), kids.end(), e.span),
                           kids.end());
                p->second.closedKids.emplace_back(o.begin, end);
            }
            for (const std::uint64_t kid : o.openKids)
                if (auto k = open_.find(kid); k != open_.end())
                    o.closedKids.emplace_back(k->second.begin, end);
            selfNs_[o.layer] += static_cast<double>(
                (end - o.begin) - covered(o.closedKids, o.begin, end));
        }
    }

    double
    selfNs(const std::string &layer) const
    {
        const auto it = selfNs_.find(layer);
        return it == selfNs_.end() ? 0.0 : it->second;
    }

  private:
    struct Open
    {
        std::string layer;
        Time begin = 0;
        std::uint64_t parent = 0;
        std::vector<std::uint64_t> openKids;
        std::vector<std::pair<Time, Time>> closedKids;
    };

    /** Length of the union of @p spans clipped to [lo, hi]. */
    static Time
    covered(std::vector<std::pair<Time, Time>> &spans, Time lo, Time hi)
    {
        std::sort(spans.begin(), spans.end());
        Time total = 0;
        Time reach = lo;
        for (auto [b, e] : spans) {
            b = std::max(b, reach);
            e = std::min(e, hi);
            if (e > b) {
                total += e - b;
                reach = e;
            }
        }
        return total;
    }

    std::unordered_map<std::uint64_t, Open> open_;
    std::map<std::string, double> selfNs_;
};

// ---------------------------------------------------------------------
// One measured window
// ---------------------------------------------------------------------

/** Optional instrumentation for the traced run. */
struct Tracing
{
    common::TraceLog *log = nullptr;
    common::MetricsRegistry *metrics = nullptr;
};

struct Window
{
    double setupSeconds = 0;   ///< drift-corrected (raw when no gauge)
    double rawSetupSeconds = 0;
    /** Host seconds of the measured window: raw, and drift-corrected
     *  (sliced windows with a gauge; raw otherwise). */
    double rawHostSeconds = 0;
    double hostSeconds = 0;
    Time start = 0;
    std::uint64_t events = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t allocs = 0;
    std::uint64_t allocBytes = 0;
    /** Drift-corrected host µs per attempt of each timed slice. */
    std::vector<double> sliceUs;
    std::uint64_t emptySlices = 0;
    std::uint64_t digest = 0;
    Counters delta;
    common::Histogram latency;
    double avgSkewNs = 0;
    std::uint64_t traceLost = 0;

    std::uint64_t attempts() const { return commits + aborts; }
};

struct Setup
{
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<RetwisWorkload> fleet;
    double rawSeconds = 0;
    double seconds = 0; ///< drift-corrected when a gauge is given
};

/** Build, populate, start and warm up one cluster. With a @p gauge,
 *  the warm-up advances in 50 ms steps with a gauge sample after each
 *  (and one before construction), and the set-up time is scaled by the
 *  mean correction factor. */
Setup
setUp(const Workload &w, std::uint64_t seed, const Tracing &tracing,
      DriftGauge *gauge)
{
    ClusterConfig cfg = w.cluster;
    cfg.seed = seed;
    cfg.trace = tracing.log;
    cfg.metrics = tracing.metrics;
    RetwisConfig retwis = w.retwis;
    retwis.seed = seed + 100;

    Setup s;
    double factors = 0;
    int samples = 0;
    auto gaugeSample = [&] {
        if (gauge != nullptr) {
            factors += gauge->sample();
            ++samples;
        }
    };
    gaugeSample();
    auto t0 = HostClock::now();
    s.cluster = std::make_unique<Cluster>(cfg);
    s.cluster->populate();
    s.cluster->start();
    s.fleet = std::make_unique<RetwisWorkload>(*s.cluster, retwis);
    s.fleet->start();
    // Warm up, ending on a metrics-interval boundary.
    const Time warm = s.cluster->now() + kWarmup;
    const Time end = (warm + kMetricsInterval - 1) / kMetricsInterval *
                     kMetricsInterval;
    if (gauge == nullptr) {
        s.cluster->runUntil(end);
    } else {
        while (s.cluster->now() < end) {
            s.cluster->runUntil(std::min(end, s.cluster->now() +
                                                  kMetricsInterval / 2));
            s.rawSeconds += secondsSince(t0);
            gaugeSample();
            t0 = HostClock::now();
        }
    }
    s.fleet->resetMeasurement();
    s.cluster->resetStats();
    s.rawSeconds += secondsSince(t0);
    s.seconds = samples ? s.rawSeconds * factors / samples : s.rawSeconds;
    return s;
}

std::uint64_t
fleetAttempts(const RetwisWorkload &fleet)
{
    return fleet.totalCommits() + fleet.totalAborts();
}

/**
 * Set up, then advance @p span of simulated time: when @p sliced, in
 * kSlice steps, each timed, with a @p gauge sample after every
 * kSlicesPerGauge of them; otherwise with a single runUntil. The gauge
 * (may be null unless sliced) also corrects the set-up time.
 */
Window
runWindow(const Workload &w, std::uint64_t seed, Duration span,
          bool sliced, DriftGauge *gauge, const Tracing &tracing = {},
          bool *measuring = nullptr)
{
    Setup s = setUp(w, seed, tracing, gauge);
    Cluster &cluster = *s.cluster;
    RetwisWorkload &fleet = *s.fleet;

    Window out;
    out.setupSeconds = s.seconds;
    out.rawSetupSeconds = s.rawSeconds;
    out.start = cluster.now();
    const Time end = out.start + span;
    const Counters before = readCounters(cluster);
    if (measuring != nullptr)
        *measuring = true;

    const std::uint64_t allocs0 = g_allocCalls.load();
    const std::uint64_t bytes0 = g_allocBytes.load();
    if (sliced) {
        // (raw slice µs, attempts) since the last gauge sample.
        std::vector<std::pair<double, std::uint64_t>> group;
        std::uint64_t prev = 0;
        out.sliceUs.reserve(static_cast<std::size_t>(span / kSlice) + 1);
        for (Time at = out.start; at < end;) {
            at = std::min(at + kSlice, end);
            const auto ts = HostClock::now();
            out.events += cluster.runUntil(at);
            const double us = secondsSince(ts) * 1e6;
            const std::uint64_t done = fleetAttempts(fleet);
            group.emplace_back(us, done - prev);
            prev = done;
            if (group.size() < kSlicesPerGauge && at < end)
                continue;
            const double factor = gauge->sample();
            for (const auto &[raw_us, attempts] : group) {
                out.rawHostSeconds += raw_us * 1e-6;
                out.hostSeconds += raw_us * factor * 1e-6;
                if (attempts > 0)
                    out.sliceUs.push_back(raw_us * factor /
                                          static_cast<double>(attempts));
                else
                    ++out.emptySlices;
            }
            group.clear();
        }
    } else {
        const auto t0 = HostClock::now();
        out.events = cluster.runUntil(end);
        out.rawHostSeconds = out.hostSeconds = secondsSince(t0);
    }
    out.allocs = g_allocCalls.load() - allocs0;
    out.allocBytes = g_allocBytes.load() - bytes0;

    if (measuring != nullptr)
        *measuring = false;
    cluster.finishTrace();
    cluster.finishMetrics();
    out.commits = fleet.totalCommits();
    out.aborts = fleet.totalAborts();
    out.latency = fleet.mergedLatency();
    out.delta = minus(readCounters(cluster), before);
    out.avgSkewNs = cluster.avgClientSkew();
    out.traceLost = cluster.traceEventsLost();
    out.digest = simDigest(out.commits, out.aborts, out.events,
                           cluster.clientStats(), out.latency);
    return out;
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

struct Traced
{
    Window window;
    SpanSelfTime spans;
    common::Histogram flashWaitNs;
    FlashCounts flash;
    std::uint64_t observed = 0;
    std::uint64_t recorded = 0;
    bool monitorOk = true;
    std::uint64_t violations = 0;
};

std::unique_ptr<Traced>
runTraced(const Workload &w, std::uint64_t seed, Duration span)
{
    auto t = std::make_unique<Traced>();
    // The observer sees every event before the ring evicts it, so a
    // small ring suffices.
    common::TraceLog log(1 << 12);
    const std::size_t windows =
        static_cast<std::size_t>((kWarmup + span) / kMetricsInterval) + 64;
    common::MetricsRegistry metrics(kMetricsInterval, windows);

    common::InvariantMonitor::Config mcfg;
    mcfg.checkSnapshotReads = w.cluster.backend != BackendKind::SingleVersion;
    mcfg.checkReplicationBeforeAck = w.cluster.replicasPerShard > 1;
    common::InvariantMonitor monitor(mcfg, &std::cerr);

    bool measuring = false;
    Traced *out = t.get();
    // Queue wait of one flash op: its flash.ssd.op span (arrival to
    // release) minus the device latency of the op (Geometry defaults,
    // which the cluster's devices keep).
    const flash::Geometry geo;
    std::unordered_map<std::uint64_t, Time> flash_open;
    log.setObserver([out, &monitor, &measuring, &geo,
                     &flash_open](const common::TraceEvent &e) {
        ++out->observed;
        monitor.onEvent(e);
        out->spans.onEvent(e, measuring);
        if (e.name != "flash.ssd.op")
            return;
        if (e.kind == common::TraceKind::SpanBegin && measuring) {
            flash_open[e.span] = e.trueTime;
        } else if (e.kind == common::TraceKind::SpanEnd) {
            const auto it = flash_open.find(e.span);
            if (it == flash_open.end())
                return;
            const Duration latency = e.tag == "program" ? geo.writeLatency
                                     : e.tag == "erase" ? geo.eraseLatency
                                                        : geo.readLatency;
            out->flashWaitNs.record(e.trueTime - it->second - latency);
            flash_open.erase(it);
        }
    });

    t->window = runWindow(w, seed, span, false, nullptr,
                          Tracing{&log, &metrics}, &measuring);
    t->flash = readFlashCounters(metrics.log(), t->window.start);
    t->recorded = log.recorded();
    t->monitorOk = monitor.ok();
    t->violations = monitor.violationCount();
    if (!monitor.ok())
        monitor.report(std::cerr);
    log.setObserver(nullptr);
    return t;
}

// ---------------------------------------------------------------------
// Ladder: one layer's public entry point, timed in isolation
// ---------------------------------------------------------------------

/** Lower-layer calls made inside a rung fixture (per rung call). */
struct Lower
{
    double events = 0;
    double rpcs = 0;
    double flashOps = 0;
    double ftlGets = 0;
    double ftlPuts = 0;
    double prepares = 0;
    double localValidations = 0;
};

struct Rung
{
    double ns = 0;     ///< host ns per call
    double allocs = 0; ///< heap allocations per call
    Lower per;         ///< lower-layer calls per call
};

/** What one batch of a fixture did: calls made and lower-layer totals. */
struct Batch
{
    double calls = 0;
    Lower lower;
};

/** Run @p batch once to warm the fixture up (queue slabs, pools,
 *  caches), then time it three times; keep the median by host ns. */
Rung
measureRung(const std::function<Batch()> &batch)
{
    batch();
    std::vector<Rung> reps;
    for (int rep = 0; rep < 3; ++rep) {
        const std::uint64_t a0 = g_allocCalls.load();
        const auto t0 = HostClock::now();
        const Batch b = batch();
        const double secs = secondsSince(t0);
        const double allocs = static_cast<double>(g_allocCalls.load() - a0);
        Rung r;
        r.ns = secs * 1e9 / b.calls;
        r.allocs = allocs / b.calls;
        r.per = b.lower;
        r.per.events /= b.calls;
        r.per.rpcs /= b.calls;
        r.per.flashOps /= b.calls;
        r.per.ftlGets /= b.calls;
        r.per.ftlPuts /= b.calls;
        r.per.prepares /= b.calls;
        r.per.localValidations /= b.calls;
        reps.push_back(r);
    }
    std::sort(reps.begin(), reps.end(),
              [](const Rung &a, const Rung &b) { return a.ns < b.ns; });
    return reps[1];
}

/** Run @p sim until @p done is set (fixtures with background loops
 *  never drain their queue). Returns the events executed. */
std::uint64_t
runUntilDone(sim::Simulator &sim, const bool &done)
{
    std::uint64_t events = 0;
    while (!done) {
        if (sim.pendingEvents() == 0) {
            std::fprintf(stderr, "txn_bench: fixture stalled\n");
            std::exit(3);
        }
        events += sim.runUntil(sim.now() + kMillisecond);
    }
    return events;
}

// --- sim --------------------------------------------------------------

struct TimerTick
{
    sim::Simulator *sim;
    std::uint64_t *left;
    Duration period;

    void
    operator()() const
    {
        if (*left == 0)
            return;
        --*left;
        sim->schedule(period, TimerTick{sim, left, period});
    }
};

Rung
rungSimEvent()
{
    sim::Simulator sim;
    return measureRung([&sim] {
        // 256 self-rescheduling timers with distinct periods keep a
        // realistically deep queue.
        std::uint64_t left = 400'000;
        for (Duration t = 0; t < 256; ++t)
            sim.schedule(t, TimerTick{&sim, &left, 1000 + 7 * t});
        const std::uint64_t events = sim.run();
        return Batch{static_cast<double>(events),
                     Lower{static_cast<double>(events)}};
    });
}

sim::Task<void>
noop(std::uint64_t *count)
{
    ++*count;
    co_return;
}

Rung
rungTaskSpawn()
{
    return measureRung([] {
        std::uint64_t count = 0;
        constexpr std::uint64_t n = 400'000;
        for (std::uint64_t i = 0; i < n; ++i)
            sim::spawn(noop(&count));
        if (count != n)
            std::abort();
        return Batch{static_cast<double>(n), {}};
    });
}

// --- net --------------------------------------------------------------

sim::Task<int>
answer(int v)
{
    co_return v + 1;
}

sim::Task<void>
rpcLoop(net::Network *net, int n, bool *done)
{
    for (int i = 0; i < n; ++i) {
        auto r = co_await net->callTyped<int>(0, 1, answer(i));
        if (!r.has_value() || *r != i + 1)
            std::abort();
    }
    *done = true;
}

Rung
rungNetRpc(const Workload &w)
{
    sim::Simulator sim;
    net::Network net(sim, w.cluster.net, common::Rng(11));
    return measureRung([&] {
        constexpr int n = 50'000;
        const std::uint64_t calls0 = net.stats().counterValue("net.calls");
        bool done = false;
        sim::spawn(rpcLoop(&net, n, &done));
        const double events = static_cast<double>(sim.run());
        if (!done)
            std::abort();
        Lower lower;
        lower.events = events;
        lower.rpcs = static_cast<double>(
            net.stats().counterValue("net.calls") - calls0);
        return Batch{static_cast<double>(n), lower};
    });
}

// --- clocksync --------------------------------------------------------

clocksync::SyncConfig
syncFor(ClockKind kind)
{
    switch (kind) {
      case ClockKind::PtpHw: return clocksync::SyncConfig::ptpHardware();
      case ClockKind::Ntp: return clocksync::SyncConfig::ntp();
      case ClockKind::Dtp: return clocksync::SyncConfig::dtp();
      default: return clocksync::SyncConfig::ptpSoftware();
    }
}

struct ClockRungs
{
    Rung read;
    Rung exchange;
};

ClockRungs
rungClock(const Workload &w)
{
    sim::Simulator sim;
    common::Rng rng(13);
    clocksync::ClockEnsemble ensemble(sim, 4, syncFor(w.cluster.clocks),
                                      rng);
    clocksync::PerfectClock perfect(sim);
    // A Perfect-clock workload reads PerfectClock; the others read a
    // disciplined DriftClock. Both through the Clock interface.
    clocksync::Clock &clock = w.cluster.clocks == ClockKind::Perfect
                                  ? static_cast<clocksync::Clock &>(perfect)
                                  : ensemble.clock(1);
    ClockRungs out;
    out.read = measureRung([&] {
        constexpr int n = 2'000'000;
        Time sink = 0;
        for (int i = 0; i < n; ++i) {
            sink ^= clock.localNow();
            // Advance true time so drift math is not constant-folded.
            if ((i & 1023) == 0)
                sim.runUntil(sim.now() + kMicrosecond);
        }
        if (sink == 42)
            std::printf(" ");
        return Batch{static_cast<double>(n), {}};
    });
    out.exchange = measureRung([&] {
        constexpr int n = 200'000;
        for (int i = 0; i < n; ++i)
            ensemble.agent(i & 3).performExchange();
        return Batch{static_cast<double>(n), {}};
    });
    return out;
}

// --- flash ------------------------------------------------------------

sim::Task<void>
flashLoop(flash::SsdDevice *dev, std::vector<flash::PageData> *pages,
          bool *done)
{
    const flash::Geometry &g = dev->geometry();
    std::size_t next = 0;
    for (std::uint32_t b = 0; b < g.numBlocks; ++b) {
        for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p)
            co_await dev->programPage({b, p}, std::move((*pages)[next++]));
        for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p) {
            const flash::PageData *page = co_await dev->readPage({b, p});
            if (page->records.empty())
                std::abort();
        }
        co_await dev->eraseBlock(b);
    }
    *done = true;
}

std::uint64_t
flashOps(const flash::SsdDevice &dev)
{
    const common::StatSet &s = dev.stats();
    return s.counterValue("ssd.reads") + s.counterValue("ssd.programs") +
           s.counterValue("ssd.erases");
}

Rung
rungFlashOp()
{
    sim::Simulator sim;
    flash::Geometry geo;
    geo.numBlocks = 64;
    geo.pagesPerBlock = 32;
    geo.numChannels = 8;
    flash::SsdDevice dev(sim, geo);
    return measureRung([&] {
        // Page payloads are built before timing and moved in, so the
        // rung counts the device's allocations, not the payload's.
        std::vector<flash::PageData> pages(geo.numBlocks *
                                           geo.pagesPerBlock);
        for (std::size_t i = 0; i < pages.size(); ++i) {
            flash::Record r;
            r.key = i;
            r.value = "v";
            pages[i].records.push_back(r);
        }
        const std::uint64_t ops0 = flashOps(dev);
        bool done = false;
        sim::spawn(flashLoop(&dev, &pages, &done));
        const double events = static_cast<double>(sim.run());
        if (!done)
            std::abort();
        const double ops = static_cast<double>(flashOps(dev) - ops0);
        Lower lower;
        lower.events = events;
        lower.flashOps = ops;
        return Batch{ops, lower};
    });
}

// --- ftl --------------------------------------------------------------

/** One KvBackend (and, for MFTL, the SSD under it) on its own sim. */
struct BackendRig
{
    explicit BackendRig(BackendKind kind, std::uint64_t keys)
        : keys(keys)
    {
        if (kind == BackendKind::Mftl) {
            auto geo = flash::Geometry::scaledFor(keys * 512 * 4, 0.35);
            geo.numChannels = 8;
            device = std::make_unique<flash::SsdDevice>(sim, geo);
            ftl::Mftl::Config cfg;
            cfg.expectedKeys = keys;
            auto mftl = std::make_unique<ftl::Mftl>(sim, *device, cfg);
            mftl->start();
            backend = std::move(mftl);
        } else {
            ftl::DramBackend::Config cfg;
            cfg.expectedKeys = keys;
            backend = std::make_unique<ftl::DramBackend>(sim, cfg);
        }
    }

    std::uint64_t flashOpsSoFar() const
    {
        return device != nullptr ? flashOps(*device) : 0;
    }

    sim::Simulator sim;
    std::uint64_t keys;
    std::unique_ptr<flash::SsdDevice> device;
    std::unique_ptr<ftl::KvBackend> backend;
    Time stamp = 1;
};

sim::Task<void>
putWorker(BackendRig *rig, std::uint64_t first, std::uint64_t n,
          std::uint64_t stride, std::uint32_t *running)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const common::Key key = (first + i * stride) % rig->keys;
        (void)co_await rig->backend->put(
            key, "v", common::Version{rig->stamp++, 1});
        // Keep only the newest version of each key reclaimable-live,
        // as the servers' watermark loop would.
        rig->backend->setWatermark(rig->stamp);
    }
    --*running;
}

sim::Task<void>
getLoop(BackendRig *rig, std::uint64_t n, bool *done)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        auto r = co_await rig->backend->getLatest((i * 7919) % rig->keys);
        if (!r.found)
            std::abort();
    }
    *done = true;
}

/** Run @p n puts from 32 concurrent writers; returns events. */
std::uint64_t
putBatch(BackendRig &rig, std::uint64_t n)
{
    constexpr std::uint32_t writers = 32;
    std::uint32_t running = writers;
    for (std::uint32_t k = 0; k < writers; ++k)
        sim::spawn(putWorker(&rig, k, n / writers, writers, &running));
    std::uint64_t events = 0;
    bool done = false;
    while (!done) {
        events += rig.sim.runUntil(rig.sim.now() + kMillisecond);
        done = running == 0;
    }
    return events;
}

struct FtlRungs
{
    Rung get;
    Rung put;
    Rung indexGet;
};

FtlRungs
rungFtl(BackendKind kind)
{
    constexpr std::uint64_t keys = 4096;
    BackendRig rig(kind, keys);
    putBatch(rig, keys); // populate
    FtlRungs out;
    out.get = measureRung([&] {
        constexpr std::uint64_t n = 20'000;
        const std::uint64_t flash0 = rig.flashOpsSoFar();
        bool done = false;
        sim::spawn(getLoop(&rig, n, &done));
        Lower lower;
        lower.events = static_cast<double>(runUntilDone(rig.sim, done));
        lower.flashOps = static_cast<double>(rig.flashOpsSoFar() - flash0);
        return Batch{static_cast<double>(n), lower};
    });
    out.put = measureRung([&] {
        constexpr std::uint64_t n = 20'000 / 32 * 32;
        const std::uint64_t flash0 = rig.flashOpsSoFar();
        Lower lower;
        lower.events = static_cast<double>(putBatch(rig, n));
        lower.flashOps = static_cast<double>(rig.flashOpsSoFar() - flash0);
        return Batch{static_cast<double>(n), lower};
    });
    out.indexGet = measureRung([&] {
        constexpr std::uint64_t n = 2'000'000;
        const common::Version newest{std::numeric_limits<Time>::max(), 0};
        std::uint64_t found = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            found += rig.backend->versionAt((i * 7919) % keys, newest)
                         .has_value();
        if (found != n)
            std::abort();
        return Batch{static_cast<double>(n), {}};
    });
    return out;
}

// --- semel ------------------------------------------------------------

/** One shard, three replicas on DRAM, one client (as semel_test). */
struct SemelRig
{
    SemelRig()
    {
        semel::Server::Config cfg;
        cfg.backupAcksNeeded = 1;
        cfg.expectedClients = 1;
        std::vector<common::NodeId> nodes;
        for (common::NodeId r = 0; r < 3; ++r) {
            backends.push_back(std::make_unique<ftl::DramBackend>(sim));
            servers.push_back(std::make_unique<semel::Server>(
                sim, net, r, 0, *backends.back(), cfg));
            directory.add(servers.back().get());
            nodes.push_back(r);
        }
        master.setReplicas(0, nodes);
        servers[0]->setBackups({servers[1].get(), servers[2].get()});
        client = std::make_unique<semel::Client>(
            sim, net, 1000, 1, clock, master, directory,
            semel::Client::Config{});
    }

    double
    ftlCount(const char *name) const
    {
        double total = 0;
        for (const auto &b : backends)
            total += static_cast<double>(b->stats().counterValue(name));
        return total;
    }

    sim::Simulator sim;
    net::Network net{sim, net::NetConfig{}, common::Rng(17)};
    semel::ShardMap map{1};
    semel::Master master{map};
    semel::Directory directory;
    clocksync::PerfectClock clock{sim};
    std::vector<std::unique_ptr<ftl::DramBackend>> backends;
    std::vector<std::unique_ptr<semel::Server>> servers;
    std::unique_ptr<semel::Client> client;
};

sim::Task<void>
semelPutLoop(semel::Client *client, int n, bool *done)
{
    for (int i = 0; i < n; ++i) {
        if (co_await client->put(static_cast<common::Key>(i % 1024), "v") !=
            semel::PutResult::Ok)
            std::abort();
    }
    *done = true;
}

Rung
rungSemelPut()
{
    SemelRig rig;
    return measureRung([&rig] {
        constexpr int n = 10'000;
        const double rpcs0 = static_cast<double>(
            rig.net.stats().counterValue("net.calls"));
        const double puts0 = rig.ftlCount("dram.puts");
        const double gets0 = rig.ftlCount("dram.gets");
        bool done = false;
        sim::spawn(semelPutLoop(rig.client.get(), n, &done));
        Lower lower;
        lower.events = static_cast<double>(rig.sim.run());
        if (!done)
            std::abort();
        lower.rpcs = static_cast<double>(
                         rig.net.stats().counterValue("net.calls")) -
                     rpcs0;
        lower.ftlPuts = rig.ftlCount("dram.puts") - puts0;
        lower.ftlGets = rig.ftlCount("dram.gets") - gets0;
        return Batch{static_cast<double>(n), lower};
    });
}

// --- milana -----------------------------------------------------------

sim::Task<void>
txnLoop(milana::MilanaClient *client, int n, bool write, bool *done)
{
    for (int i = 0; i < n; ++i) {
        const auto key = static_cast<common::Key>((i * 37) % 1024);
        auto txn = client->beginTransaction();
        auto read = co_await client->get(txn, key);
        if (!read.ok)
            std::abort();
        if (write)
            client->put(txn, key, "v");
        if (co_await client->commitTransaction(txn) !=
            milana::CommitResult::Committed)
            std::abort();
    }
    *done = true;
}

/**
 * One client, one server on DRAM with Perfect clocks (as milana_test):
 * a 1-read-1-write transaction (prepare + decide) or, with @p write
 * false, a 1-read read-only transaction the client validates locally.
 */
Rung
rungMilana(const Workload &w, bool write)
{
    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = 1;
    cfg.backend = BackendKind::Dram;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 1024;
    cfg.localValidation = true;
    cfg.net = w.cluster.net;
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    return measureRung([&cluster, write] {
        constexpr int n = 10'000;
        const Counters before = readCounters(cluster);
        bool done = false;
        sim::spawn(txnLoop(&cluster.client(0), n, write, &done));
        Lower lower;
        lower.events =
            static_cast<double>(runUntilDone(cluster.sim(), done));
        const Counters d = minus(readCounters(cluster), before);
        lower.rpcs = static_cast<double>(get(d, "net.net.calls"));
        lower.ftlGets = static_cast<double>(sumMatching(d, "ftl.", ".gets"));
        lower.ftlPuts = static_cast<double>(sumMatching(d, "ftl.", ".puts"));
        lower.prepares = static_cast<double>(get(d, "server.milana.prepares"));
        lower.localValidations =
            static_cast<double>(get(d, "client.txn.local_validations"));
        return Batch{static_cast<double>(n), lower};
    });
}

struct Ladder
{
    Rung event, spawn, rpc, clockRead, clockExchange, flashOp, semelPut,
        prepareDecide, prepareDecideLv;
    FtlRungs mftl, dram;
};

Ladder
runLadder(const Workload &w)
{
    Ladder l;
    l.event = rungSimEvent();
    l.spawn = rungTaskSpawn();
    l.rpc = rungNetRpc(w);
    const ClockRungs clock = rungClock(w);
    l.clockRead = clock.read;
    l.clockExchange = clock.exchange;
    l.flashOp = rungFlashOp();
    l.mftl = rungFtl(BackendKind::Mftl);
    l.dram = rungFtl(BackendKind::Dram);
    l.semelPut = rungSemelPut();
    l.prepareDecide = rungMilana(w, true);
    l.prepareDecideLv = rungMilana(w, false);
    return l;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** The highest percentile with at least ten samples beyond it. */
double
tailPercentile(std::size_t samples)
{
    for (const double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0})
        if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0)
            return p;
    return 50.0;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class Checks
{
  public:
    void
    require(bool ok, const std::string &what)
    {
        std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
        ok_ = ok_ && ok;
    }
    bool ok() const { return ok_; }

  private:
    bool ok_ = true;
};

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = val;
            continue;
        }
        const double num = std::strtod(val.c_str(), &end);
        if (end == val.c_str() || *end != '\0' || num < 0)
            return false;
        if (key == "--seed")
            o.seed = static_cast<std::uint64_t>(num);
        else if (key == "--seconds")
            o.seconds = num;
        else if (key == "--trace" && (num == 0 || num == 1))
            o.trace = num == 1;
        else
            return false;
    }
    return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: txn_bench --workload NAME --seed N "
                     "--seconds S --trace 0|1\n"
                     "workloads: replicated_mixed contended_single "
                     "readheavy_dram_ntp\n");
        return 2;
    }
    const std::optional<Workload> found = findWorkload(opt.workload);
    if (!found) {
        std::fprintf(stderr, "txn_bench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    const Workload &w = *found;

    // Three windows of seconds/3 host seconds each (at the calibrated
    // rate), in whole metrics intervals.
    const double sim_seconds = opt.seconds * w.simPerHostSecond / 3.0;
    const Duration span =
        std::max<Duration>(1, std::llround(sim_seconds * 10.0)) *
        kMetricsInterval;

    std::printf("txn_bench: workload %s, seed %llu, window %.1f sim s x 3\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                common::toSeconds(span));
    DriftGauge gauge;
    const Window a = runWindow(w, opt.seed, span, true, &gauge);
    const Window b = runWindow(w, opt.seed, span, false, &gauge);
    const Window c = runWindow(w, opt.seed, span, true, &gauge);

    Checks checks;
    checks.require(a.commits > 0, "the workload committed transactions");
    checks.require(a.digest == c.digest,
                   "sim_digest repeats across two runs of the seed");
    checks.require(a.digest == b.digest,
                   "sliced window digest equals one runUntil's");

    const double attempts_abc =
        static_cast<double>(a.attempts() + b.attempts() + c.attempts());
    std::vector<double> slices = a.sliceUs;
    slices.insert(slices.end(), c.sliceUs.begin(), c.sliceUs.end());
    const double host_p50 = median(slices);
    const double tail_p = tailPercentile(slices.size());

    // Simulated outputs: checked above, reported, not ranked.
    const double sim_secs = common::toSeconds(span);
    const double attempts_a = static_cast<double>(a.attempts());
    std::printf("sim.abort_pct %.4f %%\n",
                100.0 * ratio(static_cast<double>(a.aborts), attempts_a));
    std::printf("sim.commits_per_sim_s %.4f 1/s\n",
                static_cast<double>(a.commits) / sim_secs);
    std::printf("sim.latency_ms.p50 %.4f ms\n",
                common::toMillis(a.latency.p50()));
    std::printf("sim.latency_ms.p99 %.4f ms\n",
                common::toMillis(a.latency.p99()));
    std::printf("sim_digest %016llx\n",
                static_cast<unsigned long long>(a.digest));
    // Raw host times, and the drift the gauge corrected them for.
    const double raw_ac = a.rawHostSeconds + c.rawHostSeconds;
    std::printf("raw host s per window (A B C): %.4f %.4f %.4f; raw setup "
                "s (A B C): %.4f %.4f %.4f\n",
                a.rawHostSeconds, b.rawHostSeconds, c.rawHostSeconds,
                a.rawSetupSeconds, b.rawSetupSeconds, c.rawSetupSeconds);
    std::printf("raw txn_per_host_s %.4f attempts/s\n",
                static_cast<double>(a.attempts() + c.attempts()) / raw_ac);
    std::printf("host slowdown vs nominal (gauge) %.4f\n",
                gauge.meanSeconds() / DriftGauge::kNominalSeconds);
    // The tail is printed, not ranked: it is an order statistic of
    // 10-20 slices, and its spread between seeds nears 25%.
    std::printf("host_us_per_txn.tail %.4f us (p%.1f of %zu slices, "
                "%llu empty slices skipped)\n",
                percentile(slices, tail_p), tail_p, slices.size(),
                static_cast<unsigned long long>(a.emptySlices +
                                                c.emptySlices));

    const std::uint64_t begun = get(a.delta, "client.txn.begun") +
                                get(b.delta, "client.txn.begun") +
                                get(c.delta, "client.txn.begun");
    std::uint64_t failed = 0;
    for (const Window *x : {&a, &b, &c})
        failed += get(x->delta, "client.txn.failed") +
                  get(x->delta, "client.txn.read_failures");
    std::printf("txn_failed_pct %.6f %%\n",
                100.0 * ratio(static_cast<double>(failed),
                              static_cast<double>(begun)));

    std::vector<Metric> metrics;
    if (!opt.trace) {
        // setup_s is the median of five set-ups: A, B, C and two more.
        std::vector<double> setups = {a.setupSeconds, b.setupSeconds,
                                      c.setupSeconds};
        for (int i = 0; i < 2; ++i)
            setups.push_back(setUp(w, opt.seed, {}, &gauge).seconds);
        metrics = {
            {"txn_per_host_s",
             static_cast<double>(a.attempts() + c.attempts()) /
                 (a.hostSeconds + c.hostSeconds),
             "attempts/s"},
            {"host_us_per_txn.p50", host_p50, "us"},
            {"allocs_per_txn",
             static_cast<double>(a.allocs + b.allocs + c.allocs) /
                 attempts_abc,
             "count"},
            {"alloc_bytes_per_txn",
             static_cast<double>(a.allocBytes + b.allocBytes +
                                 c.allocBytes) /
                 attempts_abc,
             "bytes"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        const std::unique_ptr<Traced> t = runTraced(w, opt.seed, span);
        checks.require(t->monitorOk,
                       "InvariantMonitor found no violation (" +
                           std::to_string(t->violations) + ")");
        checks.require(t->window.traceLost == 0 &&
                           t->observed == t->recorded && t->recorded > 0,
                       "no trace event lost (" +
                           std::to_string(t->recorded) + " recorded)");
        const Ladder l = runLadder(w);

        const Counters &d = a.delta;
        const double att = attempts_a;
        const double t_att = static_cast<double>(t->window.attempts());
        const double calls = static_cast<double>(get(d, "net.net.calls"));
        const double sends = static_cast<double>(get(d, "net.net.sends"));
        const double lost =
            static_cast<double>(get(d, "net.net.request_lost") +
                                get(d, "net.net.response_lost"));
        const double exchanges =
            static_cast<double>(get(d, "clock.clocksync.exchanges"));
        const double ftl_gets = static_cast<double>(sumMatching(d, "ftl.", ".gets"));
        const double ftl_puts = static_cast<double>(sumMatching(d, "ftl.", ".puts"));
        const double primary_puts =
            static_cast<double>(sumMatching(d, "ftl.primary.", ".puts"));
        const double backup_puts =
            static_cast<double>(sumMatching(d, "ftl.backup.", ".puts"));
        const double gc_writes =
            static_cast<double>(sumMatching(d, "ftl.", ".gc_remapped"));
        const double replica_records =
            static_cast<double>(get(d, "server.milana.replica_records"));
        const double prepares =
            static_cast<double>(get(d, "server.milana.prepares"));
        const double lv =
            static_cast<double>(get(d, "client.txn.local_validations"));
        const double lv_fail =
            static_cast<double>(get(d, "client.txn.local_validation_fail"));
        const double flash_ops =
            t->flash.reads + t->flash.programs + t->flash.erases;
        const std::uint32_t replicas = w.cluster.replicasPerShard;
        // SEMEL replicates each primary-side record to every backup.
        const double replicated =
            replicas > 1 ? replica_records / (replicas - 1) : 0.0;

        // Exclusive rung costs: each rung minus the lower-layer calls
        // its own fixture made, priced at their (exclusive) rungs.
        const double ev = l.event.ns;
        auto excl = [](double v) { return std::max(0.0, v); };
        const double rpc_x = excl(l.rpc.ns - l.rpc.per.events * ev);
        const double flash_x = excl(l.flashOp.ns - l.flashOp.per.events * ev);
        auto ftl_x = [&](const Rung &r) {
            return excl(r.ns - r.per.events * ev - r.per.flashOps * flash_x);
        };
        const FtlRungs &own =
            w.cluster.backend == BackendKind::Dram ? l.dram : l.mftl;
        const double dram_get_x = ftl_x(l.dram.get);
        const double dram_put_x = ftl_x(l.dram.put);
        auto above_ftl = [&](const Rung &r) {
            return excl(r.ns - r.per.events * ev - r.per.rpcs * rpc_x -
                        r.per.ftlGets * dram_get_x -
                        r.per.ftlPuts * dram_put_x);
        };
        const double semel_x = above_ftl(l.semelPut);
        const double pd_x = ratio(above_ftl(l.prepareDecide),
                                  l.prepareDecide.per.prepares);
        const double lv_x = ratio(above_ftl(l.prepareDecideLv),
                                  l.prepareDecideLv.per.localValidations);

        const double us = 1e-3;
        const std::vector<std::pair<std::string, double>> attrib = {
            {"sim", static_cast<double>(a.events) / att * ev * us},
            {"net", calls / att * rpc_x * us},
            {"clocksync", exchanges / att * l.clockExchange.ns * us},
            {"flash", ratio(flash_ops, t_att) * flash_x * us},
            {"ftl", (ftl_gets * ftl_x(own.get) + ftl_puts * ftl_x(own.put)) /
                        att * us},
            {"semel", replicated / att * semel_x * us},
            {"milana", (prepares * pd_x + lv * lv_x) / att * us},
        };
        double explained = 0;
        for (const auto &[layer, v] : attrib)
            explained += v;

        metrics = {
            {"sim.events_per_txn", static_cast<double>(a.events) / att, "count"},
            {"sim.event.host_ns", l.event.ns, "ns"},
            {"sim.event.allocs", l.event.allocs, "count"},
            {"sim.task_spawn.host_ns", l.spawn.ns, "ns"},
            {"sim.task_spawn.allocs", l.spawn.allocs, "count"},
            {"net.calls_per_txn", calls / att, "count"},
            {"net.sends_per_txn", sends / att, "count"},
            {"net.lost_per_txn", lost / att, "count"},
            {"net.rpc.host_ns", l.rpc.ns, "ns"},
            {"net.rpc.allocs", l.rpc.allocs, "count"},
            {"clocksync.exchanges_per_sim_s", exchanges / sim_secs, "1/s"},
            {"clocksync.skew_us", a.avgSkewNs / 1000.0, "sim_us"},
            {"clocksync.read.host_ns", l.clockRead.ns, "ns"},
            {"clocksync.exchange.host_ns", l.clockExchange.ns, "ns"},
            {"flash.reads_per_txn", ratio(t->flash.reads, t_att), "count"},
            {"flash.programs_per_txn", ratio(t->flash.programs, t_att), "count"},
            {"flash.erases_per_txn", ratio(t->flash.erases, t_att), "count"},
            {"flash.queue_wait_us.p50",
             t->flashWaitNs.count() ? common::toMicros(t->flashWaitNs.p50())
                                    : 0.0,
             "sim_us"},
            {"flash.queue_wait_us.p99",
             t->flashWaitNs.count() ? common::toMicros(t->flashWaitNs.p99())
                                    : 0.0,
             "sim_us"},
            {"flash.op.host_ns", l.flashOp.ns, "ns"},
            {"flash.op.allocs", l.flashOp.allocs, "count"},
            {"ftl.gets_per_txn", ftl_gets / att, "count"},
            {"ftl.puts_per_txn", ftl_puts / att, "count"},
            {"ftl.gc_writes_per_put", ratio(gc_writes, ftl_puts), "ratio"},
            {"ftl.mftl.get.host_ns", l.mftl.get.ns, "ns"},
            {"ftl.mftl.get.allocs", l.mftl.get.allocs, "count"},
            {"ftl.mftl.put.host_ns", l.mftl.put.ns, "ns"},
            {"ftl.mftl.put.allocs", l.mftl.put.allocs, "count"},
            {"ftl.mftl.index_get.host_ns", l.mftl.indexGet.ns, "ns"},
            {"ftl.mftl.index_get.allocs", l.mftl.indexGet.allocs, "count"},
            {"ftl.dram.get.host_ns", l.dram.get.ns, "ns"},
            {"ftl.dram.get.allocs", l.dram.get.allocs, "count"},
            {"ftl.dram.put.host_ns", l.dram.put.ns, "ns"},
            {"ftl.dram.put.allocs", l.dram.put.allocs, "count"},
            {"ftl.dram.index_get.host_ns", l.dram.indexGet.ns, "ns"},
            {"ftl.dram.index_get.allocs", l.dram.indexGet.allocs, "count"},
            {"semel.puts_per_txn", primary_puts / att, "count"},
            {"semel.replica_writes_per_put", ratio(backup_puts, primary_puts),
             "ratio"},
            {"semel.replica_records_per_txn", replica_records / att, "count"},
            {"semel.put.host_us", l.semelPut.ns * us, "us"},
            {"semel.put.allocs", l.semelPut.allocs, "count"},
            {"milana.prepares_per_txn", prepares / att, "count"},
            {"milana.commit_ratio", ratio(static_cast<double>(a.commits), att),
             "ratio"},
            {"milana.local_validation_fail_ratio", ratio(lv_fail, lv), "ratio"},
            {"milana.prepare_decide.host_us", l.prepareDecide.ns * us, "us"},
            {"milana.prepare_decide.allocs", l.prepareDecide.allocs, "count"},
            {"milana.prepare_decide_lv.host_us", l.prepareDecideLv.ns * us,
             "us"},
            {"milana.prepare_decide_lv.allocs", l.prepareDecideLv.allocs,
             "count"},
        };
        for (const auto &[layer, v] : attrib)
            metrics.push_back({"attrib." + layer + ".host_us_per_txn", v, "us"});
        metrics.push_back({"attrib.unexplained_pct",
                           100.0 * (1.0 - ratio(explained, host_p50)), "%"});
        for (const char *layer : {"net", "milana", "flash"})
            metrics.push_back(
                {std::string("span.") + layer + ".self_sim_us_per_txn",
                 ratio(t->spans.selfNs(layer), t_att) / 1000.0, "sim_us"});
        metrics.push_back(
            {"trace.overhead_pct",
             100.0 * (t->window.rawHostSeconds / b.rawHostSeconds - 1.0),
             "%"});
    }

    printMetrics(metrics);
    const bool correct = checks.ok();
    std::fflush(stdout);
    printResult(correct, begun, correct ? failed : begun, metrics);
    return correct ? 0 : 1;
}
