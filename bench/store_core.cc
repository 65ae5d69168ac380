/**
 * @file
 * Storage data-plane microbenchmark: throughput and exact per-op heap
 * traffic of the mapping-table + version-chain structures that back
 * every storage backend (ftl/mapping_table.hh, ftl/arena.hh).
 *
 * This deliberately benchmarks the data plane directly — not through
 * the simulated IO stack — because that is where paper-scale key
 * counts (2M/6M, Figure 6 / Table 1) live or die: the pack log and
 * flash model charge simulated time, but the mapping table costs real
 * memory and real wall-clock on every operation.
 *
 * One scenario per (backend flavor, key count):
 *  - dram: VersionStore with an inline-string payload (DRAM backend's
 *    chain entry shape — 64-byte slots, one cache line per 1-version
 *    key);
 *  - mftl: VersionStore keyed to <physical page, slot> locators;
 *  - vftl: VersionStore keyed to <LBA, slot> locators;
 *  - sftl: the single-version discipline — every put replaces the
 *    previous version (insert + prune to one), modeling a
 *    single-version KV's in-DRAM index.
 *
 * Phases per scenario, each measured separately:
 *  - populate: bulk load (getOrCreate + append fast path) of all keys
 *    into a pre-sized table — allocs/op counts slab carving, and
 *    bytes_per_key reports the exact data-plane footprint;
 *  - get: snapshot lookups (findAt) at random keys;
 *  - put: version inserts over a hot key set with per-put watermark
 *    pruning — the steady-state churn shape; must be 0 allocs/op
 *    (arena freelists recycle overflow chains);
 *  - prune: full-table watermark sweeps (forEach + prune); 0 allocs.
 *
 * Heap traffic is measured by interposing global operator new/delete
 * (sim_core.cc discipline), so allocs/op is exact. BENCH_store_core.json
 * is the committed baseline; CI fails on any allocs/op rise or a >20%
 * throughput drop on get/put/prune.
 *
 * Flags: --ops=N measured ops per phase (default 1,000,000),
 * --full (adds the 6M-key tier and 4x ops), --json=PATH.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "flash/geometry.hh"
#include "ftl/mapping_table.hh"

// ---------------------------------------------------------------------
// Interposed allocation counter (see sim_core.cc).
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_allocCalls{0};
std::atomic<std::uint64_t> g_allocBytes{0};
std::atomic<std::uint64_t> g_freeCalls{0};

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

void
countedFree(void *p) noexcept
{
    if (!p)
        return;
    g_freeCalls.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
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
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

namespace {

using common::Key;
using common::Time;
using common::Version;

struct AllocSnapshot
{
    std::uint64_t calls;
    std::uint64_t bytes;

    static AllocSnapshot
    take()
    {
        return {g_allocCalls.load(std::memory_order_relaxed),
                g_allocBytes.load(std::memory_order_relaxed)};
    }
};

double
wallSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

struct PhaseResult
{
    std::string scenario;
    std::uint64_t keys = 0;
    std::string op;
    std::uint64_t ops = 0;
    double seconds = 0;
    double allocsPerOp = 0;
    double bytesPerOp = 0;
    /** Exact data-plane footprint after populate (populate row only). */
    double bytesPerKey = 0;
};

// Locator payloads matching the real backends' chain entries.

/** DRAM: the value lives in the chain (SSO strings — no heap). */
struct DramLoc
{
    common::Value value;
};

/** MFTL: physical page + slot. */
struct MftlLoc
{
    flash::PageAddr page;
    std::uint16_t slot;
};

/** VFTL: logical block + slot. */
struct VftlLoc
{
    std::int64_t lba;
    std::uint16_t slot;
};

template <typename Loc>
Loc makeLoc(std::uint64_t i);

template <>
DramLoc
makeLoc<DramLoc>(std::uint64_t i)
{
    // 12 chars max — inside libstdc++'s 15-char SSO buffer.
    char buf[16];
    std::snprintf(buf, sizeof buf, "v%010llu",
                  static_cast<unsigned long long>(i % 9999999999ull));
    return DramLoc{common::Value(buf)};
}

template <>
MftlLoc
makeLoc<MftlLoc>(std::uint64_t i)
{
    return MftlLoc{
        flash::PageAddr{static_cast<std::uint32_t>(i >> 5),
                        static_cast<std::uint32_t>(i & 31)},
        static_cast<std::uint16_t>(i & 7)};
}

template <>
VftlLoc
makeLoc<VftlLoc>(std::uint64_t i)
{
    return VftlLoc{static_cast<std::int64_t>(i),
                   static_cast<std::uint16_t>(i & 7)};
}

/**
 * Run the four phases against one VersionStore instantiation.
 * single_version = true models the SFTL-style index: each put prunes
 * the chain down to the version it just wrote.
 */
template <typename Loc>
std::vector<PhaseResult>
runScenario(const std::string &name, std::uint64_t keys,
            std::uint64_t ops, bool single_version)
{
    std::vector<PhaseResult> out;
    ftl::VersionStore<Loc> store(keys);
    common::Rng rng(0x5107e + keys);

    const auto noDrop = [](const auto &) {};

    // ---- populate: bulk-load path (append — versions arrive sorted).
    {
        const AllocSnapshot before = AllocSnapshot::take();
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t k = 0; k < keys; ++k)
            store.getOrCreate(k).append(Version{1, 0},
                                        makeLoc<Loc>(k));
        const double secs = wallSeconds(start);
        const AllocSnapshot after = AllocSnapshot::take();
        if (store.size() != keys)
            PANIC("store_core: populate lost keys");
        PhaseResult r;
        r.scenario = name;
        r.keys = keys;
        r.op = "populate";
        r.ops = keys;
        r.seconds = secs;
        r.allocsPerOp = static_cast<double>(after.calls - before.calls) /
                        static_cast<double>(keys);
        r.bytesPerOp = static_cast<double>(after.bytes - before.bytes) /
                       static_cast<double>(keys);
        r.bytesPerKey = static_cast<double>(store.memoryBytes()) /
                        static_cast<double>(keys);
        out.push_back(r);
    }

    // ---- put: steady-state churn over a hot key set. Warm up one
    // full pass over the hot set so every hot chain has carved its
    // overflow block (arena freelists are hot afterwards).
    const std::uint64_t hot =
        std::min<std::uint64_t>(keys, 64 * 1024);
    Time ts = 2;
    constexpr Time kWindow = 8;
    const auto doPut = [&](std::uint64_t i) {
        const Key key = (i * 0x9E3779B97F4A7C15ull) % hot;
        auto chain = store.getOrCreate(key);
        chain.insert(Version{ts, 1}, makeLoc<Loc>(i));
        const Time wm = single_version ? ts : ts - kWindow;
        chain.pruneBelowWatermark(wm, noDrop);
        ++ts;
    };
    for (std::uint64_t i = 0; i < 2 * hot; ++i)
        doPut(i);
    {
        const AllocSnapshot before = AllocSnapshot::take();
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < ops; ++i)
            doPut(2 * hot + i);
        const double secs = wallSeconds(start);
        const AllocSnapshot after = AllocSnapshot::take();
        PhaseResult r;
        r.scenario = name;
        r.keys = keys;
        r.op = "put";
        r.ops = ops;
        r.seconds = secs;
        r.allocsPerOp = static_cast<double>(after.calls - before.calls) /
                        static_cast<double>(ops);
        r.bytesPerOp = static_cast<double>(after.bytes - before.bytes) /
                       static_cast<double>(ops);
        out.push_back(r);
    }

    // ---- get: random snapshot lookups across the whole key space.
    {
        const Version latest{ts, 0xffffffff};
        std::uint64_t found = 0;
        const AllocSnapshot before = AllocSnapshot::take();
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < ops; ++i) {
            const Key key = rng.nextBounded(keys);
            auto chain = store.find(key);
            const auto *entry = chain ? chain.findAt(latest) : nullptr;
            found += entry != nullptr;
        }
        const double secs = wallSeconds(start);
        const AllocSnapshot after = AllocSnapshot::take();
        if (found != ops)
            PANIC("store_core: get phase missed "
                  << (ops - found) << " of " << ops << " lookups");
        PhaseResult r;
        r.scenario = name;
        r.keys = keys;
        r.op = "get";
        r.ops = ops;
        r.seconds = secs;
        r.allocsPerOp = static_cast<double>(after.calls - before.calls) /
                        static_cast<double>(ops);
        r.bytesPerOp = static_cast<double>(after.bytes - before.bytes) /
                       static_cast<double>(ops);
        out.push_back(r);
    }

    // ---- prune: full-table watermark sweeps (one "op" per key
    // visited). The first sweep drops the put phase's leftovers; later
    // sweeps see already-minimal chains — both shapes are steady-state
    // sweep work, and neither may allocate.
    {
        const std::uint64_t sweeps =
            std::max<std::uint64_t>(1, ops / keys);
        const AllocSnapshot before = AllocSnapshot::take();
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t s = 0; s < sweeps; ++s) {
            const Time wm = ts + static_cast<Time>(s);
            store.forEach([&](Key, auto chain) {
                chain.pruneBelowWatermark(wm, noDrop);
            });
        }
        const double secs = wallSeconds(start);
        const AllocSnapshot after = AllocSnapshot::take();
        const std::uint64_t visited = sweeps * keys;
        PhaseResult r;
        r.scenario = name;
        r.keys = keys;
        r.op = "prune";
        r.ops = visited;
        r.seconds = secs;
        r.allocsPerOp = static_cast<double>(after.calls - before.calls) /
                        static_cast<double>(visited);
        r.bytesPerOp = static_cast<double>(after.bytes - before.bytes) /
                       static_cast<double>(visited);
        out.push_back(r);
    }

    return out;
}

std::vector<PhaseResult>
runFlavor(const std::string &flavor, std::uint64_t keys,
          std::uint64_t ops)
{
    if (flavor == "dram")
        return runScenario<DramLoc>(flavor, keys, ops, false);
    if (flavor == "mftl")
        return runScenario<MftlLoc>(flavor, keys, ops, false);
    if (flavor == "vftl")
        return runScenario<VftlLoc>(flavor, keys, ops, false);
    if (flavor == "sftl")
        return runScenario<MftlLoc>(flavor, keys, ops, true);
    PANIC("store_core: unknown flavor " << flavor);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const bool full = args.has("full");
    const std::uint64_t ops = static_cast<std::uint64_t>(
        args.getInt("ops", full ? 4'000'000 : 1'000'000));
    args.rejectUnknown();

    std::vector<std::uint64_t> tiers{100'000, 2'000'000};
    if (full)
        tiers.push_back(6'000'000);

    bench::Report report("store_core");
    report.params().set("ops", ops).set("full", full);

    bench::printHeader(
        "store_core: mapping-table + version-chain throughput and\n"
        "per-op heap traffic (interposed operator new counter)");
    std::printf("%6s | %9s | %9s | %12s | %12s | %10s | %10s\n",
                "store", "keys", "op", "ops", "ops/sec", "allocs/op",
                "bytes/key");
    std::printf("-------+-----------+-----------+--------------+"
                "--------------+------------+-----------\n");

    for (const std::uint64_t keys : tiers) {
        for (const char *flavor : {"dram", "mftl", "vftl", "sftl"}) {
            const auto results = runFlavor(flavor, keys, ops);
            for (const PhaseResult &r : results) {
                const double ops_per_sec =
                    static_cast<double>(r.ops) /
                    (r.seconds > 0 ? r.seconds : 1);
                std::printf("%6s | %9llu | %9s | %12llu | %12.0f | "
                            "%10.4f | %10.1f\n",
                            r.scenario.c_str(),
                            static_cast<unsigned long long>(r.keys),
                            r.op.c_str(),
                            static_cast<unsigned long long>(r.ops),
                            ops_per_sec, r.allocsPerOp, r.bytesPerKey);
                report.addRow()
                    .set("scenario", r.scenario)
                    .set("keys", r.keys)
                    .set("op", r.op)
                    .set("ops", r.ops)
                    .set("seconds", r.seconds)
                    .set("ops_per_sec", ops_per_sec)
                    .set("allocs_per_op", r.allocsPerOp)
                    .set("bytes_per_op", r.bytesPerOp)
                    .set("bytes_per_key", r.bytesPerKey);
            }
        }
    }

    report.write(args);
    return 0;
}
