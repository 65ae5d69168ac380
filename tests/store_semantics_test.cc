/**
 * @file
 * Equivalence tests for the two version-chain implementations: the
 * std::vector-backed reference VersionChain (version_chain.hh) and
 * the production arena-backed chains inside VersionStore
 * (mapping_table.hh). Every scenario replays one operation sequence
 * against both and demands identical observable behaviour — return
 * values, chain contents, dropped entries — so the zero-allocation
 * data plane cannot silently drift from the reference semantics.
 *
 * Also covers what the reference cannot: table capacity independence
 * (same contents whatever the initial pre-size), robin-hood erase
 * stress (backward-shift must leave every surviving key findable),
 * the Key-keyed RobinMap behind semel::Server's per-key records,
 * replayed against std::unordered_map, and the table core's payload
 * lifetimes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/robin_table.hh"
#include "ftl/mapping_table.hh"
#include "ftl/version_chain.hh"

using common::Key;
using common::Time;
using common::Version;

namespace {

struct Loc
{
    std::uint64_t cookie = 0;

    bool operator==(const Loc &o) const = default;
};

Version
v(Time ts, common::ClientId c = 1)
{
    return Version{ts, c};
}

/**
 * The reference side: a map of VersionChain, mirroring what the
 * backends did before the arena rewrite.
 */
struct RefStore
{
    std::unordered_map<Key, ftl::VersionChain<Loc>> chains;

    ftl::VersionChain<Loc> &operator[](Key k) { return chains[k]; }
};

/** Dump one chain as (version, cookie) pairs, youngest first. */
std::vector<std::pair<Version, std::uint64_t>>
dump(const ftl::VersionChain<Loc> &chain)
{
    std::vector<std::pair<Version, std::uint64_t>> out;
    for (const auto &e : chain.entries())
        out.emplace_back(e.version, e.loc.cookie);
    return out;
}

std::vector<std::pair<Version, std::uint64_t>>
dump(ftl::VersionStore<Loc>::ChainRef chain)
{
    std::vector<std::pair<Version, std::uint64_t>> out;
    if (!chain)
        return out;
    for (const auto &e : chain)
        out.emplace_back(e.version, e.loc.cookie);
    return out;
}

/**
 * Full-store comparison: every key in the reference must have an
 * identical chain in the store, and the store must not hold extras.
 */
void
expectEquivalent(RefStore &ref, ftl::VersionStore<Loc> &store)
{
    std::size_t ref_nonempty = 0;
    for (auto &[key, chain] : ref.chains) {
        if (chain.empty()) {
            EXPECT_FALSE(store.find(key))
                << "key " << key << " should be absent or empty";
            continue;
        }
        ++ref_nonempty;
        auto got = store.find(key);
        ASSERT_TRUE(got) << "key " << key << " missing from store";
        EXPECT_EQ(dump(chain), dump(got)) << "key " << key;
    }
    std::size_t store_nonempty = 0;
    store.forEach([&](Key, ftl::VersionStore<Loc>::ChainRef chain) {
        store_nonempty += !chain.empty();
    });
    EXPECT_EQ(ref_nonempty, store_nonempty);
}

} // namespace

// ------------------------------------------------- scenario replays
// The ftl_test chain scenarios, replayed against both implementations.

TEST(StoreSemantics, InsertKeepsDescendingOrder)
{
    RefStore ref;
    ftl::VersionStore<Loc> store;
    const Key k = 7;
    // Out-of-order arrivals, as replication delivers them.
    for (Time ts : {300, 100, 500, 200, 400}) {
        const bool a = ref[k].insert(v(ts), Loc{unsigned(ts)});
        const bool b =
            store.getOrCreate(k).insert(v(ts), Loc{unsigned(ts)});
        EXPECT_EQ(a, b) << "ts " << ts;
    }
    expectEquivalent(ref, store);
    // Snapshot cuts agree.
    for (Time at : {50, 150, 250, 350, 450, 550}) {
        const auto *re = ref[k].findAt(v(at, 9));
        const auto *se = store.find(k).findAt(v(at, 9));
        ASSERT_EQ(re == nullptr, se == nullptr) << "at " << at;
        if (re)
            EXPECT_EQ(re->loc, se->loc) << "at " << at;
    }
}

TEST(StoreSemantics, DupReplayIgnoredOnBothPaths)
{
    RefStore ref;
    ftl::VersionStore<Loc> store;
    EXPECT_TRUE(ref[4].insert(v(100), Loc{1}));
    EXPECT_TRUE(store.getOrCreate(4).insert(v(100), Loc{1}));
    // Same stamp, different payload: both must refuse it.
    EXPECT_FALSE(ref[4].insert(v(100), Loc{2}));
    EXPECT_FALSE(store.getOrCreate(4).insert(v(100), Loc{2}));
    // append() sees the duplicate too.
    EXPECT_FALSE(ref[4].append(v(100), Loc{3}));
    EXPECT_FALSE(store.find(4).append(v(100), Loc{3}));
    expectEquivalent(ref, store);
    EXPECT_EQ(store.versionCount(4), 1u);
    EXPECT_EQ(store.find(4).youngest().loc, (Loc{1}));
}

TEST(StoreSemantics, WatermarkPruneMatchesReference)
{
    RefStore ref;
    ftl::VersionStore<Loc> store;
    const Key k = 2;
    for (int i = 1; i <= 6; ++i) {
        ref[k].insert(v(i * 100), Loc{unsigned(i)});
        store.getOrCreate(k).insert(v(i * 100), Loc{unsigned(i)});
    }
    // Section 3.1: keep the youngest version <= watermark plus all
    // younger ones; both sides must drop the same entries.
    std::vector<std::uint64_t> ref_drops, store_drops;
    ref[k].pruneBelowWatermark(
        450, [&](const auto &e) { ref_drops.push_back(e.loc.cookie); });
    store.find(k).pruneBelowWatermark(
        450, [&](const auto &e) { store_drops.push_back(e.loc.cookie); });
    EXPECT_EQ(ref_drops, store_drops);
    EXPECT_EQ(ref_drops, (std::vector<std::uint64_t>{3, 2, 1}));
    expectEquivalent(ref, store);

    // Watermark below every stamp: nothing more to drop.
    ref_drops.clear();
    store_drops.clear();
    ref[k].pruneBelowWatermark(
        1, [&](const auto &e) { ref_drops.push_back(e.loc.cookie); });
    store.find(k).pruneBelowWatermark(
        1, [&](const auto &e) { store_drops.push_back(e.loc.cookie); });
    EXPECT_TRUE(ref_drops.empty());
    EXPECT_TRUE(store_drops.empty());
    expectEquivalent(ref, store);
}

TEST(StoreSemantics, GcRelocateUpdatesLocator)
{
    RefStore ref;
    ftl::VersionStore<Loc> store;
    for (Time ts : {100, 200, 300}) {
        ref[5].insert(v(ts), Loc{unsigned(ts)});
        store.getOrCreate(5).insert(v(ts), Loc{unsigned(ts)});
    }
    // GC moved the v200 record to a new physical location.
    EXPECT_TRUE(ref[5].relocate(v(200), Loc{999}));
    EXPECT_TRUE(store.find(5).relocate(v(200), Loc{999}));
    // Relocating a missing stamp fails on both.
    EXPECT_FALSE(ref[5].relocate(v(250), Loc{1}));
    EXPECT_FALSE(store.find(5).relocate(v(250), Loc{1}));
    // find() exposes the moved locator for in-place updates.
    EXPECT_EQ(store.find(5).find(v(200))->loc, (Loc{999}));
    expectEquivalent(ref, store);
}

TEST(StoreSemantics, RemoveAndEraseMatchReference)
{
    RefStore ref;
    ftl::VersionStore<Loc> store;
    for (Time ts : {100, 200, 300}) {
        ref[9].insert(v(ts), Loc{unsigned(ts)});
        store.getOrCreate(9).insert(v(ts), Loc{unsigned(ts)});
    }
    EXPECT_TRUE(ref[9].remove(v(200)));
    EXPECT_TRUE(store.find(9).remove(v(200)));
    EXPECT_FALSE(ref[9].remove(v(200)));
    EXPECT_FALSE(store.find(9).remove(v(200)));
    expectEquivalent(ref, store);
    // Dropping the whole key.
    ref.chains.erase(9);
    EXPECT_TRUE(store.erase(9));
    EXPECT_FALSE(store.erase(9));
    EXPECT_FALSE(store.find(9));
    EXPECT_EQ(store.versionCount(9), 0u);
    expectEquivalent(ref, store);
}

TEST(StoreSemantics, BulkAppendEqualsInsert)
{
    // Loader discipline: versions arrive newest-first per key, so
    // append() must produce exactly what insert() would.
    RefStore ref;
    ftl::VersionStore<Loc> store(64);
    for (Key k = 0; k < 50; ++k) {
        for (int i = 8; i >= 1; --i) {
            ref[k].insert(v(i * 10, k % 3), Loc{k * 100 + unsigned(i)});
            store.getOrCreate(k).append(v(i * 10, k % 3),
                                        Loc{k * 100 + unsigned(i)});
        }
    }
    expectEquivalent(ref, store);
    // Out-of-order tail: append falls back to sorted insertion.
    ref[1].append(v(55), Loc{1});
    store.find(1).append(v(55), Loc{1});
    expectEquivalent(ref, store);
}

// ------------------------------------------------- randomized replay

TEST(StoreSemantics, RandomizedOpStreamEquivalence)
{
    std::mt19937_64 rng(20260808);
    RefStore ref;
    ftl::VersionStore<Loc> store; // default capacity: exercises grow
    constexpr Key kKeys = 257;    // prime, off the pow2 grid
    std::uint64_t cookie = 0;
    for (int step = 0; step < 60000; ++step) {
        const Key key = rng() % kKeys;
        const Time ts = 1 + static_cast<Time>(rng() % 512);
        const auto op = rng() % 100;
        if (op < 45) {
            const bool a = ref[key].insert(v(ts), Loc{++cookie});
            const bool b =
                store.getOrCreate(key).insert(v(ts), Loc{cookie});
            ASSERT_EQ(a, b) << "step " << step;
        } else if (op < 60) {
            auto chain = store.find(key);
            const auto *re = ref[key].findAt(v(ts, 9));
            const auto *se = chain ? chain.findAt(v(ts, 9)) : nullptr;
            ASSERT_EQ(re == nullptr, se == nullptr) << "step " << step;
            if (re)
                ASSERT_EQ(re->loc, se->loc) << "step " << step;
        } else if (op < 70) {
            const bool a = ref[key].remove(v(ts));
            auto chain = store.find(key);
            const bool b = chain ? chain.remove(v(ts)) : false;
            ASSERT_EQ(a, b) << "step " << step;
        } else if (op < 80) {
            const bool a = ref[key].relocate(v(ts), Loc{++cookie});
            auto chain = store.find(key);
            const bool b = chain ? chain.relocate(v(ts), Loc{cookie})
                                 : false;
            ASSERT_EQ(a, b) << "step " << step;
        } else if (op < 90) {
            std::uint64_t a_drops = 0, b_drops = 0;
            ref[key].pruneBelowWatermark(
                ts, [&](const auto &) { ++a_drops; });
            if (auto chain = store.find(key))
                chain.pruneBelowWatermark(
                    ts, [&](const auto &) { ++b_drops; });
            ASSERT_EQ(a_drops, b_drops) << "step " << step;
        } else if (op < 95) {
            const bool a = ref[key].contains(v(ts));
            auto chain = store.find(key);
            const bool b = chain ? chain.contains(v(ts)) : false;
            ASSERT_EQ(a, b) << "step " << step;
        } else {
            const bool had = !ref[key].empty();
            ref.chains.erase(key);
            ASSERT_EQ(store.erase(key), had) << "step " << step;
        }
        if (step % 7919 == 0)
            expectEquivalent(ref, store);
    }
    expectEquivalent(ref, store);
}

// --------------------------------------------- capacity independence

TEST(StoreSemantics, ContentsIndependentOfInitialCapacity)
{
    // The same stream into tables pre-sized 0 / exact / oversized must
    // produce identical contents and identical lookup results.
    auto load = [](ftl::VersionStore<Loc> &store) {
        std::mt19937_64 rng(42);
        for (int i = 0; i < 20000; ++i) {
            const Key key = rng() % 4096;
            const Time ts = 1 + static_cast<Time>(rng() % 64);
            store.getOrCreate(key).insert(v(ts), Loc{key * 1000 + ts});
            if (i % 5 == 0)
                if (auto c = store.find(rng() % 4096))
                    c.pruneBelowWatermark(8, [](const auto &) {});
        }
    };
    ftl::VersionStore<Loc> tiny;
    ftl::VersionStore<Loc> exact(4096);
    ftl::VersionStore<Loc> huge(1u << 16);
    load(tiny);
    load(exact);
    load(huge);
    ASSERT_EQ(tiny.size(), exact.size());
    ASSERT_EQ(tiny.size(), huge.size());
    EXPECT_LT(exact.capacity(), huge.capacity());
    for (Key key = 0; key < 4096; ++key) {
        EXPECT_EQ(dump(tiny.find(key)), dump(exact.find(key)))
            << "key " << key;
        EXPECT_EQ(dump(tiny.find(key)), dump(huge.find(key)))
            << "key " << key;
    }
}

TEST(StoreSemantics, ReserveKeysNeverShrinksOrLosesData)
{
    ftl::VersionStore<Loc> store;
    for (Key k = 0; k < 1000; ++k)
        store.getOrCreate(k).insert(v(10), Loc{k});
    const std::size_t cap = store.capacity();
    store.reserveKeys(10); // smaller: no-op
    EXPECT_EQ(store.capacity(), cap);
    store.reserveKeys(100000); // bigger: rehash keeps every chain
    EXPECT_GT(store.capacity(), cap);
    for (Key k = 0; k < 1000; ++k) {
        ASSERT_TRUE(store.find(k)) << "key " << k;
        EXPECT_EQ(store.find(k).youngest().loc, (Loc{k}));
    }
}

// ---------------------------------------------- robin-hood erase stress

TEST(StoreSemantics, EraseChurnKeepsSurvivorsFindable)
{
    // Backward-shift erase under heavy collision pressure: insert and
    // erase in waves, checking the surviving set exactly each wave.
    std::mt19937_64 rng(7);
    ftl::VersionStore<Loc> store; // small start: erases + grows mix
    std::set<Key> alive;
    for (int wave = 0; wave < 40; ++wave) {
        for (int i = 0; i < 500; ++i) {
            const Key key = rng() % 2048;
            store.getOrCreate(key).insert(v(wave + 1), Loc{key});
            alive.insert(key);
        }
        for (int i = 0; i < 400; ++i) {
            const Key key = rng() % 2048;
            ASSERT_EQ(store.erase(key), alive.erase(key) > 0)
                << "wave " << wave;
        }
        ASSERT_EQ(store.size(), alive.size()) << "wave " << wave;
        for (Key key = 0; key < 2048; ++key)
            ASSERT_EQ(static_cast<bool>(store.find(key)),
                      alive.count(key) > 0)
                << "wave " << wave << " key " << key;
    }
}

TEST(StoreSemantics, ClearRetainsCapacityDropsContents)
{
    ftl::VersionStore<Loc> store(1000);
    for (Key k = 0; k < 1000; ++k)
        for (Time ts = 1; ts <= 4; ++ts)
            store.getOrCreate(k).insert(v(ts * 10), Loc{k});
    const std::size_t cap = store.capacity();
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.capacity(), cap);
    for (Key k = 0; k < 1000; ++k)
        ASSERT_FALSE(store.find(k));
    // Reusable after clear.
    store.getOrCreate(3).insert(v(5), Loc{3});
    EXPECT_EQ(store.versionCount(3), 1u);
}

// --------------------------------------------------------- KeyMap
// common::RobinMap keyed by Key, the shape of semel::KeyRecords.

namespace {

/** A map payload with more than one word, so slot moves must carry
 *  the whole value. */
struct Payload
{
    std::uint64_t a = 0;
    std::uint32_t b = 0;

    bool operator==(const Payload &) const = default;
};

/** Every reference entry is found with its payload, and the sizes
 *  agree. */
void
expectSameContents(const common::RobinMap<Key, Payload> &map,
                   const std::unordered_map<Key, Payload> &ref)
{
    ASSERT_EQ(map.size(), ref.size());
    for (const auto &[key, value] : ref) {
        const Payload *got = map.find(key);
        ASSERT_NE(got, nullptr) << "key " << key;
        ASSERT_EQ(*got, value) << "key " << key;
    }
}

} // namespace

TEST(KeyMap, InsertUpdateChurnMatchesReference)
{
    std::mt19937_64 rng(99);
    common::RobinMap<Key, Payload> map;
    std::unordered_map<Key, Payload> ref;
    for (int i = 0; i < 50000; ++i) {
        const Key key = rng() % 10000;
        switch (rng() % 3) {
          case 0: {
            // Lookup: present exactly when the reference has it.
            const auto it = ref.find(key);
            const Payload *got = map.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "step " << i;
            if (got != nullptr)
                ASSERT_EQ(*got, it->second) << "step " << i;
            break;
          }
          case 1: {
            // Insert-or-get: a new key starts value-initialized.
            Payload &p = map[key];
            Payload &r = ref[key];
            ASSERT_EQ(p, r) << "step " << i;
            break;
          }
          default: {
            // Payload update through operator[].
            const Payload v{rng(), static_cast<std::uint32_t>(i)};
            map[key] = v;
            ref[key] = v;
            break;
          }
        }
    }
    expectSameContents(map, ref);
    for (Key key = 10000; key < 10100; ++key)
        ASSERT_EQ(map.find(key), nullptr);
}

TEST(KeyMap, ReserveAndClearMatchReference)
{
    common::RobinMap<Key, Payload> map;
    std::unordered_map<Key, Payload> ref;
    for (Key k = 0; k < 5000; ++k) {
        const Key key = k * 2654435761ull;
        map[key] = Payload{k, static_cast<std::uint32_t>(k * 3)};
        ref[key] = Payload{k, static_cast<std::uint32_t>(k * 3)};
    }
    expectSameContents(map, ref);
    map.reserve(10); // smaller: no-op
    expectSameContents(map, ref);
    map.reserve(1u << 18); // bigger: rehash keeps every payload
    expectSameContents(map, ref);

    // Clear drops every entry; the map is reusable and re-inserted
    // keys start value-initialized.
    map.clear();
    ref.clear();
    expectSameContents(map, ref);
    for (Key k = 0; k < 5000; ++k)
        ASSERT_EQ(map.find(k * 2654435761ull), nullptr);
    EXPECT_EQ(map[7], Payload{});
    map[7].b = 9;
    ref[7] = Payload{0, 9};
    expectSameContents(map, ref);
}

// ------------------------------------------------- payload lifetimes

namespace {

/**
 * A move-only payload that counts its live instances and owns a heap
 * cell: a payload the table destroys twice breaks the count (and trips
 * ASan), one it never destroys leaks its cell (and trips LeakSanitizer).
 */
struct Counted
{
    static inline long live = 0;

    std::unique_ptr<std::uint64_t> id;

    Counted() { ++live; }
    explicit Counted(std::uint64_t i)
        : id(std::make_unique<std::uint64_t>(i))
    {
        ++live;
    }
    Counted(Counted &&o) noexcept : id(std::move(o.id)) { ++live; }
    Counted &operator=(Counted &&o) noexcept = default;
    ~Counted() { --live; }

    bool operator==(const Counted &o) const { return *id == *o.id; }
};

} // namespace

TEST(TableCore, MapDestroysEachPayloadExactlyOnce)
{
    Counted::live = 0;
    {
        common::RobinMap<Key, Counted> map; // small start: rehashes
        // Keys collide on their home buckets, so inserts displace.
        for (Key k = 0; k < 3000; ++k) {
            map[k * 64] = Counted(k);
            ASSERT_EQ(Counted::live, static_cast<long>(map.size()));
        }
        for (Key k = 0; k < 3000; k += 2)
            ASSERT_TRUE(map.erase(k * 64));
        EXPECT_FALSE(map.erase(1));
        EXPECT_EQ(Counted::live, static_cast<long>(map.size()));
        for (Key k = 1; k < 3000; k += 2)
            ASSERT_EQ(*map.find(k * 64)->id, k);
        map.reserve(1u << 14); // rehash moves every survivor once
        EXPECT_EQ(Counted::live, 1500);
        for (Key k = 1; k < 3000; k += 2)
            ASSERT_EQ(*map.find(k * 64)->id, k);
        map.clear();
        EXPECT_EQ(Counted::live, 0);
        for (Key k = 0; k < 100; ++k)
            map[k] = Counted(k);
        EXPECT_EQ(Counted::live, 100);
    }
    EXPECT_EQ(Counted::live, 0); // destruction
}

TEST(TableCore, VersionStoreDestroysEachEntryExactlyOnce)
{
    Counted::live = 0;
    const auto versions = [](ftl::VersionStore<Counted> &store) {
        std::size_t n = 0;
        store.forEach([&](Key, ftl::VersionStore<Counted>::ChainRef c) {
            n += c.size();
        });
        return static_cast<long>(n);
    };
    {
        ftl::VersionStore<Counted> store;
        // One to four versions per key: inline chains and arena
        // blocks, moved by displacement and by every rehash.
        for (Key k = 0; k < 2000; ++k)
            for (Time t = 1; t <= static_cast<Time>(1 + k % 4); ++t)
                store.getOrCreate(k).insert(v(t), Counted(k * 10 + t));
        ASSERT_EQ(Counted::live, versions(store));
        for (Key k = 0; k < 2000; k += 3)
            ASSERT_TRUE(store.erase(k));
        EXPECT_EQ(Counted::live, versions(store));
        store.forEach([](Key, ftl::VersionStore<Counted>::ChainRef c) {
            c.pruneBelowWatermark(100, [](const auto &) {});
        });
        EXPECT_EQ(Counted::live, static_cast<long>(store.size()));
        store.forEach([](Key k, ftl::VersionStore<Counted>::ChainRef c) {
            ASSERT_EQ(*c.youngest().loc.id, k * 10 + 1 + k % 4);
        });
        store.clear();
        EXPECT_EQ(Counted::live, 0);
        for (Key k = 0; k < 50; ++k)
            for (Time t = 1; t <= 3; ++t)
                store.getOrCreate(k).insert(v(t), Counted(t));
        EXPECT_EQ(Counted::live, 150);
    }
    EXPECT_EQ(Counted::live, 0); // destruction, arena blocks included
}
