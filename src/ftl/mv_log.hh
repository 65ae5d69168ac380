/**
 * @file
 * The multi-version key-value log behind both multi-version FTLs of
 * Table 1. MFTL (mftl.hh) runs it on flash erase blocks; VFTL
 * (vftl.hh) runs the same log on the logical blocks of a generic SFTL,
 * so the stacking is the only difference the table measures.
 *
 * An in-DRAM mapping table maps each key to its versions'
 * <create-timestamp, address, slot>, youngest first. Tuples are
 * written log-structured through a pack buffer (pack_log.hh), and
 * version management is fused with garbage collection:
 *
 *  - validity: a stored tuple is live iff the mapping table still
 *    references its exact <key, version, location>;
 *  - watermark GC (section 3.1): once every client's clock has passed
 *    the watermark, only the youngest version with stamp <= watermark
 *    plus all younger versions are kept; older tuples become dead in
 *    place and are never remapped. Reads prune the chain they touch;
 *    a periodic sweep prunes the rest, visiting only the keys that
 *    may hold more than one version;
 *  - unit GC: the free-space pool (free_pool.hh) picks the units with
 *    the fewest live tuples; their live tuples are re-packed through
 *    the pack buffer shared with user writes ("puts or remapped
 *    keys", section 5), and each unit is reclaimed once they are
 *    durable.
 *
 * The log never asks which FTL it serves. Its Medium supplies the unit
 * and pass limits, page allocation, write, read and pinning, reclaim,
 * the recovery scan, and the stat and PANIC names.
 */

#ifndef FTL_MV_LOG_HH
#define FTL_MV_LOG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "ftl/free_pool.hh"
#include "ftl/kv_backend.hh"
#include "ftl/mapping_table.hh"
#include "ftl/pack_log.hh"
#include "sim/task.hh"

namespace ftl {

/** Interval of the background watermark pruning sweep. */
inline constexpr common::Duration kWatermarkSweepInterval =
    50 * common::kMillisecond;

/** Knobs of the multi-version log. */
struct LogConfig
{
    /** Max time a tuple waits in the pack buffer (paper: 1 ms). */
    common::Duration packTimeout = common::kMillisecond;
    /** Free-unit fraction the collector restores per pass; each FTL's
     *  Config sets its own. */
    double gcTargetFraction = 0;
    /** Pre-size the mapping table for this many keys (0 = grow). */
    std::uint64_t expectedKeys = 0;
};

template <typename Medium>
class MvLog : public KvBackend
{
  public:
    MvLog(sim::Simulator &sim, Medium medium, const LogConfig &config);

    sim::Task<GetResult> get(Key key, Version at) override;
    sim::Task<PutStatus> put(Key key, Value value, Version version) override;
    sim::Task<void> erase(Key key) override;
    void setWatermark(Time watermark) override;
    std::optional<Version> versionAt(Key key, Version at) override;
    bool multiVersion() const override { return true; }
    common::StatSet &stats() override { return stats_; }
    void reserveKeys(std::uint64_t keys) override { map_.reserveKeys(keys); }
    std::uint64_t dataPlaneBytes() const override
    {
        return map_.memoryBytes();
    }
    /** Start the background watermark sweep. */
    void start() override;

    /** Number of live versions of a key (tests/introspection). */
    std::size_t versionCount(Key key) const
    {
        return map_.versionCount(key);
    }

  protected:
    /** Rebuild the mapping table from every stored page, as a restarted
     *  storage server would; returns the tuples recovered. */
    std::size_t rebuild();
    std::size_t freeUnits() const { return pool_.freeCount(); }

  private:
    using Addr = typename Medium::Addr;
    using Unit = FreePool::Unit;

    /** Locator of one tuple: the page it was packed into, and where. */
    struct Loc
    {
        Addr addr;
        std::uint16_t slot;
    };

    using Store = VersionStore<Loc>;
    static_assert(Store::kSlotBytes == 48,
                  "a logged key with one version takes 48 bytes");
    using ChainRef = typename Store::ChainRef;

    sim::Task<void> flush(std::vector<Pending> batch);
    /** Block user writes while free space is critically low. */
    sim::Task<void> admitUserWrite();
    sim::Task<bool> collectOnce();
    sim::Task<void> watermarkSweep();
    void pruneChain(ChainRef chain);
    void dropEntry(const typename Store::Entry &entry);
    std::string statName(const char *name) const
    {
        return std::string(Medium::kName) + "." + name;
    }

    sim::Simulator &sim_;
    Medium medium_;
    PassLimits limits_;
    FreePool pool_;
    Store map_;
    /** Every key whose chain holds more than one version (and maybe
     *  others): the only keys the watermark sweep visits. A user
     *  append that takes a chain past one version adds its key, and
     *  rebuild() refills the list (relocation never changes a chain's
     *  length); each sweep dedupes it and drops the keys left with at
     *  most one version. */
    std::vector<Key> multiVersionKeys_;
    PackLog packLog_;
    Time watermark_ = 0;

    common::StatSet stats_;
    common::Counter &gets_;
    common::Counter &puts_;
    common::Counter &deletes_;
    common::Counter &written_;
    common::Counter &remapped_;
    common::Counter &pruned_;
    common::Counter &gcVictims_;
    common::Counter &gcReads_;
    common::Counter &reclaimed_;
    common::Histogram &getLatency_;
    common::Histogram &putLatency_;
};

} // namespace ftl

#endif // FTL_MV_LOG_HH
