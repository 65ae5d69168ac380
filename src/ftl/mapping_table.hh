/**
 * @file
 * The zero-allocation storage data plane: a map from Key to a version
 * chain, with the common 1-version case stored inline in the table
 * slot and overflow chains carved from a size-class arena (arena.hh).
 * The DRAM, MFTL and VFTL backends index their keys with it.
 *
 * The table itself is the shared robin-hood core
 * (common/robin_table.hh: probe, shift-forward insert, backward-shift
 * erase, doubling rehash); this file is the chain layer on top. The
 * slot (DRAM backend: 64 bytes, one cache line; MFTL/VFTL: 48):
 *
 *        Key      key       8B   }
 *        u32      dist      4B   }  dist==0 <=> slot empty,
 *        u16      count     2B   }  dist is probe distance + 1
 *        u16      capClass  2B   }  kInlineClass <=> entry is inline
 *        union {
 *          Entry  one      (inline newest version)
 *          Entry *many     (arena block, capacity 2 << capClass)
 *        }
 *
 * A key with one live version (the overwhelming case after watermark
 * pruning) costs one cache line and zero pointer chases. Chains that
 * grow past one entry move to an arena block that doubles per size
 * class; chains that shrink back to <= 1 entry return their block to
 * the arena freelist, so steady-state put/prune churn allocates
 * nothing. All chain operations share ftl::chain_ops binary searches
 * with the reference VersionChain, so semantics cannot drift
 * (tests/store_semantics_test.cc replays both).
 *
 * Iteration is in slot order; every iteration in the backends
 * (rebuild scans) is order-independent and runs without suspension
 * points.
 */

#ifndef FTL_MAPPING_TABLE_HH
#define FTL_MAPPING_TABLE_HH

#include <cstdint>
#include <new>
#include <utility>

#include "common/robin_table.hh"
#include "common/types.hh"
#include "ftl/arena.hh"
#include "ftl/version_chain.hh"

namespace ftl {

using common::Key;
using common::Time;
using common::Version;

/** Map from Key to a descending version chain (see the file comment). */
template <typename Loc>
class VersionStore
{
  private:
    struct Slot;

  public:
    using Entry = VersionEntry<Loc>;

    /** Pre-sized for @p expected_keys distinct keys with no rehash
     *  (0 = start minimal and grow). */
    explicit VersionStore(std::uint64_t expected_keys = 0)
    {
        if (expected_keys > 0)
            table_.reserve(expected_keys);
    }

    VersionStore(const VersionStore &) = delete;
    VersionStore &operator=(const VersionStore &) = delete;

    class ChainRef;

    /** Chain for @p key, or a falsy ChainRef when absent. */
    ChainRef
    find(Key key)
    {
        Slot *s = table_.find(key);
        return s == nullptr ? ChainRef{} : ChainRef{this, s};
    }

    /** Chain for @p key, creating an empty chain when absent. */
    ChainRef
    getOrCreate(Key key)
    {
        return ChainRef{this, &table_.insert(key)};
    }

    /** Remove a key and its chain. */
    bool
    erase(Key key)
    {
        Slot *s = table_.find(key);
        if (s == nullptr)
            return false;
        truncate(*s, 0); // returns an overflow block to the arena
        table_.erase(*s);
        return true;
    }

    /** Drop every chain; capacity and arena slabs are retained. */
    void
    clear()
    {
        table_.forEach([this](Slot &s) { truncate(s, 0); });
        table_.clear();
    }

    /** Pre-size for @p keys distinct keys (no rehash). Never shrinks. */
    void reserveKeys(std::uint64_t keys) { table_.reserve(keys); }

    std::size_t size() const { return table_.size(); }
    std::size_t capacity() const { return table_.capacity(); }

    /** Number of live versions for @p key (0 when absent). */
    std::size_t
    versionCount(Key key) const
    {
        const Slot *s = table_.find(key);
        return s == nullptr ? 0 : s->count;
    }

    /**
     * Visit every (key, chain). @p fn may mutate the chain (insert,
     * prune, relocate) but must NOT erase keys or insert new ones —
     * either would move slots under the iteration.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        table_.forEach([&](Slot &s) { fn(s.key, ChainRef{this, &s}); });
    }

    /** Exact bytes held: slot array + arena slabs. */
    std::uint64_t
    memoryBytes() const
    {
        return table_.slotBytes() + arena_.slabBytes();
    }

    /**
     * Borrowed reference to one key's chain. Valid until the next
     * operation that can move slots (getOrCreate of a new key, erase,
     * reserveKeys, clear); chain mutations through the ref itself are
     * fine. Mirrors VersionChain's interface.
     */
    class ChainRef
    {
      public:
        ChainRef() = default;

        explicit operator bool() const { return store_ != nullptr; }

        bool empty() const { return slot_->count == 0; }
        std::size_t size() const { return slot_->count; }

        /** Youngest entry; chain must be non-empty. */
        const Entry &youngest() const { return begin()[0]; }

        const Entry *begin() const { return entries(); }
        const Entry *end() const { return entries() + size(); }

        /** Same contract as VersionChain::insert. */
        bool
        insert(Version v, Loc loc)
        {
            const std::size_t idx = firstLeq(v);
            if (idx < size() && entries()[idx].version == v)
                return false;
            store_->insertAt(*slot_, idx, v, std::move(loc));
            return true;
        }

        /** Same contract as VersionChain::append. */
        bool
        append(Version v, Loc loc)
        {
            if (!empty()) {
                const Version tail = entries()[size() - 1].version;
                if (tail == v)
                    return false;
                if (tail < v)
                    return insert(v, std::move(loc));
            }
            store_->insertAt(*slot_, size(), v, std::move(loc));
            return true;
        }

        /** Youngest entry with stamp <= at, or nullptr. */
        const Entry *
        findAt(Version at) const
        {
            const std::size_t idx = firstLeq(at);
            return idx < size() ? &entries()[idx] : nullptr;
        }

        /** Mutable entry for an exact version, or nullptr. */
        Entry *
        find(Version v) const
        {
            const std::size_t idx = firstLeq(v);
            return idx < size() && entries()[idx].version == v
                       ? &entries()[idx]
                       : nullptr;
        }

        bool contains(Version v) const { return find(v) != nullptr; }

        /** Same contract as VersionChain::pruneBelowWatermark. */
        template <typename OnDrop>
        void
        pruneBelowWatermark(Time watermark, OnDrop &&on_drop)
        {
            const std::size_t first_drop =
                chain_ops::firstTsLeq(entries(), size(), watermark) + 1;
            if (first_drop >= size())
                return;
            for (std::size_t i = first_drop; i < size(); ++i)
                on_drop(entries()[i]);
            store_->truncate(*slot_, first_drop);
        }

        /** Same contract as VersionChain::remove. */
        bool
        remove(Version v)
        {
            const Entry *e = find(v);
            if (e != nullptr)
                store_->removeAt(*slot_,
                                 static_cast<std::size_t>(e - entries()));
            return e != nullptr;
        }

        /** Same contract as VersionChain::relocate. */
        bool
        relocate(Version v, Loc loc)
        {
            Entry *e = find(v);
            if (e != nullptr)
                e->loc = std::move(loc);
            return e != nullptr;
        }

      private:
        friend class VersionStore;
        ChainRef(VersionStore *store, Slot *slot) : store_(store), slot_(slot)
        {
        }

        Entry *entries() const { return VersionStore::entriesOf(*slot_); }

        std::size_t
        firstLeq(Version v) const
        {
            return chain_ops::firstLeq(entries(), size(), v);
        }

        VersionStore *store_ = nullptr;
        Slot *slot_ = nullptr;
    };

  private:
    friend class ChainRef;

    /** capClass value marking "entry lives inline in the slot". */
    static constexpr std::uint16_t kInlineClass = 0xffff;

    /** Table slot; the hooks are the common::RobinTable contract. */
    struct Slot
    {
        using KeyType = Key;

        Key key;
        std::uint32_t dist;     // probe distance + 1; 0 = empty
        std::uint16_t count;    // live versions in this chain
        std::uint16_t capClass; // arena class, or kInlineClass
        union Rep {
            Rep() {}
            ~Rep() {}
            Entry one;
            Entry *many;
        } rep;

        static std::uint64_t hash(Key k) { return common::FibonacciHash{}(k); }

        static void
        init(Slot &s)
        {
            s.count = 0;
            s.capClass = kInlineClass;
        }

        /**
         * Inline entries move by move-construction; overflow chains
         * just transfer the block pointer.
         */
        static void
        relocate(Slot &dst, Slot &src)
        {
            dst.count = src.count;
            dst.capClass = src.capClass;
            if (src.capClass != kInlineClass) {
                dst.rep.many = src.rep.many;
            } else if (src.count == 1) {
                new (&dst.rep.one) Entry(std::move(src.rep.one));
                src.rep.one.~Entry();
            }
        }

        /** Destroy the entries. An overflow block goes back to the
         *  arena through truncate; at teardown it is freed with the
         *  arena's slabs. */
        static void
        destroy(Slot &s)
        {
            Entry *e = entriesOf(s);
            for (std::size_t i = 0; i < s.count; ++i)
                e[i].~Entry();
        }
    };

  public:
    /** Bytes per table slot: 64 for the DRAM backend, 48 for the
     *  log-structured ones (static_asserted where each is used). */
    static constexpr std::size_t kSlotBytes = sizeof(Slot);

  private:
    static Entry *
    entriesOf(Slot &s)
    {
        return s.capClass == kInlineClass ? &s.rep.one : s.rep.many;
    }

    static std::uint32_t
    chainCapacity(const Slot &s)
    {
        return s.capClass == kInlineClass
                   ? 1u
                   : ChainArena<Entry>::capacityOf(s.capClass);
    }

    // --- chain storage management ------------------------------------

    /** Insert at chain index @p idx in [0, count], growing if full. */
    void
    insertAt(Slot &s, std::size_t idx, Version v, Loc &&loc)
    {
        if (s.count == chainCapacity(s))
            growChain(s);
        Entry *e = entriesOf(s);
        if (idx == s.count) {
            new (&e[idx]) Entry{v, std::move(loc)};
        } else {
            // Shift [idx, count) up by one: move-construct the new
            // tail, move-assign the middle, assign the freed hole.
            new (&e[s.count]) Entry(std::move(e[s.count - 1]));
            for (std::size_t j = s.count - 1; j > idx; --j)
                e[j] = std::move(e[j - 1]);
            e[idx] = Entry{v, std::move(loc)};
        }
        ++s.count;
    }

    void
    removeAt(Slot &s, std::size_t idx)
    {
        Entry *e = entriesOf(s);
        for (std::size_t j = idx + 1; j < s.count; ++j)
            e[j - 1] = std::move(e[j]);
        truncate(s, s.count - 1u);
    }

    /** Destroy entries [from, count) — the prune tail drop; an overflow
     *  chain left with <= 1 entry returns its block. */
    void
    truncate(Slot &s, std::size_t from)
    {
        Entry *e = entriesOf(s);
        for (std::size_t j = from; j < s.count; ++j)
            e[j].~Entry();
        s.count = static_cast<std::uint16_t>(from);
        maybeShrink(s);
    }

    void
    growChain(Slot &s)
    {
        const std::uint16_t cls =
            s.capClass == kInlineClass
                ? 0
                : static_cast<std::uint16_t>(s.capClass + 1);
        Entry *blk = arena_.allocate(cls);
        Entry *e = entriesOf(s);
        for (std::size_t i = 0; i < s.count; ++i) {
            new (&blk[i]) Entry(std::move(e[i]));
            e[i].~Entry();
        }
        if (s.capClass != kInlineClass)
            arena_.deallocate(s.rep.many, s.capClass);
        s.rep.many = blk;
        s.capClass = cls;
    }

    /** Chains at <= 1 entry fold back inline, recycling their block. */
    void
    maybeShrink(Slot &s)
    {
        if (s.capClass == kInlineClass || s.count > 1)
            return;
        // rep is a union: save the block pointer before rep.one
        // overwrites those bytes.
        Entry *blk = s.rep.many;
        const std::uint16_t cls = s.capClass;
        s.capClass = kInlineClass;
        if (s.count == 1) {
            new (&s.rep.one) Entry(std::move(blk[0]));
            blk[0].~Entry();
        }
        arena_.deallocate(blk, cls);
    }

    // Declared first so it outlives the table's teardown, which
    // destroys entries held in arena blocks.
    ChainArena<Entry> arena_;
    common::RobinTable<Slot> table_;
};

} // namespace ftl

#endif // FTL_MAPPING_TABLE_HH
