/**
 * @file
 * The zero-allocation storage data plane: an open-addressing
 * robin-hood mapping table from Key to a version chain, with the
 * common 1-version case stored inline in the table slot and overflow
 * chains carved from a size-class arena (arena.hh).
 *
 * This replaces `std::unordered_map<Key, VersionChain>` in the DRAM,
 * MFTL and VFTL backends. Design points:
 *
 *  - Power-of-two capacity, multiplicative (Fibonacci) hashing,
 *    linear probing with robin-hood displacement: a probing insert
 *    that meets a slot closer to its home bucket than itself evicts
 *    it (forward-shifting the contiguous run), keeping probe-length
 *    variance tiny at the 7/8 max load factor.
 *  - Tombstone-free erase: deleting a key backward-shifts the
 *    following run members one slot toward their home buckets, so
 *    lookups never wade through tombstones and the table never needs
 *    an anti-tombstone rehash.
 *  - Slot layout (DRAM backend: 64 bytes, one cache line):
 *
 *        Key      key       8B   }
 *        u32      dist      4B   }  header: dist==0 <=> slot empty,
 *        u16      count     2B   }  dist is probe distance + 1
 *        u16      capClass  2B   }  kInlineClass <=> entry is inline
 *        union {
 *          Entry  one      (inline newest version)
 *          Entry *many     (arena block, capacity 2 << capClass)
 *        }
 *
 *    A key with one live version (the overwhelming case after
 *    watermark pruning) costs one cache line and zero pointer
 *    chases. Chains that grow past one entry move to an arena block
 *    that doubles per size class; chains that shrink back to <= 1
 *    entry return their block to the arena freelist, so steady-state
 *    put/prune churn allocates nothing.
 *  - All chain operations share ftl::chain_ops binary searches with
 *    the reference VersionChain, so semantics cannot drift
 *    (tests/store_semantics_test.cc replays both).
 *
 * Iteration order is slot order, which differs from unordered_map
 * order — safe here because every map iteration in the backends
 * (watermark sweeps, rebuild scans) is order-independent and runs
 * without suspension points.
 *
 * Single-threaded by design, like the simulator that owns it.
 */

#ifndef FTL_MAPPING_TABLE_HH
#define FTL_MAPPING_TABLE_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/types.hh"
#include "ftl/arena.hh"
#include "ftl/version_chain.hh"

namespace ftl {

using common::Key;
using common::Time;
using common::Version;

namespace table_detail {

/** Fibonacci multiplicative hash; the table keeps the high bits. */
inline std::uint64_t
mixKey(Key key)
{
    return static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
}

constexpr std::size_t kMinTableCap = 16;

/** Power-of-two slot count that keeps @p keys entries under the 7/8
 *  max load. */
inline std::size_t
capacityFor(std::uint64_t keys)
{
    const std::size_t want = static_cast<std::size_t>(keys + keys / 7 + 1);
    return std::bit_ceil(want < kMinTableCap ? kMinTableCap : want);
}

} // namespace table_detail

/**
 * Open-addressing robin-hood map from Key to a descending version
 * chain. See the file comment for layout and invariants.
 */
template <typename Loc>
class VersionStore
{
  private:
    struct Slot;

  public:
    using Entry = VersionEntry<Loc>;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /**
     * @param expected_keys pre-sizes the table so that many distinct
     * keys insert without a single rehash (0 = start minimal and
     * grow).
     */
    explicit VersionStore(std::uint64_t expected_keys = 0)
    {
        if (expected_keys > 0)
            rehash(table_detail::capacityFor(expected_keys));
    }

    VersionStore(const VersionStore &) = delete;
    VersionStore &operator=(const VersionStore &) = delete;

    ~VersionStore()
    {
        clear();
        ::operator delete(slots_);
    }

    class ChainRef;

    /** Chain for @p key, or a falsy ChainRef when absent. */
    ChainRef
    find(Key key)
    {
        const std::size_t idx = findIndex(key);
        return idx == npos ? ChainRef{} : ChainRef{this, idx};
    }

    /** Chain for @p key, creating an empty chain when absent. */
    ChainRef
    getOrCreate(Key key)
    {
        if ((size_ + 1) * 8 > cap_ * 7)
            grow();
        std::size_t i = bucketOf(key);
        std::uint32_t dist = 1;
        for (;;) {
            Slot &s = slots_[i];
            if (s.dist == 0) {
                fillEmpty(s, key, dist);
                return ChainRef{this, i};
            }
            if (s.key == key)
                return ChainRef{this, i};
            if (s.dist < dist) {
                // Robin hood: this resident is closer to home than we
                // are; shift the run right and take its slot.
                shiftForward(i);
                fillEmpty(slots_[i], key, dist);
                return ChainRef{this, i};
            }
            i = (i + 1) & mask_;
            ++dist;
        }
    }

    /**
     * Remove a key and its chain. Backward-shift erase: the following
     * run members move one slot toward home, leaving no tombstone.
     */
    bool
    erase(Key key)
    {
        const std::size_t idx = findIndex(key);
        if (idx == npos)
            return false;
        destroyChain(slots_[idx]);
        std::size_t hole = idx;
        for (;;) {
            const std::size_t next = (hole + 1) & mask_;
            Slot &n = slots_[next];
            if (n.dist <= 1)
                break;
            Slot &h = slots_[hole];
            h.key = n.key;
            h.dist = n.dist - 1;
            movePayload(h, n);
            hole = next;
        }
        slots_[hole].dist = 0;
        --size_;
        return true;
    }

    /** Drop every chain; capacity and arena slabs are retained. */
    void
    clear()
    {
        for (std::size_t i = 0; i < cap_; ++i) {
            if (slots_[i].dist != 0) {
                destroyChain(slots_[i]);
                slots_[i].dist = 0;
            }
        }
        size_ = 0;
    }

    /**
     * Pre-size for @p keys distinct keys so bulk load performs no
     * rehashes. Never shrinks.
     */
    void
    reserveKeys(std::uint64_t keys)
    {
        const std::size_t want = table_detail::capacityFor(keys);
        if (want > cap_)
            rehash(want);
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }

    /** Number of live versions for @p key (0 when absent). */
    std::size_t
    versionCount(Key key) const
    {
        const std::size_t idx = findIndex(key);
        return idx == npos ? 0 : slots_[idx].count;
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
        for (std::size_t i = 0; i < cap_; ++i) {
            if (slots_[i].dist != 0)
                fn(slots_[i].key, ChainRef{this, i});
        }
    }

    /** Exact bytes held: slot array + arena slabs. */
    std::uint64_t
    memoryBytes() const
    {
        return static_cast<std::uint64_t>(cap_) * sizeof(Slot) +
               arena_.slabBytes();
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

        bool empty() const { return slot().count == 0; }
        std::size_t size() const { return slot().count; }

        /** Youngest entry; chain must be non-empty. */
        const Entry &youngest() const { return begin()[0]; }

        const Entry *
        begin() const
        {
            return VersionStore::entriesOf(slot());
        }
        const Entry *end() const { return begin() + slot().count; }

        /** Same contract as VersionChain::insert. */
        bool
        insert(Version v, Loc loc)
        {
            Slot &s = slot();
            Entry *e = VersionStore::entriesOf(s);
            const std::size_t idx =
                chain_ops::firstLeq(e, s.count, v);
            if (idx < s.count && e[idx].version == v)
                return false;
            store_->insertAt(s, idx, v, std::move(loc));
            return true;
        }

        /** Same contract as VersionChain::append. */
        bool
        append(Version v, Loc loc)
        {
            Slot &s = slot();
            if (s.count > 0) {
                const Entry *e = VersionStore::entriesOf(s);
                const Version tail = e[s.count - 1].version;
                if (tail == v)
                    return false;
                if (tail < v)
                    return insert(v, std::move(loc));
            }
            store_->insertAt(s, s.count, v, std::move(loc));
            return true;
        }

        /** Youngest entry with stamp <= at, or nullptr. */
        const Entry *
        findAt(Version at) const
        {
            const Slot &s = slot();
            const Entry *e = VersionStore::entriesOf(s);
            const std::size_t idx =
                chain_ops::firstLeq(e, s.count, at);
            return idx < s.count ? &e[idx] : nullptr;
        }

        /** Mutable entry for an exact version, or nullptr. */
        Entry *
        find(Version v)
        {
            Slot &s = slot();
            Entry *e = VersionStore::entriesOf(s);
            const std::size_t idx =
                chain_ops::firstLeq(e, s.count, v);
            if (idx < s.count && e[idx].version == v)
                return &e[idx];
            return nullptr;
        }

        bool
        contains(Version v) const
        {
            const Slot &s = slot();
            const Entry *e = VersionStore::entriesOf(s);
            const std::size_t idx =
                chain_ops::firstLeq(e, s.count, v);
            return idx < s.count && e[idx].version == v;
        }

        /** Same contract as VersionChain::pruneBelowWatermark. */
        template <typename OnDrop>
        void
        pruneBelowWatermark(Time watermark, OnDrop &&on_drop)
        {
            Slot &s = slot();
            Entry *e = VersionStore::entriesOf(s);
            const std::size_t keep =
                chain_ops::firstTsLeq(e, s.count, watermark);
            const std::size_t first_drop = keep + 1;
            if (first_drop >= s.count)
                return;
            for (std::size_t i = first_drop; i < s.count; ++i)
                on_drop(e[i]);
            store_->truncate(s, first_drop);
        }

        /** Same contract as VersionChain::remove. */
        bool
        remove(Version v)
        {
            Slot &s = slot();
            Entry *e = VersionStore::entriesOf(s);
            const std::size_t idx =
                chain_ops::firstLeq(e, s.count, v);
            if (idx < s.count && e[idx].version == v) {
                store_->removeAt(s, idx);
                return true;
            }
            return false;
        }

        /** Same contract as VersionChain::relocate. */
        bool
        relocate(Version v, Loc loc)
        {
            if (Entry *e = find(v)) {
                e->loc = std::move(loc);
                return true;
            }
            return false;
        }

      private:
        friend class VersionStore;
        ChainRef(VersionStore *store, std::size_t index)
            : store_(store), index_(index)
        {
        }

        Slot &slot() const { return store_->slots_[index_]; }

        VersionStore *store_ = nullptr;
        std::size_t index_ = 0;
    };

  private:
    friend class ChainRef;

    /** capClass value marking "entry lives inline in the slot". */
    static constexpr std::uint16_t kInlineClass = 0xffff;

    struct Slot
    {
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
    };

    static Entry *
    entriesOf(Slot &s)
    {
        return s.capClass == kInlineClass ? &s.rep.one : s.rep.many;
    }

    static const Entry *
    entriesOf(const Slot &s)
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

    void
    fillEmpty(Slot &s, Key key, std::uint32_t dist)
    {
        s.key = key;
        s.dist = dist;
        s.count = 0;
        s.capClass = kInlineClass;
        ++size_;
    }

    std::size_t
    bucketOf(Key key) const
    {
        return table_detail::mixKey(key) >> shift_;
    }

    std::size_t
    findIndex(Key key) const
    {
        if (cap_ == 0)
            return npos;
        std::size_t i = bucketOf(key);
        std::uint32_t dist = 1;
        for (;;) {
            const Slot &s = slots_[i];
            if (s.dist < dist) // includes empty (dist == 0)
                return npos;
            if (s.key == key)
                return i;
            i = (i + 1) & mask_;
            ++dist;
        }
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
        e[s.count - 1].~Entry();
        --s.count;
        maybeShrink(s);
    }

    /** Destroy entries [from, count) — the prune tail drop. */
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

    void
    destroyChain(Slot &s)
    {
        Entry *e = entriesOf(s);
        for (std::size_t i = 0; i < s.count; ++i)
            e[i].~Entry();
        if (s.capClass != kInlineClass)
            arena_.deallocate(s.rep.many, s.capClass);
        s.count = 0;
        s.capClass = kInlineClass;
    }

    /**
     * Move src's chain payload into dst (dst's payload must be dead).
     * Inline entries move by move-construction; overflow chains just
     * transfer the block pointer. src is left empty.
     */
    static void
    movePayload(Slot &dst, Slot &src)
    {
        dst.count = src.count;
        dst.capClass = src.capClass;
        if (src.capClass == kInlineClass) {
            if (src.count == 1) {
                new (&dst.rep.one) Entry(std::move(src.rep.one));
                src.rep.one.~Entry();
            }
        } else {
            dst.rep.many = src.rep.many;
        }
        src.count = 0;
        src.capClass = kInlineClass;
    }

    // --- table growth / displacement ---------------------------------

    /**
     * Make slot @p pos a hole by moving the contiguous run starting
     * there one step right (into the first empty slot), bumping each
     * displaced resident's probe distance.
     */
    void
    shiftForward(std::size_t pos)
    {
        std::size_t e = pos;
        while (slots_[e].dist != 0)
            e = (e + 1) & mask_;
        while (e != pos) {
            const std::size_t p = (e + cap_ - 1) & mask_;
            Slot &dst = slots_[e];
            Slot &src = slots_[p];
            dst.key = src.key;
            dst.dist = src.dist + 1;
            movePayload(dst, src);
            e = p;
        }
        slots_[pos].dist = 0;
    }

    void
    grow()
    {
        rehash(cap_ == 0 ? table_detail::kMinTableCap : cap_ * 2);
    }

    void
    rehash(std::size_t new_cap)
    {
        Slot *old = slots_;
        const std::size_t old_cap = cap_;
        slots_ = allocSlots(new_cap);
        cap_ = new_cap;
        mask_ = new_cap - 1;
        shift_ = static_cast<std::uint32_t>(
            64 - std::countr_zero(new_cap));
        size_ = 0;
        for (std::size_t i = 0; i < old_cap; ++i) {
            Slot &s = old[i];
            if (s.dist == 0)
                continue;
            // Capacity is already final, so this cannot re-enter
            // grow(); the new slot's payload is empty — overwrite it.
            ChainRef ref = getOrCreate(s.key);
            movePayload(ref.slot(), s);
        }
        ::operator delete(old);
    }

    Slot *
    allocSlots(std::size_t n)
    {
        auto *p = static_cast<Slot *>(::operator new(n * sizeof(Slot)));
        // Zero-fill: dist == 0 marks every slot empty; union bytes are
        // raw until a chain is constructed.
        std::memset(static_cast<void *>(p), 0, n * sizeof(Slot));
        return p;
    }

    Slot *slots_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::uint32_t shift_ = 64; // >> 64 is UB; guarded by cap_ == 0
    std::size_t size_ = 0;
    ChainArena<Entry> arena_;
};

/**
 * Robin-hood map from Key to a small trivially copyable payload: the
 * VersionStore table discipline (Fibonacci hash, linear probing with
 * robin-hood displacement, 7/8 max load) with the payload inline in
 * the slot and no erase. A new key's payload starts value-initialized
 * (all-zero slots are empty slots). Holds a SEMEL primary's per-key
 * records (semel::KeyRecord) with zero steady-state allocations.
 */
template <typename V>
class KeyMap
{
    static_assert(std::is_trivially_copyable_v<V>);

    struct Slot
    {
        Key key;
        std::uint32_t dist; // probe distance + 1; 0 = empty
        V value;
    };

  public:
    /** Bytes per table slot (key, probe distance, payload). */
    static constexpr std::size_t kSlotBytes = sizeof(Slot);

    KeyMap() = default;
    KeyMap(const KeyMap &) = delete;
    KeyMap &operator=(const KeyMap &) = delete;

    ~KeyMap() { ::operator delete(slots_); }

    /** Payload of @p key, or nullptr when absent. */
    V *
    find(Key key)
    {
        if (cap_ == 0)
            return nullptr;
        std::size_t i = bucketOf(key);
        std::uint32_t dist = 1;
        for (;;) {
            Slot &s = slots_[i];
            if (s.dist < dist) // includes empty (dist == 0)
                return nullptr;
            if (s.key == key)
                return &s.value;
            i = (i + 1) & mask_;
            ++dist;
        }
    }

    const V *
    find(Key key) const
    {
        return const_cast<KeyMap *>(this)->find(key);
    }

    /**
     * Payload of @p key, inserting a value-initialized one when
     * absent. A call may grow the table or displace other keys, so
     * it invalidates pointers and references from earlier calls.
     */
    V &
    operator[](Key key)
    {
        if ((size_ + 1) * 8 > cap_ * 7)
            rehash(cap_ == 0 ? table_detail::kMinTableCap : cap_ * 2);
        std::size_t i = bucketOf(key);
        Slot carry{key, 1, V{}};
        V *placed = nullptr;
        for (;;) {
            Slot &s = slots_[i];
            if (s.dist == 0) {
                s = carry;
                ++size_;
                return placed != nullptr ? *placed : s.value;
            }
            if (s.key == key)
                return s.value;
            if (s.dist < carry.dist) {
                // Robin hood: take the richer resident's slot and
                // carry it on down the run.
                std::swap(s, carry);
                if (placed == nullptr)
                    placed = &s.value;
            }
            i = (i + 1) & mask_;
            ++carry.dist;
        }
    }

    /** Drop every entry; capacity is retained. */
    void
    clear()
    {
        if (cap_ > 0)
            std::memset(static_cast<void *>(slots_), 0,
                        cap_ * sizeof(Slot));
        size_ = 0;
    }

    /** Pre-size for @p keys inserts with no rehash. Never shrinks. */
    void
    reserve(std::uint64_t keys)
    {
        const std::size_t want = table_detail::capacityFor(keys);
        if (want > cap_)
            rehash(want);
    }

    std::size_t size() const { return size_; }

  private:
    std::size_t
    bucketOf(Key key) const
    {
        return table_detail::mixKey(key) >> shift_;
    }

    void
    rehash(std::size_t new_cap)
    {
        Slot *old = slots_;
        const std::size_t old_cap = cap_;
        slots_ = static_cast<Slot *>(
            ::operator new(new_cap * sizeof(Slot)));
        std::memset(static_cast<void *>(slots_), 0,
                    new_cap * sizeof(Slot));
        cap_ = new_cap;
        mask_ = new_cap - 1;
        shift_ = static_cast<std::uint32_t>(
            64 - std::countr_zero(new_cap));
        size_ = 0;
        for (std::size_t i = 0; i < old_cap; ++i) {
            if (old[i].dist != 0)
                (*this)[old[i].key] = old[i].value;
        }
        ::operator delete(old);
    }

    Slot *slots_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::uint32_t shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace ftl

#endif // FTL_MAPPING_TABLE_HH
