/**
 * @file
 * The simulator's one open-addressing hash table, behind every keyed
 * index of the server state: the FTL mapping table (ftl::VersionStore),
 * the per-key records and the network's per-link state (the last two
 * through RobinMap below). MILANA's transactions, keyed by a dense
 * serial per client, use common::SeqWindow instead.
 *
 *  - Power-of-two capacity, Fibonacci hashing (high bits), linear
 *    probing with robin-hood displacement: an insert that meets a
 *    resident closer to its home bucket takes that slot and shifts the
 *    run one step forward, keeping probes short at the 7/8 max load.
 *  - Tombstone-free erase: the following run members shift one slot
 *    back toward home.
 *  - Growth doubles the array and re-inserts in old slot order, so
 *    slot order (and forEach order) is a pure function of the
 *    insert/erase sequence.
 *
 * RobinTable<Slot> owns the probe and the slot moves; the slot type
 * owns its payload through three hooks:
 *
 *     using KeyType = ...;  KeyType key;
 *     std::uint32_t dist;   // probe distance + 1; 0 = empty
 *     static std::uint64_t hash(const KeyType &);
 *     static void init(Slot &);                    // a new key's payload
 *     static void relocate(Slot &dst, Slot &src);  // src's payload ends
 *     static void destroy(Slot &);
 *
 * Slot arrays are zero-filled: an all-zero slot is empty, and payload
 * bytes are raw until init or relocate constructs them. Any insert or
 * erase may move residents, invalidating pointers into the table.
 * Single-threaded, like the simulator that owns it.
 */

#ifndef COMMON_ROBIN_TABLE_HH
#define COMMON_ROBIN_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

namespace common {

/** Fibonacci multiplicative hash; tables keep the high bits. */
struct FibonacciHash
{
    std::uint64_t
    operator()(std::uint64_t x) const
    {
        return x * 0x9E3779B97F4A7C15ull;
    }
};

template <typename Slot>
class RobinTable
{
  public:
    using KeyType = typename Slot::KeyType;

    RobinTable() = default;
    RobinTable(const RobinTable &) = delete;
    RobinTable &operator=(const RobinTable &) = delete;

    ~RobinTable()
    {
        clear();
        ::operator delete(slots_);
    }

    /** Slot of @p key, or nullptr when absent. */
    Slot *
    find(const KeyType &key)
    {
        if (cap_ == 0)
            return nullptr;
        std::size_t i = Slot::hash(key) >> shift_;
        for (std::uint32_t dist = 1;; ++dist, i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.dist < dist) // includes empty (dist == 0)
                return nullptr;
            if (s.key == key)
                return &s;
        }
    }

    const Slot *
    find(const KeyType &key) const
    {
        return const_cast<RobinTable *>(this)->find(key);
    }

    /** Slot of @p key; an absent key gets a slot with an init'd
     *  payload. */
    Slot &
    insert(const KeyType &key)
    {
        if ((size_ + 1) * 8 > cap_ * 7)
            rehash(cap_ == 0 ? 16 : cap_ * 2);
        bool fresh = false;
        Slot &s = place(key, fresh);
        if (fresh)
            Slot::init(s);
        return s;
    }

    /** Destroy @p s's payload and close the gap by backward shift. */
    void
    erase(Slot &s)
    {
        Slot::destroy(s);
        std::size_t hole = static_cast<std::size_t>(&s - slots_);
        for (;;) {
            const std::size_t next = (hole + 1) & mask_;
            Slot &n = slots_[next];
            if (n.dist <= 1)
                break;
            Slot &h = slots_[hole];
            h.key = n.key;
            h.dist = n.dist - 1;
            Slot::relocate(h, n);
            hole = next;
        }
        slots_[hole].dist = 0;
        --size_;
    }

    /** Drop every entry; capacity is retained. */
    void
    clear()
    {
        forEach([](Slot &s) {
            Slot::destroy(s);
            s.dist = 0;
        });
        size_ = 0;
    }

    /** Pre-size for @p n entries with no rehash (the smallest power of
     *  two keeping them under 7/8 load). Never shrinks. */
    void
    reserve(std::uint64_t n)
    {
        const std::size_t want =
            std::bit_ceil(std::max<std::size_t>(16, n + n / 7 + 1));
        if (want > cap_)
            rehash(want);
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }
    std::uint64_t slotBytes() const { return cap_ * sizeof(Slot); }

    /** Visit every live slot in slot order. @p fn may change payloads
     *  but must not insert or erase. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < cap_; ++i)
            if (slots_[i].dist != 0)
                fn(slots_[i]);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < cap_; ++i)
            if (slots_[i].dist != 0)
                fn(static_cast<const Slot &>(slots_[i]));
    }

  private:
    /**
     * Probe for @p key; when absent, claim its slot (shifting a richer
     * run forward) and set @p fresh. A fresh slot's payload is dead.
     */
    Slot &
    place(const KeyType &key, bool &fresh)
    {
        std::size_t i = Slot::hash(key) >> shift_;
        for (std::uint32_t dist = 1;; ++dist, i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.dist != 0 && s.key == key)
                return s;
            if (s.dist < dist) { // empty, or a resident closer to home
                if (s.dist != 0)
                    shiftForward(i);
                s.key = key;
                s.dist = dist;
                ++size_;
                fresh = true;
                return s;
            }
        }
    }

    /** Make slot @p pos a hole: move the run starting there one step
     *  right, into its first empty slot. */
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
            Slot::relocate(dst, src);
            e = p;
        }
        slots_[pos].dist = 0;
    }

    void
    rehash(std::size_t new_cap)
    {
        Slot *old = slots_;
        const std::size_t old_cap = cap_;
        slots_ = static_cast<Slot *>(::operator new(new_cap * sizeof(Slot)));
        std::memset(static_cast<void *>(slots_), 0, new_cap * sizeof(Slot));
        cap_ = new_cap;
        mask_ = new_cap - 1;
        shift_ = static_cast<std::uint32_t>(64 - std::countr_zero(new_cap));
        size_ = 0;
        bool fresh = false;
        for (std::size_t i = 0; i < old_cap; ++i)
            if (old[i].dist != 0)
                Slot::relocate(place(old[i].key, fresh), old[i]);
        ::operator delete(old);
    }

    Slot *slots_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::uint32_t shift_ = 64; // >> 64 is UB; guarded by cap_ == 0
    std::size_t size_ = 0;
};

/**
 * Robin-hood map from @p K to @p V, the value inline in the slot. A
 * new key's value starts value-initialized. Values move on insert,
 * erase and rehash, so a pointer from find or operator[] lasts only
 * until the next insert or erase.
 */
template <typename K, typename V, typename Hash = FibonacciHash>
class RobinMap
{
    struct Slot
    {
        using KeyType = K;

        K key;
        std::uint32_t dist;
        union {
            V value;
        };

        static std::uint64_t hash(const K &key) { return Hash{}(key); }
        static void init(Slot &s) { new (&s.value) V{}; }
        static void destroy(Slot &s) { s.value.~V(); }

        static void
        relocate(Slot &dst, Slot &src)
        {
            new (&dst.value) V(std::move(src.value));
            src.value.~V();
        }
    };

  public:
    /** Bytes per table slot (key, probe distance, value). */
    static constexpr std::size_t kSlotBytes = sizeof(Slot);

    V *
    find(const K &key)
    {
        Slot *s = table_.find(key);
        return s == nullptr ? nullptr : &s->value;
    }

    const V *
    find(const K &key) const
    {
        const Slot *s = table_.find(key);
        return s == nullptr ? nullptr : &s->value;
    }

    /** Value of @p key, inserting a value-initialized one when absent. */
    V &operator[](const K &key) { return table_.insert(key).value; }

    bool
    erase(const K &key)
    {
        Slot *s = table_.find(key);
        if (s != nullptr)
            table_.erase(*s);
        return s != nullptr;
    }

    void clear() { table_.clear(); }
    void reserve(std::uint64_t n) { table_.reserve(n); }
    std::size_t size() const { return table_.size(); }

    /** Visit every (key, value) in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        table_.forEach([&fn](const Slot &s) { fn(s.key, s.value); });
    }

  private:
    RobinTable<Slot> table_;
};

} // namespace common

#endif // COMMON_ROBIN_TABLE_HH
