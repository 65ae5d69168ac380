#include "milana/txn_table.hh"

#include <algorithm>
#include <bit>

namespace milana {

TxnTable::Window &
TxnTable::window(ClientId client)
{
    if (client >= windows_.size())
        windows_.resize(client + 1);
    return windows_[client];
}

const TxnTable::Slot *
TxnTable::slotOf(const TxnId &txn) const
{
    if (txn.client >= windows_.size())
        return nullptr;
    const Slot *slot = windows_[txn.client].slots.find(txn.serial);
    return slot == nullptr || slot->status == TxnStatus::Unknown ? nullptr
                                                                  : slot;
}

std::uint32_t
TxnTable::allocate(TxnEntry &&entry)
{
    if (free_.empty()) {
        pool_.push_back(std::move(entry));
        return static_cast<std::uint32_t>(pool_.size() - 1);
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    pool_[index] = std::move(entry);
    return index;
}

void
TxnTable::release(std::uint32_t entry)
{
    pool_[entry] = TxnEntry{};
    free_.push_back(entry);
}

const TxnEntry *
TxnTable::fold(TxnEntry entry)
{
    Window &w = window(entry.txn.client);
    if (entry.txn.serial < w.slots.base())
        return nullptr; // settled
    Slot &slot = w.slots.at(entry.txn.serial);
    if (slot.status != TxnStatus::Unknown &&
        slot.status != TxnStatus::Prepared)
        return nullptr; // an outcome is final
    if (entry.status == TxnStatus::Prepared) {
        if (slot.status == TxnStatus::Prepared)
            return nullptr; // duplicate prepare
        slot.entry = allocate(std::move(entry));
        slot.status = TxnStatus::Prepared;
        ++w.undecided;
        return &pool_[slot.entry];
    }

    // An outcome beats a prepare: it keeps no participants, and a
    // commit keeps the write set it carries, or else the prepare's.
    entry.participants = {};
    if (entry.status != TxnStatus::Committed)
        entry.writeSet = {};
    if (slot.status == TxnStatus::Prepared) {
        TxnEntry &open = pool_[slot.entry];
        if (entry.writeSet.empty() && entry.status == TxnStatus::Committed)
            entry.writeSet = std::move(open.writeSet);
        open = std::move(entry);
        --w.undecided;
    } else {
        slot.entry = allocate(std::move(entry));
    }
    slot.status = pool_[slot.entry].status;
    return &pool_[slot.entry];
}

TxnEntry *
TxnTable::find(const TxnId &txn)
{
    const Slot *slot = slotOf(txn);
    return slot != nullptr && slot->status == TxnStatus::Prepared
               ? &pool_[slot->entry]
               : nullptr;
}

const TxnEntry *
TxnTable::decided(const TxnId &txn) const
{
    const Slot *slot = slotOf(txn);
    return slot != nullptr && slot->status != TxnStatus::Prepared
               ? &pool_[slot->entry]
               : nullptr;
}

TxnStatus
TxnTable::statusOf(const TxnId &txn) const
{
    const Slot *slot = slotOf(txn);
    if (slot == nullptr)
        return TxnStatus::Unknown;
    // An undecided entry may already be claimed by a decision.
    return slot->status == TxnStatus::Prepared ? pool_[slot->entry].status
                                               : slot->status;
}

bool
TxnTable::settled(const TxnId &txn) const
{
    return txn.client < windows_.size() &&
           txn.serial < windows_[txn.client].slots.base();
}

std::size_t
TxnTable::size() const
{
    std::size_t undecided = 0;
    for (const Window &w : windows_)
        undecided += w.undecided;
    return undecided;
}

std::vector<TxnId>
TxnTable::preparedBefore(Time deadline) const
{
    std::vector<TxnId> stale;
    for (ClientId client = 0; client < windows_.size(); ++client) {
        const Window &w = windows_[client];
        if (w.undecided == 0)
            continue;
        w.slots.forEach([&](std::uint64_t serial, const Slot &slot) {
            if (slot.status != TxnStatus::Prepared)
                return;
            const TxnEntry &entry = pool_[slot.entry];
            if (entry.status == TxnStatus::Prepared &&
                entry.preparedAt < deadline)
                stale.push_back(TxnId{client, serial});
        });
    }
    return stale;
}

std::uint64_t
TxnTable::floorOf(ClientId client) const
{
    return client < windows_.size() ? windows_[client].slots.base() : 0;
}

void
TxnTable::truncate(ClientId client, std::uint64_t floor)
{
    Window &w = window(client);
    for (std::uint64_t serial = w.slots.base();
         serial < std::min(floor, w.slots.end()); ++serial) {
        const Slot &slot = *w.slots.find(serial);
        if (slot.status == TxnStatus::Unknown)
            continue;
        if (slot.status == TxnStatus::Prepared)
            --w.undecided;
        release(slot.entry);
    }
    w.slots.advance(floor);
}

std::uint64_t
TxnTable::settle(ClientId client, std::uint64_t floor,
                 std::uint32_t backups)
{
    Window &w = window(client);
    // Serials past the window's end were never seen here.
    const std::uint64_t seen = std::min(floor, w.slots.end());
    std::uint64_t serial = w.slots.base();
    for (; serial < seen; ++serial) {
        const Slot &slot = *w.slots.find(serial);
        if (slot.status == TxnStatus::Prepared ||
            (slot.status != TxnStatus::Unknown &&
             (slot.acked & backups) != backups))
            break;
    }
    truncate(client, serial == seen ? floor : serial);
    return w.slots.base();
}

void
TxnTable::noteAck(const TxnId &txn, std::uint32_t bit)
{
    if (txn.client >= windows_.size())
        return;
    Slot *slot = windows_[txn.client].slots.find(txn.serial);
    if (slot != nullptr && slot->status != TxnStatus::Unknown &&
        slot->status != TxnStatus::Prepared)
        slot->acked |= static_cast<std::uint16_t>(bit);
}

void
TxnTable::clearAcks()
{
    for (Window &w : windows_)
        for (std::uint64_t serial = w.slots.base(); serial < w.slots.end();
             ++serial)
            w.slots.find(serial)->acked = 0;
}

bool
TxnTable::outcomePending(const TxnId &txn, std::uint32_t quorum) const
{
    const Slot *slot = slotOf(txn);
    return slot != nullptr &&
           (slot->status == TxnStatus::Prepared ||
            static_cast<std::uint32_t>(std::popcount(slot->acked)) < quorum);
}

} // namespace milana
