#include "milana/txn_table.hh"

#include <algorithm>

namespace milana {

const TxnEntry *
TxnTable::fold(TxnEntry entry)
{
    // The decided bound doubles as the insertion hint.
    const TxnId txn = entry.txn;
    const auto done = decided_.lower_bound(txn);
    if (done != decided_.end() && done->first == txn)
        return nullptr; // an outcome is final
    TxnEntry *open = undecided_.find(txn);
    if (entry.status == TxnStatus::Prepared) {
        if (open != nullptr)
            return nullptr; // duplicate prepare
        TxnEntry &added = undecided_[txn];
        added = std::move(entry);
        return &added;
    }

    // An outcome beats a prepare.
    TxnEntry outcome{{entry.status, txn, entry.commitVersion, {}, {}}};
    if (entry.status == TxnStatus::Committed)
        outcome.writeSet = entry.writeSet.empty() && open != nullptr
                               ? std::move(open->writeSet)
                               : std::move(entry.writeSet);
    if (open != nullptr)
        undecided_.erase(txn);
    return &decided_.emplace_hint(done, txn, std::move(outcome))->second;
}

TxnStatus
TxnTable::statusOf(const TxnId &txn) const
{
    if (const TxnEntry *open = undecided_.find(txn))
        return open->status;
    auto it = decided_.find(txn);
    return it == decided_.end() ? TxnStatus::Unknown : it->second.status;
}

std::vector<TxnId>
TxnTable::preparedBefore(Time deadline) const
{
    std::vector<TxnId> stale;
    undecided_.forEach([&](const TxnId &id, const TxnEntry &entry) {
        if (entry.status == TxnStatus::Prepared &&
            entry.preparedAt < deadline)
            stale.push_back(id);
    });
    std::sort(stale.begin(), stale.end());
    return stale;
}

std::vector<const TxnEntry *>
TxnTable::undecidedInOrder() const
{
    std::vector<const TxnEntry *> order;
    order.reserve(undecided_.size());
    undecided_.forEach([&](const TxnId &, const TxnEntry &entry) {
        order.push_back(&entry);
    });
    std::sort(order.begin(), order.end(),
              [](const TxnEntry *a, const TxnEntry *b) {
                  return a->txn < b->txn;
              });
    return order;
}

} // namespace milana
