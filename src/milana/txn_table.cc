#include "milana/txn_table.hh"

namespace milana {

const TxnEntry *
TxnTable::fold(TxnEntry entry)
{
    // One search per map: the bounds double as insertion hints.
    const TxnId txn = entry.txn;
    const auto done = decided_.lower_bound(txn);
    if (done != decided_.end() && done->first == txn)
        return nullptr; // an outcome is final
    const auto open = undecided_.lower_bound(txn);
    const bool prepared = open != undecided_.end() && open->first == txn;
    if (entry.status == TxnStatus::Prepared) {
        if (prepared)
            return nullptr; // duplicate prepare
        return &undecided_.emplace_hint(open, txn, std::move(entry))->second;
    }

    // An outcome beats a prepare.
    TxnEntry outcome{{entry.status, txn, entry.commitVersion, {}, {}}};
    if (entry.status == TxnStatus::Committed)
        outcome.writeSet = entry.writeSet.empty() && prepared
                               ? std::move(open->second.writeSet)
                               : std::move(entry.writeSet);
    if (prepared)
        undecided_.erase(open);
    return &decided_.emplace_hint(done, txn, std::move(outcome))->second;
}

TxnEntry *
TxnTable::find(const TxnId &txn)
{
    auto it = undecided_.find(txn);
    return it == undecided_.end() ? nullptr : &it->second;
}

TxnStatus
TxnTable::statusOf(const TxnId &txn) const
{
    if (auto it = undecided_.find(txn); it != undecided_.end())
        return it->second.status;
    auto it = decided_.find(txn);
    return it == decided_.end() ? TxnStatus::Unknown : it->second.status;
}

std::vector<TxnId>
TxnTable::preparedBefore(Time deadline) const
{
    std::vector<TxnId> stale;
    for (const auto &[id, entry] : undecided_) {
        if (entry.status == TxnStatus::Prepared &&
            entry.preparedAt < deadline)
            stale.push_back(id);
    }
    return stale;
}

} // namespace milana
