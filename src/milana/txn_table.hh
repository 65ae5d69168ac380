/**
 * @file
 * A MILANA replica's transaction table (paper section 4.1): the one
 * store of transactions on every replica, primary and backup alike.
 *
 * The table holds one entry per transaction. An undecided entry keeps
 * the write set and the participant shards; a decided one keeps its
 * status, and a committed one also keeps its write set, which a
 * promoted backup that learns the commit from this table applies.
 * Every record a replica learns — its own prepare, its own decision,
 * a record replicated from the primary, or a peer's entry pulled
 * during recovery — goes through one order-insensitive fold (fold()):
 * an outcome beats a prepare, and duplicates are no-ops. Algorithm 2 is that fold over the replicas'
 * tables followed by one pass over the undecided entries
 * (MilanaServer::recoverAsPrimary). Only a primary runs the CTP over
 * its stale undecided entries (preparedBefore); a backup's wait for
 * the primary's outcome records.
 *
 * The undecided entries, the bounded set of in-flight transactions,
 * live in the robin-hood table (common::RobinMap), where any insert or
 * erase may move them: a pointer from fold() or find() is used only
 * before the caller's next suspension (resolveOrphan copies the
 * participants; recoverAsPrimary re-finds after each await).
 * preparedBefore() and forEach() sort them into TxnId order. The
 * decided entries, which grow for the whole run, stay in a std::map.
 *
 * The per-key state lives in one record per key on the shard's
 * primary only, in DRAM (semel::KeyRecord, semel/server.hh):
 *   - ts_latestRead:      newest begin-timestamp that read the key;
 *   - ts_prepared:        the (single) prepared-but-undecided write;
 *   - ts_latestCommitted: newest committed write stamp, shared with
 *                         SEMEL's at-most-once check.
 * A new primary rebuilds ts_latestCommitted from storage on first
 * touch; ts_latestRead is not recoverable, and leases make that safe
 * (section 4.5).
 */

#ifndef MILANA_TXN_TABLE_HH
#define MILANA_TXN_TABLE_HH

#include <map>
#include <vector>

#include "common/robin_table.hh"
#include "common/types.hh"
#include "semel/messages.hh"

namespace milana {

using common::Key;
using common::ShardId;
using common::Time;
using common::Version;
using semel::ReplicateTxnRecord;
using semel::TxnId;
using semel::TxnStatus;
using semel::WriteSetEntry;

/** One transaction known to a replica: its newest record, plus when
 *  the replica learned of the prepare (for CTP timeouts). */
struct TxnEntry : ReplicateTxnRecord
{
    Time preparedAt = 0;
};

/** Hash of a TxnId: a client's serials are dense, so pack them under
 *  the client id. */
struct TxnIdHash
{
    std::uint64_t
    operator()(const TxnId &txn) const
    {
        return common::FibonacciHash{}(
            (static_cast<std::uint64_t>(txn.client) << 32) + txn.serial);
    }
};

class TxnTable
{
  public:
    /**
     * Fold one record of a transaction into its entry. An outcome
     * beats a prepare: the entry becomes decided, a committed one
     * keeps the write set it carries (or else the prepare's) and an
     * aborted one drops it. A record that adds nothing (a duplicate,
     * or a prepare of a decided transaction) is a no-op. Returns the
     * changed entry, or nullptr for a no-op.
     */
    const TxnEntry *fold(TxnEntry entry);

    /** Undecided entry: prepared, or claimed by a decision that is
     *  still being applied. */
    TxnEntry *find(const TxnId &txn) { return undecided_.find(txn); }

    /** Status of a transaction: undecided entry, decided entry, or
     *  Unknown. Feeds the CTP status queries. */
    TxnStatus statusOf(const TxnId &txn) const;

    /** Prepared transactions older than the given deadline, in TxnId
     *  order. */
    std::vector<TxnId> preparedBefore(Time deadline) const;

    /** Decided transactions, in TxnId order. */
    const std::map<TxnId, TxnEntry> &decided() const { return decided_; }

    /** Visit every entry, one per transaction: the undecided ones,
     *  then the decided ones, each in TxnId order. @p fn must not
     *  change the table. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const TxnEntry *entry : undecidedInOrder())
            fn(*entry);
        for (const auto &[id, entry] : decided_)
            fn(entry);
    }

    /** Undecided transactions. */
    std::size_t size() const { return undecided_.size(); }

  private:
    std::vector<const TxnEntry *> undecidedInOrder() const;

    common::RobinMap<TxnId, TxnEntry, TxnIdHash> undecided_;
    std::map<TxnId, TxnEntry> decided_;
};

} // namespace milana

#endif // MILANA_TXN_TABLE_HH
