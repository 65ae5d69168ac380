/**
 * @file
 * The MILANA primary's transaction table (paper section 4.1).
 *
 * The transaction table records transactions that have prepared but
 * whose outcome has not yet been applied; it is replicated to the
 * backups as it changes and rebuilt by a new primary on failover
 * (Algorithm 2).
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

#include "common/types.hh"
#include "semel/messages.hh"

namespace milana {

using common::Key;
using common::ShardId;
using common::Time;
using common::Version;
using semel::TxnId;
using semel::TxnStatus;
using semel::WriteSetEntry;

/** One transaction known to a primary. */
struct TxnEntry
{
    TxnId txn;
    Version commitVersion;
    std::vector<WriteSetEntry> writeSet;
    std::vector<ShardId> participants;
    TxnStatus status = TxnStatus::Prepared;
    /** TrueTime when this primary prepared it (for CTP timeouts). */
    Time preparedAt = 0;
};

class TxnTable
{
  public:
    void insert(TxnEntry entry);

    TxnEntry *find(const TxnId &txn);
    const TxnEntry *find(const TxnId &txn) const;

    /** Remove a decided transaction, remembering its outcome. */
    void resolve(const TxnId &txn, TxnStatus outcome);

    /** Status of a transaction: live entry, remembered outcome, or
     *  Unknown. Feeds the CTP status queries. */
    TxnStatus statusOf(const TxnId &txn) const;

    /** Prepared transactions older than the given deadline. */
    std::vector<TxnId> preparedBefore(Time deadline) const;

    std::size_t size() const { return entries_.size(); }

  private:
    std::map<TxnId, TxnEntry> entries_;
    /** Outcomes of resolved transactions (for idempotent decisions
     *  and CTP queries). */
    std::map<TxnId, TxnStatus> outcomes_;
};

} // namespace milana

#endif // MILANA_TXN_TABLE_HH
