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
 * A TxnId is (client, serial), and a client's serials only grow, so
 * the table keeps one window per client (common::SeqWindow), indexed
 * by serial: fold() and statusOf() are one index, with no hashing and
 * no allocation per transaction. A window slot is 8 bytes, so a serial
 * this replica never saw costs little; the entries themselves (write
 * set, participants) live in one pool, and any fold may move them: a
 * pointer from fold() or find() is used only before the caller's next
 * suspension (resolveOrphan copies the participants; recoverAsPrimary
 * re-finds after each await). preparedBefore() and forEach() visit
 * entries in TxnId order.
 *
 * Each window's base is the client's settled floor: every serial below
 * it is settled, meaning its client needs no further answer about it
 * and every replica of the shard holds its outcome. Below the floor an
 * entry is dropped, a record folds as a no-op, and statusOf() answers
 * Unknown (MilanaServer answers a prepare there Abort, changing
 * nothing). A primary moves the floor with settle(): up to the floor
 * its client reports, but never past an undecided entry or an outcome
 * some backup has not acknowledged (noteAck()); it hands the result to
 * its backups, which truncate() to it. A settled serial is never asked
 * about again, so the table holds only the recent, live window of each
 * client — unless a decision or a backup's ack stays outstanding (a
 * partition, a lost decision, a crashed backup): the floor then holds
 * there and the window grows behind it.
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

#include <vector>

#include "common/seq_window.hh"
#include "common/types.hh"
#include "semel/messages.hh"

namespace milana {

using common::ClientId;
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

class TxnTable
{
  public:
    /** Backups whose acks settle() can wait for, one bit each. */
    static constexpr std::size_t kMaxBackups = 16;

    /**
     * Fold one record of a transaction into its entry. An outcome
     * beats a prepare: the entry becomes decided, a committed one
     * keeps the write set it carries (or else the prepare's) and an
     * aborted one drops it. A record that adds nothing (a duplicate,
     * a prepare of a decided transaction, or any record below the
     * settled floor) is a no-op. Returns the changed entry, or nullptr
     * for a no-op.
     */
    const TxnEntry *fold(TxnEntry entry);

    /** Undecided entry: prepared, or claimed by a decision that is
     *  still being applied. */
    TxnEntry *find(const TxnId &txn);

    /** Decided entry, or nullptr. */
    const TxnEntry *decided(const TxnId &txn) const;

    /** Status of a transaction: undecided entry, decided entry, or
     *  Unknown (never seen, or settled). Feeds the CTP status
     *  queries. */
    TxnStatus statusOf(const TxnId &txn) const;

    /** Whether @p txn is below its client's settled floor. */
    bool settled(const TxnId &txn) const;

    /** Prepared transactions older than the given deadline, in TxnId
     *  order. */
    std::vector<TxnId> preparedBefore(Time deadline) const;

    /** Visit every entry, one per transaction: the undecided ones,
     *  then the decided ones, each in TxnId order. @p fn must not
     *  change the table. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const bool undecided : {true, false})
            for (const Window &w : windows_)
                w.slots.forEach([&](std::uint64_t, const Slot &slot) {
                    if (slot.status != TxnStatus::Unknown &&
                        (slot.status == TxnStatus::Prepared) == undecided)
                        fn(pool_[slot.entry]);
                });
    }

    /** Undecided transactions. */
    std::size_t size() const;

    /** Entries held, undecided and decided. */
    std::size_t entries() const { return pool_.size() - free_.size(); }

    // ------------------------------------------------- settled floor

    /** The client's settled floor: its window's base. */
    std::uint64_t floorOf(ClientId client) const;

    /**
     * Backup side: drop the client's entries below @p floor, which the
     * primary reports settled, and raise the floor to it.
     */
    void truncate(ClientId client, std::uint64_t floor);

    /**
     * Primary side: raise the client's floor toward @p floor, the
     * lowest serial its client has not settled, over serials this
     * replica never saw and over outcomes that every backup in
     * @p backups (a mask of noteAck bits) has acknowledged; stop at
     * the first other serial. Returns the new floor.
     */
    std::uint64_t settle(ClientId client, std::uint64_t floor,
                         std::uint32_t backups);

    /** Primary side: backup @p bit acknowledged @p txn's outcome. */
    void noteAck(const TxnId &txn, std::uint32_t bit);

    /** Forget every ack (a new primary's backups are new). */
    void clearAcks();

    /** Primary side: whether a decision of @p txn is still being
     *  applied here, or its outcome is acknowledged by fewer than
     *  @p quorum backups. */
    bool outcomePending(const TxnId &txn, std::uint32_t quorum) const;

  private:
    /** One serial of a client: 8 bytes, so a hole costs little. */
    struct Slot
    {
        /** Index into pool_; meaningful unless status is Unknown. */
        std::uint32_t entry = 0;
        /** Folded status: Prepared while undecided, even once a
         *  decision has claimed the entry. Unknown = no entry. */
        TxnStatus status = TxnStatus::Unknown;
        /** Backups that acknowledged the outcome (noteAck bits). */
        std::uint16_t acked = 0;
    };
    static_assert(sizeof(Slot) == 8);

    struct Window
    {
        common::SeqWindow<Slot> slots;
        /** Entries in it that are undecided. */
        std::uint32_t undecided = 0;
    };

    const Slot *slotOf(const TxnId &txn) const;
    /** Window of @p client, created (with floor 0) on first use. */
    Window &window(ClientId client);
    std::uint32_t allocate(TxnEntry &&entry);
    void release(std::uint32_t entry);

    /** Indexed by client id: clients are numbered densely. */
    std::vector<Window> windows_;
    std::vector<TxnEntry> pool_;
    std::vector<std::uint32_t> free_;
};

} // namespace milana

#endif // MILANA_TXN_TABLE_HH
