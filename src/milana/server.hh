/**
 * @file
 * MILANA transaction server (paper section 4): a SEMEL primary
 * extended with the transaction API.
 *
 * Responsibilities at the primary:
 *  - serve snapshot gets at the transaction's begin timestamp,
 *    recording ts_latestRead and piggy-backing the prepared flag that
 *    enables client-local validation of read-only transactions
 *    (section 4.3);
 *  - validate prepares with Algorithm 1 (OCC), mark prepared keys,
 *    replicate the prepare record to f backups, and vote;
 *  - on the commit decision, apply the buffered writes, advance
 *    ts_latestCommitted, clear the prepared marks, and replicate the
 *    outcome — updates and prepare records may reach backups in any
 *    order (Figure 5);
 *  - act as backup coordinator for orphaned transactions via the
 *    cooperative termination protocol (section 4.5);
 *  - maintain read leases so ts_latestRead (which is never persisted)
 *    cannot be violated across a failover.
 *
 * The per-key OCC state (ts_latestRead, ts_prepared and
 * ts_latestCommitted) is one semel::KeyRecord per key, held on the
 * shard's primary only, and only a primary runs the CTP. Every replica
 * keeps its transactions in one TxnTable and nothing else: a backup
 * folds replicated records into it, keeping no per-key state.
 *
 * A committed write set reaches storage on one path (applyCommit):
 * the primary's decision, which also advances and releases the keys'
 * records, or a replica's first fold of the commit, which only puts.
 * A promoted backup folds the tables of the reachable replicas into
 * its own through that same step, so it writes only the commits it
 * learns; it then makes one pass over the undecided entries
 * (Algorithm 2), and serves again once the old primary's lease has
 * run out and every apply has landed, so each key's record can be
 * rebuilt from storage on first touch.
 */

#ifndef MILANA_SERVER_HH
#define MILANA_SERVER_HH

#include <memory>
#include <vector>

#include "clocksync/clock.hh"
#include "milana/txn_table.hh"
#include "semel/client.hh"
#include "semel/server.hh"

namespace common {
class ChaosEngine;
}

namespace milana {

using common::NodeId;
using common::Value;
using semel::DecisionRequest;
using semel::DecisionResponse;
using semel::GetRequest;
using semel::GetResponse;
using semel::KeyRecord;
using semel::PrepareRequest;
using semel::PrepareResponse;
using semel::TxnDecision;
using semel::TxnStatusRequest;
using semel::TxnStatusResponse;
using semel::Vote;

class MilanaServer : public semel::Server
{
  public:
    /** Read-lease duration granted by backups, and how often the
     *  primary renews its lease. A primary holds leases iff it has
     *  backups. */
    static constexpr common::Duration kLeaseDuration = 2 * common::kSecond;
    static constexpr common::Duration kLeaseRenewPeriod =
        500 * common::kMillisecond;
    /** Orphaned-prepare age that triggers the CTP, and how often a
     *  primary scans for orphans. */
    static constexpr common::Duration kCtpTimeout = 50 * common::kMillisecond;
    static constexpr common::Duration kCtpScanPeriod =
        20 * common::kMillisecond;

    MilanaServer(sim::Simulator &sim, net::Network &net, NodeId id,
                 common::ShardId shard, ftl::KvBackend &backend,
                 clocksync::Clock &clock, const semel::Server::Config &config,
                 semel::Master &master, semel::Directory &directory);

    /** Start background processes (lease renewal, CTP scanner). */
    void start();

    /** Wire the backups, checking once that each is a MILANA server. */
    void setBackups(std::vector<semel::Server *> backups) override;

    /** Reserves the record table only on the shard's primary. */
    void reserveKeys(std::uint64_t keys) override;

    // -------------------------------------------------- RPC handlers

    /**
     * Snapshot read at request.at (= the transaction's ts_begin).
     * At the primary, updates ts_latestRead and reports whether a
     * prepared version with stamp <= at exists (local-validation
     * input); a backup serves the replica read only (section 4.6).
     */
    sim::Task<GetResponse> handleGet(GetRequest request) override;

    /** Phase 1 of 2PC: validate (Algorithm 1), persist + replicate the
     *  prepare record, vote. */
    sim::Task<PrepareResponse> handlePrepare(PrepareRequest request);

    /** Phase 2: apply the coordinator's decision. Idempotent. Its ack
     *  tells the client the outcome is held here, so a recovering
     *  primary answers only once the pulled tables are folded in. */
    sim::Task<DecisionResponse> handleDecision(DecisionRequest request);

    /** CTP status query from a peer participant. */
    sim::Task<TxnStatusResponse> handleTxnStatus(TxnStatusRequest request);

    /** Backup side: drop the record's client's entries below
     *  @p floor, the primary's settled floor, then fold the record
     *  into the table (see learn()). Order-insensitive. */
    sim::Task<bool> handleReplicateTxnRecord(ReplicateTxnRecord record,
                                             std::uint64_t floor);

    /** Backup side: grant a read lease to the primary. */
    sim::Task<bool> handleLeaseGrant(Time until);

    /** Recovery pull: a promoted backup collects the table entries
     *  and the maximum granted lease from its peers. */
    struct RecoveryPull
    {
        std::vector<TxnEntry> txns;
        Time maxLeaseGranted = 0;
    };
    sim::Task<RecoveryPull> handleRecoveryPull();

    // ------------------------------------------------------ failover

    /**
     * Promote this (backup) server to primary: fold the transaction
     * tables of all reachable replicas into this one, applying each
     * commit it learns, commit single-shard prepares and re-mark
     * multi-shard ones for the CTP (Algorithm 2), bring the backups
     * level, wait out the old primary's lease and every in-flight
     * apply, then begin service. The master must already have
     * repointed the shard at this node.
     */
    sim::Task<void> recoverAsPrimary();

    // ---------------------------------------------------- population

    /** Bulk-load one key (initial population, no protocol overhead);
     *  only the shard's primary records it. */
    sim::Task<void> loadKey(Key key, Value value, Version version);

    // ---------------------------------------------------- inspection

    const TxnTable &txnTable() const { return txns_; }
    bool recovering() const { return recovering_; }
    Time leaseUntil() const { return leaseUntil_; }

    /** Chaos awareness (may be null): while a clock fault is active,
     *  timestamp-order aborts are reported as ClockSuspect so clients
     *  and traces can tell "time misbehaved" from a real conflict. */
    void setChaos(const common::ChaosEngine *chaos) { chaos_ = chaos; }

  protected:
    /** Primary: advance the client's settled floor (TxnTable::settle),
     *  not while recovering, when the pulled tables are still being
     *  folded in. */
    void noteSettled(common::ClientId client,
                     std::uint64_t settled) override;

  private:
    /** Remap timestamp-order abort reasons to ClockSuspect while a
     *  clock fault is active (no-op without a chaos engine). */
    semel::AbortReason classifyAbort(semel::AbortReason reason);

    /** Whether the master currently names this node the primary. */
    bool isPrimary() const;

    /** Backup acks a record or lease waits for: f, capped at the
     *  number of wired backups. */
    std::uint32_t backupQuorum() const;

    /** Algorithm 1. Assumes the keys' records are rebuilt. Returns
     *  AbortReason::None on a commit vote, else the failed check. */
    semel::AbortReason validate(const PrepareRequest &request);

    /** Whether a key's record is rebuilt from storage. Callers test
     *  it inline and await rebuildKeyState only when it fails, so the
     *  common case starts no coroutine. */
    bool keyStateReady(Key key) const;
    /** Rebuild a key's record from storage (needed after failover,
     *  when ts_latestCommitted must be recovered from the version
     *  stamps). */
    sim::Task<void> rebuildKeyState(Key key);

    /**
     * The one path that puts a committed write set: one spawned put
     * per write, counted in applying_ until it lands. Reads @p record
     * only before it returns. For a decision (@p decided set), each
     * landed put also advances the key's record, releases its
     * prepared mark, emits milana.key.commit (tagged "late" for a
     * CTP or recovery decision) and arrives at @p decided; a replica
     * that learns a commit only puts.
     */
    void applyCommit(const ReplicateTxnRecord &record,
                     std::shared_ptr<sim::Quorum> decided, bool late);
    void applyAbort(TxnEntry &entry);

    /** Fold a record a peer sent (replicated, or pulled in recovery)
     *  into the table, and apply a commit the first time it arrives. */
    void learn(TxnEntry entry);

    /** Replicate a record and wait for f backup acks. Reads @p record
     *  only before it first suspends, so it may be a table entry. */
    sim::Task<void> replicateTxnRecord(const ReplicateTxnRecord &record);

    /**
     * Send a record to every backup with its client's settled floor;
     * returns the quorum that @p needed acks satisfy. Each backup's ack
     * of an outcome is noted in the table (TxnTable::noteAck). Reads
     * @p record only before it returns.
     */
    std::shared_ptr<sim::Quorum> sendRecord(const ReplicateTxnRecord &record,
                                            std::uint32_t needed);

    /** Round-trip sync with f backups (remote read-only validation
     *  pays this; local validation is what removes it). */
    sim::Task<bool> handleBarrier();

    sim::Task<bool> renewLease();
    sim::Task<void> leaseLoop();
    sim::Task<void> ctpScanLoop();

    /** Cooperative termination for an orphaned prepared transaction. */
    sim::Task<void> resolveOrphan(TxnId txn);

    clocksync::Clock &clock_;
    const common::ChaosEngine *chaos_ = nullptr;
    semel::Master &master_;
    semel::Directory &directory_;

    TxnTable txns_;
    /** Puts of committed write sets that have not landed yet. */
    std::uint64_t applying_ = 0;

    Time leaseUntil_ = 0;       ///< primary: lease expiry (local clock)
    Time maxLeaseGranted_ = 0;  ///< backup: newest lease it granted
    bool recovering_ = false;
    /** Recovery is folding in its peers' tables (handleDecision waits). */
    bool pulling_ = false;
    bool started_ = false;
};

} // namespace milana

#endif // MILANA_SERVER_HH
