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
 * folds replicated records into it and applies committed write sets,
 * keeping no per-key state. A promoted backup folds the tables of the
 * reachable replicas into its own and makes one pass over the
 * undecided entries (Algorithm 2), rebuilds each key's record from
 * storage on first touch, and waits out the old primary's lease
 * before serving.
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
    struct MilanaConfig
    {
        /** Read-lease duration granted by backups. */
        common::Duration leaseDuration = 2 * common::kSecond;
        /** How often the primary renews its lease. */
        common::Duration leaseRenewPeriod = 500 * common::kMillisecond;
        /** Orphaned-prepare age that triggers the CTP. */
        common::Duration ctpTimeout = 50 * common::kMillisecond;
        common::Duration ctpScanPeriod = 20 * common::kMillisecond;
        /** Disable leases for single-node configurations. */
        bool enableLeases = true;
    };

    MilanaServer(sim::Simulator &sim, net::Network &net, NodeId id,
                 common::ShardId shard, ftl::KvBackend &backend,
                 clocksync::Clock &clock, const semel::Server::Config &config,
                 const MilanaConfig &milana_config,
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

    /** Phase 2: apply the coordinator's decision. Idempotent. */
    sim::Task<DecisionResponse> handleDecision(DecisionRequest request);

    /** CTP status query from a peer participant. */
    sim::Task<TxnStatusResponse> handleTxnStatus(TxnStatusRequest request);

    /** Backup side: fold a replicated transaction record into the
     *  table; apply committed write sets. Order-insensitive. */
    sim::Task<bool> handleReplicateTxnRecord(ReplicateTxnRecord record);

    /** Backup side: grant a read lease to the primary. */
    sim::Task<Time> handleLeaseGrant(Time until);

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
     * tables of all reachable replicas into this one, re-apply the
     * committed write sets, commit single-shard prepares and re-mark
     * multi-shard ones for the CTP (Algorithm 2), bring the backups
     * level, wait out the old primary's lease, then begin service.
     * The master must already have repointed the shard at this node.
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

    /** Rebuild a key's record from storage unless already rebuilt
     *  (needed after failover, when ts_latestCommitted must be
     *  recovered from the version stamps). */
    sim::Task<void> ensureKeyState(Key key);

    /** Apply a committed record's writes; reads @p record only
     *  before the returned task first suspends. */
    sim::Task<void> applyCommit(const ReplicateTxnRecord &record,
                                bool late);
    void applyAbort(TxnEntry &entry);

    /** Send a copy of a record to every backup; the quorum counts
     *  their acks. */
    std::shared_ptr<sim::Quorum>
    sendToBackups(const ReplicateTxnRecord &record);
    /** Replicate a record and wait for f backup acks. Reads @p record
     *  only before it first suspends, so it may be a table entry. */
    sim::Task<void> replicateTxnRecord(const ReplicateTxnRecord &record);

    /** Round-trip sync with f backups (remote read-only validation
     *  pays this; local validation is what removes it). */
    sim::Task<bool> handleBarrier();
    sim::Task<void> barrierBackups();

    sim::Task<bool> renewLease();
    sim::Task<void> leaseLoop();
    sim::Task<void> ctpScanLoop();

    /** Cooperative termination for an orphaned prepared transaction. */
    sim::Task<void> resolveOrphan(TxnId txn);

    MilanaConfig mcfg_;
    clocksync::Clock &clock_;
    const common::ChaosEngine *chaos_ = nullptr;
    semel::Master &master_;
    semel::Directory &directory_;

    TxnTable txns_;
    /** backups_, cast once when wired. */
    std::vector<MilanaServer *> milanaBackups_;

    Time leaseUntil_ = 0;       ///< primary: lease expiry (local clock)
    Time maxLeaseGranted_ = 0;  ///< backup: newest lease it granted
    bool recovering_ = false;
    bool started_ = false;
};

} // namespace milana

#endif // MILANA_SERVER_HH
