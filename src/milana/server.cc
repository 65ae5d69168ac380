#include "milana/server.hh"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

#include "common/chaos.hh"
#include "common/logging.hh"
#include "sim/future.hh"
#include "sim/sync.hh"

namespace milana {

using common::kMillisecond;

MilanaServer::MilanaServer(sim::Simulator &sim, net::Network &net,
                           NodeId id, common::ShardId shard,
                           ftl::KvBackend &backend,
                           clocksync::Clock &clock,
                           const semel::Server::Config &config,
                           semel::Master &master,
                           semel::Directory &directory)
    : semel::Server(sim, net, id, shard, backend, config),
      clock_(clock),
      master_(master),
      directory_(directory)
{
}

bool
MilanaServer::isPrimary() const
{
    return master_.primaryOf(shard_) == id_;
}

void
MilanaServer::setBackups(std::vector<semel::Server *> backups)
{
    // Checked once here, so the backup calls below static_cast.
    for (semel::Server *backup : backups)
        if (dynamic_cast<MilanaServer *>(backup) == nullptr)
            PANIC("milana primary wired to a non-milana backup");
    if (backups.size() > TxnTable::kMaxBackups)
        PANIC("milana primary wired to " << backups.size()
                                         << " backups; at most "
                                         << TxnTable::kMaxBackups);
    semel::Server::setBackups(std::move(backups));
}

std::uint32_t
MilanaServer::backupQuorum() const
{
    return std::min<std::uint32_t>(
        config_.backupAcksNeeded,
        static_cast<std::uint32_t>(backups_.size()));
}

void
MilanaServer::reserveKeys(std::uint64_t keys)
{
    // Records live on the shard's primary only.
    if (isPrimary())
        semel::Server::reserveKeys(keys);
    else
        backend_.reserveKeys(keys);
}

void
MilanaServer::start()
{
    started_ = true;
    if (!backups_.empty())
        sim::spawn(leaseLoop());
    sim::spawn(ctpScanLoop());
}

sim::Task<void>
MilanaServer::loadKey(Key key, Value value, Version version)
{
    (void)co_await backend_.put(key, value, version);
    if (!isPrimary())
        co_return;
    KeyRecord &rec = records_[key];
    rec.noteCommitted(version);
    rec.markRebuilt();
}

bool
MilanaServer::keyStateReady(Key key) const
{
    const KeyRecord *rec = records_.find(key);
    return rec != nullptr && rec->rebuilt();
}

sim::Task<void>
MilanaServer::rebuildKeyState(Key key)
{
    // Rebuild ts_latestCommitted from the version stamps in storage
    // (section 4.5); ts_latestRead is unrecoverable — the lease wait
    // already covered it.
    const ftl::GetResult latest = co_await backend_.getLatest(key);
    KeyRecord &rec = records_[key];
    if (latest.found)
        rec.noteCommitted(latest.version);
    rec.markRebuilt();
}

// ------------------------------------------------------------- reads

sim::Task<GetResponse>
MilanaServer::handleGet(GetRequest request)
{
    stats_.counter("milana.gets").inc();
    common::ScopedSpan span(trace_, "milana.server.get");
    co_await chargeCpu();
    GetResponse resp;

    // Lease discipline: serve a read at timestamp `at` only while
    // holding a lease covering it, so a future primary can bound our
    // ts_latestRead values.
    const Time deadline = sim_.now() + common::kSecond;
    while (recovering_ ||
           (!backups_.empty() && request.at.timestamp > leaseUntil_)) {
        if (sim_.now() > deadline || sim_.stopRequested()) {
            resp.unavailable = true;
            stats_.counter("milana.get_unavailable").inc();
            span.setTag("unavailable");
            co_return resp;
        }
        if (!recovering_)
            (void)co_await renewLease();
        else
            co_await sim::sleepFor(sim_, kMillisecond);
    }

    // A backup serving a replica read (section 4.6) keeps no per-key
    // state: the transaction validates at the primary.
    bool prepared_leq = false;
    if (isPrimary()) {
        if (!keyStateReady(request.key))
            co_await rebuildKeyState(request.key);
        // Synchronous with the flag computation and the backend's
        // chain lookup: record the read and capture the prepared flag
        // BEFORE the storage access, so no prepare with stamp <= at
        // can slip between the snapshot and the flag (section 4.3).
        KeyRecord &rec = records_[request.key];
        rec.noteRead(request.at);
        prepared_leq = rec.isPrepared() && rec.prepared() <= request.at;
    }

    const ftl::GetResult r =
        co_await backend_.get(request.key, request.at);
    resp.found = r.found;
    resp.version = r.version;
    resp.value = r.value;
    resp.preparedLeqAt = prepared_leq;
    co_return resp;
}

// -------------------------------------------------------- validation

semel::AbortReason
MilanaServer::validate(const PrepareRequest &request)
{
    using semel::AbortReason;
    // Algorithm 1, verbatim.
    for (const auto &read : request.readSet) {
        const KeyRecord &rec = records_[read.key];
        if (rec.isPrepared()) {
            stats_.counter("milana.abort_read_prepared").inc();
            return AbortReason::ReadPrepared;
        }
        if (rec.committed() != read.observed) {
            stats_.counter("milana.abort_read_stale").inc();
            return AbortReason::ReadStale;
        }
    }
    const Version new_version = request.commitVersion;
    for (const auto &write : request.writeSet) {
        const KeyRecord &rec = records_[write.key];
        if (rec.isPrepared()) {
            stats_.counter("milana.abort_write_prepared").inc();
            return AbortReason::WritePrepared;
        }
        if (rec.latestRead() >= new_version) {
            stats_.counter("milana.abort_write_read_conflict").inc();
            return AbortReason::WriteReadConflict;
        }
        if (rec.committed() >= new_version) {
            stats_.counter("milana.abort_write_stale").inc();
            return AbortReason::WriteStale;
        }
    }
    return AbortReason::None;
}

semel::AbortReason
MilanaServer::classifyAbort(semel::AbortReason reason)
{
    // Only the checks that compare timestamps are re-labelled: a
    // prepared-key conflict is a real lock conflict whatever the
    // clocks are doing.
    if (chaos_ == nullptr || !chaos_->clockFaultActive())
        return reason;
    switch (reason) {
      case semel::AbortReason::ReadStale:
      case semel::AbortReason::WriteStale:
      case semel::AbortReason::WriteReadConflict:
        stats_.counter("milana.abort_clock_suspect").inc();
        return semel::AbortReason::ClockSuspect;
      default:
        return reason;
    }
}

sim::Task<PrepareResponse>
MilanaServer::handlePrepare(PrepareRequest request)
{
    stats_.counter("milana.prepares").inc();
    common::ScopedSpan span(trace_, "milana.server.prepare");
    span.setArg(static_cast<std::int64_t>(request.writeSet.size()));
    co_await chargeCpu();
    PrepareResponse resp;

    if (recovering_) {
        resp.vote = Vote::Abort;
        resp.reason = semel::AbortReason::PrepareFailed;
        span.setTag("recovering");
        co_return resp;
    }

    // Its client never asks about a settled serial again, so this is
    // a stale redelivery: vote Abort and change nothing.
    if (txns_.settled(request.txn)) {
        resp.vote = Vote::Abort;
        resp.reason = semel::AbortReason::PrepareFailed;
        span.setTag("settled");
        co_return resp;
    }

    // Idempotent retransmissions.
    if (const semel::TxnStatus known = txns_.statusOf(request.txn);
        known != semel::TxnStatus::Unknown) {
        resp.vote = known == semel::TxnStatus::Aborted ? Vote::Abort
                                                       : Vote::Commit;
        span.setTag("duplicate");
        co_return resp;
    }

    for (const auto &read : request.readSet)
        if (!keyStateReady(read.key))
            co_await rebuildKeyState(read.key);
    for (const auto &write : request.writeSet)
        if (!keyStateReady(write.key))
            co_await rebuildKeyState(write.key);

    if (request.writeSet.empty()) {
        // Remote validation of a read-only transaction (used when
        // client-local validation is disabled, Figure 8's "w/o LV"):
        // the snapshot at ts_begin is consistent iff each observed
        // version is still the youngest <= ts_begin and no prepared
        // write <= ts_begin exists. Nothing prepares, nothing
        // replicates — validate and vote.
        resp.vote = Vote::Commit;
        for (const auto &read : request.readSet) {
            const KeyRecord &rec = records_[read.key];
            if (rec.isPrepared() &&
                rec.prepared() <= request.beginVersion) {
                resp.vote = Vote::Abort;
                resp.reason = semel::AbortReason::ReadPrepared;
                break;
            }
            const auto snapshot =
                backend_.versionAt(read.key, request.beginVersion);
            const Version expect = snapshot.has_value()
                                       ? *snapshot
                                       : rec.committed();
            if (expect != read.observed) {
                resp.vote = Vote::Abort;
                resp.reason =
                    classifyAbort(semel::AbortReason::ReadStale);
                break;
            }
        }
        if (resp.vote == Vote::Commit && !backups_.empty()) {
            // The paper's remote validation costs the full prepare
            // path: the primary syncs with f backups before voting
            // (section 4.3 counts this as the second round trip that
            // local validation eliminates).
            auto acks = callBackups(backupQuorum(), [](semel::Server *b) {
                return static_cast<MilanaServer *>(b)->handleBarrier();
            });
            co_await acks->wait();
        }
        stats_.counter(resp.vote == Vote::Commit
                           ? "milana.votes_commit"
                           : "milana.votes_abort")
            .inc();
        span.setTag(resp.vote == Vote::Commit
                        ? "commit"
                        : semel::abortReasonName(resp.reason));
        co_return resp;
    }

    const semel::AbortReason reason = classifyAbort(validate(request));
    if (reason != semel::AbortReason::None) {
        resp.vote = Vote::Abort;
        resp.reason = reason;
        stats_.counter("milana.votes_abort").inc();
        span.setTag(semel::abortReasonName(reason));
        co_return resp;
    }

    // The request is not read again, so the table entry takes its
    // sets. A retransmission that passed the check above while
    // rebuildKeyState suspended folds as a no-op: vote as a duplicate.
    const TxnEntry *entry = txns_.fold(
        TxnEntry{{semel::TxnStatus::Prepared, request.txn,
                  request.commitVersion, std::move(request.writeSet),
                  std::move(request.participants)},
                 sim_.now()});
    if (entry == nullptr) {
        resp.vote = txns_.statusOf(request.txn) == semel::TxnStatus::Aborted
                        ? Vote::Abort
                        : Vote::Commit;
        span.setTag("duplicate");
        co_return resp;
    }
    resp.vote = Vote::Commit;

    // Mark the write set prepared — synchronously with validation, so
    // no concurrent prepare can interleave.
    for (const auto &write : entry->writeSet)
        records_[write.key].prepare(entry->commitVersion, entry->txn);

    // Persist the prepare on a majority before voting: replicate the
    // entry (with the write set and shard list) and wait for f acks.
    co_await replicateTxnRecord(*entry);

    stats_.counter("milana.votes_commit").inc();
    span.setTag("commit");
    co_return resp;
}

// ---------------------------------------------------------- decision

void
MilanaServer::applyCommit(const ReplicateTxnRecord &record,
                          std::shared_ptr<sim::Quorum> decided, bool late)
{
    // Apply the writes in parallel; each key's prepared mark is
    // cleared only after its write is durable, so read-only snapshots
    // taken in the window still see the prepared flag (section 4.3).
    for (const auto &write : record.writeSet) {
        ++applying_;
        sim::spawn([](MilanaServer *self, Key key, Value value,
                      Version version, TxnId txn, bool late,
                      std::shared_ptr<sim::Quorum> q) -> sim::Task<void> {
            (void)co_await self->backend_.put(key, std::move(value),
                                              version);
            --self->applying_;
            if (q == nullptr)
                co_return;
            KeyRecord &rec = self->records_[key];
            rec.noteCommitted(version);
            rec.release(txn);
            // Per-key commit record: feeds the invariant monitor's
            // commit-timestamp monotonicity check. Tag "late" when the
            // decision was a CTP / recovery re-application, which can
            // legally land after newer versions committed elsewhere.
            self->trace_.instant("milana.key.commit",
                                 late ? "late" : std::string_view{},
                                 static_cast<std::int64_t>(key),
                                 version.timestamp);
            q->arrive();
        }(this, write.key, write.value, record.commitVersion, record.txn,
          late, decided));
    }
}

void
MilanaServer::applyAbort(TxnEntry &entry)
{
    for (const auto &write : entry.writeSet)
        records_[write.key].release(entry.txn);
    stats_.counter("milana.aborted").inc();
}

sim::Task<DecisionResponse>
MilanaServer::handleDecision(DecisionRequest request)
{
    stats_.counter("milana.decisions").inc();
    common::ScopedSpan span(trace_, "milana.server.decision",
                            request.decision == TxnDecision::Commit
                                ? "commit"
                                : "abort");
    DecisionResponse resp;
    resp.ok = true;

    // The ack settles the transaction at the client once every
    // participant has sent one: answering before the pull has folded
    // in a prepare this replica missed would let the other
    // participants drop a commit that the CTP here then needs.
    while (pulling_)
        co_await sim::sleepFor(sim_, kMillisecond);

    TxnEntry *entry = txns_.find(request.txn);
    if (entry == nullptr || entry->status != semel::TxnStatus::Prepared) {
        // Duplicate or already resolved: idempotent. The client's ack
        // settles the transaction, so, like the first decision's, it
        // waits until the outcome is applied and held by a quorum of
        // backups; past a deadline it answers not ok, and the client
        // keeps its floor. A late (CTP) decision's ack settles nothing.
        const Time deadline = sim_.now() + common::kSecond;
        while (!request.late &&
               txns_.outcomePending(request.txn, backupQuorum())) {
            if (sim_.now() > deadline || sim_.stopRequested()) {
                resp.ok = false;
                span.setTag("pending");
                break;
            }
            co_await sim::sleepFor(sim_, kMillisecond);
        }
        co_return resp;
    }

    // Claim the entry synchronously BEFORE the apply suspends: the
    // client's decision and the CTP backup coordinator can race here,
    // and the loser must take the idempotent path above rather than
    // decide the entry out from under the winner.
    entry->status = request.decision == TxnDecision::Commit
                        ? semel::TxnStatus::Committed
                        : semel::TxnStatus::Aborted;
    const TxnEntry bare{{entry->status, request.txn, entry->commitVersion,
                         {}, {}}};
    if (request.decision == TxnDecision::Commit) {
        auto applied = std::make_shared<sim::Quorum>(
            sim_, static_cast<std::uint32_t>(entry->writeSet.size()));
        applyCommit(*entry, applied, request.late);
        co_await applied->wait();
        stats_.counter("milana.committed").inc();
    } else {
        applyAbort(*entry);
    }

    // Fold the bare outcome: a commit keeps the prepare's write set,
    // which the replicated outcome carries too (a backup may not have
    // the prepare yet). A no-op means a recovery fold decided it
    // first and brings the backups level itself.
    if (const TxnEntry *outcome = txns_.fold(bare))
        co_await replicateTxnRecord(*outcome);
    co_return resp;
}

sim::Task<TxnStatusResponse>
MilanaServer::handleTxnStatus(TxnStatusRequest request)
{
    TxnStatusResponse resp;
    resp.status = txns_.statusOf(request.txn);
    co_return resp;
}

// --------------------------------------------------------- backups

sim::Task<void>
MilanaServer::replicateTxnRecord(const ReplicateTxnRecord &record)
{
    // The primary's own copy is its table entry.
    if (backups_.empty())
        co_return;
    const char *kind = record.status == semel::TxnStatus::Prepared
                           ? "prepared"
                           : record.status == semel::TxnStatus::Committed
                                 ? "committed"
                                 : "aborted";
    common::ScopedSpan span(trace_, "milana.repl.txn_record", kind);
    const Time started = sim_.now();
    auto acks = sendRecord(record, backupQuorum());
    co_await acks->wait();
    stats_.histogram("milana.repl_wait").record(sim_.now() - started);
}

std::shared_ptr<sim::Quorum>
MilanaServer::sendRecord(const ReplicateTxnRecord &record,
                         std::uint32_t needed)
{
    const std::uint64_t floor = txns_.floorOf(record.txn.client);
    std::optional<TxnId> outcome;
    if (record.status != semel::TxnStatus::Prepared)
        outcome = record.txn;
    // Each backup's handler owns its copy: the last read of @p record.
    return callBackups(
        needed,
        [&record, floor](semel::Server *b) {
            return static_cast<MilanaServer *>(b)->handleReplicateTxnRecord(
                record, floor);
        },
        [this, outcome](NodeId backup) {
            // The backup's bit is its place among the backups wired now.
            if (outcome.has_value())
                for (std::size_t i = 0; i < backups_.size(); ++i)
                    if (backups_[i]->nodeId() == backup)
                        txns_.noteAck(*outcome, 1u << i);
        });
}

void
MilanaServer::noteSettled(common::ClientId client, std::uint64_t settled)
{
    if (isPrimary() && !recovering_)
        txns_.settle(client, settled, (1u << backups_.size()) - 1);
}

sim::Task<bool>
MilanaServer::handleBarrier()
{
    co_return true;
}

void
MilanaServer::learn(TxnEntry entry)
{
    // Fold the record into the table (models the persistent-memory
    // write); records may arrive in any order (Figure 5). The first
    // time a commit arrives, apply its writes to local storage,
    // asynchronously: an ack only promises the table entry.
    const TxnEntry *folded = txns_.fold(std::move(entry));
    if (folded != nullptr && folded->status == semel::TxnStatus::Committed)
        applyCommit(*folded, nullptr, false);
}

sim::Task<bool>
MilanaServer::handleReplicateTxnRecord(ReplicateTxnRecord record,
                                       std::uint64_t floor)
{
    stats_.counter("milana.replica_records").inc();
    txns_.truncate(record.txn.client, floor);
    learn(TxnEntry{std::move(record), sim_.now()});
    co_return true;
}

// ------------------------------------------------------------ leases

sim::Task<bool>
MilanaServer::handleLeaseGrant(Time until)
{
    maxLeaseGranted_ = std::max(maxLeaseGranted_, until);
    co_return true;
}

sim::Task<bool>
MilanaServer::renewLease()
{
    const Time until = clock_.localNow() + kLeaseDuration;
    const std::uint32_t needed = backupQuorum();
    if (needed == 0) {
        leaseUntil_ = until;
        co_return true;
    }
    auto quorum = callBackups(needed, [until](semel::Server *b) {
        return static_cast<MilanaServer *>(b)->handleLeaseGrant(until);
    });
    // Bounded wait: with a majority of backups down, renewal fails.
    sim::Promise<bool> done(sim_);
    auto fut = done.future();
    sim::spawn([](std::shared_ptr<sim::Quorum> q,
                  sim::Promise<bool> p) -> sim::Task<void> {
        co_await q->wait();
        p.set(true);
    }(quorum, done));
    auto granted = co_await fut.withTimeout(20 * kMillisecond);
    if (granted.has_value()) {
        leaseUntil_ = std::max(leaseUntil_, until);
        stats_.counter("milana.lease_renewals").inc();
        co_return true;
    }
    co_return false;
}

sim::Task<void>
MilanaServer::leaseLoop()
{
    while (!sim_.stopRequested()) {
        if (!recovering_)
            (void)co_await renewLease();
        co_await sim::sleepFor(sim_, kLeaseRenewPeriod);
    }
}

// --------------------------------------------------------------- CTP

sim::Task<void>
MilanaServer::resolveOrphan(TxnId txn)
{
    TxnEntry *entry = txns_.find(txn);
    if (entry == nullptr || entry->status != semel::TxnStatus::Prepared)
        co_return;
    stats_.counter("milana.ctp_invocations").inc();
    // Copy before deciding: handleDecision moves the entry to the
    // decided ones, dropping its participants.
    const std::vector<common::ShardId> participants = entry->participants;

    bool saw_commit = false;
    bool saw_abort_or_unknown = false;
    bool undeterminable = false;

    for (const common::ShardId participant : participants) {
        if (participant == shard_)
            continue;
        auto *peer = dynamic_cast<MilanaServer *>(
            directory_.at(master_.primaryOf(participant)));
        if (peer == nullptr)
            PANIC("participant shard " << participant << " has no server");
        TxnStatusRequest req{txn};
        auto resp = co_await net_.callTyped<TxnStatusResponse>(
            id_, peer->nodeId(), peer->handleTxnStatus(req));
        if (!resp.has_value()) {
            undeterminable = true; // peer unreachable; stay blocked
            continue;
        }
        switch (resp->status) {
          case semel::TxnStatus::Committed:
            saw_commit = true;
            break;
          case semel::TxnStatus::Aborted:
          case semel::TxnStatus::Unknown:
            // Rule 2/3: a participant that never prepared (or already
            // aborted) means the coordinator cannot have committed.
            saw_abort_or_unknown = true;
            break;
          case semel::TxnStatus::Prepared:
            break;
        }
    }

    TxnDecision decision = TxnDecision::Unknown;
    if (saw_commit) {
        decision = TxnDecision::Commit; // rule 1
    } else if (saw_abort_or_unknown) {
        decision = TxnDecision::Abort; // rules 2 and 3
    } else if (!undeterminable) {
        decision = TxnDecision::Commit; // rule 4: all prepared
    } else {
        co_return; // cannot determine yet; retry at the next scan
    }

    stats_.counter(decision == TxnDecision::Commit
                       ? "milana.ctp_commits"
                       : "milana.ctp_aborts")
        .inc();
    DecisionRequest req;
    req.txn = txn;
    req.decision = decision;
    req.late = true;
    (void)co_await handleDecision(req);

    // As backup coordinator, propagate the outcome to the other
    // participants so their prepared marks clear too.
    for (const common::ShardId participant : participants) {
        if (participant == shard_)
            continue;
        auto *peer = dynamic_cast<MilanaServer *>(
            directory_.at(master_.primaryOf(participant)));
        if (peer == nullptr)
            continue;
        (void)co_await net_.callTyped<DecisionResponse>(
            id_, peer->nodeId(), peer->handleDecision(req));
    }
}

sim::Task<void>
MilanaServer::ctpScanLoop()
{
    while (!sim_.stopRequested()) {
        co_await sim::sleepFor(sim_, kCtpScanPeriod);
        // Only a primary resolves orphans: a backup's entries are
        // replicas, and it holds no per-key records to release.
        if (recovering_ || !isPrimary())
            continue;
        const Time deadline = sim_.now() - kCtpTimeout;
        for (const TxnId &txn : txns_.preparedBefore(deadline))
            co_await resolveOrphan(txn);
    }
}

// ---------------------------------------------------------- recovery

sim::Task<MilanaServer::RecoveryPull>
MilanaServer::handleRecoveryPull()
{
    RecoveryPull pull;
    txns_.forEach([&](const TxnEntry &entry) { pull.txns.push_back(entry); });
    pull.maxLeaseGranted = maxLeaseGranted_;
    co_return pull;
}

sim::Task<void>
MilanaServer::recoverAsPrimary()
{
    recovering_ = true;
    stats_.counter("milana.recoveries").inc();
    // Acks count toward the settled floor only from the backups wired
    // now; the re-send below collects them again.
    txns_.clearAcks();

    // Algorithm 2: fold the table of every reachable replica of the
    // shard into ours. Outcomes beat prepares; any single outcome is
    // authoritative (it could only exist if the coordinator decided).
    // Each entry takes the step a replicated record takes: a commit
    // learned here is applied, and nothing already held is re-written.
    Time max_lease = maxLeaseGranted_;
    pulling_ = true;
    for (const NodeId node : master_.replicasOf(shard_)) {
        if (node == id_)
            continue;
        auto *peer = dynamic_cast<MilanaServer *>(directory_.at(node));
        if (peer == nullptr)
            continue;
        auto pull = co_await net_.callTyped<RecoveryPull>(
            id_, node, peer->handleRecoveryPull());
        if (!pull.has_value())
            continue; // crashed replica
        for (TxnEntry &entry : pull->txns)
            learn(std::move(entry));
        max_lease = std::max(max_lease, pull->maxLeaseGranted);
    }
    pulling_ = false;

    records_.clear();

    // One pass, in TxnId order, over every undecided transaction,
    // whether this replica held it already or learned it from a peer.
    for (const TxnId &txn :
         txns_.preparedBefore(std::numeric_limits<Time>::max())) {
        TxnEntry *entry = txns_.find(txn);
        if (entry == nullptr || entry->status != semel::TxnStatus::Prepared)
            continue; // decided while an earlier step suspended
        if (entry->participants.size() <= 1) {
            // Single-shard prepared == committed (Algorithm 2).
            DecisionRequest req;
            req.txn = txn;
            req.decision = TxnDecision::Commit;
            req.late = true;
            (void)co_await handleDecision(req);
        } else {
            // Multi-shard: the CTP scanner will resolve it against the
            // other participants once service resumes. Re-instate the
            // prepared marks so conflicting transactions abort until
            // then.
            for (const auto &write : entry->writeSet)
                records_[write.key].prepare(entry->commitVersion, txn);
        }
    }

    // Bring the backups level: one record per live transaction, sent
    // without waiting (a backup folds what it already holds away).
    txns_.forEach([this](const TxnEntry &entry) {
        sendRecord(entry, backupQuorum());
    });

    // Wait out the old primary's lease so no read it served can be
    // contradicted (its ts_latestRead values are lost with it), and
    // every apply, this replica's backup-era puts included: once
    // service resumes, a key's record is rebuilt from storage.
    const bool leases = !backups_.empty();
    while ((leases && clock_.localNow() <= max_lease + 10 * kMillisecond) ||
           applying_ > 0)
        co_await sim::sleepFor(sim_, kMillisecond);

    recovering_ = false;
    if (!started_)
        start();
}

} // namespace milana
