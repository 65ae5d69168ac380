#include "milana/client.hh"

#include <algorithm>
#include <memory>

#include "common/chaos.hh"
#include "common/logging.hh"
#include "sim/future.hh"
#include "sim/sync.hh"

namespace milana {

MilanaClient::MilanaClient(sim::Simulator &sim, net::Network &net,
                           NodeId node, ClientId client_id,
                           clocksync::Clock &clock,
                           const semel::Master &master,
                           const semel::Directory &directory,
                           const semel::Client::Config &config,
                           const TxnConfig &txn_config)
    : semel::Client(sim, net, node, client_id, clock, master, directory,
                    config),
      tcfg_(txn_config)
{
}

MilanaServer *
MilanaClient::milanaPrimaryFor(common::ShardId shard) const
{
    auto *server = dynamic_cast<MilanaServer *>(
        directory_.at(master_.primaryOf(shard)));
    if (server == nullptr)
        PANIC("shard " << shard << " primary is not a MILANA server");
    return server;
}

Transaction
MilanaClient::beginTransaction(TxnHint hint)
{
    Transaction txn;
    txn.id_ = TxnId{clientId_, nextSerial_};
    holds_.at(nextSerial_++) = 1;
    txn.begin_ = Version{clock_.localNow(), clientId_};
    txn.active_ = true;
    txn.hint_ = hint;
    txn.traceId_ = trace_.newTraceId();
    stats_.counter("txn.begun").inc();
    common::TraceContextScope ctx(common::TraceContext{txn.traceId_, 0});
    trace_.instant("milana.txn.begin",
                   hint == TxnHint::ReadWrite ? "rw_hint" : "default",
                   /*arg=*/0, /*arg2=*/txn.begin_.timestamp);
    return txn;
}

MilanaServer *
MilanaClient::anyReplicaFor(Key key, common::Rng &rng) const
{
    const common::ShardId shard = master_.shardMap().shardOf(key);
    const auto &replicas = master_.replicasOf(shard);
    const auto pick = replicas[rng.nextBounded(replicas.size())];
    auto *server = dynamic_cast<MilanaServer *>(directory_.at(pick));
    if (server == nullptr)
        PANIC("replica " << pick << " is not a MILANA server");
    return server;
}

sim::Task<TxnRead>
MilanaClient::get(Transaction &txn, Key key)
{
    TxnRead result;
    if (!txn.active_)
        PANIC("get on inactive transaction");
    // Reads run under the transaction's trace so server-side spans
    // chain back to it.
    common::TraceContextScope ctx(
        common::TraceContext{txn.traceId_, 0});

    // Reads of our own buffered writes come from the write set.
    if (auto wit = txn.writeSet_.find(key); wit != txn.writeSet_.end()) {
        result.ok = true;
        result.found = true;
        result.value = wit->second;
        co_return result;
    }
    // Repeat reads come from the read cache.
    if (auto rit = txn.readSet_.find(key); rit != txn.readSet_.end()) {
        result.ok = true;
        result.found = rit->second.found;
        result.value = rit->second.value;
        co_return result;
    }

    const bool hinted_rw = txn.hint_ == TxnHint::ReadWrite;

    // Section 4.3 "aggressive caching": a hinted read-write
    // transaction may serve reads from the inter-transaction cache —
    // it will validate remotely, so stale entries surface as aborts.
    if (hinted_rw && tcfg_.interTxnCacheCapacity > 0) {
        if (auto cit = interTxnCache_.find(key);
            cit != interTxnCache_.end()) {
            stats_.counter("txn.cache_hits").inc();
            trace_.instant("milana.txn.read", "cache",
                           static_cast<std::int64_t>(key),
                           cit->second.observed.timestamp);
            txn.readSet_[key] = cit->second;
            result.ok = true;
            result.found = cit->second.found;
            result.value = cit->second.value;
            co_return result;
        }
    }

    std::optional<GetResponse> resp;
    if (hinted_rw && tcfg_.readFromAnyReplica) {
        // Section 4.6 relaxation: read from any replica; the primary
        // re-validates the observed version at prepare time.
        MilanaServer *replica = anyReplicaFor(key, replicaRng_);
        stats_.counter("txn.replica_reads").inc();
        GetRequest req{key, txn.begin_};
        resp = co_await net_.callTyped<GetResponse>(
            node_, replica->nodeId(), replica->handleGet(req));
    } else {
        resp = co_await getAt(key, txn.begin_);
    }
    if (!resp.has_value() || resp->unavailable) {
        stats_.counter("txn.read_failures").inc();
        if (chaos_ != nullptr && chaos_->anyActive()) {
            txn.abortReason_ = semel::AbortReason::Timeout;
            trace_.instant("milana.txn.fault_active",
                           chaos_->activeFaultName(),
                           static_cast<std::int64_t>(key));
        }
        co_return result; // ok = false
    }

    Transaction::CachedRead cached;
    cached.found = resp->found;
    cached.value = resp->value;
    cached.observed = resp->found ? resp->version : Version::zero();
    // Snapshot consistency bookkeeping (section 4.3): a prepared write
    // at or below ts_begin, or a returned version above ts_begin (only
    // possible on single-version storage), breaks the snapshot.
    if (resp->preparedLeqAt ||
        (resp->found && resp->version > txn.begin_))
        txn.snapshotViolated_ = true;
    trace_.instant("milana.txn.read", resp->found ? "hit" : "miss",
                   static_cast<std::int64_t>(key),
                   cached.observed.timestamp);
    txn.readSet_[key] = cached;
    if (tcfg_.interTxnCacheCapacity > 0) {
        if (interTxnCache_.size() >= tcfg_.interTxnCacheCapacity)
            interTxnCache_.erase(interTxnCache_.begin());
        interTxnCache_[key] = cached;
    }

    result.ok = true;
    result.found = cached.found;
    result.value = cached.value;
    co_return result;
}

void
MilanaClient::put(Transaction &txn, Key key, Value value)
{
    if (!txn.active_)
        PANIC("put on inactive transaction");
    txn.writeSet_[key] = std::move(value);
}

void
MilanaClient::release(std::uint64_t serial)
{
    --*holds_.find(serial);
    while (holds_.base() < holds_.end() && *holds_.find(holds_.base()) == 0)
        holds_.advance(holds_.base() + 1);
    settledBelow_ = holds_.base();
}

void
MilanaClient::abortTransaction(Transaction &txn)
{
    if (txn.active_)
        release(txn.id_.serial);
    txn.active_ = false;
    txn.readSet_.clear();
    txn.writeSet_.clear();
    stats_.counter("txn.client_aborts").inc();
    common::TraceContextScope ctx(common::TraceContext{txn.traceId_, 0});
    trace_.instant("milana.txn.client_abort");
    noteAcked(clock_.localNow());
}

sim::Task<CommitResult>
MilanaClient::commitReadOnlyLocal(Transaction &txn)
{
    // Local validation (section 4.3): zero messages. The transaction
    // commits iff every value in its read set came from a consistent
    // snapshot at ts_begin.
    stats_.counter("txn.local_validations").inc();
    if (txn.snapshotViolated_) {
        stats_.counter("txn.local_validation_fail").inc();
        txn.abortReason_ = semel::AbortReason::SnapshotViolated;
        co_return CommitResult::Aborted;
    }
    co_return CommitResult::Committed;
}

sim::Task<CommitResult>
MilanaClient::twoPhaseCommit(Transaction &txn, bool read_only)
{
    const Version commit_version{clock_.localNow(), clientId_};
    txn.commitVersion_ = commit_version;

    // Partition read and write sets by participant shard. Each shard's
    // sets are sized for the whole transaction on first use, so they
    // allocate once instead of growing.
    std::map<common::ShardId, semel::PrepareRequest> by_shard;
    const auto requestFor = [&](Key key) -> semel::PrepareRequest & {
        auto [it, fresh] =
            by_shard.try_emplace(master_.shardMap().shardOf(key));
        if (fresh) {
            it->second.readSet.reserve(txn.readSet_.size());
            it->second.writeSet.reserve(txn.writeSet_.size());
        }
        return it->second;
    };
    for (const auto &[key, cached] : txn.readSet_)
        requestFor(key).readSet.push_back(
            ReadSetEntry{key, cached.observed});
    for (const auto &[key, value] : txn.writeSet_)
        requestFor(key).writeSet.push_back(
            semel::WriteSetEntry{key, value});
    std::vector<common::ShardId> participants;
    participants.reserve(by_shard.size());
    for (const auto &[shard, req] : by_shard)
        participants.push_back(shard);

    struct VoteState
    {
        explicit VoteState(sim::Simulator &s, std::uint32_t n)
            : all(s, n)
        {
        }
        sim::Quorum all;
        bool anyAbort = false;
        bool anyFailure = false;
        /** First abort reason reported by a participant. */
        semel::AbortReason reason = semel::AbortReason::None;
    };
    auto votes = std::make_shared<VoteState>(
        sim_, static_cast<std::uint32_t>(by_shard.size()));

    for (auto &[shard, req] : by_shard) {
        req.txn = txn.id_;
        req.commitVersion = commit_version;
        req.beginVersion = txn.begin_;
        req.participants = participants;
        MilanaServer *primary = milanaPrimaryFor(shard);

        sim::spawn([](MilanaClient *self, MilanaServer *primary,
                      semel::PrepareRequest request,
                      std::shared_ptr<VoteState> votes)
                       -> sim::Task<void> {
            std::optional<semel::PrepareResponse> resp;
            for (std::uint32_t attempt = 0;
                 attempt <= kPrepareRetries && !resp; ++attempt) {
                // The handler owns its request; keep ours for a retry
                // unless this is the last attempt. (A named local, not
                // a conditional temporary inside the co_await: GCC 12
                // destroys such a temporary twice.)
                semel::PrepareRequest sent =
                    attempt < kPrepareRetries ? request : std::move(request);
                resp = co_await self->net_.callTyped<semel::PrepareResponse>(
                    self->nodeId(), primary->nodeId(),
                    primary->handlePrepare(std::move(sent)));
            }
            if (!resp.has_value()) {
                votes->anyFailure = true;
            } else if (resp->vote == Vote::Abort) {
                votes->anyAbort = true;
                if (votes->reason == semel::AbortReason::None)
                    votes->reason = resp->reason;
            }
            votes->all.arrive();
        }(this, primary, std::move(req), votes));
    }

    co_await votes->all.wait();

    CommitResult result;
    TxnDecision decision;
    if (votes->anyFailure) {
        result = CommitResult::Failed;
        decision = TxnDecision::Abort;
        // Under an active fault the lost RPC is (almost certainly) the
        // fault's doing: report Timeout so retry policies and metrics
        // can tell infrastructure chaos from a dead shard.
        txn.abortReason_ = (chaos_ != nullptr && chaos_->anyActive())
                               ? semel::AbortReason::Timeout
                               : semel::AbortReason::PrepareFailed;
    } else if (votes->anyAbort) {
        result = CommitResult::Aborted;
        decision = TxnDecision::Abort;
        txn.abortReason_ = votes->reason != semel::AbortReason::None
                               ? votes->reason
                               : semel::AbortReason::PrepareFailed;
    } else {
        result = CommitResult::Committed;
        decision = TxnDecision::Commit;
    }

    // Read-only transactions prepared nothing: no decision phase.
    if (!read_only) {
        // Report to the application now; notify participants
        // asynchronously (section 4.2). The serial stays unsettled
        // until every participant acknowledges its decision ok.
        *holds_.find(txn.id_.serial) +=
            static_cast<std::uint32_t>(participants.size());
        for (const auto &shard : participants) {
            MilanaServer *primary = milanaPrimaryFor(shard);
            sim::spawn([](MilanaClient *self, MilanaServer *primary,
                          semel::DecisionRequest request)
                           -> sim::Task<void> {
                const auto ack = co_await
                    self->net_.callTyped<semel::DecisionResponse>(
                        self->nodeId(), primary->nodeId(),
                        primary->handleDecision(request));
                if (ack.has_value() && ack->ok)
                    self->release(request.txn.serial);
            }(this, primary,
              semel::DecisionRequest{txn.id_, decision}));
        }
    }
    co_return result;
}

sim::Task<CommitResult>
MilanaClient::decideCommit(Transaction &txn)
{
    if (txn.readOnly() && tcfg_.localValidation)
        co_return co_await commitReadOnlyLocal(txn);
    if (txn.readOnly()) {
        // Remote validation of the read-only snapshot (w/o LV). The
        // client-side inconsistency evidence is decisive either way.
        if (txn.snapshotViolated_) {
            txn.abortReason_ = semel::AbortReason::SnapshotViolated;
            co_return CommitResult::Aborted;
        }
        co_return co_await twoPhaseCommit(txn, true);
    }
    co_return co_await twoPhaseCommit(txn, false);
}

sim::Task<CommitResult>
MilanaClient::commitTransaction(Transaction &txn)
{
    if (!txn.active_)
        PANIC("commit on inactive transaction");
    txn.active_ = false;

    common::TraceContextScope ctx(common::TraceContext{txn.traceId_, 0});
    common::ScopedSpan span(trace_, "milana.txn.commit",
                            txn.readOnly() ? "ro" : "rw");
    // The commit end's arg carries ts_begin so offline tools and the
    // invariant monitor can check committed reads against the snapshot.
    span.setArg(txn.begin_.timestamp);

    const CommitResult result = co_await decideCommit(txn);

    switch (result) {
      case CommitResult::Committed:
        stats_.counter("txn.committed").inc();
        span.setTag("committed");
        span.setArg2(txn.commitVersion_.timestamp != 0
                         ? txn.commitVersion_.timestamp
                         : txn.begin_.timestamp);
        if (tcfg_.interTxnCacheCapacity > 0) {
            // Committed writes refresh the cache at the new version.
            for (const auto &[key, value] : txn.writeSet_) {
                Transaction::CachedRead fresh;
                fresh.found = true;
                fresh.value = value;
                fresh.observed = txn.commitVersion_;
                interTxnCache_[key] = fresh;
            }
        }
        break;
      case CommitResult::Aborted:
        stats_.counter("txn.aborted").inc();
        stats_.counter(std::string("txn.abort.") +
                       semel::abortReasonName(txn.abortReason_))
            .inc();
        span.setTag(semel::abortReasonName(txn.abortReason_));
        // Cached reads may have caused the conflict: drop them so the
        // retry reads fresh data.
        for (const auto &[key, cached] : txn.readSet_)
            interTxnCache_.erase(key);
        break;
      case CommitResult::Failed:
        stats_.counter("txn.failed").inc();
        span.setTag("failed");
        break;
    }
    // Chaos attribution: a transaction that died while a fault was
    // active carries the fault's name in its trace, so
    // trace-report --txn=<id> answers "why did this txn die?".
    if (result != CommitResult::Committed && chaos_ != nullptr &&
        chaos_->anyActive()) {
        stats_.counter("txn.fault_active_aborts").inc();
        trace_.instant("milana.txn.fault_active",
                       chaos_->activeFaultName());
    }
    // Watermark input: the timestamp of the latest *decided*
    // transaction (section 4.4).
    noteAcked(clock_.localNow());
    release(txn.id_.serial);
    co_return result;
}

} // namespace milana
