/**
 * @file
 * MILANA integration tests: transaction semantics (atomicity,
 * snapshot isolation, serializability), local validation, OCC
 * conflicts, the cooperative termination protocol, leases, primary
 * failover recovery, and the transaction table's fold rule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "milana/client.hh"
#include "milana/txn_table.hh"
#include "sim/sync.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

using namespace workload;
using common::kMillisecond;
using common::kSecond;
using common::Key;
using milana::CommitResult;
using milana::MilanaClient;
using milana::Transaction;

namespace {

ClusterConfig
smallConfig(std::uint32_t shards = 3, std::uint32_t replicas = 3,
            std::uint32_t clients = 4)
{
    ClusterConfig cfg;
    cfg.numShards = shards;
    cfg.replicasPerShard = replicas;
    cfg.numClients = clients;
    cfg.backend = BackendKind::Dram;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 2000;
    return cfg;
}

/** Run one coroutine to completion on the cluster's simulator. */
template <typename Fn>
void
drive(Cluster &cluster, Fn fn)
{
    sim::spawn(fn());
    cluster.sim().run();
}

/** A one-key write prepare, stamped at @p at, sent straight to a
 *  server with no client to decide it. */
semel::PrepareRequest
directPrepare(semel::TxnId txn, Key key, common::Time at,
              std::vector<common::ShardId> participants)
{
    semel::PrepareRequest req;
    req.txn = txn;
    req.commitVersion = common::Version{at, txn.client};
    req.beginVersion = req.commitVersion;
    req.writeSet.push_back(semel::WriteSetEntry{key, "prepared"});
    req.participants = std::move(participants);
    return req;
}

} // namespace

TEST(Milana, ReadWriteTransactionCommits)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    CommitResult result{};
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        auto read = co_await client.get(txn, 1);
        EXPECT_TRUE(read.ok);
        EXPECT_TRUE(read.found);
        EXPECT_EQ(read.value, "init");
        client.put(txn, 1, "updated");
        result = co_await client.commitTransaction(txn);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(result, CommitResult::Committed);
}

TEST(Milana, CommittedWritesVisibleToLaterTransactions)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    std::string seen;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto t1 = client.beginTransaction();
        client.put(t1, 5, "newval");
        auto r1 = co_await client.commitTransaction(t1);
        EXPECT_EQ(r1, CommitResult::Committed);
        // The decision is asynchronous; give it a moment to apply.
        co_await sim::sleepFor(cluster.sim(), 20 * kMillisecond);
        auto t2 = client.beginTransaction();
        auto read = co_await client.get(t2, 5);
        seen = read.value;
        (void)co_await client.commitTransaction(t2);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(seen, "newval");
}

TEST(Milana, ReadYourOwnBufferedWrites)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    std::string seen;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        client.put(txn, 9, "buffered");
        auto read = co_await client.get(txn, 9);
        seen = read.value;
        client.abortTransaction(txn);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(seen, "buffered");
}

TEST(Milana, ReadOnlyCommitsLocallyWithZeroMessages)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    CommitResult result{};
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        (void)co_await client.get(txn, 1);
        (void)co_await client.get(txn, 2);
        const auto prepares_before =
            cluster.serverStats().counterValue("milana.prepares");
        result = co_await client.commitTransaction(txn);
        const auto prepares_after =
            cluster.serverStats().counterValue("milana.prepares");
        EXPECT_EQ(prepares_before, prepares_after); // no 2PC at all
        cluster.sim().requestStop();
    });
    EXPECT_EQ(result, CommitResult::Committed);
    EXPECT_GT(cluster.clientStats().counterValue(
                  "txn.local_validations"),
              0u);
}

TEST(Milana, WriteWriteConflictAborts)
{
    Cluster cluster(smallConfig(1, 1, 2));
    cluster.populate();
    cluster.start();
    int committed = 0, aborted = 0;
    drive(cluster, [&]() -> sim::Task<void> {
        // Two transactions from different clients race on key 7; both
        // read then write it. Serializability allows at most one to
        // commit.
        auto worker = [&](std::uint32_t c) -> sim::Task<void> {
            auto &client = cluster.client(c);
            auto txn = client.beginTransaction();
            (void)co_await client.get(txn, 7);
            client.put(txn, 7, "c" + std::to_string(c));
            auto r = co_await client.commitTransaction(txn);
            if (r == CommitResult::Committed)
                ++committed;
            else
                ++aborted;
        };
        sim::spawn(worker(0));
        sim::spawn(worker(1));
        co_await sim::sleepFor(cluster.sim(), kSecond);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(committed + aborted, 2);
    EXPECT_LE(committed, 1);
    EXPECT_GE(aborted, 1);
}

TEST(Milana, SnapshotIsolationAcrossConcurrentWriter)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    std::string first, second;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &reader = cluster.client(0);
        auto &writer = cluster.client(1);

        auto ro = reader.beginTransaction();
        auto r1 = co_await reader.get(ro, 11);
        first = r1.value;

        // A writer commits a new version after the reader's begin.
        auto w = writer.beginTransaction();
        writer.put(w, 11, "after-snapshot");
        auto wr = co_await writer.commitTransaction(w);
        EXPECT_EQ(wr, CommitResult::Committed);
        co_await sim::sleepFor(cluster.sim(), 20 * kMillisecond);

        // The reader must still see its snapshot (multi-version).
        auto r2 = co_await reader.get(ro, 12);
        (void)r2;
        auto r3 = co_await reader.get(ro, 11); // cached
        second = r3.value;
        auto rr = co_await reader.commitTransaction(ro);
        EXPECT_EQ(rr, CommitResult::Committed);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(first, "init");
    EXPECT_EQ(second, "init");
}

TEST(Milana, AbortDiscardsBufferedWrites)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    std::string seen;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto t1 = client.beginTransaction();
        client.put(t1, 3, "discarded");
        client.abortTransaction(t1);
        auto t2 = client.beginTransaction();
        auto read = co_await client.get(t2, 3);
        seen = read.value;
        (void)co_await client.commitTransaction(t2);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(seen, "init");
}

TEST(Milana, CrossShardTransactionIsAtomic)
{
    Cluster cluster(smallConfig(3, 1, 2));
    cluster.populate();
    cluster.start();
    // Write a batch of keys that hash across shards in one
    // transaction; afterwards either all or none are visible.
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        for (Key k = 100; k < 110; ++k)
            client.put(txn, k, "batch");
        auto r = co_await client.commitTransaction(txn);
        EXPECT_EQ(r, CommitResult::Committed);
        co_await sim::sleepFor(cluster.sim(), 50 * kMillisecond);

        auto check = client.beginTransaction();
        int updated = 0;
        for (Key k = 100; k < 110; ++k) {
            auto read = co_await client.get(check, k);
            updated += (read.value == "batch");
        }
        EXPECT_EQ(updated, 10);
        (void)co_await client.commitTransaction(check);
        cluster.sim().requestStop();
    });
}

TEST(Milana, SerializabilityBankInvariant)
{
    // The classic audit test: concurrent transfers move value between
    // accounts; read-only audits must always see the same total.
    Cluster cluster(smallConfig(3, 1, 4));
    cluster.populate();
    cluster.start();
    constexpr Key kAccounts = 16;
    constexpr int kInitial = 100;

    bool audit_violation = false;
    int audits_done = 0;

    drive(cluster, [&]() -> sim::Task<void> {
        auto &setup = cluster.client(0);
        auto init = setup.beginTransaction();
        for (Key a = 0; a < kAccounts; ++a)
            setup.put(init, a, std::to_string(kInitial));
        auto ir = co_await setup.commitTransaction(init);
        EXPECT_EQ(ir, CommitResult::Committed);
        co_await sim::sleepFor(cluster.sim(), 50 * kMillisecond);

        auto transferer = [&](std::uint32_t c) -> sim::Task<void> {
            auto &client = cluster.client(c);
            common::Rng rng(c + 77);
            for (int i = 0; i < 40; ++i) {
                const Key from = rng.nextBounded(kAccounts);
                const Key to = rng.nextBounded(kAccounts);
                if (from == to)
                    continue;
                auto txn = client.beginTransaction();
                auto rf = co_await client.get(txn, from);
                auto rt = co_await client.get(txn, to);
                if (!rf.ok || !rt.ok) {
                    client.abortTransaction(txn);
                    continue;
                }
                const int vf = std::stoi(rf.value);
                const int vt = std::stoi(rt.value);
                client.put(txn, from, std::to_string(vf - 1));
                client.put(txn, to, std::to_string(vt + 1));
                (void)co_await client.commitTransaction(txn);
            }
        };
        auto auditor = [&]() -> sim::Task<void> {
            auto &client = cluster.client(3);
            for (int i = 0; i < 30; ++i) {
                auto txn = client.beginTransaction();
                long total = 0;
                bool ok = true;
                for (Key a = 0; a < kAccounts && ok; ++a) {
                    auto r = co_await client.get(txn, a);
                    ok = r.ok && r.found;
                    if (ok)
                        total += std::stoi(r.value);
                }
                auto cr = co_await client.commitTransaction(txn);
                if (ok && cr == CommitResult::Committed) {
                    ++audits_done;
                    if (total != kAccounts * kInitial)
                        audit_violation = true;
                }
                co_await sim::sleepFor(cluster.sim(), kMillisecond);
            }
        };
        sim::spawn(transferer(1));
        sim::spawn(transferer(2));
        sim::spawn(auditor());
        co_await sim::sleepFor(cluster.sim(), 5 * kSecond);
        cluster.sim().requestStop();
    });
    EXPECT_GT(audits_done, 5);
    EXPECT_FALSE(audit_violation);
}

TEST(Milana, CtpResolvesOrphanedPrepare)
{
    // A client crashes after its prepares land but before any decision
    // is delivered. The participants' cooperative termination protocol
    // must resolve the transaction (all voted commit -> commit) and
    // unblock the keys.
    Cluster cluster(smallConfig(2, 1, 2));
    cluster.populate();
    cluster.start();

    drive(cluster, [&]() -> sim::Task<void> {
        auto &doomed = cluster.client(0);
        auto txn = doomed.beginTransaction();
        for (Key k = 0; k < 12; ++k)
            doomed.put(txn, k, "orphan");
        // Crash the client node mid-commit: prepares already in flight
        // will be delivered, but the client's decision messages (and
        // the vote responses) are dropped.
        sim::spawn([](MilanaClient *client,
                      Transaction *txn) -> sim::Task<void> {
            (void)co_await client->commitTransaction(*txn);
        }(&doomed, &txn));
        // 60 us: the prepare requests are in flight (sent at ~0, one
        // way ~50 us) but the votes cannot have returned yet.
        co_await sim::sleepFor(cluster.sim(),
                               60 * common::kMicrosecond);
        cluster.network().setNodeDown(doomed.nodeId(), true);

        // Give the CTP time to fire (timeout 50 ms + scan period).
        co_await sim::sleepFor(cluster.sim(), 500 * kMillisecond);

        // The transaction table must hold no prepared entries and the
        // keys must be writable again by another client.
        for (common::ShardId s = 0; s < 2; ++s) {
            EXPECT_EQ(cluster.primary(s).txnTable().size(), 0u)
                << "shard " << s << " still blocked";
        }
        auto &other = cluster.client(1);
        auto txn2 = other.beginTransaction();
        (void)co_await other.get(txn2, 0);
        other.put(txn2, 0, "unblocked");
        auto r = co_await other.commitTransaction(txn2);
        EXPECT_EQ(r, CommitResult::Committed);
        cluster.sim().requestStop();
    });
    common::StatSet servers = cluster.serverStats();
    EXPECT_GT(servers.counterValue("milana.ctp_invocations"), 0u);
}

TEST(Milana, BackupsDoNotRunCtp)
{
    // Cut the primary off from both backups after a prepare: the
    // backups hold the prepare with no outcome, but only a primary
    // resolves orphans, so no backup decides it or creates a record.
    Cluster cluster(smallConfig(1, 3, 1));
    cluster.populate();
    cluster.start();
    const semel::TxnId txn{999, 1};
    drive(cluster, [&]() -> sim::Task<void> {
        co_await sim::sleepFor(cluster.sim(), 10 * kMillisecond);
        milana::MilanaServer &primary = cluster.primary(0);
        semel::PrepareRequest req =
            directPrepare(txn, 42, cluster.sim().now(), {0});
        auto resp = co_await primary.handlePrepare(std::move(req));
        EXPECT_EQ(resp.vote, semel::Vote::Commit);
        for (const common::NodeId backup : cluster.master().backupsOf(0))
            cluster.network().setLinkBroken(primary.nodeId(), backup, true);
        co_await sim::sleepFor(cluster.sim(), 200 * kMillisecond);
        cluster.sim().requestStop();
    });
    for (std::size_t i = 0; i < cluster.numServers(); ++i) {
        milana::MilanaServer &backup = cluster.server(i);
        if (cluster.master().primaryOf(0) == backup.nodeId())
            continue;
        EXPECT_EQ(backup.txnTable().statusOf(txn), semel::TxnStatus::Prepared)
            << "backup " << backup.nodeId();
        EXPECT_EQ(backup.stats().counterValue("milana.ctp_invocations"), 0u)
            << "backup " << backup.nodeId();
        EXPECT_EQ(backup.records().size(), 0u)
            << "backup " << backup.nodeId();
    }
    // The primary, still up, resolves its orphan.
    EXPECT_EQ(cluster.primary(0).stats().counterValue(
                  "milana.ctp_invocations"),
              1u);
}

namespace {

/**
 * Commit 3,200 transactions on a 1x3 cluster, crash the
 * primary and promote a backup: recovery must end within the lease
 * wait (+100 ms), and the committed values must read back. A promoted
 * backup that re-wrote the run's whole history, one put at a time,
 * would outlast the lease wait on MFTL (~1 ms pack timer per put).
 */
void
checkFailoverRecoversCommittedState(BackendKind backend)
{
    ClusterConfig cfg = smallConfig(1, 3, 8);
    cfg.backend = backend;
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    // Each client cycles over keys of its own, so no transaction
    // aborts: a key is written again only after its last put landed.
    const std::uint32_t clients = cfg.numClients;
    const std::uint32_t keys_per_client = 16;
    const std::uint32_t txns_per_client = 400;
    std::vector<std::string> last(clients * keys_per_client);

    drive(cluster, [&]() -> sim::Task<void> {
        auto done = std::make_shared<sim::Quorum>(cluster.sim(), clients);
        for (std::uint32_t c = 0; c < clients; ++c) {
            sim::spawn([](MilanaClient *client, Key first, Key stride,
                          std::uint32_t txns, std::vector<std::string> *last,
                          std::shared_ptr<sim::Quorum> q) -> sim::Task<void> {
                for (std::uint32_t i = 0; i < txns; ++i) {
                    const Key key = first + stride * (i % 16);
                    auto txn = client->beginTransaction();
                    std::string value = "v" + std::to_string(i);
                    client->put(txn, key, value);
                    auto r = co_await client->commitTransaction(txn);
                    if (r == CommitResult::Committed)
                        (*last)[key] = std::move(value);
                }
                q->arrive();
            }(&cluster.client(c), c, clients, txns_per_client, &last, done));
        }
        co_await done->wait();
        EXPECT_EQ(cluster.clientStats().counterValue("txn.committed"),
                  clients * txns_per_client);
        co_await sim::sleepFor(cluster.sim(), 100 * kMillisecond);

        // Crash the primary (node 0) and promote the first backup.
        const common::NodeId old_primary =
            cluster.master().primaryOf(0);
        const common::NodeId new_primary =
            cluster.master().backupsOf(0)[0];
        cluster.crashServer(old_primary);
        const common::Time started = cluster.sim().now();
        co_await cluster.failover(0, new_primary);
        EXPECT_LE(cluster.sim().now() - started,
                  milana::MilanaServer::kLeaseDuration + 100 * kMillisecond);

        // After recovery (incl. the lease wait), reads and writes work
        // against the new primary and see the committed values.
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        for (Key k = 0; k < last.size(); ++k) {
            auto read = co_await client.get(txn, k);
            EXPECT_TRUE(read.ok);
            EXPECT_EQ(read.value, last[k]) << "key " << k;
        }
        client.put(txn, 0, "post-failover");
        auto r = co_await client.commitTransaction(txn);
        EXPECT_EQ(r, CommitResult::Committed);
        cluster.sim().requestStop();
    });
}

} // namespace

TEST(Milana, FailoverRecoversCommittedState)
{
    checkFailoverRecoversCommittedState(BackendKind::Dram);
}

TEST(Milana, FailoverRecoversCommittedStateOnMftl)
{
    checkFailoverRecoversCommittedState(BackendKind::Mftl);
}

TEST(Milana, RecoveryPutsOnlyTheCommitsItLearns)
{
    // Backup B is cut off from the primary after T's prepare and
    // before T's outcome record; backup A gets the outcome. Promoted,
    // B learns T's commit from A: it must put exactly T's write set
    // during recovery — the commits it applied as a backup are not
    // written again — and serve T's writes. The old lease has expired
    // by then, so only the wait for in-flight applies keeps service
    // from resuming before MFTL's pack timer lands T's puts.
    ClusterConfig cfg = smallConfig(1, 3, 1);
    cfg.backend = BackendKind::Mftl;
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    const semel::TxnId txn{999, 1};
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        for (Key k = 0; k < 20; ++k) {
            auto before = client.beginTransaction();
            client.put(before, k, "before");
            auto r = co_await client.commitTransaction(before);
            EXPECT_EQ(r, CommitResult::Committed);
        }
        co_await sim::sleepFor(cluster.sim(), 100 * kMillisecond);

        milana::MilanaServer &primary = cluster.primary(0);
        const common::NodeId cut_off = cluster.master().backupsOf(0)[1];
        semel::PrepareRequest req =
            directPrepare(txn, 42, cluster.sim().now(), {0});
        req.writeSet.push_back(semel::WriteSetEntry{43, "prepared"});
        req.writeSet.push_back(semel::WriteSetEntry{44, "prepared"});
        auto vote = co_await primary.handlePrepare(std::move(req));
        EXPECT_EQ(vote.vote, semel::Vote::Commit);
        co_await sim::sleepFor(cluster.sim(), kMillisecond);
        EXPECT_EQ(cluster.server(cut_off).txnTable().statusOf(txn),
                  semel::TxnStatus::Prepared);

        cluster.network().setLinkBroken(primary.nodeId(), cut_off, true);
        semel::DecisionRequest commit;
        commit.txn = txn;
        commit.decision = semel::TxnDecision::Commit;
        (void)co_await primary.handleDecision(commit);
        co_await sim::sleepFor(cluster.sim(), 10 * kMillisecond);
        EXPECT_EQ(cluster.server(cut_off).txnTable().statusOf(txn),
                  semel::TxnStatus::Prepared);

        cluster.crashServer(primary.nodeId());
        co_await sim::sleepFor(cluster.sim(),
                               milana::MilanaServer::kLeaseDuration);
        const common::StatSet &puts =
            cluster.server(cut_off).backend().stats();
        const std::uint64_t before = puts.counterValue("mftl.puts");
        co_await cluster.failover(0, cut_off);
        EXPECT_EQ(puts.counterValue("mftl.puts") - before, 3u);

        auto after = client.beginTransaction();
        for (Key k = 42; k <= 44; ++k) {
            auto read = co_await client.get(after, k);
            EXPECT_EQ(read.value, "prepared") << "key " << k;
        }
        (void)co_await client.commitTransaction(after);
        cluster.sim().requestStop();
    });
}

TEST(Milana, KeyRecordsLiveOnPrimariesOnly)
{
    // One record per key, on the shard's primary only: after populate
    // every backup's table is empty and each primary holds exactly its
    // shard's keys, each rebuilt and stamped with the load version.
    const ClusterConfig cfg = smallConfig();
    Cluster cluster(cfg);
    cluster.populate();
    const semel::Master &master = cluster.master();
    for (std::size_t i = 0; i < cluster.numServers(); ++i) {
        const milana::MilanaServer &server = cluster.server(i);
        const semel::KeyRecords &records = server.records();
        if (master.primaryOf(server.shard()) != server.nodeId()) {
            EXPECT_EQ(records.size(), 0u) << "backup " << server.nodeId();
            continue;
        }
        std::size_t shard_keys = 0;
        for (Key k = 0; k < cfg.numKeys; ++k) {
            if (master.shardMap().shardOf(k) != server.shard())
                continue;
            ++shard_keys;
            const semel::KeyRecord *rec = records.find(k);
            ASSERT_NE(rec, nullptr) << "key " << k;
            EXPECT_TRUE(rec->rebuilt());
            EXPECT_EQ(rec->committed(), (common::Version{1, 0}));
        }
        EXPECT_EQ(records.size(), shard_keys);
    }
}

TEST(Milana, FailoverRebuiltStampsStillRejectStaleWrites)
{
    // The promoted primary starts with no records and rebuilds each
    // key's ts_latestCommitted from storage on first touch: a write
    // stamped at or below a version committed before the crash must
    // still abort with WriteStale.
    Cluster cluster(smallConfig(1, 3, 2));
    cluster.populate();
    cluster.start();
    std::vector<semel::AbortReason> reasons;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        client.put(txn, 42, "committed");
        auto r = co_await client.commitTransaction(txn);
        EXPECT_EQ(r, CommitResult::Committed);
        co_await sim::sleepFor(cluster.sim(), 100 * kMillisecond);
        const common::Version committed =
            cluster.primary(0).latestCommitted(42);
        EXPECT_GT(committed, (common::Version{1, 0}));

        cluster.crashServer(cluster.master().primaryOf(0));
        co_await cluster.failover(0, cluster.master().backupsOf(0)[0]);
        milana::MilanaServer &promoted = cluster.primary(0);
        EXPECT_EQ(promoted.records().find(42), nullptr);

        const common::Version stale[] = {
            committed, {committed.timestamp - 1, committed.clientId}};
        std::uint64_t serial = 1;
        for (const common::Version v : stale) {
            semel::PrepareRequest req;
            req.txn = semel::TxnId{999, serial++};
            req.commitVersion = v;
            req.beginVersion = v;
            req.writeSet.push_back(semel::WriteSetEntry{42, "stale"});
            req.participants = {0};
            auto resp = co_await promoted.handlePrepare(std::move(req));
            EXPECT_EQ(resp.vote, semel::Vote::Abort);
            reasons.push_back(resp.reason);
        }
        const semel::KeyRecord *rec = promoted.records().find(42);
        EXPECT_TRUE(rec != nullptr && rec->rebuilt());

        // A later commit prepares and releases the key; the rebuilt
        // flag packed beside the prepared mark's owner must survive.
        auto txn2 = client.beginTransaction();
        client.put(txn2, 42, "after");
        auto r2 = co_await client.commitTransaction(txn2);
        EXPECT_EQ(r2, CommitResult::Committed);
        // The decision applies asynchronously after the vote.
        co_await sim::sleepFor(cluster.sim(), 100 * kMillisecond);
        rec = promoted.records().find(42);
        EXPECT_TRUE(rec != nullptr && rec->rebuilt() &&
                    !rec->isPrepared() && rec->committed() > committed);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(reasons, (std::vector<semel::AbortReason>{
                           semel::AbortReason::WriteStale,
                           semel::AbortReason::WriteStale}));
}

TEST(Milana, FailoverResolvesInDoubtCrossShardTxn)
{
    // Prepare lands on shards A and B; the commit decision reaches
    // only B before A's primary crashes. The promoted A-replica must
    // learn the outcome from B during recovery (Algorithm 2 + CTP).
    Cluster cluster(smallConfig(2, 3, 2));
    cluster.populate();
    cluster.start();

    // Find one key per shard.
    Key key_a = 0, key_b = 0;
    for (Key k = 0; k < 100; ++k) {
        if (cluster.master().shardMap().shardOf(k) == 0)
            key_a = k;
        else
            key_b = k;
    }

    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        client.put(txn, key_a, "in-doubt");
        client.put(txn, key_b, "in-doubt");
        auto r = co_await client.commitTransaction(txn);
        EXPECT_EQ(r, CommitResult::Committed);

        // Immediately crash shard 0's primary: with high probability
        // the async decision reached B but not necessarily A; either
        // way recovery must converge to commit.
        const common::NodeId a_primary = cluster.master().primaryOf(0);
        cluster.crashServer(a_primary);
        const common::NodeId promoted =
            cluster.master().backupsOf(0)[0];
        co_await cluster.failover(0, promoted);
        co_await sim::sleepFor(cluster.sim(), 500 * kMillisecond);

        auto check = client.beginTransaction();
        auto ra = co_await client.get(check, key_a);
        auto rb = co_await client.get(check, key_b);
        EXPECT_EQ(ra.value, "in-doubt");
        EXPECT_EQ(rb.value, "in-doubt");
        (void)co_await client.commitTransaction(check);
        cluster.sim().requestStop();
    });
}

TEST(Milana, FailoverCommitsPrepareThePromotedBackupHeld)
{
    // A prepare reaches the primary and, through replication, every
    // backup; then the primary crashes before anyone decides it. The
    // promoted backup already holds the prepare in its own table, and
    // Algorithm 2 must still resolve it: commit it when it is
    // single-shard (else a newer transaction reads the old value and
    // the CTP commits the prepare behind it), and re-mark its keys
    // prepared for the CTP when it is multi-shard.
    const semel::TxnId txn{999, 1};
    {
        Cluster cluster(smallConfig(1, 3, 1));
        cluster.populate();
        cluster.start();
        drive(cluster, [&]() -> sim::Task<void> {
            co_await sim::sleepFor(cluster.sim(), 10 * kMillisecond);
            semel::PrepareRequest req =
                directPrepare(txn, 42, cluster.sim().now(), {0});
            auto resp =
                co_await cluster.primary(0).handlePrepare(std::move(req));
            EXPECT_EQ(resp.vote, semel::Vote::Commit);
            co_await sim::sleepFor(cluster.sim(), kMillisecond);
            cluster.crashServer(cluster.master().primaryOf(0));
            co_await cluster.failover(0, cluster.master().backupsOf(0)[0]);
            EXPECT_EQ(cluster.primary(0).txnTable().statusOf(txn),
                      semel::TxnStatus::Committed);

            auto &client = cluster.client(0);
            auto later = client.beginTransaction();
            auto read = co_await client.get(later, 42);
            EXPECT_EQ(read.value, "prepared");
            (void)co_await client.commitTransaction(later);
            cluster.sim().requestStop();
        });
    }
    {
        Cluster cluster(smallConfig(2, 3, 1));
        cluster.populate();
        cluster.start();
        Key key = 0;
        while (cluster.master().shardMap().shardOf(key) != 0)
            ++key;
        drive(cluster, [&]() -> sim::Task<void> {
            co_await sim::sleepFor(cluster.sim(), 10 * kMillisecond);
            semel::PrepareRequest req =
                directPrepare(txn, key, cluster.sim().now(), {0, 1});
            auto resp =
                co_await cluster.primary(0).handlePrepare(std::move(req));
            EXPECT_EQ(resp.vote, semel::Vote::Commit);
            co_await sim::sleepFor(cluster.sim(), kMillisecond);
            cluster.crashServer(cluster.master().primaryOf(0));
            co_await cluster.failover(0, cluster.master().backupsOf(0)[0]);
            milana::MilanaServer &promoted = cluster.primary(0);
            const semel::KeyRecord *rec = promoted.records().find(key);
            EXPECT_TRUE(rec != nullptr && rec->isPrepared());
            EXPECT_EQ(promoted.txnTable().statusOf(txn),
                      semel::TxnStatus::Prepared);

            // Shard 1 never saw the prepare, so the CTP aborts it.
            co_await sim::sleepFor(cluster.sim(), 200 * kMillisecond);
            rec = promoted.records().find(key);
            EXPECT_TRUE(rec != nullptr && !rec->isPrepared());
            EXPECT_EQ(promoted.txnTable().statusOf(txn),
                      semel::TxnStatus::Aborted);
            cluster.sim().requestStop();
        });
    }
}

TEST(Milana, RemoteValidationPathForReadOnly)
{
    auto cfg = smallConfig();
    cfg.localValidation = false; // Figure 8's "w/o LV" configuration
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    CommitResult result{};
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        (void)co_await client.get(txn, 1);
        (void)co_await client.get(txn, 2);
        result = co_await client.commitTransaction(txn);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(result, CommitResult::Committed);
    // Remote validation means the servers saw prepare requests.
    EXPECT_GT(cluster.serverStats().counterValue("milana.prepares"), 0u);
    EXPECT_EQ(cluster.clientStats().counterValue(
                  "txn.local_validations"),
              0u);
}

TEST(Milana, LeaseRenewalRuns)
{
    Cluster cluster(smallConfig(1, 3, 2));
    cluster.populate();
    cluster.start();
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        (void)co_await client.get(txn, 1);
        (void)co_await client.commitTransaction(txn);
        co_await sim::sleepFor(cluster.sim(), 2 * kSecond);
        cluster.sim().requestStop();
    });
    EXPECT_GT(cluster.serverStats().counterValue(
                  "milana.lease_renewals"),
              0u);
    EXPECT_GT(cluster.primary(0).leaseUntil(), 0);
}

TEST(Milana, ReplicaReadsValidateAtPrimary)
{
    // Section 4.6 relaxation: a read-write-hinted transaction reads
    // from arbitrary replicas; commit still validates at the primary.
    auto cfg = smallConfig(2, 3, 2);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    // Rebuild a client with the relaxation enabled.
    milana::MilanaClient::TxnConfig tcfg;
    tcfg.readFromAnyReplica = true;
    semel::Client::Config ccfg;
    clocksync::PerfectClock clock(cluster.sim());
    milana::MilanaClient relaxed(cluster.sim(), cluster.network(), 2000,
                                 99, clock, cluster.master(),
                                 cluster.directory(), ccfg, tcfg);
    CommitResult result{};
    drive(cluster, [&]() -> sim::Task<void> {
        auto txn = relaxed.beginTransaction(milana::TxnHint::ReadWrite);
        auto r = co_await relaxed.get(txn, 3);
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(r.value, "init");
        relaxed.put(txn, 3, "via-replica-read");
        result = co_await relaxed.commitTransaction(txn);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(result, CommitResult::Committed);
    EXPECT_GT(relaxed.stats().counterValue("txn.replica_reads"), 0u);
}

TEST(Milana, StaleReplicaReadAborts)
{
    // A replica read that returns stale data must fail validation at
    // the primary rather than commit a non-serializable transaction.
    auto cfg = smallConfig(1, 3, 2);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    milana::MilanaClient::TxnConfig tcfg;
    tcfg.readFromAnyReplica = true;
    semel::Client::Config ccfg;
    clocksync::PerfectClock clock(cluster.sim());
    milana::MilanaClient relaxed(cluster.sim(), cluster.network(), 2001,
                                 98, clock, cluster.master(),
                                 cluster.directory(), ccfg, tcfg);
    drive(cluster, [&]() -> sim::Task<void> {
        // Cut replication to one backup so it stays stale, then
        // repeatedly update key 5 through the normal client.
        auto &writer = cluster.client(0);
        for (int i = 0; i < 5; ++i) {
            auto w = writer.beginTransaction();
            writer.put(w, 5, "fresh" + std::to_string(i));
            (void)co_await writer.commitTransaction(w);
        }
        co_await sim::sleepFor(cluster.sim(), 50 * kMillisecond);

        // Hinted transactions read from random replicas; across
        // attempts some read stale snapshots, but every COMMITTED
        // outcome must reflect primary-validated state.
        int commits = 0, aborts = 0;
        for (int i = 0; i < 20; ++i) {
            auto txn =
                relaxed.beginTransaction(milana::TxnHint::ReadWrite);
            auto r = co_await relaxed.get(txn, 5);
            if (!r.ok) {
                relaxed.abortTransaction(txn);
                continue;
            }
            relaxed.put(txn, 5, "rw" + std::to_string(i));
            auto res = co_await relaxed.commitTransaction(txn);
            (res == CommitResult::Committed ? commits : aborts)++;
        }
        EXPECT_GT(commits, 0);
        cluster.sim().requestStop();
    });
}

TEST(Milana, InterTxnCacheServesRepeatReads)
{
    auto cfg = smallConfig(2, 1, 1);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    milana::MilanaClient::TxnConfig tcfg;
    tcfg.interTxnCacheCapacity = 128;
    semel::Client::Config ccfg;
    clocksync::PerfectClock clock(cluster.sim());
    milana::MilanaClient cachy(cluster.sim(), cluster.network(), 2002,
                               97, clock, cluster.master(),
                               cluster.directory(), ccfg, tcfg);
    drive(cluster, [&]() -> sim::Task<void> {
        // First hinted txn populates the cache.
        auto t1 = cachy.beginTransaction(milana::TxnHint::ReadWrite);
        (void)co_await cachy.get(t1, 4);
        cachy.put(t1, 9, "x");
        (void)co_await cachy.commitTransaction(t1);

        // Second hinted txn reads key 4 from cache: zero server gets.
        const auto gets_before =
            cachy.stats().counterValue("client.gets");
        auto t2 = cachy.beginTransaction(milana::TxnHint::ReadWrite);
        auto r = co_await cachy.get(t2, 4);
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(cachy.stats().counterValue("client.gets"),
                  gets_before);
        EXPECT_GT(cachy.stats().counterValue("txn.cache_hits"), 0u);
        cachy.put(t2, 9, "y");
        auto res = co_await cachy.commitTransaction(t2);
        EXPECT_EQ(res, CommitResult::Committed);
        cluster.sim().requestStop();
    });
}

TEST(Milana, StaleCacheEntryAbortsThenRecovers)
{
    auto cfg = smallConfig(1, 1, 2);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    milana::MilanaClient::TxnConfig tcfg;
    tcfg.interTxnCacheCapacity = 128;
    semel::Client::Config ccfg;
    clocksync::PerfectClock clock(cluster.sim());
    milana::MilanaClient cachy(cluster.sim(), cluster.network(), 2003,
                               96, clock, cluster.master(),
                               cluster.directory(), ccfg, tcfg);
    drive(cluster, [&]() -> sim::Task<void> {
        // Warm the cache on key 6.
        auto t1 = cachy.beginTransaction(milana::TxnHint::ReadWrite);
        (void)co_await cachy.get(t1, 6);
        cachy.put(t1, 7, "warm");
        (void)co_await cachy.commitTransaction(t1);

        // Another client updates key 6 behind the cache's back.
        auto &other = cluster.client(0);
        auto w = other.beginTransaction();
        other.put(w, 6, "invalidating");
        (void)co_await other.commitTransaction(w);
        co_await sim::sleepFor(cluster.sim(), 50 * kMillisecond);

        // The cached read is now stale: the hinted txn must abort...
        auto t2 = cachy.beginTransaction(milana::TxnHint::ReadWrite);
        (void)co_await cachy.get(t2, 6); // cache hit, stale
        cachy.put(t2, 6, "mine");
        auto r2 = co_await cachy.commitTransaction(t2);
        EXPECT_EQ(r2, CommitResult::Aborted);

        // ...and the abort invalidates the entry, so the retry reads
        // fresh data and commits.
        auto t3 = cachy.beginTransaction(milana::TxnHint::ReadWrite);
        auto fresh = co_await cachy.get(t3, 6);
        EXPECT_EQ(fresh.value, "invalidating");
        cachy.put(t3, 6, "mine-after-retry");
        auto r3 = co_await cachy.commitTransaction(t3);
        EXPECT_EQ(r3, CommitResult::Committed);
        cluster.sim().requestStop();
    });
}

TEST(Milana, ConcurrentDecisionsAreIdempotent)
{
    // Regression: a duplicate/CTP decision racing the client's own
    // decision must not resolve the transaction entry out from under
    // the in-flight apply (use-after-free class).
    Cluster cluster(smallConfig(1, 1, 1));
    cluster.populate();
    cluster.start();
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        client.put(txn, 1, "raced");
        client.put(txn, 2, "raced");
        auto r = co_await client.commitTransaction(txn);
        EXPECT_EQ(r, CommitResult::Committed);

        // Fire several duplicate decisions at the primary while the
        // first (async) one may still be applying.
        auto &primary = cluster.primary(0);
        semel::DecisionRequest dup{txn.id(),
                                   semel::TxnDecision::Commit};
        for (int i = 0; i < 4; ++i)
            sim::spawn([](milana::MilanaServer *p,
                          semel::DecisionRequest d) -> sim::Task<void> {
                (void)co_await p->handleDecision(d);
            }(&primary, dup));
        co_await sim::sleepFor(cluster.sim(), 100 * kMillisecond);

        auto check = client.beginTransaction();
        auto v1 = co_await client.get(check, 1);
        EXPECT_EQ(v1.value, "raced");
        (void)co_await client.commitTransaction(check);
        cluster.sim().requestStop();
    });
}

TEST(Milana, CtpRacingClientDecisionConverges)
{
    // Stress the decision race at scale: many multi-key transactions
    // with an aggressive CTP scanner; everything must converge with no
    // dangling prepared entries.
    auto cfg = smallConfig(2, 1, 4);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    drive(cluster, [&]() -> sim::Task<void> {
        auto worker = [&](std::uint32_t c) -> sim::Task<void> {
            auto &client = cluster.client(c);
            common::Rng rng(c + 5);
            for (int i = 0; i < 50; ++i) {
                auto txn = client.beginTransaction();
                for (int k = 0; k < 4; ++k)
                    client.put(txn,
                               rng.nextBounded(200),
                               "w" + std::to_string(i));
                (void)co_await client.commitTransaction(txn);
            }
        };
        for (std::uint32_t c = 0; c < 4; ++c)
            sim::spawn(worker(c));
        co_await sim::sleepFor(cluster.sim(), 5 * kSecond);
        for (common::ShardId s = 0; s < 2; ++s)
            EXPECT_EQ(cluster.primary(s).txnTable().size(), 0u);
        cluster.sim().requestStop();
    });
}

// ------------------------------------------------------ settled floor

namespace {

/** Commit (or abort) a direct one-key transaction at a primary, as a
 *  client's prepare and decision would. */
sim::Task<void>
directTxn(milana::MilanaServer &primary, semel::TxnId txn, Key key,
          common::Time at, std::vector<common::ShardId> participants,
          semel::TxnDecision decision = semel::TxnDecision::Commit)
{
    auto vote = co_await primary.handlePrepare(
        directPrepare(txn, key, at, std::move(participants)));
    EXPECT_EQ(vote.vote, semel::Vote::Commit) << "serial " << txn.serial;
    semel::DecisionRequest req;
    req.txn = txn;
    req.decision = decision;
    (void)co_await primary.handleDecision(req);
}

} // namespace

TEST(Milana, PrepareBelowTheFloorAbortsAndChangesNothing)
{
    // T prepares, its vote is lost, and its client aborts it; once the
    // client reports T settled, the primary drops T's entry. A late
    // copy of T's prepare must then vote Abort and leave no entry and
    // no prepared mark: a prepared orphan would be single-shard, and
    // the CTP would commit the writes of an aborted transaction.
    Cluster cluster(smallConfig(1, 3, 1));
    cluster.populate();
    cluster.start();
    const semel::TxnId txn{999, 1};
    drive(cluster, [&]() -> sim::Task<void> {
        co_await sim::sleepFor(cluster.sim(), 10 * kMillisecond);
        milana::MilanaServer &primary = cluster.primary(0);
        // (Braced lists stay out of co_await expressions: GCC 12
        // rejects them there.)
        const std::vector<common::ShardId> shard0{0};
        co_await directTxn(primary, txn, 42, cluster.sim().now(), shard0,
                           semel::TxnDecision::Abort);
        // Before truncation a redelivery is a duplicate: the entry's
        // answer.
        auto again = co_await primary.handlePrepare(
            directPrepare(txn, 42, cluster.sim().now(), shard0));
        EXPECT_EQ(again.vote, semel::Vote::Abort);
        co_await sim::sleepFor(cluster.sim(), kMillisecond);

        primary.handleWatermarkReport(999, cluster.sim().now(), 2);
        EXPECT_TRUE(primary.txnTable().settled(txn));
        EXPECT_EQ(primary.txnTable().entries(), 0u);

        auto late = co_await primary.handlePrepare(
            directPrepare(txn, 42, cluster.sim().now(), shard0));
        EXPECT_EQ(late.vote, semel::Vote::Abort);
        EXPECT_EQ(primary.txnTable().entries(), 0u);
        EXPECT_EQ(primary.txnTable().statusOf(txn),
                  semel::TxnStatus::Unknown);
        const semel::KeyRecord *rec = primary.records().find(42);
        EXPECT_TRUE(rec != nullptr && !rec->isPrepared());

        co_await sim::sleepFor(cluster.sim(), 200 * kMillisecond);
        EXPECT_EQ(primary.latestCommitted(42), (common::Version{1, 0}));
        EXPECT_EQ(primary.stats().counterValue("milana.ctp_invocations"),
                  0u);
        cluster.sim().requestStop();
    });
}

TEST(Milana, LatePreparedRecordAtABackupLeavesNoEntry)
{
    // T's prepare record to backup B is slowed down; its outcome
    // record is not. Once the floor has passed T and reached B, the
    // late prepare must fold as a no-op, or B would hold an undecided
    // entry no outcome ever follows.
    Cluster cluster(smallConfig(1, 3, 1));
    cluster.populate();
    cluster.start();
    const semel::TxnId txn{999, 1};
    drive(cluster, [&]() -> sim::Task<void> {
        co_await sim::sleepFor(cluster.sim(), 10 * kMillisecond);
        milana::MilanaServer &primary = cluster.primary(0);
        const common::NodeId slow = cluster.master().backupsOf(0)[1];
        milana::MilanaServer &backup = cluster.server(slow);
        cluster.network().setLinkDelayFactor(primary.nodeId(), slow, 6000);
        const std::vector<common::ShardId> shard0{0};
        auto vote = co_await primary.handlePrepare(
            directPrepare(txn, 42, cluster.sim().now(), shard0));
        EXPECT_EQ(vote.vote, semel::Vote::Commit);
        cluster.network().setLinkDelayFactor(primary.nodeId(), slow, 1.0);
        semel::DecisionRequest commit;
        commit.txn = txn;
        commit.decision = semel::TxnDecision::Commit;
        (void)co_await primary.handleDecision(commit);
        co_await sim::sleepFor(cluster.sim(), kMillisecond);
        EXPECT_EQ(backup.txnTable().statusOf(txn),
                  semel::TxnStatus::Committed);

        // The floor passes T; the next record carries it to B.
        primary.handleWatermarkReport(999, cluster.sim().now(), 2);
        EXPECT_EQ(primary.txnTable().floorOf(999), 2u);
        co_await directTxn(primary, semel::TxnId{999, 2}, 43,
                           cluster.sim().now(), shard0);
        co_await sim::sleepFor(cluster.sim(), kMillisecond);
        EXPECT_TRUE(backup.txnTable().settled(txn));

        // The prepare record lands ~300 ms after it was sent.
        co_await sim::sleepFor(cluster.sim(), 500 * kMillisecond);
        EXPECT_GT(backup.stats().counterValue("milana.replica_records"),
                  3u);
        EXPECT_EQ(backup.txnTable().statusOf(txn),
                  semel::TxnStatus::Unknown);
        EXPECT_EQ(backup.txnTable().size(), 0u);
        cluster.sim().requestStop();
    });
}

TEST(Milana, DelayedDecisionKeepsTheOtherParticipantsEntry)
{
    // T spans shards A and B. The client's decision to A is slowed
    // down until after A's CTP has run, and A's status query to B is
    // slow as well. B commits T at once, but the client's floor stays
    // at T until A acknowledges its decision too, so B keeps T's entry
    // and A's CTP learns the commit from it, instead of reading
    // Unknown and aborting half of T.
    Cluster cluster(smallConfig(2, 3, 1));
    cluster.populate();
    cluster.start();
    Key key_a = 0, key_b = 0;
    while (cluster.master().shardMap().shardOf(key_a) != 0)
        ++key_a;
    while (cluster.master().shardMap().shardOf(key_b) != 1)
        ++key_b;
    const common::NodeId a = cluster.master().primaryOf(0);
    const common::NodeId b = cluster.master().primaryOf(1);
    auto &client = cluster.client(0);
    drive(cluster, [&]() -> sim::Task<void> {
        co_await sim::sleepFor(cluster.sim(), 10 * kMillisecond);
        // B votes ~20 ms late (slow replication); A's vote is back
        // before the test slows the client's link to A.
        for (const common::NodeId backup : cluster.master().backupsOf(1))
            cluster.network().setLinkDelayFactor(b, backup, 200);
        cluster.network().setLinkDelayFactor(a, b, 3000);
        auto txn = client.beginTransaction();
        client.put(txn, key_a, "both");
        client.put(txn, key_b, "both");
        CommitResult result{};
        sim::spawn([](MilanaClient *c, Transaction *t,
                      CommitResult *r) -> sim::Task<void> {
            *r = co_await c->commitTransaction(*t);
        }(&client, &txn, &result));
        co_await sim::sleepFor(cluster.sim(), 5 * kMillisecond);
        // ~500 ms each way: the decision reaches A after A's CTP
        // (first scan past the 50 ms timeout, then ~300 ms to B and
        // back) has decided.
        cluster.network().setLinkDelayFactor(client.nodeId(), a, 10000);

        co_await sim::sleepFor(cluster.sim(), 200 * kMillisecond);
        EXPECT_EQ(result, CommitResult::Committed);
        EXPECT_EQ(cluster.primary(1).txnTable().statusOf(txn.id()),
                  semel::TxnStatus::Committed);
        co_await sim::sleepFor(cluster.sim(), kSecond);
        EXPECT_EQ(cluster.primary(0).stats().counterValue(
                      "milana.ctp_commits"),
                  1u);
        EXPECT_EQ(cluster.primary(0).stats().counterValue(
                      "milana.ctp_aborts"),
                  0u);

        cluster.network().setLinkDelayFactor(client.nodeId(), a, 1.0);
        cluster.network().setLinkDelayFactor(a, b, 1.0);
        for (const common::NodeId backup : cluster.master().backupsOf(1))
            cluster.network().setLinkDelayFactor(b, backup, 1.0);
        co_await sim::sleepFor(cluster.sim(), kSecond);
        auto check = client.beginTransaction();
        const std::vector<Key> keys{key_a, key_b};
        for (const Key key : keys) {
            auto read = co_await client.get(check, key);
            EXPECT_EQ(read.value, "both") << "key " << key;
        }
        (void)co_await client.commitTransaction(check);
        cluster.sim().requestStop();
    });
}

TEST(Milana, BackupMissingAnOutcomeHoldsTheFloor)
{
    // T spans shards 0 and 1. Shard 0's backup B2 misses T's outcome
    // record, so shard 0's primary keeps its floor at T, and so does
    // backup B1 that holds the outcome. Promoted, B2 learns the commit
    // from B1 and applies it. Had the floor passed T, B1 would have
    // dropped it, and B2's CTP would read Unknown from shard 1 (which
    // settled T) and abort a committed transaction.
    Cluster cluster(smallConfig(2, 3, 1));
    cluster.populate();
    cluster.start();
    Key key0 = 0, key1 = 0;
    while (cluster.master().shardMap().shardOf(key0) != 0)
        ++key0;
    while (cluster.master().shardMap().shardOf(key1) != 1)
        ++key1;
    Key other0 = key0 + 1;
    while (cluster.master().shardMap().shardOf(other0) != 0)
        ++other0;
    const semel::TxnId txn{999, 1};
    drive(cluster, [&]() -> sim::Task<void> {
        co_await sim::sleepFor(cluster.sim(), 10 * kMillisecond);
        milana::MilanaServer &p0 = cluster.primary(0);
        milana::MilanaServer &p1 = cluster.primary(1);
        const common::NodeId b1 = cluster.master().backupsOf(0)[0];
        const common::NodeId b2 = cluster.master().backupsOf(0)[1];
        const common::Time at = cluster.sim().now();
        const std::vector<common::ShardId> both{0, 1};
        const std::vector<common::ShardId> shard0{0};
        const std::vector<milana::MilanaServer *> primaries{&p0, &p1};
        for (milana::MilanaServer *p : primaries) {
            auto vote = co_await p->handlePrepare(
                directPrepare(txn, p == &p0 ? key0 : key1, at, both));
            EXPECT_EQ(vote.vote, semel::Vote::Commit);
        }
        co_await sim::sleepFor(cluster.sim(), kMillisecond);
        cluster.network().setLinkBroken(p0.nodeId(), b2, true);
        semel::DecisionRequest commit;
        commit.txn = txn;
        commit.decision = semel::TxnDecision::Commit;
        (void)co_await p0.handleDecision(commit);
        (void)co_await p1.handleDecision(commit);
        co_await sim::sleepFor(cluster.sim(), kMillisecond);

        // The client reports T settled: shard 1 drops it, shard 0
        // holds it for B2, and the next record tells B1 so.
        for (milana::MilanaServer *p : primaries)
            p->handleWatermarkReport(999, cluster.sim().now(), 2);
        EXPECT_TRUE(p1.txnTable().settled(txn));
        EXPECT_EQ(p0.txnTable().floorOf(999), 1u);
        co_await directTxn(p0, semel::TxnId{999, 2}, other0,
                           cluster.sim().now(), shard0);
        co_await sim::sleepFor(cluster.sim(), kMillisecond);
        EXPECT_EQ(cluster.server(b1).txnTable().statusOf(txn),
                  semel::TxnStatus::Committed);
        EXPECT_EQ(cluster.server(b2).txnTable().statusOf(txn),
                  semel::TxnStatus::Prepared);

        cluster.crashServer(p0.nodeId());
        co_await cluster.failover(0, b2);
        milana::MilanaServer &promoted = cluster.primary(0);
        EXPECT_EQ(promoted.txnTable().statusOf(txn),
                  semel::TxnStatus::Committed);
        co_await sim::sleepFor(cluster.sim(), 200 * kMillisecond);
        auto &client = cluster.client(0);
        auto check = client.beginTransaction();
        auto read = co_await client.get(check, key0);
        EXPECT_EQ(read.value, "prepared");
        (void)co_await client.commitTransaction(check);
        cluster.sim().requestStop();
    });
}

TEST(Milana, RecoveringPrimaryDoesNotSettle)
{
    // Backup B2 misses T entirely; B1 holds T's commit. While promoted
    // B2 recovers, a client report arrives with the floor past T. B2
    // must not settle on it before the pulled tables are folded in:
    // T is a hole in its own table, and skipping it would drop the
    // commit it is about to learn from B1.
    Cluster cluster(smallConfig(1, 3, 1));
    cluster.populate();
    cluster.start();
    const semel::TxnId txn{999, 1};
    drive(cluster, [&]() -> sim::Task<void> {
        co_await sim::sleepFor(cluster.sim(), 10 * kMillisecond);
        milana::MilanaServer &primary = cluster.primary(0);
        const common::NodeId b2 = cluster.master().backupsOf(0)[1];
        cluster.network().setLinkBroken(primary.nodeId(), b2, true);
        const std::vector<common::ShardId> shard0{0};
        co_await directTxn(primary, txn, 42, cluster.sim().now(), shard0);
        co_await sim::sleepFor(cluster.sim(), kMillisecond);
        EXPECT_EQ(cluster.server(b2).txnTable().statusOf(txn),
                  semel::TxnStatus::Unknown);

        cluster.crashServer(primary.nodeId());
        auto done = std::make_shared<sim::Quorum>(cluster.sim(), 1);
        sim::spawn([](Cluster *c, common::NodeId node,
                      std::shared_ptr<sim::Quorum> q) -> sim::Task<void> {
            co_await c->failover(0, node);
            q->arrive();
        }(&cluster, b2, done));
        cluster.server(b2).handleWatermarkReport(999, cluster.sim().now(), 2);
        co_await done->wait();
        EXPECT_EQ(cluster.primary(0).txnTable().statusOf(txn),
                  semel::TxnStatus::Committed);
        auto &client = cluster.client(0);
        auto check = client.beginTransaction();
        auto read = co_await client.get(check, 42);
        EXPECT_EQ(read.value, "prepared");
        (void)co_await client.commitTransaction(check);
        cluster.sim().requestStop();
    });
}

TEST(Milana, DecisionDuringRecoveryPullWaitsForTheTable)
{
    // T spans shards 0 and 1. Shard 0's prepared record reaches backup
    // B1 but not B2; the primary crashes after both votes and B2 is
    // promoted. The commit reaches B2 while it still pulls B1's table.
    // Acked at once with nothing held, it would let the client settle
    // T and shard 1 drop it; B2 would then learn T as prepared, and
    // its CTP would read Unknown from shard 1 and abort a commit.
    Cluster cluster(smallConfig(2, 3, 1));
    cluster.populate();
    cluster.start();
    Key key0 = 0, key1 = 0;
    while (cluster.master().shardMap().shardOf(key0) != 0)
        ++key0;
    while (cluster.master().shardMap().shardOf(key1) != 1)
        ++key1;
    const semel::TxnId txn{999, 1};
    drive(cluster, [&]() -> sim::Task<void> {
        co_await sim::sleepFor(cluster.sim(), 10 * kMillisecond);
        milana::MilanaServer &p0 = cluster.primary(0);
        milana::MilanaServer &p1 = cluster.primary(1);
        const common::NodeId b2 = cluster.master().backupsOf(0)[1];
        milana::MilanaServer &promoted = cluster.server(b2);
        cluster.network().setLinkBroken(p0.nodeId(), b2, true);
        const common::Time at = cluster.sim().now();
        const std::vector<common::ShardId> both{0, 1};
        auto vote0 = co_await p0.handlePrepare(
            directPrepare(txn, key0, at, both));
        auto vote1 = co_await p1.handlePrepare(
            directPrepare(txn, key1, at, both));
        EXPECT_EQ(vote0.vote, semel::Vote::Commit);
        EXPECT_EQ(vote1.vote, semel::Vote::Commit);
        co_await sim::sleepFor(cluster.sim(), kMillisecond);
        EXPECT_EQ(promoted.txnTable().statusOf(txn),
                  semel::TxnStatus::Unknown);

        cluster.crashServer(p0.nodeId());
        auto done = std::make_shared<sim::Quorum>(cluster.sim(), 1);
        sim::spawn([](Cluster *c, common::NodeId node,
                      std::shared_ptr<sim::Quorum> q) -> sim::Task<void> {
            co_await c->failover(0, node);
            q->arrive();
        }(&cluster, b2, done));
        EXPECT_TRUE(promoted.recovering());
        semel::DecisionRequest commit;
        commit.txn = txn;
        commit.decision = semel::TxnDecision::Commit;
        (void)co_await promoted.handleDecision(commit);
        (void)co_await p1.handleDecision(commit);
        co_await sim::sleepFor(cluster.sim(), kMillisecond);

        // Both participants acked: the client reports T settled.
        p1.handleWatermarkReport(999, cluster.sim().now(), 2);
        EXPECT_TRUE(p1.txnTable().settled(txn));
        co_await done->wait();
        co_await sim::sleepFor(cluster.sim(), 500 * kMillisecond);
        EXPECT_EQ(promoted.stats().counterValue("milana.ctp_aborts"), 0u);
        auto &client = cluster.client(0);
        auto check = client.beginTransaction();
        const std::vector<Key> keys{key0, key1};
        for (const Key key : keys) {
            auto read = co_await client.get(check, key);
            EXPECT_EQ(read.value, "prepared") << "key " << key;
        }
        (void)co_await client.commitTransaction(check);
        cluster.sim().requestStop();
    });
}

TEST(Milana, DuplicateDecisionAcksOnlyAHeldOutcome)
{
    // T spans shards A and B. The client's decision to A is slowed
    // down, so A's CTP commits T first, but A is cut off from its
    // backups and the outcome never leaves it. The client's own
    // decision then reaches A. Acked as a duplicate, it would let the
    // client settle T and B drop it; once A crashes, its promoted
    // backup, holding T as prepared, would read Unknown from B and
    // abort a commit.
    Cluster cluster(smallConfig(2, 3, 1));
    cluster.populate();
    cluster.start();
    Key key_a = 0, key_b = 0;
    while (cluster.master().shardMap().shardOf(key_a) != 0)
        ++key_a;
    while (cluster.master().shardMap().shardOf(key_b) != 1)
        ++key_b;
    const common::NodeId a = cluster.master().primaryOf(0);
    const common::NodeId b = cluster.master().primaryOf(1);
    const std::vector<common::NodeId> a_backups =
        cluster.master().backupsOf(0);
    auto &client = cluster.client(0);
    drive(cluster, [&]() -> sim::Task<void> {
        co_await sim::sleepFor(cluster.sim(), 10 * kMillisecond);
        // B votes ~20 ms late (slow replication); A's vote, and its
        // prepare record at both backups, are in before the test cuts
        // A off and slows the client's link to A.
        for (const common::NodeId backup : cluster.master().backupsOf(1))
            cluster.network().setLinkDelayFactor(b, backup, 200);
        auto txn = client.beginTransaction();
        client.put(txn, key_a, "both");
        client.put(txn, key_b, "both");
        CommitResult result{};
        sim::spawn([](MilanaClient *c, Transaction *t,
                      CommitResult *r) -> sim::Task<void> {
            *r = co_await c->commitTransaction(*t);
        }(&client, &txn, &result));
        co_await sim::sleepFor(cluster.sim(), 5 * kMillisecond);
        for (const common::NodeId backup : a_backups)
            cluster.network().setLinkBroken(a, backup, true);
        cluster.network().setLinkDelayFactor(client.nodeId(), a, 10000);

        co_await sim::sleepFor(cluster.sim(), 200 * kMillisecond);
        EXPECT_EQ(result, CommitResult::Committed);
        EXPECT_EQ(cluster.primary(0).stats().counterValue(
                      "milana.ctp_commits"),
                  1u);
        // The client's decision reaches A at ~0.5 s; its answer would
        // be back by ~1 s, and the floor report by ~1.1 s.
        co_await sim::sleepFor(cluster.sim(), 2 * kSecond);
        cluster.network().setLinkDelayFactor(client.nodeId(), a, 1.0);
        for (const common::NodeId backup : cluster.master().backupsOf(1))
            cluster.network().setLinkDelayFactor(b, backup, 1.0);
        EXPECT_EQ(cluster.primary(1).txnTable().statusOf(txn.id()),
                  semel::TxnStatus::Committed);

        cluster.crashServer(a);
        co_await cluster.failover(0, a_backups[0]);
        co_await sim::sleepFor(cluster.sim(), 500 * kMillisecond);
        EXPECT_EQ(cluster.primary(0).stats().counterValue(
                      "milana.ctp_aborts"),
                  0u);
        auto check = client.beginTransaction();
        const std::vector<Key> keys{key_a, key_b};
        for (const Key key : keys) {
            auto read = co_await client.get(check, key);
            EXPECT_EQ(read.value, "both") << "key " << key;
        }
        (void)co_await client.commitTransaction(check);
        cluster.sim().requestStop();
    });
}

TEST(Milana, TxnTablesStayBoundedInAFaultFreeRun)
{
    // A fault-free Retwis run on a 3x3 cluster: every replica's table
    // holds only the recent window of each client, so its size at the
    // end of the run is about its size half-way, not twice it.
    ClusterConfig cfg = smallConfig(3, 3, 4);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    RetwisConfig retwis;
    retwis.alpha = 0.6;
    retwis.numKeys = cfg.numKeys;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();
    const auto sizes = [&] {
        std::vector<std::size_t> out;
        for (std::size_t i = 0; i < cluster.numServers(); ++i)
            out.push_back(cluster.server(i).txnTable().entries());
        return out;
    };
    cluster.runUntil(cluster.now() + 2 * kSecond);
    const std::vector<std::size_t> mid = sizes();
    const std::uint64_t commits_mid = fleet.totalCommits();
    cluster.runUntil(cluster.now() + 2 * kSecond);
    const std::vector<std::size_t> end = sizes();
    EXPECT_GT(fleet.totalCommits(), commits_mid + commits_mid / 2);
    for (std::size_t i = 0; i < mid.size(); ++i) {
        EXPECT_GT(mid[i], 0u) << "server " << i;
        EXPECT_LE(end[i], mid[i] + mid[i] / 4 + 16)
            << "server " << i << " grew from " << mid[i] << " to "
            << end[i];
    }
}

// ------------------------------------------------- transaction table

namespace {

milana::TxnEntry
record(semel::TxnStatus status, std::uint64_t serial,
       std::vector<semel::WriteSetEntry> writes = {},
       common::Time prepared_at = 0)
{
    return milana::TxnEntry{{status, semel::TxnId{7, serial},
                             common::Version{100, 7}, std::move(writes),
                             {0, 1}},
                            prepared_at};
}

const std::vector<semel::WriteSetEntry> kWrites{{1, "a"}, {2, "b"}};

} // namespace

TEST(TxnTable, CommittedBeforePreparedStaysCommitted)
{
    milana::TxnTable table;
    EXPECT_NE(table.fold(record(semel::TxnStatus::Committed, 1, kWrites)),
              nullptr);
    EXPECT_EQ(table.fold(record(semel::TxnStatus::Prepared, 1,
                                {{3, "late"}})),
              nullptr);
    EXPECT_EQ(table.statusOf({7, 1}), semel::TxnStatus::Committed);
    EXPECT_EQ(table.size(), 0u);
    const milana::TxnEntry &entry = *table.decided({7, 1});
    EXPECT_EQ(entry.writeSet, kWrites);
    EXPECT_TRUE(entry.participants.empty());
}

TEST(TxnTable, CommitWithoutWriteSetKeepsThePrepares)
{
    // The primary folds its own decision as a bare outcome.
    milana::TxnTable table;
    table.fold(record(semel::TxnStatus::Prepared, 1, kWrites));
    table.fold(record(semel::TxnStatus::Committed, 1));
    EXPECT_EQ(table.decided({7, 1})->writeSet, kWrites);
}

TEST(TxnTable, AbortedOutcomeDropsWriteSet)
{
    milana::TxnTable table;
    table.fold(record(semel::TxnStatus::Prepared, 1, kWrites));
    const milana::TxnEntry *entry =
        table.fold(record(semel::TxnStatus::Aborted, 1, kWrites));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->status, semel::TxnStatus::Aborted);
    EXPECT_TRUE(entry->writeSet.empty());
    EXPECT_TRUE(entry->participants.empty());
    EXPECT_EQ(table.size(), 0u);

    // Aborted first, then its prepare: still aborted, still empty.
    table.fold(record(semel::TxnStatus::Aborted, 2));
    EXPECT_EQ(table.fold(record(semel::TxnStatus::Prepared, 2, kWrites)),
              nullptr);
    EXPECT_TRUE(table.decided({7, 2})->writeSet.empty());
    EXPECT_EQ(table.size(), 0u);
}

TEST(TxnTable, DuplicateRecordsAreIdempotent)
{
    milana::TxnTable table;
    EXPECT_NE(table.fold(record(semel::TxnStatus::Prepared, 1, kWrites)),
              nullptr);
    EXPECT_EQ(table.fold(record(semel::TxnStatus::Prepared, 1, kWrites)),
              nullptr);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_NE(table.fold(record(semel::TxnStatus::Committed, 1, kWrites)),
              nullptr);
    EXPECT_EQ(table.fold(record(semel::TxnStatus::Committed, 1, kWrites)),
              nullptr);
    // A conflicting late outcome cannot overturn the first.
    EXPECT_EQ(table.fold(record(semel::TxnStatus::Aborted, 1)), nullptr);
    EXPECT_EQ(table.statusOf({7, 1}), semel::TxnStatus::Committed);
    std::size_t entries = 0;
    table.forEach([&](const milana::TxnEntry &) { ++entries; });
    EXPECT_EQ(entries, 1u);
    EXPECT_EQ(table.decided({7, 1})->writeSet, kWrites);
}

TEST(TxnTable, StatusOfEachState)
{
    milana::TxnTable table;
    EXPECT_EQ(table.statusOf({7, 1}), semel::TxnStatus::Unknown);
    table.fold(record(semel::TxnStatus::Prepared, 1, kWrites));
    EXPECT_EQ(table.statusOf({7, 1}), semel::TxnStatus::Prepared);
    // A decision claims the undecided entry before it applies.
    table.find({7, 1})->status = semel::TxnStatus::Committed;
    EXPECT_EQ(table.statusOf({7, 1}), semel::TxnStatus::Committed);
    EXPECT_EQ(table.size(), 1u);
    table.fold(record(semel::TxnStatus::Committed, 1));
    EXPECT_EQ(table.statusOf({7, 1}), semel::TxnStatus::Committed);
    EXPECT_EQ(table.find({7, 1}), nullptr);
    table.fold(record(semel::TxnStatus::Aborted, 2));
    EXPECT_EQ(table.statusOf({7, 2}), semel::TxnStatus::Aborted);
    EXPECT_EQ(table.statusOf({8, 1}), semel::TxnStatus::Unknown);
}

TEST(TxnTable, PreparedBeforeListsUndecidedInTxnIdOrder)
{
    milana::TxnTable table;
    for (const std::uint64_t serial : {5u, 1u, 4u, 2u, 3u, 6u})
        table.fold(record(semel::TxnStatus::Prepared, serial, kWrites,
                          static_cast<common::Time>(serial * 10)));
    table.fold(record(semel::TxnStatus::Committed, 2));   // decided
    table.fold(record(semel::TxnStatus::Aborted, 4));     // decided
    table.find({7, 3})->status = semel::TxnStatus::Aborted; // claimed
    EXPECT_EQ(table.preparedBefore(60),
              (std::vector<semel::TxnId>{{7, 1}, {7, 5}}));
    EXPECT_EQ(table.preparedBefore(1000),
              (std::vector<semel::TxnId>{{7, 1}, {7, 5}, {7, 6}}));
    EXPECT_TRUE(table.preparedBefore(10).empty());

    // Many prepares from several clients, folded out of TxnId order
    // (enough to rehash the undecided set), then a random half
    // decided: both listings still come out in TxnId order.
    milana::TxnTable big;
    std::vector<semel::TxnId> ids;
    for (common::ClientId client = 1; client <= 8; ++client)
        for (std::uint64_t serial = 1; serial <= 150; ++serial)
            ids.push_back({client, serial});
    std::mt19937_64 rng(5);
    std::shuffle(ids.begin(), ids.end(), rng);
    for (const semel::TxnId &id : ids)
        big.fold(milana::TxnEntry{{semel::TxnStatus::Prepared, id,
                                   common::Version{100, 7}, kWrites, {0}},
                                  1});
    std::vector<semel::TxnId> open;
    std::vector<semel::TxnId> decided;
    for (const semel::TxnId &id : ids) {
        if (rng() % 2 == 0) {
            open.push_back(id);
            continue;
        }
        big.fold(milana::TxnEntry{{rng() % 2 == 0
                                       ? semel::TxnStatus::Committed
                                       : semel::TxnStatus::Aborted,
                                   id, common::Version{100, 7}, {}, {}},
                                  0});
        decided.push_back(id);
    }
    std::sort(open.begin(), open.end());
    std::sort(decided.begin(), decided.end());
    ASSERT_EQ(big.size(), open.size());
    EXPECT_EQ(big.preparedBefore(2), open);
    std::vector<semel::TxnId> visited;
    big.forEach([&](const milana::TxnEntry &e) { visited.push_back(e.txn); });
    std::vector<semel::TxnId> expected = open;
    expected.insert(expected.end(), decided.begin(), decided.end());
    EXPECT_EQ(visited, expected);
}

TEST(TxnTable, ForEachVisitsTxnIdOrderAcrossClients)
{
    // Recovery pulls and re-sends entries in forEach order: undecided
    // ones, then decided ones, each in TxnId order across clients,
    // whatever order they were folded in and whichever were dropped
    // below a floor.
    milana::TxnTable table;
    std::vector<semel::TxnId> ids;
    for (const common::ClientId client : {9u, 2u, 5u})
        for (std::uint64_t serial = 1; serial <= 40; ++serial)
            ids.push_back({client, serial});
    std::mt19937_64 rng(11);
    std::shuffle(ids.begin(), ids.end(), rng);
    std::vector<semel::TxnId> open;
    std::vector<semel::TxnId> decided;
    for (const semel::TxnId &id : ids) {
        const bool outcome = rng() % 2 == 0;
        table.fold(milana::TxnEntry{
            {outcome ? semel::TxnStatus::Committed
                     : semel::TxnStatus::Prepared,
             id, common::Version{100, id.client}, kWrites, {0}},
            0});
        if (id.client == 5 && id.serial < 10)
            continue; // dropped below the floor below
        (outcome ? decided : open).push_back(id);
    }
    table.truncate(5, 10);
    std::sort(open.begin(), open.end());
    std::sort(decided.begin(), decided.end());
    std::vector<semel::TxnId> visited;
    table.forEach(
        [&](const milana::TxnEntry &e) { visited.push_back(e.txn); });
    std::vector<semel::TxnId> expected = open;
    expected.insert(expected.end(), decided.begin(), decided.end());
    EXPECT_EQ(visited, expected);
    EXPECT_EQ(table.size(), open.size());
    EXPECT_EQ(table.entries(), expected.size());
}

TEST(TxnTable, RecordsBelowTheFloorFoldAsNoOps)
{
    milana::TxnTable table;
    table.fold(record(semel::TxnStatus::Prepared, 1, kWrites));
    table.fold(record(semel::TxnStatus::Committed, 2, kWrites));
    table.truncate(7, 3);
    EXPECT_EQ(table.floorOf(7), 3u);
    EXPECT_EQ(table.entries(), 0u);
    EXPECT_EQ(table.size(), 0u);
    for (const semel::TxnStatus status :
         {semel::TxnStatus::Prepared, semel::TxnStatus::Committed,
          semel::TxnStatus::Aborted})
        for (const std::uint64_t serial : {1u, 2u})
            EXPECT_EQ(table.fold(record(status, serial, kWrites)), nullptr);
    EXPECT_TRUE(table.settled({7, 2}));
    EXPECT_FALSE(table.settled({7, 3}));
    EXPECT_EQ(table.statusOf({7, 2}), semel::TxnStatus::Unknown);
    EXPECT_EQ(table.entries(), 0u);
    // A lower floor changes nothing; serials at the floor fold.
    table.truncate(7, 1);
    EXPECT_EQ(table.floorOf(7), 3u);
    EXPECT_NE(table.fold(record(semel::TxnStatus::Prepared, 3, kWrites)),
              nullptr);
}

TEST(TxnTable, SettleStopsAtUndecidedAndUnackedOutcomes)
{
    // The primary's floor passes serials it never saw and outcomes
    // every backup acknowledged, up to the client's floor, and stops at
    // the first undecided entry or unacknowledged outcome.
    milana::TxnTable table;
    constexpr std::uint32_t kBoth = 0b11;
    table.fold(record(semel::TxnStatus::Committed, 2, kWrites));
    table.fold(record(semel::TxnStatus::Aborted, 3));
    table.fold(record(semel::TxnStatus::Prepared, 5, kWrites));
    table.fold(record(semel::TxnStatus::Committed, 7, kWrites));
    table.noteAck({7, 2}, 0b01);
    EXPECT_EQ(table.settle(7, 10, kBoth), 2u); // 2: one ack of two
    table.noteAck({7, 2}, 0b10);
    table.noteAck({7, 3}, kBoth);
    EXPECT_EQ(table.settle(7, 10, kBoth), 5u); // 5: undecided
    EXPECT_EQ(table.statusOf({7, 2}), semel::TxnStatus::Unknown);
    table.fold(record(semel::TxnStatus::Committed, 5));
    EXPECT_EQ(table.settle(7, 10, kBoth), 5u); // 5: not acked
    table.noteAck({7, 5}, kBoth);
    EXPECT_EQ(table.settle(7, 6, kBoth), 6u);  // the client's floor
    EXPECT_EQ(table.settle(7, 10, kBoth), 7u); // 7: not acked
    table.noteAck({7, 7}, kBoth);
    EXPECT_EQ(table.settle(7, 10, kBoth), 10u); // past the end
    EXPECT_EQ(table.entries(), 0u);
    // Without backups, a decided entry needs no ack.
    table.fold(record(semel::TxnStatus::Committed, 11, kWrites));
    EXPECT_EQ(table.settle(7, 12, 0), 12u);
    // Acks from before a failover no longer count.
    table.fold(record(semel::TxnStatus::Committed, 12, kWrites));
    table.noteAck({7, 12}, kBoth);
    table.clearAcks();
    EXPECT_EQ(table.settle(7, 13, kBoth), 12u);
}
