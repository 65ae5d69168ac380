/**
 * @file
 * Long-running: server state stays bounded over 15 simulated minutes
 * of a fault-free 3x3 MFTL cell (about 80 s of host time in a Release
 * build). Not registered with ctest; CI's Release job runs the binary.
 *
 *   ./build-rel/tests/soak_test
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "workload/cluster.hh"
#include "workload/retwis.hh"

using namespace workload;
using common::kMillisecond;
using common::kSecond;

namespace {

/** Means over one window of the state that must stay bounded. */
struct StateMeans
{
    /** Entries in every replica's transaction table. */
    double txnEntries = 0;
    /** The backends' mapping slots plus version-chain arena slabs. */
    double dataPlaneBytes = 0;
    /** The simulator's pending events. */
    double queueDepth = 0;
};

/** Run @p window from now, sampling every 10 ms: one sample swings
 *  with the transactions in flight, the mean over a window does not. */
StateMeans
runAndSample(Cluster &cluster, common::Duration window)
{
    constexpr common::Duration kSample = 10 * kMillisecond;
    const common::Time origin = cluster.now();
    StateMeans sum;
    double samples = 0;
    for (common::Duration at = kSample; at <= window; at += kSample) {
        cluster.runUntil(origin + at);
        for (std::size_t i = 0; i < cluster.numServers(); ++i) {
            sum.txnEntries += static_cast<double>(
                cluster.server(i).txnTable().entries());
            sum.dataPlaneBytes += static_cast<double>(
                cluster.server(i).backend().dataPlaneBytes());
        }
        sum.queueDepth += static_cast<double>(cluster.sim().pendingEvents());
        ++samples;
    }
    return StateMeans{sum.txnEntries / samples, sum.dataPlaneBytes / samples,
                      sum.queueDepth / samples};
}

} // namespace

TEST(Soak, StateStaysBoundedForFifteenMinutes)
{
    ClusterConfig cfg;
    cfg.numShards = 3;
    cfg.replicasPerShard = 3;
    cfg.numClients = 4;
    cfg.numKeys = 20'000;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = ClockKind::PtpSw;
    RetwisRun run(cfg, 0.6);
    Cluster &cluster = run.cluster();

    constexpr common::Duration kMinute = 60 * kSecond;
    const StateMeans first = runAndSample(cluster, kMinute);
    cluster.runUntil(cluster.now() + 13 * kMinute);
    const StateMeans last = runAndSample(cluster, kMinute);

    std::printf("txn_entries %.1f -> %.1f, data_plane_bytes %.0f -> %.0f, "
                "queue_depth %.1f -> %.1f (minute 1 -> minute 15)\n",
                first.txnEntries, last.txnEntries, first.dataPlaneBytes,
                last.dataPlaneBytes, first.queueDepth, last.queueDepth);
    EXPECT_GT(run.fleet().totalCommits(), 0u);
    EXPECT_NEAR(last.txnEntries, first.txnEntries, 0.1 * first.txnEntries);
    EXPECT_NEAR(last.dataPlaneBytes, first.dataPlaneBytes,
                0.1 * first.dataPlaneBytes);
    EXPECT_NEAR(last.queueDepth, first.queueDepth, 0.1 * first.queueDepth);
}
