/**
 * @file
 * Tests for the workload layer: Retwis mix statistics, the cluster
 * builder, end-to-end Retwis runs on every backend, the contention
 * knob, the Retwis run driver's measurement rule, the micro-benchmark
 * driver, and the Centiman baseline.
 */

#include <tuple>

#include <gtest/gtest.h>

#include "common/chaos.hh"
#include "flash/ssd.hh"
#include "ftl/dram.hh"
#include "workload/cluster.hh"
#include "workload/micro.hh"
#include "workload/retwis.hh"

using namespace workload;
using common::kSecond;

namespace {

ClusterConfig
tinyCluster(BackendKind backend, std::uint32_t clients = 4)
{
    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = clients;
    cfg.backend = backend;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 2000;
    return cfg;
}

struct RunResult
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    double abortRate = 0;
};

RunResult
runRetwis(const ClusterConfig &ccfg, double alpha, int seconds)
{
    RetwisRun run(ccfg, alpha);
    run.measure(kSecond / 2, seconds * kSecond);
    const RetwisWorkload &fleet = run.fleet();
    return {fleet.totalCommits(), fleet.totalAborts(), fleet.abortRate()};
}

} // namespace

TEST(Retwis, CommitsTransactionsOnDram)
{
    const auto r = runRetwis(tinyCluster(BackendKind::Dram), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
    EXPECT_GE(r.abortRate, 0.0);
    EXPECT_LE(r.abortRate, 1.0);
}

TEST(Retwis, CommitsTransactionsOnMftl)
{
    const auto r = runRetwis(tinyCluster(BackendKind::Mftl), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, CommitsTransactionsOnVftl)
{
    const auto r = runRetwis(tinyCluster(BackendKind::Vftl), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, CommitsTransactionsOnSingleVersion)
{
    const auto r =
        runRetwis(tinyCluster(BackendKind::SingleVersion), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, ContentionRaisesAbortRate)
{
    const auto low = runRetwis(tinyCluster(BackendKind::Dram, 8), 0.4, 2);
    const auto high =
        runRetwis(tinyCluster(BackendKind::Dram, 8), 0.99, 2);
    EXPECT_GT(high.abortRate, low.abortRate);
}

TEST(Retwis, SingleVersionAbortsMoreThanMultiVersion)
{
    // Figure 6's core claim at test scale. (At extreme contention the
    // two converge — write-write conflicts dominate — so probe the
    // moderate-contention regime where snapshots matter.)
    const auto sv = runRetwis(
        tinyCluster(BackendKind::SingleVersion, 8), 0.7, 2);
    const auto mv = runRetwis(tinyCluster(BackendKind::Mftl, 8), 0.7, 2);
    EXPECT_LT(mv.abortRate, sv.abortRate);
}

TEST(Retwis, ReplicatedClusterWorks)
{
    ClusterConfig cfg = tinyCluster(BackendKind::Dram, 4);
    cfg.numShards = 2;
    cfg.replicasPerShard = 3;
    const auto r = runRetwis(cfg, 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, NtpAbortsMoreThanPtp)
{
    // Figure 7's core claim at test scale: same seed, same workload,
    // only the clock discipline differs.
    ClusterConfig ptp = tinyCluster(BackendKind::Dram, 8);
    ptp.clocks = ClockKind::PtpSw;
    ClusterConfig ntp = ptp;
    ntp.clocks = ClockKind::Ntp;
    const auto r_ptp = runRetwis(ptp, 0.9, 3);
    const auto r_ntp = runRetwis(ntp, 0.9, 3);
    EXPECT_LT(r_ptp.abortRate, r_ntp.abortRate);
}

TEST(Retwis, CentimanRunsAndValidates)
{
    ClusterConfig cfg = tinyCluster(BackendKind::Dram, 4);
    cfg.numShards = 2;
    cfg.centiman = true;
    cfg.centimanDisseminateEvery = 50;
    RetwisRun run(cfg, 0.6, /*readHeavy=*/true);
    run.measure(0, 3 * kSecond);
    EXPECT_GT(run.fleet().totalCommits(), 100u);
    const auto stats = run.cluster().clientStats();
    // Both local and remote validation paths should have been used.
    EXPECT_GT(stats.counterValue("centiman.local_validated") +
                  stats.counterValue("centiman.remote_validated"),
              0u);
}

TEST(Cluster, StatsAggregationAndReset)
{
    RetwisRun run(tinyCluster(BackendKind::Dram, 2), 0.6);
    run.measure(0, kSecond);
    Cluster &cluster = run.cluster();
    EXPECT_GT(cluster.clientStats().counterValue("txn.begun"), 0u);
    cluster.resetStats();
    EXPECT_EQ(cluster.clientStats().counterValue("txn.begun"), 0u);
}

TEST(RetwisRun, MeasuredWindowStartsAtTheWarmupBoundary)
{
    // An event at the boundary instant still belongs to the warm-up:
    // its counter bumps are zeroed, and the `at 0ms` fault is not
    // active yet. One microsecond later the fault is active and a bump
    // counts. The client, network and clock-sync sets all reset.
    common::ChaosEngine chaos(3);
    ASSERT_TRUE(chaos.parse("at 0ms delay all factor=2 for 50ms"));
    ClusterConfig cfg = tinyCluster(BackendKind::Dram);
    cfg.clocks = ClockKind::Dtp; // a sync exchange every 0.5 s
    cfg.chaos = &chaos;
    RetwisRun run(cfg, 0.6);
    Cluster &cluster = run.cluster();
    const common::Duration warmup = kSecond / 4;
    const common::Time boundary = cluster.now() + warmup;
    bool activeAtBoundary = true;
    bool activeAfter = false;
    std::uint64_t exchangesAtBoundary = 0;
    std::uint64_t exchangesAfter = 0;
    const auto bump = [&](const char *name) {
        cluster.client(0).stats().counter(name).inc();
        cluster.network().stats().counter(name).inc();
    };
    cluster.sim().scheduleAt(boundary, [&] {
        activeAtBoundary = chaos.anyActive();
        exchangesAtBoundary =
            cluster.clockStats().counterValue("clocksync.exchanges");
        bump("test.warmup_bump");
    });
    cluster.sim().scheduleAt(boundary + common::kMicrosecond, [&] {
        activeAfter = chaos.anyActive();
        exchangesAfter =
            cluster.clockStats().counterValue("clocksync.exchanges");
        bump("test.measured_bump");
    });
    run.measure(warmup, kSecond / 2);

    EXPECT_FALSE(activeAtBoundary);
    EXPECT_TRUE(activeAfter);
    EXPECT_EQ(chaos.injections(), 1u);
    for (const auto &stats :
         {cluster.clientStats(), cluster.network().stats()}) {
        EXPECT_EQ(stats.counterValue("test.warmup_bump"), 0u);
        EXPECT_EQ(stats.counterValue("test.measured_bump"), 1u);
    }
    // The warm-up's exchanges are gone one microsecond later.
    EXPECT_GT(exchangesAtBoundary, 0u);
    EXPECT_EQ(exchangesAfter, 0u);
    EXPECT_GT(run.fleet().totalCommits(), 0u);
}

TEST(RetwisRun, SameSeedReplaysExactly)
{
    const auto once = [] {
        RetwisRun run(tinyCluster(BackendKind::Mftl, 8), 0.8);
        run.measure(kSecond / 4, kSecond / 2);
        return std::make_tuple(run.fleet().totalCommits(),
                               run.fleet().totalAborts(),
                               run.cluster().clientStats().dump());
    };
    const auto a = once();
    EXPECT_GT(std::get<0>(a), 100u);
    EXPECT_EQ(a, once());
}

TEST(Micro, DriverSustainsThroughputOnDram)
{
    sim::Simulator sim;
    ftl::DramBackend dram(sim);
    MicroConfig cfg;
    cfg.numKeys = 1000;
    cfg.workers = 16;
    cfg.getPercent = 50;
    MicroBench micro(sim, dram, cfg);
    micro.populate();
    micro.start();
    // DRAM sustains ~tens of millions of ops per simulated second;
    // a few simulated milliseconds are ample for the assertion.
    sim.runFor(2 * common::kMillisecond);
    EXPECT_GT(micro.gets(), 1000u);
    EXPECT_GT(micro.puts(), 1000u);
    EXPECT_GT(micro.getLatency().count(), 0u);
}

TEST(Micro, GetPercentRespected)
{
    sim::Simulator sim;
    ftl::DramBackend dram(sim);
    MicroConfig cfg;
    cfg.numKeys = 1000;
    cfg.workers = 16;
    cfg.getPercent = 90;
    MicroBench micro(sim, dram, cfg);
    micro.populate();
    micro.start();
    sim.runFor(2 * common::kMillisecond);
    const double get_frac =
        static_cast<double>(micro.gets()) /
        static_cast<double>(micro.gets() + micro.puts());
    EXPECT_NEAR(get_frac, 0.90, 0.03);
}

TEST(Micro, MftlSurvivesSustainedMixedLoad)
{
    // Regression test for the GC wedge class of bugs: a mixed load at
    // high concurrency must keep flowing through GC pressure.
    sim::Simulator sim;
    flash::SsdDevice ssd(
        sim, flash::Geometry::scaledFor(5000 * ftl::kRecordSize,
                                        flash::kDeviceUtilization));
    ftl::Mftl mftl(sim, ssd, ftl::Mftl::Config{});
    MicroConfig cfg;
    cfg.numKeys = 5000;
    cfg.workers = 64;
    cfg.getPercent = 50;
    MicroBench micro(sim, mftl, cfg);
    micro.populate();
    micro.start(); // starts the MFTL's watermark sweep too
    sim.runUntil(sim.now() + kSecond);
    const auto puts_at_1s = micro.puts();
    sim.runFor(2 * kSecond);
    // Still making progress in the final two seconds.
    EXPECT_GT(micro.puts(), puts_at_1s + 1000);
    EXPECT_GT(ssd.stats().counterValue("ssd.erases"), 0u);
}

TEST(Micro, VftlSurvivesSustainedMixedLoad)
{
    sim::Simulator sim;
    flash::SsdDevice ssd(
        sim, flash::Geometry::scaledFor(5000 * ftl::kRecordSize,
                                        flash::kDeviceUtilization));
    ftl::Sftl sftl(sim, ssd);
    ftl::Vftl vftl(sim, sftl, ftl::Vftl::Config{});
    MicroConfig cfg;
    cfg.numKeys = 5000;
    cfg.workers = 64;
    cfg.getPercent = 50;
    MicroBench micro(sim, vftl, cfg);
    micro.populate();
    micro.start();
    sim.runUntil(sim.now() + kSecond);
    const auto puts_at_1s = micro.puts();
    sim.runFor(2 * kSecond);
    EXPECT_GT(micro.puts(), puts_at_1s + 1000);
}

TEST(RetwisInstance, MixMatchesTable2)
{
    // Drive shapes statistically: read-only fraction ~50% (default) or
    // ~75% (read-heavy).
    RetwisRun run(tinyCluster(BackendKind::Dram, 1), 0.6,
                  /*readHeavy=*/true);
    run.measure(0, 3 * kSecond);
    const auto stats = run.cluster().clientStats();
    const double ro = static_cast<double>(
        stats.counterValue("txn.local_validations"));
    const double total =
        static_cast<double>(stats.counterValue("txn.begun"));
    ASSERT_GT(total, 500);
    EXPECT_NEAR(ro / total, 0.75, 0.06);
}
