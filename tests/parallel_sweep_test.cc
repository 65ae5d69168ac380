/**
 * @file
 * SweepRunner contract tests: every cell runs exactly once regardless
 * of the job count, exceptions propagate, bench::Args rejects flags no
 * harness asked for, and — the property the whole
 * parallel-sweep design rests on — a fig6-style grid of Cluster
 * simulations produces a byte-identical milana-bench-v1 report whether
 * it runs on 1 worker or 8.
 *
 * The determinism test is the one the TSan CI job runs: it exercises
 * concurrent simulators on real worker threads, so a data race in any
 * ambient state (trace context, logging, RNG) shows up here.
 */

#include <atomic>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/bench_util.hh"
#include "../bench/sweep_runner.hh"
#include "common/types.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

namespace {

using common::kSecond;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;

TEST(SweepRunner, RunsEveryCellExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        bench::SweepRunner runner(jobs);
        constexpr std::size_t kCells = 37;
        std::vector<std::atomic<int>> hits(kCells);
        runner.run(kCells, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < kCells; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "cell " << i << " jobs "
                                         << jobs;
    }
}

TEST(SweepRunner, ZeroCellsIsANoop)
{
    bench::SweepRunner runner(4);
    runner.run(0, [](std::size_t) { FAIL() << "cell ran"; });
}

TEST(SweepRunner, PropagatesCellExceptions)
{
    bench::SweepRunner runner(4);
    EXPECT_THROW(runner.run(16,
                            [&](std::size_t i) {
                                if (i == 7)
                                    throw std::runtime_error("cell 7");
                            }),
                 std::runtime_error);
}

TEST(SweepRunner, JobsClampedToAtLeastOne)
{
    bench::SweepRunner runner(0);
    EXPECT_EQ(runner.jobs(), 1u);
    int ran = 0;
    runner.run(3, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 3);
}

/** bench::Args over literal flag tokens (argv[0] is supplied). */
bench::Args
makeArgs(std::vector<std::string> flags)
{
    flags.insert(flags.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &flag : flags)
        argv.push_back(flag.data());
    return bench::Args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, QueriedFlagsAreAccepted)
{
    const bench::Args args = makeArgs(
        {"--seconds=2", "--trace", "out.json", "--full", "--json=r.json"});
    EXPECT_EQ(args.getInt("seconds", 4), 2);
    EXPECT_EQ(args.getString("trace", ""), "out.json");
    EXPECT_TRUE(args.has("full"));
    EXPECT_EQ(args.getInt("keys", 7), 7); // asked for, absent
    args.rejectUnknown();                 // returns: all flags known
}

TEST(BenchArgsDeathTest, UnknownFlagExitsWithStatus2)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto run = [](std::vector<std::string> flags) {
        const bench::Args args = makeArgs(std::move(flags));
        args.getInt("seconds", 4);
        args.rejectUnknown();
    };
    EXPECT_EXIT(run({"--secnds=1"}), ::testing::ExitedWithCode(2),
                "unknown flag --secnds");
    EXPECT_EXIT(run({"--seconds=1", "--jobz=8"}),
                ::testing::ExitedWithCode(2),
                "unknown flag --jobz");
}

/** One fig6-style cell: a private Cluster + Retwis fleet. */
double
runAbortCell(BackendKind backend, std::uint32_t clients, double alpha)
{
    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = clients;
    cfg.backend = backend;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 500;
    cfg.seed = 1;

    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();

    RetwisConfig retwis;
    retwis.alpha = alpha;
    retwis.numKeys = cfg.numKeys;
    retwis.seed = cfg.seed + 100;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    cluster.sim().runUntil(cluster.sim().now() + kSecond / 4);
    fleet.resetMeasurement();
    cluster.sim().runFor(kSecond / 2);
    return fleet.abortRate() * 100.0;
}

/** Render the small grid as a milana-bench-v1 report string. */
std::string
sweepReport(unsigned jobs)
{
    struct Coord
    {
        BackendKind backend;
        std::uint32_t clients;
        double alpha;
    };
    std::vector<Coord> coords;
    for (double alpha : {0.6, 0.99}) {
        for (std::uint32_t clients : {4u, 8u}) {
            coords.push_back({BackendKind::SingleVersion, clients, alpha});
            coords.push_back({BackendKind::Mftl, clients, alpha});
        }
    }

    bench::SweepRunner runner(jobs);
    std::vector<double> abortPct(coords.size());
    runner.run(coords.size(), [&](std::size_t i) {
        abortPct[i] = runAbortCell(coords[i].backend,
                                   coords[i].clients, coords[i].alpha);
    });

    bench::Report report("parallel_sweep_test");
    report.params().set("keys", 500).set("seed", 1);
    for (std::size_t i = 0; i < coords.size(); ++i) {
        report.addRow()
            .set("alpha", coords[i].alpha)
            .set("clients", coords[i].clients)
            .set("backend", workload::backendName(coords[i].backend))
            .set("abort_pct", abortPct[i]);
    }
    std::ostringstream os;
    report.writeTo(os);
    return os.str();
}

TEST(ParallelSweep, ReportBytesIdenticalAcrossJobCounts)
{
    const std::string serial = sweepReport(1);
    const std::string parallel = sweepReport(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

} // namespace
