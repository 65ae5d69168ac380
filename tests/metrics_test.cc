/**
 * @file
 * Metrics-plane contract tests: MetricsRegistry sampling semantics
 * (counter deltas, reset detection, gauges, per-window histogram
 * quantiles), TimeSeriesLog ring behavior, sampler window alignment
 * on interval boundaries, counter-delta conservation against final
 * StatSet totals, and — the property CI byte-compares — identical
 * deterministic exports for every run of the same seed.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

namespace {

using common::kMillisecond;
using common::kSecond;
using common::MetricPoint;
using common::MetricsRegistry;
using common::SeriesKind;
using common::StatSet;
using common::Time;
using common::TimeSeriesLog;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;

constexpr common::Duration kInterval = 50 * kMillisecond;

TEST(TimeSeriesLog, RingKeepsNewestAndCountsDropped)
{
    TimeSeriesLog log(kInterval, /*windowCapacity=*/4);
    auto &s = log.series("x", 1, SeriesKind::Gauge);
    for (int i = 0; i < 10; ++i) {
        MetricPoint p;
        p.windowStart = i * kInterval;
        p.windowEnd = (i + 1) * kInterval;
        p.value = i;
        s.push(p);
    }
    EXPECT_EQ(s.appended(), 10u);
    EXPECT_EQ(s.dropped(), 6u);
    const auto points = s.points();
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points.front().value, 6.0); // oldest surviving
    EXPECT_EQ(points.back().value, 9.0);
    for (std::size_t i = 1; i < points.size(); ++i)
        EXPECT_LT(points[i - 1].windowStart, points[i].windowStart);
}

TEST(MetricsRegistry, CounterDeltasAndResetDetection)
{
    StatSet stats;
    MetricsRegistry reg(kInterval);
    reg.addStatSet("t.", 5, stats);

    stats.counter("ops").inc(100);
    reg.prime(); // baseline: the first window must not see the 100
    stats.counter("ops").inc(7);
    reg.sample(0, kInterval);
    stats.counter("ops").inc(3);
    reg.sample(kInterval, 2 * kInterval);
    // Reset mid-run (resetStats at measurement start): the delta is
    // the post-reset value, not a huge unsigned wraparound.
    stats.reset();
    stats.counter("ops").inc(2);
    reg.sample(2 * kInterval, 3 * kInterval);

    const auto *s = reg.log().find("t.ops", 5);
    ASSERT_NE(s, nullptr);
    const auto points = s->points();
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].value, 7.0);
    EXPECT_EQ(points[1].value, 3.0);
    EXPECT_EQ(points[2].value, 2.0);
}

TEST(MetricsRegistry, SampleIsIdempotentPerWindow)
{
    StatSet stats;
    MetricsRegistry reg(kInterval);
    reg.addStatSet("t.", 0, stats);
    stats.counter("ops").inc(4);
    reg.sample(0, kInterval);
    stats.counter("ops").inc(9);
    reg.sample(0, kInterval); // same window end: must be a no-op
    const auto points = reg.log().find("t.ops", 0)->points();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].value, 4.0);
}

TEST(MetricsRegistry, GaugeSampledAtBoundary)
{
    double level = 1.5;
    MetricsRegistry reg(kInterval);
    reg.addGauge("q.depth", 9, [&level] { return level; });
    reg.sample(0, kInterval);
    level = 4.0;
    reg.sample(kInterval, 2 * kInterval);
    const auto points = reg.log().find("q.depth", 9)->points();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].value, 1.5);
    EXPECT_EQ(points[1].value, 4.0);
}

TEST(MetricsRegistry, HistogramWindowQuantilesAreWindowLocal)
{
    StatSet stats;
    MetricsRegistry reg(kInterval);
    reg.addStatSet("t.", 0, stats);
    // Window 1: slow ops only. Window 2: fast ops only. Each window's
    // quantiles must reflect only its own samples, not the cumulative
    // distribution.
    for (int i = 0; i < 100; ++i)
        stats.histogram("lat").record(1'000'000);
    reg.sample(0, kInterval);
    for (int i = 0; i < 100; ++i)
        stats.histogram("lat").record(1'000);
    reg.sample(kInterval, 2 * kInterval);

    const auto points = reg.log().find("t.lat", 0)->points();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].count, 100u);
    EXPECT_EQ(points[1].count, 100u);
    EXPECT_GT(points[0].p50, 500'000);
    EXPECT_LT(points[1].p50, 2'000); // cumulative p50 would be huge
    EXPECT_GT(points[0].p999, points[1].p999);
}

/** A small fig6-style cell with the metrics plane on. */
struct CellRun
{
    std::string json; ///< deterministic-only JSON export
    std::string csv;
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::vector<MetricPoint> commitPoints;
};

CellRun
runCell(common::Duration measure)
{
    MetricsRegistry metrics(kInterval);

    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = 8;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 500;
    cfg.seed = 1;
    cfg.metrics = &metrics;

    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();

    RetwisConfig retwis;
    retwis.alpha = 0.8;
    retwis.numKeys = cfg.numKeys;
    retwis.seed = cfg.seed + 100;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    cluster.runFor(measure);
    cluster.finishMetrics();

    CellRun run;
    std::ostringstream js, cs;
    metrics.log().writeJson(js, /*includeNonDeterministic=*/false);
    metrics.log().writeCsv(cs);
    run.json = js.str();
    run.csv = cs.str();
    run.committed =
        cluster.clientStats().counterValue("txn.committed");
    run.aborted = cluster.clientStats().counterValue("txn.aborted");
    // Gather the committed-counter deltas across client nodes, summed
    // per window boundary for the conservation check.
    for (const auto *s : metrics.log().sorted()) {
        if (s->name != "client.txn.committed")
            continue;
        for (const MetricPoint &p : s->points())
            run.commitPoints.push_back(p);
    }
    return run;
}

TEST(MetricsPlane, WindowsAlignToIntervalBoundaries)
{
    const CellRun run = runCell(230 * kMillisecond);
    ASSERT_FALSE(run.commitPoints.empty());
    for (std::size_t i = 0; i < run.commitPoints.size(); ++i) {
        const MetricPoint &p = run.commitPoints[i];
        EXPECT_EQ(p.windowStart % kInterval, 0)
            << "window " << i << " start off-grid";
        EXPECT_GT(p.windowEnd, p.windowStart);
        EXPECT_LE(p.windowEnd - p.windowStart, kInterval);
        // Every window but each series' final (flushed, possibly
        // partial) one ends exactly on the grid. commitPoints
        // concatenates the per-client-node series; within one series
        // window starts strictly increase, and a drop marks the next
        // series' first point.
        if (i + 1 < run.commitPoints.size() &&
            run.commitPoints[i + 1].windowStart > p.windowStart)
            EXPECT_EQ(p.windowEnd % kInterval, 0);
    }
}

TEST(MetricsPlane, CounterDeltasSumToFinalTotals)
{
    const CellRun run = runCell(kSecond / 4);
    ASSERT_GT(run.committed, 0u);
    double sum = 0.0;
    for (const MetricPoint &p : run.commitPoints)
        sum += p.value;
    EXPECT_EQ(static_cast<std::uint64_t>(sum), run.committed);
}

TEST(MetricsPlane, DeterministicExportsIdenticalAcrossRepeats)
{
    const CellRun one = runCell(kSecond / 2);
    ASSERT_GT(one.committed, 100u); // guard: the workload really ran
    EXPECT_NE(one.json.find("client.txn.committed"), std::string::npos);

    const CellRun two = runCell(kSecond / 2);
    EXPECT_EQ(one.json, two.json);
    EXPECT_EQ(one.csv, two.csv);
}

} // namespace
