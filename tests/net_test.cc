/**
 * @file
 * Tests for the simulated network: delay sampling, RPC round trips,
 * crash and partition semantics, one-way sends, and loss timing.
 */

#include <gtest/gtest.h>

#include "net/network.hh"
#include "sim/simulator.hh"

using namespace net;
using common::kMicrosecond;
using common::kMillisecond;
using common::Rng;

namespace {

NetConfig
fastConfig()
{
    NetConfig cfg;
    cfg.oneWayMean = 50 * kMicrosecond;
    cfg.oneWaySigma = 0;
    cfg.minLatency = 5 * kMicrosecond;
    cfg.rpcTimeout = 5 * kMillisecond;
    return cfg;
}

sim::Task<int>
echoHandler(int x)
{
    co_return x * 2;
}

} // namespace

TEST(Network, DelaySamplesRespectMinimum)
{
    sim::Simulator s;
    NetConfig cfg;
    cfg.oneWayMean = 10 * kMicrosecond;
    cfg.oneWaySigma = 50 * kMicrosecond; // wild jitter
    cfg.minLatency = 5 * kMicrosecond;
    Network net(s, cfg, Rng(1));
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(net.sampleDelay(), cfg.minLatency);
}

TEST(Network, DelayMeanApproximatelyConfigured)
{
    sim::Simulator s;
    NetConfig cfg;
    cfg.oneWayMean = 100 * kMicrosecond;
    cfg.oneWaySigma = 10 * kMicrosecond;
    Network net(s, cfg, Rng(2));
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(net.sampleDelay());
    EXPECT_NEAR(sum / n, 100 * kMicrosecond, 2 * kMicrosecond);
}

TEST(Network, RpcRoundTripDeliversAndTimes)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(3));
    std::optional<int> got;
    common::Time done = 0;
    sim::spawn([](sim::Simulator *s, Network *net,
                  std::optional<int> *got,
                  common::Time *done) -> sim::Task<void> {
        *got = co_await net->callTyped<int>(1, 2, echoHandler(21));
        *done = s->now();
    }(&s, &net, &got, &done));
    s.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 42);
    EXPECT_EQ(done, 2 * 50 * kMicrosecond); // request + response legs
}

TEST(Network, CrashedDestinationTimesOut)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(4));
    net.setNodeDown(2, true);
    std::optional<int> got = 7;
    common::Time done = 0;
    sim::spawn([](sim::Simulator *s, Network *net,
                  std::optional<int> *got,
                  common::Time *done) -> sim::Task<void> {
        *got = co_await net->callTyped<int>(1, 2, echoHandler(21));
        *done = s->now();
    }(&s, &net, &got, &done));
    s.run();
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(done, 5 * kMillisecond); // the configured RPC timeout
}

TEST(Network, CrashMidFlightDropsRequest)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(5));
    std::optional<int> got = 7;
    sim::spawn([](Network *net,
                  std::optional<int> *got) -> sim::Task<void> {
        *got = co_await net->callTyped<int>(1, 2, echoHandler(21));
    }(&net, &got));
    // Crash the destination while the request is in flight (25 us in).
    s.schedule(25 * kMicrosecond, [&] { net.setNodeDown(2, true); });
    s.run();
    EXPECT_FALSE(got.has_value());
}

TEST(Network, PartitionBlocksBothDirections)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(6));
    net.setLinkBroken(1, 2, true);
    EXPECT_FALSE(net.deliverable(1, 2));
    EXPECT_FALSE(net.deliverable(2, 1));
    EXPECT_TRUE(net.deliverable(1, 3));
    net.setLinkBroken(1, 2, false);
    EXPECT_TRUE(net.deliverable(1, 2));
}

TEST(Network, NodeRestartRestoresDelivery)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(7));
    net.setNodeDown(5, true);
    EXPECT_FALSE(net.deliverable(1, 5));
    net.setNodeDown(5, false);
    EXPECT_TRUE(net.deliverable(1, 5));
}

TEST(Network, OneWaySendDelivers)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(8));
    bool delivered = false;
    net.send(1, 2, [&] { delivered = true; });
    s.run();
    EXPECT_TRUE(delivered);
}

TEST(Network, OneWaySendToDownNodeDropped)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(9));
    net.setNodeDown(2, true);
    bool delivered = false;
    net.send(1, 2, [&] { delivered = true; });
    s.run();
    EXPECT_FALSE(delivered);
}

TEST(Network, StatsCountTraffic)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(10));
    sim::spawn([](Network *net) -> sim::Task<void> {
        (void)co_await net->callTyped<int>(1, 2, echoHandler(1));
    }(&net));
    s.run();
    EXPECT_EQ(net.stats().counterValue("net.calls"), 1u);
    EXPECT_EQ(net.stats().counterValue("net.request_lost"), 0u);
}

TEST(Network, OneWayPartitionDropsOnlyItsLeg)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(11));
    net.setLinkBrokenOneWay(1, 2, true);
    EXPECT_FALSE(net.deliverable(1, 2));
    EXPECT_TRUE(net.deliverable(2, 1));

    // 2 -> 1 reaches the handler, but its response leg is the cut one.
    bool ran = false;
    std::optional<int> got = 7;
    sim::spawn([](Network *net, bool *ran,
                  std::optional<int> *got) -> sim::Task<void> {
        *got = co_await net->callTyped<int>(
            2, 1, [](bool *ran) -> sim::Task<int> {
                *ran = true;
                co_return 1;
            }(ran));
    }(&net, &ran, &got));
    // 1 -> 2 is dropped before it leaves; one-way sends likewise.
    bool sent_12 = false, sent_21 = false;
    net.send(1, 2, [&] { sent_12 = true; });
    net.send(2, 1, [&] { sent_21 = true; });
    s.run();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(got.has_value());
    EXPECT_FALSE(sent_12);
    EXPECT_TRUE(sent_21);
    EXPECT_EQ(net.stats().counterValue("net.response_lost"), 1u);
    EXPECT_EQ(net.stats().counterValue("net.request_lost"), 0u);

    net.setLinkBrokenOneWay(1, 2, false);
    EXPECT_TRUE(net.deliverable(1, 2));
}

TEST(Network, LinkDelayFactorOverridesGlobalUntilReset)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(12));
    net.setDelayFactor(2.0);
    // 0 is a legal factor: the link's legs fall to the latency floor.
    net.setLinkDelayFactor(1, 2, 0.0);
    EXPECT_EQ(net.delayFactor(1, 2), 0.0);
    EXPECT_EQ(net.delayFactor(2, 1), 0.0);
    EXPECT_EQ(net.delayFactor(1, 3), 2.0);

    common::Time link_done = 0;
    common::Time other_done = 0;
    sim::spawn([](sim::Simulator *s, Network *net, common::Time *link_done,
                  common::Time *other_done) -> sim::Task<void> {
        (void)co_await net->callTyped<int>(1, 2, echoHandler(1));
        *link_done = s->now();
        (void)co_await net->callTyped<int>(1, 3, echoHandler(1));
        *other_done = s->now() - *link_done;
    }(&s, &net, &link_done, &other_done));
    s.run();
    EXPECT_EQ(link_done, 2 * 5 * kMicrosecond);    // minLatency legs
    EXPECT_EQ(other_done, 2 * 100 * kMicrosecond); // 2x the 50 us mean

    // 1.0 clears the link's own factor: it follows the global again.
    net.setLinkDelayFactor(1, 2, 1.0);
    EXPECT_EQ(net.delayFactor(1, 2), 2.0);
    EXPECT_EQ(net.delayFactor(2, 1), 2.0);
    net.setDelayFactor(1.0);
    EXPECT_EQ(net.delayFactor(1, 2), 1.0);
}

TEST(Network, EachLegRecordsInItsOwnLinkHistogram)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(13));
    net.setLinkDelayFactor(1, 2, 3.0); // both directions, not 3 -> 1
    sim::spawn([](Network *net) -> sim::Task<void> {
        (void)co_await net->callTyped<int>(1, 2, echoHandler(1));
        (void)co_await net->callTyped<int>(1, 2, echoHandler(1));
    }(&net));
    net.send(3, 1, [] {});
    s.run();
    const common::Histogram *to =
        net.stats().findHistogram("net.link.1-2.delay");
    const common::Histogram *back =
        net.stats().findHistogram("net.link.2-1.delay");
    const common::Histogram *send =
        net.stats().findHistogram("net.link.3-1.delay");
    ASSERT_NE(to, nullptr);
    ASSERT_NE(back, nullptr);
    ASSERT_NE(send, nullptr);
    EXPECT_EQ(to->count(), 2u);
    EXPECT_EQ(back->count(), 2u);
    EXPECT_EQ(send->count(), 1u);
    EXPECT_EQ(to->max(), 150 * kMicrosecond);
    EXPECT_EQ(back->max(), 150 * kMicrosecond);
    EXPECT_EQ(send->max(), 50 * kMicrosecond);
    // No message crossed 1 -> 3, so it has no histogram.
    EXPECT_EQ(net.stats().findHistogram("net.link.1-3.delay"), nullptr);
}
