/**
 * @file
 * Simulated intra-data-center network.
 *
 * The experiments run on a single simulated process, so "RPC" is a
 * direct coroutine call wrapped in sampled message delays plus fault
 * checks. The model captures what the paper's results depend on:
 *
 *  - one-way latency magnitude (tens of microseconds VM-to-VM, i.e.
 *    commensurate with flash access times — the regime the paper
 *    targets);
 *  - round-trip counting: MILANA's local validation wins exactly two
 *    round trips (client->primary and primary->backups), so the
 *    latency model must charge each leg;
 *  - fault injection: nodes can crash (no reply, requests dropped) and
 *    links can be partitioned, which drives the recovery tests.
 *
 * Crash semantics: a request to a crashed node is never executed; if a
 * node crashes mid-handler the handler's local effects persist (its
 * storage survives) but the response is dropped — the classic
 * ambiguity distributed commit protocols must tolerate.
 */

#ifndef NET_NETWORK_HH
#define NET_NETWORK_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/robin_table.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "sim/future.hh"
#include "sim/task.hh"

namespace net {

using common::Duration;
using common::NodeId;

/**
 * Pseudo node id for the network's own trace spans (`net.rpc`).
 * Real storage nodes are < 100 and clients are >= 1000, so 999 cannot
 * collide with either.
 */
inline constexpr NodeId kNetworkNode = 999;

/**
 * Metadata every simulated message carries, mirroring what a real
 * transport would put on the wire. The TraceContext is captured on the
 * sending node and restored on the receiving node, which is what links
 * a server-side handler's spans to the client transaction that issued
 * the RPC.
 */
struct MessageHeader
{
    common::TraceContext trace;
};

struct NetConfig
{
    /** Mean one-way message latency. */
    Duration oneWayMean = 50 * common::kMicrosecond;
    /** Std-dev of the one-way latency. */
    Duration oneWaySigma = 10 * common::kMicrosecond;
    /** Hard lower bound on any message delay. */
    Duration minLatency = 5 * common::kMicrosecond;
    /** Caller-side RPC timeout. */
    Duration rpcTimeout = 25 * common::kMillisecond;
};

class Network
{
  public:
    Network(sim::Simulator &sim, const NetConfig &config, common::Rng rng);

    const NetConfig &config() const { return config_; }
    sim::Simulator &simulator() { return sim_; }

    /** Sample one message delay. */
    Duration sampleDelay();

    /** Crash / restart a node. */
    void setNodeDown(NodeId node, bool down);
    bool nodeDown(NodeId node) const;

    /** Cut / heal the (bidirectional) link between two nodes. */
    void setLinkBroken(NodeId a, NodeId b, bool broken);

    /** Cut / heal one direction only (asymmetric partition). */
    void setLinkBrokenOneWay(NodeId from, NodeId to, bool broken);

    /** True if a message from @p from can currently reach @p to. */
    bool deliverable(NodeId from, NodeId to) const;

    /** Delay spike on every link (>= 0; sampled delays are multiplied
     *  and re-floored at minLatency, with no extra RNG draw). */
    void setDelayFactor(double factor);
    /** Per-link delay factor, both directions (1.0 = clear). */
    void setLinkDelayFactor(NodeId a, NodeId b, double factor);
    double delayFactor(NodeId from, NodeId to) const;

    common::StatSet &stats() { return stats_; }

    /** The network's own Tracer (spans emitted as node kNetworkNode). */
    common::Tracer &tracer() { return tracer_; }

    /**
     * Invoke a handler coroutine on node @p to on behalf of node
     * @p from, modelling request delay, execution, and response delay.
     *
     * The handler is passed as an *unstarted* sim::Task (tasks are
     * lazy): build it at the call site — e.g.
     * `net.callTyped<GetResponse>(me, srv, server->handleGet(req))` —
     * and its body only runs if/when the request arrives. Request
     * arguments are copied into the handler's own frame at creation,
     * so nothing dangles across the delays.
     *
     * Returns nullopt if the request or response is lost (crash or
     * partition) — after the configured RPC timeout, as a real caller
     * would observe.
     */
    template <typename Resp>
    sim::Task<std::optional<Resp>>
    callTyped(NodeId from, NodeId to, sim::Task<Resp> handler)
    {
        stats_.counter("net.calls").inc();
        // The RPC span inherits the caller's ambient context (the task
        // starts inline in the caller); the message header then
        // carries the context *including this span*, so handler-side
        // spans chain caller -> net.rpc -> handler.
        common::ScopedSpan rpc(tracer_, "net.rpc");
        rpc.setArg(from);
        rpc.setArg2(to);
        const MessageHeader header{common::currentTraceContext()};
        const std::optional<Duration> request = leg(from, to);
        if (!request.has_value()) {
            co_await sim::sleepFor(sim_, config_.rpcTimeout);
            stats_.counter("net.request_lost").inc();
            rpc.setTag("request_lost");
            co_return std::nullopt;
        }
        co_await sim::sleepFor(sim_, *request);
        // Re-check on arrival: the destination may have crashed while
        // the request was in flight (the unexecuted handler is
        // discarded, as a dropped packet would be).
        if (nodeDown(to)) {
            co_await sim::sleepFor(sim_, config_.rpcTimeout);
            stats_.counter("net.request_lost").inc();
            rpc.setTag("request_lost");
            co_return std::nullopt;
        }
        // "Receiving node": restore the header's context around the
        // handler, as a real server's RPC layer would.
        common::TraceContextScope deliverScope(header.trace);
        Resp resp = co_await std::move(handler);
        const std::optional<Duration> response = leg(to, from);
        if (!response.has_value()) {
            co_await sim::sleepFor(sim_, config_.rpcTimeout);
            stats_.counter("net.response_lost").inc();
            rpc.setTag("response_lost");
            co_return std::nullopt;
        }
        co_await sim::sleepFor(sim_, *response);
        co_return resp;
    }

    /** One-way message: runs @p deliver on arrival unless lost. */
    template <typename Deliver>
    void
    send(NodeId from, NodeId to, Deliver deliver)
    {
        stats_.counter("net.sends").inc();
        const std::optional<Duration> delay = leg(from, to);
        if (!delay.has_value())
            return;
        const MessageHeader header{common::currentTraceContext()};
        sim_.schedule(*delay,
                      [this, to, header, deliver = std::move(deliver)] {
                          if (nodeDown(to))
                              return;
                          common::TraceContextScope scope(header.trace);
                          deliver();
                      });
    }

  private:
    /** State of one directed link, created on first use. */
    struct Link
    {
        bool broken = false;
        /** A factor of 0 is legal, so "set" is its own flag. */
        bool factorSet = false;
        double factor = 1.0;
        /** `net.link.<from>-<to>.delay`, made on the first delivered
         *  message; StatSet map nodes are stable. */
        common::Histogram *delay = nullptr;
    };

    static std::uint64_t
    linkKey(NodeId from, NodeId to)
    {
        return (static_cast<std::uint64_t>(from) << 32) | to;
    }

    /** Sample the delay of one @p from -> @p to message and record
     *  it in the link's histogram, or nullopt when the leg drops the
     *  message. One probe of the link table. */
    std::optional<Duration> leg(NodeId from, NodeId to);

    sim::Simulator &sim_;
    NetConfig config_;
    common::Rng rng_;
    std::vector<bool> down_;
    double delayFactorAll_ = 1.0;
    common::RobinMap<std::uint64_t, Link> links_;
    common::StatSet stats_;
    common::Tracer tracer_;
};

} // namespace net

#endif // NET_NETWORK_HH
