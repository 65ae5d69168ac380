#include "net/network.hh"

#include <algorithm>
#include <cmath>

namespace net {

Network::Network(sim::Simulator &sim, const NetConfig &config,
                 common::Rng rng)
    : sim_(sim), config_(config), rng_(rng)
{
}

Duration
Network::sampleDelay()
{
    const double d = rng_.nextGaussian(
        static_cast<double>(config_.oneWayMean),
        static_cast<double>(config_.oneWaySigma));
    return std::max(config_.minLatency,
                    static_cast<Duration>(std::llround(d)));
}

std::optional<Duration>
Network::leg(NodeId from, NodeId to)
{
    if (nodeDown(from) || nodeDown(to))
        return std::nullopt;
    Link &link = links_[linkKey(from, to)];
    if (link.broken)
        return std::nullopt;
    Duration delay = sampleDelay();
    const double factor = link.factorSet ? link.factor : delayFactorAll_;
    if (factor != 1.0)
        delay = std::max(config_.minLatency,
                         static_cast<Duration>(std::llround(
                             static_cast<double>(delay) * factor)));
    if (link.delay == nullptr)
        link.delay = &stats_.histogram("net.link." + std::to_string(from) +
                                       "-" + std::to_string(to) + ".delay");
    link.delay->record(delay);
    return delay;
}

void
Network::setNodeDown(NodeId node, bool down)
{
    if (down_.size() <= node)
        down_.resize(node + 1, false);
    down_[node] = down;
}

bool
Network::nodeDown(NodeId node) const
{
    return node < down_.size() && down_[node];
}

void
Network::setLinkBroken(NodeId a, NodeId b, bool broken)
{
    setLinkBrokenOneWay(a, b, broken);
    setLinkBrokenOneWay(b, a, broken);
}

void
Network::setLinkBrokenOneWay(NodeId from, NodeId to, bool broken)
{
    links_[linkKey(from, to)].broken = broken;
}

bool
Network::deliverable(NodeId from, NodeId to) const
{
    if (nodeDown(from) || nodeDown(to))
        return false;
    const Link *link = links_.find(linkKey(from, to));
    return link == nullptr || !link->broken;
}

void
Network::setDelayFactor(double factor)
{
    delayFactorAll_ = factor;
}

void
Network::setLinkDelayFactor(NodeId a, NodeId b, double factor)
{
    // 1.0 clears the link's own factor: it follows the global one.
    for (const std::uint64_t key : {linkKey(a, b), linkKey(b, a)}) {
        Link &link = links_[key];
        link.factorSet = factor != 1.0;
        link.factor = factor;
    }
}

double
Network::delayFactor(NodeId from, NodeId to) const
{
    const Link *link = links_.find(linkKey(from, to));
    return link != nullptr && link->factorSet ? link->factor
                                              : delayFactorAll_;
}

} // namespace net
