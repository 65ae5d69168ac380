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

Duration
Network::sampleDelay(NodeId from, NodeId to)
{
    Duration delay = sampleDelay();
    const double factor = delayFactor(from, to);
    if (factor != 1.0)
        delay = std::max(config_.minLatency,
                         static_cast<Duration>(std::llround(
                             static_cast<double>(delay) * factor)));
    auto it = linkDelay_.find({from, to});
    if (it == linkDelay_.end()) {
        const std::string name = "net.link." + std::to_string(from) +
                                 "-" + std::to_string(to) + ".delay";
        it = linkDelay_.emplace(std::make_pair(from, to),
                                &stats_.histogram(name))
                 .first;
    }
    it->second->record(delay);
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
    if (broken)
        brokenLinks_.insert({from, to});
    else
        brokenLinks_.erase({from, to});
}

bool
Network::deliverable(NodeId from, NodeId to) const
{
    if (nodeDown(from) || nodeDown(to))
        return false;
    return !brokenLinks_.count({from, to});
}

void
Network::setDelayFactor(double factor)
{
    delayFactorAll_ = factor;
}

void
Network::setLinkDelayFactor(NodeId a, NodeId b, double factor)
{
    if (factor == 1.0) {
        linkDelayFactor_.erase({a, b});
        linkDelayFactor_.erase({b, a});
        return;
    }
    linkDelayFactor_[{a, b}] = factor;
    linkDelayFactor_[{b, a}] = factor;
}

double
Network::delayFactor(NodeId from, NodeId to) const
{
    const auto it = linkDelayFactor_.find({from, to});
    return it != linkDelayFactor_.end() ? it->second : delayFactorAll_;
}

} // namespace net
