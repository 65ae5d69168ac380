#include "semel/shard_map.hh"

#include <algorithm>

#include "common/logging.hh"

namespace semel {

namespace {

std::uint64_t
hash64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

} // namespace

ShardMap::ShardMap(std::uint32_t num_shards, std::uint32_t virtual_nodes)
    : numShards_(num_shards)
{
    if (num_shards == 0)
        FATAL("ShardMap needs at least one shard");
    ring_.reserve(static_cast<std::size_t>(num_shards) * virtual_nodes);
    for (ShardId s = 0; s < num_shards; ++s) {
        for (std::uint32_t v = 0; v < virtual_nodes; ++v) {
            const std::uint64_t point =
                hash64((static_cast<std::uint64_t>(s) << 32) | v);
            ring_.emplace_back(point, s);
        }
    }
    // On a colliding point the later (larger) shard wins: sort it
    // first among equal points, then keep the first of each point.
    std::sort(ring_.begin(), ring_.end(), [](const auto &a, const auto &b) {
        return a.first != b.first ? a.first < b.first : a.second > b.second;
    });
    ring_.erase(std::unique(ring_.begin(), ring_.end(),
                            [](const auto &a, const auto &b) {
                                return a.first == b.first;
                            }),
                ring_.end());
}

ShardId
ShardMap::shardOf(Key key) const
{
    const std::uint64_t point = hash64(key);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), point,
        [](const auto &entry, std::uint64_t p) { return entry.first < p; });
    if (it == ring_.end())
        it = ring_.begin(); // wrap around the ring
    return it->second;
}

void
Master::setReplicas(ShardId shard, std::vector<NodeId> replicas)
{
    if (replicas.empty())
        FATAL("shard " << shard << " needs at least one replica");
    replicas_[shard] = std::move(replicas);
}

NodeId
Master::primaryOf(ShardId shard) const
{
    return replicasOf(shard).front();
}

const std::vector<NodeId> &
Master::replicasOf(ShardId shard) const
{
    auto it = replicas_.find(shard);
    if (it == replicas_.end())
        PANIC("no replicas registered for shard " << shard);
    return it->second;
}

std::vector<NodeId>
Master::backupsOf(ShardId shard) const
{
    const auto &all = replicasOf(shard);
    return std::vector<NodeId>(all.begin() + 1, all.end());
}

void
Master::failover(ShardId shard, NodeId new_primary)
{
    auto it = replicas_.find(shard);
    if (it == replicas_.end())
        PANIC("failover of unknown shard " << shard);
    auto &reps = it->second;
    auto pos = std::find(reps.begin(), reps.end(), new_primary);
    if (pos == reps.end())
        PANIC("failover target " << new_primary
                                 << " is not a replica of shard "
                                 << shard);
    reps.erase(pos);
    reps.insert(reps.begin(), new_primary);
}

} // namespace semel
