/**
 * @file
 * Key -> shard -> replica-set mapping (paper section 3): "The client
 * library coordinates with a global master to map each key to a data
 * shard and to the shard's primary replica using standard techniques
 * (e.g., consistent hashing)."
 *
 * ShardMap implements a consistent-hash ring with virtual nodes over
 * the shards; the Master maintains the replica sets (first replica is
 * the primary) and performs failover by promoting a backup. Clients
 * hold a reference to the master's map — master lookups are cheap and
 * off the data path, as with a ZooKeeper-backed directory.
 */

#ifndef SEMEL_SHARD_MAP_HH
#define SEMEL_SHARD_MAP_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace semel {

using common::Key;
using common::NodeId;
using common::ShardId;

/** Consistent-hash ring: key -> shard. */
class ShardMap
{
  public:
    explicit ShardMap(std::uint32_t num_shards,
                      std::uint32_t virtual_nodes = 64);

    ShardId shardOf(Key key) const;
    std::uint32_t numShards() const { return numShards_; }

  private:
    std::uint32_t numShards_;
    /** (ring position, shard), sorted by position; one shard per point */
    std::vector<std::pair<std::uint64_t, ShardId>> ring_;
};

/** The global master: shard -> replica set (element 0 is primary). */
class Master
{
  public:
    explicit Master(const ShardMap &map) : map_(map) {}

    const ShardMap &shardMap() const { return map_; }

    void setReplicas(ShardId shard, std::vector<NodeId> replicas);

    NodeId primaryOf(ShardId shard) const;
    const std::vector<NodeId> &replicasOf(ShardId shard) const;

    /** Backups of a shard (replicas minus the primary). */
    std::vector<NodeId> backupsOf(ShardId shard) const;

    /**
     * Fail over: promote @p new_primary (must be a current replica) to
     * the head of the replica list.
     */
    void failover(ShardId shard, NodeId new_primary);

  private:
    const ShardMap &map_;
    std::map<ShardId, std::vector<NodeId>> replicas_;
};

} // namespace semel

#endif // SEMEL_SHARD_MAP_HH
