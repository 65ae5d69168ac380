/**
 * @file
 * Cluster builder: wires simulator, network, clocks, storage devices,
 * FTL backends, SEMEL/MILANA servers and clients into one runnable
 * topology — the simulated equivalent of the paper's ExoGENI testbed.
 *
 * Reproduces the paper's configurations:
 *  - section 5.2 first experiment: 1 node, zero skew, N clients,
 *    SFTL vs MFTL backends (Figure 6);
 *  - 3 storage + 5 client VMs, 20 Retwis instances, PTP vs NTP
 *    (Figure 7);
 *  - 3 shards x 3 replicas, 75% read-only Retwis, local validation
 *    on/off (Figure 8);
 *  - 3 shards unreplicated with Centiman validators (Figure 9).
 */

#ifndef WORKLOAD_CLUSTER_HH
#define WORKLOAD_CLUSTER_HH

#include <memory>
#include <string>
#include <vector>

#include "clocksync/sync.hh"
#include "common/chaos.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "flash/ssd.hh"
#include "ftl/dram.hh"
#include "ftl/mftl.hh"
#include "ftl/sftl.hh"
#include "ftl/vftl.hh"
#include "milana/centiman.hh"
#include "milana/client.hh"
#include "milana/server.hh"
#include "net/network.hh"
#include "semel/shard_map.hh"
#include "sim/simulator.hh"

namespace workload {

/** Storage backend flavours the paper evaluates. */
enum class BackendKind
{
    Dram,
    Mftl,
    Vftl,
    /** SFTL used directly as a single-version KV store (Figure 6). */
    SingleVersion,
};

const char *backendName(BackendKind kind);

/** Clock disciplines selectable per experiment. */
enum class ClockKind
{
    Perfect, ///< zero skew (single-machine experiments)
    PtpHw,
    PtpSw, ///< the paper's PTP configuration
    Ntp,
    Dtp,
};

const char *clockName(ClockKind kind);

struct ClusterConfig
{
    std::uint32_t numShards = 3;
    std::uint32_t replicasPerShard = 3;
    std::uint32_t numClients = 20;
    BackendKind backend = BackendKind::Mftl;
    ClockKind clocks = ClockKind::PtpSw;
    std::uint64_t numKeys = 50'000;
    std::uint64_t seed = 1;
    bool localValidation = true;
    bool centiman = false;
    std::uint32_t centimanDisseminateEvery = 1000;
    /** Device sizing: live data / usable capacity. */
    double deviceUtilization = 0.35;
    net::NetConfig net;
    /** Tuple footprint on flash (paper: 512 B). */
    std::uint32_t recordSize = 512;
    /** Flash channels per storage-server SSD (the shared single-SSD
     *  experiments use the Geometry default of 32; cluster VMs get a
     *  smaller slice, as in the paper's per-VM emulated devices). */
    std::uint32_t deviceChannels = 8;
    /**
     * When non-null, every component (clients, servers, devices, sync
     * agents) emits trace events into this log, stamped with TrueTime
     * and the emitting node's LocalTime. Null = tracing off (no cost
     * beyond one branch per site).
     */
    common::TraceLog *trace = nullptr;
    /**
     * When non-null, the cluster samples every component StatSet plus
     * a set of instantaneous gauges (clock offsets, pairwise skew,
     * SSD queue occupancy) into this registry's TimeSeriesLog on the
     * registry's interval, aligned to interval boundaries of simulated
     * time. Null = metrics off, zero cost.
     */
    common::MetricsRegistry *metrics = nullptr;
    /**
     * When non-null, the cluster acts as the engine's ChaosSink: the
     * run façade (runUntil/runFor) interleaves simulation with
     * ChaosEngine::applyUntil at quiescent points, so every fault
     * mutation lands between events, at its scheduled instant. The
     * engine is also handed to every server and client (abort-reason
     * classification, fault-name trace tags) and its forked RNG
     * streams to every SSD (construction order). Arm it with
     * ChaosEngine::arm(cluster.now()) when the measured phase begins.
     */
    common::ChaosEngine *chaos = nullptr;
};

class Cluster : private common::ChaosSink
{
  public:
    explicit Cluster(const ClusterConfig &config);
    ~Cluster();

    /** The scenario's simulator. */
    sim::Simulator &sim() { return sim_; }
    const ClusterConfig &config() const { return config_; }

    // Run façade: the simulator's own calls, with the chaos schedule
    // (if any) interleaved at quiescent points.
    common::Time now() const { return sim_.now(); }
    std::uint64_t runUntil(common::Time t);
    std::uint64_t runFor(common::Duration d,
                         common::Duration grace = common::kSecond);
    void requestStop() { sim_.requestStop(); }

    /** No-op: components append to config().trace directly, so the
     *  log is complete as soon as the run returns. */
    void finishTrace() {}

    /**
     * Events evicted before an attached trace observer could see them.
     * Always 0: the observer runs on every append, before eviction.
     */
    std::uint64_t traceEventsLost() const { return 0; }

    /**
     * Finish the metrics plane: flush the final partial window into
     * config().metrics. Call after the run, before exporting;
     * idempotent. No-op when config().metrics is null.
     */
    void finishMetrics();

    /** Bulk-load the key space into every replica. Run to completion
     *  before starting the workload. */
    void populate();

    /** Start servers (leases, CTP, GC) and client watermark loops. */
    void start();

    std::uint32_t numClients() const { return config_.numClients; }
    milana::MilanaClient &client(std::uint32_t i) { return *clients_[i]; }

    milana::MilanaServer &primary(common::ShardId shard);
    milana::MilanaServer &server(std::size_t index) { return *servers_[index]; }
    std::size_t numServers() const { return servers_.size(); }

    semel::Master &master() { return master_; }
    semel::Directory &directory() { return directory_; }
    net::Network &network() { return net_; }

    /** Aggregate of all client stat sets. */
    common::StatSet clientStats() const;
    /** Aggregate of all server stat sets. */
    common::StatSet serverStats() const;
    /** Clock-sync exchange stats (empty without an ensemble). */
    common::StatSet clockStats() const;
    /** Reset all client/server counters (end of warm-up). */
    void resetStats();

    /** Average pairwise client clock skew observed (ns), if an
     *  ensemble is running. */
    double avgClientSkew() const;

    /** Crash a storage node (requests to it are dropped). */
    void crashServer(common::NodeId node);

    /**
     * Fail over a shard to the given replica: repoints the master and
     * runs the recovery protocol on the new primary.
     */
    sim::Task<void> failover(common::ShardId shard,
                             common::NodeId new_primary);

  private:
    /**
     * ChaosSink: perform one fault mutation (start or heal). Called by
     * the chaos engine from runUntil()'s quiescent points only.
     * Resolves symbolic node selectors against the *current* topology
     * (so `primary:0` tracks failovers).
     */
    void applyFault(const common::FaultSpec &fault, bool start) override;
    /** Expand a symbolic selector to concrete node ids. */
    std::vector<common::NodeId> resolveSel(const common::NodeSel &sel) const;
    /** Clock indices (ensemble slots) a selector names; empty without
     *  an ensemble (Perfect clocks — clock faults are no-ops). */
    std::vector<std::size_t> resolveClockSel(const common::NodeSel &sel) const;
    void buildStorageNode(common::ShardId shard, std::uint32_t replica);
    /** Arm every component's Tracer on config_.trace. */
    void attachTracers();

    /** Register every component's StatSet and gauges with
     *  config_.metrics. */
    void attachMetrics();
    /** Prime delta baselines and schedule the periodic sampler
     *  (start() time, so population is not in the first window). */
    void startMetricsSampler();

    ClusterConfig config_;
    sim::Simulator sim_;
    common::Rng rng_;
    bool metricsFinished_ = false;
    net::Network net_;
    semel::ShardMap shardMap_;
    semel::Master master_;
    semel::Directory directory_;

    // Storage stack, one entry per server node.
    std::vector<std::unique_ptr<flash::SsdDevice>> devices_;
    std::vector<std::unique_ptr<ftl::Sftl>> sftls_;
    std::vector<std::unique_ptr<ftl::KvBackend>> backends_;
    std::vector<std::unique_ptr<clocksync::PerfectClock>> serverClocks_;
    std::vector<std::unique_ptr<milana::MilanaServer>> servers_;

    // Client clocks: either an ensemble or perfect clocks.
    std::unique_ptr<clocksync::ClockEnsemble> ensemble_;
    std::vector<std::unique_ptr<clocksync::PerfectClock>> perfectClocks_;
    milana::CentimanSystem centimanSystem_;
    std::vector<std::unique_ptr<milana::MilanaClient>> clients_;
};

} // namespace workload

#endif // WORKLOAD_CLUSTER_HH
