#include "workload/cluster.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/future.hh"

namespace workload {

using common::kMicrosecond;

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Dram: return "DRAM";
      case BackendKind::Mftl: return "MFTL";
      case BackendKind::Vftl: return "VFTL";
      case BackendKind::SingleVersion: return "SFTL";
    }
    return "?";
}

const char *
clockName(ClockKind kind)
{
    switch (kind) {
      case ClockKind::Perfect: return "perfect";
      case ClockKind::PtpHw: return "PTP-hw";
      case ClockKind::PtpSw: return "PTP";
      case ClockKind::Ntp: return "NTP";
      case ClockKind::Dtp: return "DTP";
    }
    return "?";
}

namespace {

clocksync::SyncConfig
syncConfigFor(ClockKind kind)
{
    switch (kind) {
      case ClockKind::PtpHw: return clocksync::SyncConfig::ptpHardware();
      case ClockKind::PtpSw: return clocksync::SyncConfig::ptpSoftware();
      case ClockKind::Ntp: return clocksync::SyncConfig::ntp();
      case ClockKind::Dtp: return clocksync::SyncConfig::dtp();
      case ClockKind::Perfect: return clocksync::SyncConfig::perfect();
    }
    return clocksync::SyncConfig::perfect();
}

/**
 * Self-rescheduling sampler event: fires at every interval boundary
 * of simulated time and samples the window that just ended. 16 bytes
 * — lives in the Callback's inline storage, so the steady-state
 * sampling path allocates nothing.
 */
struct MetricsTick
{
    sim::Simulator *sim;
    common::MetricsRegistry *reg;

    void
    operator()() const
    {
        const common::Duration interval = reg->interval();
        const common::Time t = sim->now();
        reg->sample(std::max<common::Time>(t - interval, 0), t);
        // Keep sampling through the run; wind down once stop is
        // requested (the end-of-run flush covers the tail).
        if (!sim->stopRequested())
            sim->schedule(interval, MetricsTick{*this});
    }
};

void
scheduleFirstMetricsTick(sim::Simulator &sim,
                         common::MetricsRegistry *reg)
{
    const common::Duration interval = reg->interval();
    // First fire at the next interval boundary (a full interval away
    // when already aligned), so every window start is a multiple of
    // the interval.
    const common::Duration delay = interval - sim.now() % interval;
    sim.schedule(delay, MetricsTick{&sim, reg});
}

/** Flush the final (possibly partial) window [last boundary, end). */
void
flushRegistry(common::MetricsRegistry &reg, common::Time end)
{
    const common::Duration interval = reg.interval();
    common::Time ws = end / interval * interval;
    if (ws == end)
        ws = end - interval; // exactly on a boundary: one full window
    reg.sample(std::max<common::Time>(ws, 0), end);
}

} // namespace

Cluster::Cluster(const ClusterConfig &config)
    : config_(config),
      rng_(config.seed),
      net_(sim_, config_.net, rng_.fork()),
      shardMap_(config.numShards),
      master_(shardMap_)
{
    // Storage nodes: node id = shard * replicas + replica.
    for (common::ShardId shard = 0; shard < config_.numShards; ++shard) {
        std::vector<common::NodeId> replicas;
        for (std::uint32_t r = 0; r < config_.replicasPerShard; ++r) {
            buildStorageNode(shard, r);
            replicas.push_back(servers_.back()->nodeId());
        }
        master_.setReplicas(shard, replicas);
    }
    // Wire primaries to their backups.
    for (common::ShardId shard = 0; shard < config_.numShards; ++shard) {
        auto &primary_server = primary(shard);
        std::vector<semel::Server *> backups;
        for (common::NodeId node : master_.backupsOf(shard))
            backups.push_back(directory_.at(node));
        primary_server.setBackups(std::move(backups));
    }

    // Client clocks.
    if (config_.clocks != ClockKind::Perfect) {
        ensemble_ = std::make_unique<clocksync::ClockEnsemble>(
            sim_, config_.numClients, syncConfigFor(config_.clocks),
            rng_);
    }

    centimanSystem_ =
        milana::CentimanSystem(config_.centimanDisseminateEvery);

    semel::Client::Config client_config;
    milana::MilanaClient::TxnConfig txn_config;
    txn_config.localValidation = config_.localValidation;
    for (std::uint32_t i = 0; i < config_.numClients; ++i) {
        const common::NodeId node = 1000 + i;
        clocksync::Clock *clock = nullptr;
        if (ensemble_ != nullptr) {
            clock = &ensemble_->clock(i);
        } else {
            perfectClocks_.push_back(
                std::make_unique<clocksync::PerfectClock>(sim_));
            clock = perfectClocks_.back().get();
        }
        if (config_.centiman) {
            clients_.push_back(std::make_unique<milana::CentimanClient>(
                sim_, net_, node, i + 1, *clock, master_, directory_,
                client_config, txn_config, centimanSystem_));
        } else {
            clients_.push_back(std::make_unique<milana::MilanaClient>(
                sim_, net_, node, i + 1, *clock, master_, directory_,
                client_config, txn_config));
        }
    }

    // Chaos wiring: servers classify clock-suspect aborts, clients
    // classify fault-window timeouts and tag txn traces, devices get
    // dedicated fault-randomness streams (forked in construction
    // order — part of the determinism contract).
    if (config_.chaos != nullptr) {
        for (auto &server : servers_)
            server->setChaos(config_.chaos);
        for (auto &client : clients_)
            client->setChaos(config_.chaos);
        for (auto &device : devices_)
            if (device != nullptr)
                device->setFaultRng(config_.chaos->forkRng());
    }

    if (config_.trace != nullptr)
        attachTracers();
    if (config_.metrics != nullptr)
        attachMetrics();
}

std::uint64_t
Cluster::runUntil(common::Time t)
{
    common::ChaosEngine *chaos = config_.chaos;
    if (chaos == nullptr)
        return sim_.runUntil(t);
    // Interleave simulation with the fault schedule: stop at each
    // pending action time, mutate while quiescent, resume.
    std::uint64_t events = 0;
    for (common::Time next = chaos->nextActionAt();
         next >= 0 && next <= t; next = chaos->nextActionAt()) {
        if (next > now())
            events += sim_.runUntil(next);
        chaos->applyUntil(now(), *this);
    }
    events += sim_.runUntil(t);
    return events;
}

std::uint64_t
Cluster::runFor(common::Duration d, common::Duration grace)
{
    // Mirrors Simulator::runFor, with the chaos interleave in the
    // measured span; the wind-down grace runs fault-schedule-free.
    std::uint64_t n = runUntil(now() + d);
    requestStop();
    n += sim_.runUntil(now() + grace);
    return n;
}

void
Cluster::attachTracers()
{
    common::TraceLog &log = *config_.trace;
    const auto true_now = [this] { return sim_.now(); };
    // The network has no drifted clock of its own; its net.rpc spans
    // carry TrueTime in both stamps.
    net_.tracer().attach(log, net::kNetworkNode, true_now, true_now);
    if (config_.chaos != nullptr) {
        // Inject/heal instants are appended only at quiescent points,
        // from the harness.
        config_.chaos->tracer().attach(log, net::kNetworkNode, true_now,
                                       true_now);
    }

    for (std::size_t i = 0; i < servers_.size(); ++i) {
        milana::MilanaServer *server = servers_[i].get();
        clocksync::Clock *clock = serverClocks_[i].get();
        const auto local_now = [clock] { return clock->localNow(); };
        server->tracer().attach(log, server->nodeId(), true_now,
                                local_now);
        if (devices_[i] != nullptr)
            devices_[i]->tracer().attach(log, server->nodeId(), true_now,
                                         local_now);
    }
    for (std::uint32_t i = 0; i < config_.numClients; ++i) {
        milana::MilanaClient *client = clients_[i].get();
        clocksync::Clock *clock = &client->clock();
        const auto local_now = [clock] { return clock->localNow(); };
        client->tracer().attach(log, client->nodeId(), true_now,
                                local_now);
        if (ensemble_ != nullptr)
            ensemble_->agent(i).tracer().attach(log, client->nodeId(),
                                                true_now, local_now);
    }
}

void
Cluster::attachMetrics()
{
    common::MetricsRegistry &m = *config_.metrics;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
        const common::NodeId node = servers_[i]->nodeId();
        m.addStatSet("server.", node, servers_[i]->stats());
        if (devices_[i] != nullptr) {
            flash::SsdDevice *dev = devices_[i].get();
            m.addStatSet("flash.", node, dev->stats());
            m.addGauge("flash.ssd.inflight", node, [dev] {
                return static_cast<double>(dev->inflightOps());
            });
            m.addGauge("flash.ssd.queued", node, [dev] {
                return static_cast<double>(dev->queuedOps());
            });
            m.addGauge("flash.ssd.busy_channels", node, [dev] {
                return static_cast<double>(dev->busyChannels());
            });
        }
    }

    for (std::uint32_t i = 0; i < config_.numClients; ++i) {
        milana::MilanaClient *client = clients_[i].get();
        m.addStatSet("client.", client->nodeId(), client->stats());
        clocksync::Clock *clock = &client->clock();
        m.addGauge("clocksync.offset_ns", client->nodeId(), [clock] {
            return static_cast<double>(clock->currentOffset());
        });
    }

    if (ensemble_ != nullptr) {
        // Attributed to the network pseudo-node: the skew is a
        // property of the whole ensemble, not of one client.
        clocksync::ClockEnsemble *ens = ensemble_.get();
        m.addStatSet("clocksync.", net::kNetworkNode, ensemble_->stats());
        m.addGauge("clocksync.max_pairwise_skew_ns", net::kNetworkNode,
                   [ens] {
                       return static_cast<double>(
                           ens->instantaneousMaxPairwiseSkew());
                   });
    }

    if (config_.chaos != nullptr) {
        // Chaos bookkeeping rides the network pseudo-node: faults are
        // cluster-wide events, not any one node's. The gauge is a pure
        // read (the engine mutates only between run calls).
        common::ChaosEngine *chaos = config_.chaos;
        m.addStatSet("chaos.", net::kNetworkNode, chaos->stats());
        m.addGauge("chaos.active_faults", net::kNetworkNode, [chaos] {
            return static_cast<double>(chaos->activeCount());
        });
    }
}

void
Cluster::startMetricsSampler()
{
    config_.metrics->prime();
    scheduleFirstMetricsTick(sim_, config_.metrics);
}

void
Cluster::finishMetrics()
{
    if (config_.metrics == nullptr || metricsFinished_)
        return;
    metricsFinished_ = true;
    flushRegistry(*config_.metrics, now());
}

Cluster::~Cluster() = default;

void
Cluster::buildStorageNode(common::ShardId shard, std::uint32_t replica)
{
    const common::NodeId node = shard * config_.replicasPerShard + replica;

    // Size the device for this shard's share of the key space (with
    // margin for hash imbalance), at the configured utilization.
    const std::uint64_t shard_keys =
        config_.numKeys / config_.numShards + config_.numKeys / 10 + 64;
    const std::uint64_t shard_bytes =
        shard_keys * config_.recordSize;

    ftl::KvBackend *backend = nullptr;
    switch (config_.backend) {
      case BackendKind::Dram: {
        devices_.push_back(nullptr);
        sftls_.push_back(nullptr);
        ftl::DramBackend::Config cfg;
        cfg.expectedKeys = shard_keys;
        auto dram = std::make_unique<ftl::DramBackend>(sim_, cfg);
        backend = dram.get();
        backends_.push_back(std::move(dram));
        break;
      }
      case BackendKind::Mftl: {
        auto geo = flash::Geometry::scaledFor(shard_bytes,
                                              config_.deviceUtilization);
        geo.numChannels = config_.deviceChannels;
        devices_.push_back(
            std::make_unique<flash::SsdDevice>(sim_, geo));
        sftls_.push_back(nullptr);
        ftl::Mftl::Config cfg;
        cfg.recordSize = config_.recordSize;
        cfg.expectedKeys = shard_keys;
        auto mftl = std::make_unique<ftl::Mftl>(sim_, *devices_.back(),
                                                cfg);
        backend = mftl.get();
        backends_.push_back(std::move(mftl));
        break;
      }
      case BackendKind::Vftl: {
        auto geo = flash::Geometry::scaledFor(shard_bytes,
                                              config_.deviceUtilization);
        geo.numChannels = config_.deviceChannels;
        devices_.push_back(
            std::make_unique<flash::SsdDevice>(sim_, geo));
        sftls_.push_back(std::make_unique<ftl::Sftl>(
            sim_, *devices_.back(), ftl::Sftl::Config{}));
        ftl::Vftl::Config cfg;
        cfg.recordSize = config_.recordSize;
        cfg.expectedKeys = shard_keys;
        auto vftl = std::make_unique<ftl::Vftl>(sim_, *sftls_.back(),
                                                cfg);
        backend = vftl.get();
        backends_.push_back(std::move(vftl));
        break;
      }
      case BackendKind::SingleVersion: {
        // Slot mapping covers the whole key range.
        auto geo = flash::Geometry::scaledFor(
            config_.numKeys * config_.recordSize, 0.5);
        geo.numChannels = config_.deviceChannels;
        devices_.push_back(
            std::make_unique<flash::SsdDevice>(sim_, geo));
        sftls_.push_back(std::make_unique<ftl::Sftl>(
            sim_, *devices_.back(), ftl::Sftl::Config{}));
        ftl::SingleVersionKv::Config cfg;
        cfg.recordSize = config_.recordSize;
        cfg.capacityKeys = config_.numKeys;
        auto kv = std::make_unique<ftl::SingleVersionKv>(
            sim_, *sftls_.back(), cfg);
        backend = kv.get();
        backends_.push_back(std::move(kv));
        break;
      }
    }

    serverClocks_.push_back(
        std::make_unique<clocksync::PerfectClock>(sim_));

    semel::Server::Config server_config;
    server_config.backupAcksNeeded =
        config_.replicasPerShard > 1
            ? (config_.replicasPerShard - 1) / 2
            : 0;
    if (config_.replicasPerShard > 1 &&
        server_config.backupAcksNeeded == 0)
        server_config.backupAcksNeeded = 1; // 2 replicas: wait the one
    server_config.expectedClients = config_.numClients;

    milana::MilanaServer::MilanaConfig milana_config;
    milana_config.enableLeases = config_.replicasPerShard > 1;

    servers_.push_back(std::make_unique<milana::MilanaServer>(
        sim_, net_, node, shard, *backend, *serverClocks_.back(),
        server_config, milana_config, master_, directory_));
    directory_.add(servers_.back().get());
}

milana::MilanaServer &
Cluster::primary(common::ShardId shard)
{
    auto *server = dynamic_cast<milana::MilanaServer *>(
        directory_.at(master_.primaryOf(shard)));
    if (server == nullptr)
        PANIC("shard " << shard << " has no primary");
    return *server;
}

void
Cluster::populate()
{
    // Pre-size every server's per-key DRAM state (and its backend's
    // mapping table) for this shard's share of the key space, so the
    // bulk load below performs zero rehashes.
    const std::uint64_t shard_keys =
        config_.numKeys / config_.numShards + config_.numKeys / 10 + 64;
    for (auto &server : servers_)
        server->reserveKeys(shard_keys);

    const std::uint32_t workers = 64;
    auto remaining = std::make_shared<std::uint32_t>(workers);
    for (std::uint32_t w = 0; w < workers; ++w) {
        sim::spawn([](Cluster *self, std::uint32_t worker,
                      std::uint32_t stride,
                      std::shared_ptr<std::uint32_t> remaining)
                       -> sim::Task<void> {
            const common::Version load_version{1, 0};
            for (common::Key key = worker; key < self->config_.numKeys;
                 key += stride) {
                const auto shard =
                    self->master_.shardMap().shardOf(key);
                for (common::NodeId node :
                     self->master_.replicasOf(shard)) {
                    auto *server = dynamic_cast<milana::MilanaServer *>(
                        self->directory_.at(node));
                    co_await server->loadKey(key, "init", load_version);
                }
            }
            --*remaining;
        }(this, w, workers, remaining));
    }
    sim_.run();
    if (*remaining != 0)
        PANIC("population did not finish");
}

void
Cluster::start()
{
    for (auto &backend : backends_) {
        if (auto *mftl = dynamic_cast<ftl::Mftl *>(backend.get()))
            mftl->start();
        else if (auto *vftl = dynamic_cast<ftl::Vftl *>(backend.get()))
            vftl->start();
    }
    for (auto &server : servers_)
        server->start();
    if (ensemble_ != nullptr)
        ensemble_->start();
    for (auto &client : clients_)
        client->start();
    if (config_.metrics != nullptr)
        startMetricsSampler();
}

common::StatSet
Cluster::clientStats() const
{
    common::StatSet merged;
    for (const auto &client : clients_)
        merged.merge(client->stats());
    return merged;
}

common::StatSet
Cluster::serverStats() const
{
    common::StatSet merged;
    for (const auto &server : servers_)
        merged.merge(server->stats());
    return merged;
}

common::StatSet
Cluster::clockStats() const
{
    common::StatSet merged;
    if (ensemble_ != nullptr)
        merged.merge(ensemble_->stats());
    return merged;
}

void
Cluster::resetStats()
{
    for (auto &client : clients_)
        client->stats().reset();
    for (auto &server : servers_)
        server->stats().reset();
}

double
Cluster::avgClientSkew() const
{
    return ensemble_ == nullptr ? 0.0 : ensemble_->avgPairwiseSkew();
}

void
Cluster::crashServer(common::NodeId node)
{
    net_.setNodeDown(node, true);
}

std::vector<common::NodeId>
Cluster::resolveSel(const common::NodeSel &sel) const
{
    using Kind = common::NodeSel::Kind;
    std::vector<common::NodeId> nodes;
    switch (sel.kind) {
      case Kind::None:
        break;
      case Kind::Node:
        nodes.push_back(static_cast<common::NodeId>(sel.index));
        break;
      case Kind::Primary:
        nodes.push_back(master_.primaryOf(
            static_cast<common::ShardId>(sel.index)));
        break;
      case Kind::Backup: {
        const auto backups = master_.backupsOf(
            static_cast<common::ShardId>(sel.index));
        if (backups.empty())
            break;
        const auto r = std::min<std::size_t>(
            static_cast<std::size_t>(std::max<std::int64_t>(sel.sub, 0)),
            backups.size() - 1);
        nodes.push_back(backups[r]);
        break;
      }
      case Kind::Client:
        nodes.push_back(static_cast<common::NodeId>(1000 + sel.index));
        break;
      case Kind::AllClients:
        for (std::uint32_t i = 0; i < config_.numClients; ++i)
            nodes.push_back(1000 + i);
        break;
      case Kind::AllServers:
        for (const auto &server : servers_)
            nodes.push_back(server->nodeId());
        break;
      case Kind::All:
        for (const auto &server : servers_)
            nodes.push_back(server->nodeId());
        for (std::uint32_t i = 0; i < config_.numClients; ++i)
            nodes.push_back(1000 + i);
        break;
    }
    return nodes;
}

std::vector<std::size_t>
Cluster::resolveClockSel(const common::NodeSel &sel) const
{
    using Kind = common::NodeSel::Kind;
    std::vector<std::size_t> clocks;
    if (ensemble_ == nullptr)
        return clocks; // Perfect clocks: clock faults are no-ops
    switch (sel.kind) {
      case Kind::Node:   // `clock:N` parses as a raw index
      case Kind::Client: // `client:N` is the same slot
        if (sel.index >= 0 &&
            static_cast<std::uint64_t>(sel.index) < config_.numClients)
            clocks.push_back(static_cast<std::size_t>(sel.index));
        break;
      case Kind::AllClients:
      case Kind::All:
        for (std::uint32_t i = 0; i < config_.numClients; ++i)
            clocks.push_back(i);
        break;
      default:
        break;
    }
    return clocks;
}

void
Cluster::applyFault(const common::FaultSpec &fault, bool start)
{
    using common::FaultKind;
    const auto deviceFor =
        [this](common::NodeId node) -> flash::SsdDevice * {
        for (std::size_t i = 0; i < servers_.size(); ++i)
            if (servers_[i]->nodeId() == node)
                return devices_[i].get();
        return nullptr;
    };

    switch (fault.kind) {
      case FaultKind::NodeCrash:
        for (common::NodeId node : resolveSel(fault.selA)) {
            net_.setNodeDown(node, start);
            if (start && fault.failover && node < 1000) {
                // Promote the first surviving backup of the crashed
                // node's shard, mirroring what an external failure
                // detector + master would do.
                const common::ShardId shard =
                    node / config_.replicasPerShard;
                if (master_.primaryOf(shard) == node) {
                    const auto backups = master_.backupsOf(shard);
                    if (!backups.empty())
                        sim::spawn(failover(shard, backups.front()));
                }
            }
        }
        break;
      case FaultKind::LinkPartition:
        for (common::NodeId from : resolveSel(fault.selA)) {
            for (common::NodeId to : resolveSel(fault.selB)) {
                if (from == to)
                    continue;
                if (fault.oneway)
                    net_.setLinkBrokenOneWay(from, to, start);
                else
                    net_.setLinkBroken(from, to, start);
            }
        }
        break;
      case FaultKind::LinkDelay: {
        const double factor = start ? fault.magnitude : 1.0;
        if (fault.selA.kind == common::NodeSel::Kind::All &&
            fault.selB.kind == common::NodeSel::Kind::None) {
            net_.setDelayFactor(factor);
            break;
        }
        const auto a = resolveSel(fault.selA);
        const auto b = fault.selB.kind == common::NodeSel::Kind::None
                           ? resolveSel(common::NodeSel{
                                 common::NodeSel::Kind::All, 0, 0})
                           : resolveSel(fault.selB);
        for (common::NodeId from : a)
            for (common::NodeId to : b)
                if (from != to)
                    net_.setLinkDelayFactor(from, to, factor);
        break;
      }
      case FaultKind::ClockStep:
        // Healing a step is meaningless (the leap happened); the
        // duration only bounds the "fault active" tagging window.
        if (start)
            for (std::size_t c : resolveClockSel(fault.selA))
                ensemble_->driftClock(c).step(
                    static_cast<common::Duration>(fault.magnitude));
        break;
      case FaultKind::ClockStuck:
        for (std::size_t c : resolveClockSel(fault.selA))
            ensemble_->driftClock(c).setStuck(start);
        break;
      case FaultKind::ClockDrift:
        // Heal removes the runaway component (oscillator repaired).
        for (std::size_t c : resolveClockSel(fault.selA))
            ensemble_->driftClock(c).injectDriftPpm(
                start ? fault.magnitude : -fault.magnitude);
        break;
      case FaultKind::ClockMasterDown:
        if (ensemble_ != nullptr)
            ensemble_->setMasterDown(start);
        break;
      case FaultKind::SsdSlowChannel:
        for (common::NodeId node : resolveSel(fault.selA))
            if (flash::SsdDevice *dev = deviceFor(node);
                dev != nullptr && fault.channel >= 0 &&
                static_cast<std::uint32_t>(fault.channel) <
                    dev->geometry().numChannels)
                dev->setChannelLatencyFactor(
                    static_cast<std::uint32_t>(fault.channel),
                    start ? fault.magnitude : 1.0);
        break;
      case FaultKind::SsdReadRetry:
        for (common::NodeId node : resolveSel(fault.selA))
            if (flash::SsdDevice *dev = deviceFor(node))
                dev->setReadRetryStorm(
                    start ? fault.magnitude : 0.0,
                    static_cast<std::uint32_t>(
                        std::max<std::int64_t>(fault.retries, 0)));
        break;
      case FaultKind::SsdGcStorm:
        for (common::NodeId node : resolveSel(fault.selA)) {
            flash::SsdDevice *dev = deviceFor(node);
            if (dev == nullptr)
                continue;
            if (start)
                dev->startGcStorm();
            else
                dev->stopGcStorm();
        }
        break;
    }
}

sim::Task<void>
Cluster::failover(common::ShardId shard, common::NodeId new_primary)
{
    master_.failover(shard, new_primary);
    auto &promoted = primary(shard);
    std::vector<semel::Server *> backups;
    for (common::NodeId node : master_.backupsOf(shard))
        backups.push_back(directory_.at(node));
    promoted.setBackups(std::move(backups));
    co_await promoted.recoverAsPrimary();
}

} // namespace workload
