/**
 * @file
 * SEMEL storage server (paper section 3).
 *
 * A server is one replica of one shard. The primary services client
 * gets and puts; writes are replicated to the backups with
 * *inconsistent replication* (section 3.2): each backup applies and
 * acknowledges a timestamped write as soon as it receives it —
 * ordering is explicit in the version stamps, so no operation log or
 * sequencing is needed — and the primary acknowledges the client once
 * the write is locally durable and f of the 2f backups have
 * acknowledged (majority of 2f+1 replicas).
 *
 * Linearizability (section 3.3): the primary rejects writes whose
 * version stamp is not newer than the key's latest committed stamp
 * (at-most-once), repeats its earlier response for exact duplicates
 * (idempotence), and serves reads from the named snapshot version.
 *
 * Per-key DRAM state is one KeyRecord per key in one robin-hood table
 * (common::RobinMap): SEMEL's newest committed stamp plus the MILANA
 * primary's OCC state (section 4.1). A MILANA server keeps records on
 * the shard's primary only; a SEMEL backup notes the stamps it applies.
 *
 * Watermarks (section 3.1): clients periodically report the timestamp
 * of their last acknowledged operation; once every expected client has
 * reported, the minimum becomes the GC watermark handed to the
 * backend.
 */

#ifndef SEMEL_SERVER_HH
#define SEMEL_SERVER_HH

#include <map>
#include <memory>
#include <vector>

#include "common/robin_table.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "ftl/kv_backend.hh"
#include "net/network.hh"
#include "semel/messages.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace semel {

using common::NodeId;

/**
 * One key's protocol state: SEMEL's newest committed stamp (which is
 * also MILANA's ts_latestCommitted), and on a MILANA primary
 * ts_latestRead, the prepared-but-undecided write (zero = none) with
 * its owner, and whether the state was rebuilt from storage.
 * Timestamps and client ids are stored apart, so the record has no
 * padding; the rebuilt flag shares a packed word with the owner's
 * serial, as STO packs lock bits into its TID word.
 */
class KeyRecord
{
  public:
    Version committed() const { return stamp(kCommitted); }
    Version latestRead() const { return stamp(kRead); }
    Version prepared() const { return stamp(kPrepared); }
    bool isPrepared() const { return !prepared().isZero(); }
    bool rebuilt() const { return (ownerWord_ & 1) != 0; }

    /** Advance the committed stamp / ts_latestRead to @p v if newer. */
    void noteCommitted(Version v) { raise(kCommitted, v); }
    void noteRead(Version v) { raise(kRead, v); }
    void markRebuilt() { ownerWord_ |= 1; }

    /** Mark @p v prepared by @p owner. */
    void
    prepare(Version v, TxnId owner)
    {
        set(kPrepared, v);
        ownerClient_ = owner.client;
        ownerWord_ = (owner.serial << 1) | (ownerWord_ & 1);
    }

    /** Clear the prepared mark if @p owner holds it. */
    void
    release(TxnId owner)
    {
        if (ownerClient_ == owner.client && ownerWord_ >> 1 == owner.serial)
            set(kPrepared, Version::zero());
    }

  private:
    enum Stamp { kCommitted, kRead, kPrepared };

    Version stamp(Stamp i) const { return {ts_[i], client_[i]}; }

    void
    set(Stamp i, Version v)
    {
        ts_[i] = v.timestamp;
        client_[i] = v.clientId;
    }

    void
    raise(Stamp i, Version v)
    {
        if (stamp(i) < v)
            set(i, v);
    }

    Time ts_[3] = {};             ///< indexed by Stamp
    std::uint64_t ownerWord_ = 0; ///< owner serial << 1 | rebuilt bit
    ClientId client_[3] = {};
    ClientId ownerClient_ = 0;
};

using KeyRecords = common::RobinMap<common::Key, KeyRecord>;
static_assert(KeyRecords::kSlotBytes <= 64,
              "a key's record must fit one cache line");

class Server
{
  public:
    struct Config
    {
        /** Backup acknowledgements required before a write commits
         *  (f, out of 2f backups). */
        std::uint32_t backupAcksNeeded = 1;
        /** Number of clients that must report before the watermark
         *  advances (0 disables watermark GC). */
        std::uint32_t expectedClients = 0;
    };

    /** Request-processing CPU model: cores available to the server
     *  process, and CPU time consumed per request handled. Bounds the
     *  server's request rate at kCpuCores / kRequestCpuTime. */
    static constexpr std::uint32_t kCpuCores = 8;
    static constexpr common::Duration kRequestCpuTime =
        100 * common::kMicrosecond;

    Server(sim::Simulator &sim, net::Network &net, NodeId id,
           ShardId shard, ftl::KvBackend &backend, const Config &config);
    virtual ~Server() = default;

    NodeId nodeId() const { return id_; }
    ShardId shard() const { return shard_; }
    ftl::KvBackend &backend() { return backend_; }

    /** Wire the backup replicas this server replicates to (primary). */
    virtual void setBackups(std::vector<Server *> backups);

    /**
     * Pre-size the per-key records and the backend's mapping table
     * for a bulk load of @p keys distinct keys, so populate performs
     * zero rehashes.
     */
    virtual void reserveKeys(std::uint64_t keys);

    // -------------------------------------------------- RPC handlers

    /** Read the youngest version with stamp <= request.at. */
    virtual sim::Task<GetResponse> handleGet(GetRequest request);

    /** Timestamped write: validate freshness, persist, replicate. */
    virtual sim::Task<PutResponse> handlePut(PutRequest request);

    /** Delete all versions of a key (propagated like a write). */
    sim::Task<PutResponse> handleDelete(Key key, Version version);

    /** Backup side: apply one replicated write, in any order. */
    sim::Task<bool> handleReplicateWrite(ReplicateWrite msg);

    /** Client watermark report (one-way), with the client's settled
     *  transaction floor (see noteSettled). */
    void handleWatermarkReport(ClientId client, Time timestamp,
                               std::uint64_t settled);

    // ---------------------------------------------------- inspection

    /** Latest committed version stamp of a key (zero if none). */
    Version latestCommitted(Key key) const;

    /** The per-key records (one per key this server tracks). */
    const KeyRecords &records() const { return records_; }

    Time watermark() const { return watermark_; }

    common::StatSet &stats() { return stats_; }

    /** Trace emission handle; disabled until the cluster attaches it. */
    common::Tracer &tracer() { return trace_; }

  protected:
    /** A client reports its transaction serials below the second
     *  argument settled; SEMEL keeps no transactions. */
    virtual void noteSettled(ClientId, std::uint64_t) {}

    /** Charge one request's CPU cost (queueing on the core pool). */
    sim::Task<void> chargeCpu();

    /** callBackups' default: nothing to note per acknowledgement. */
    struct NoAckHook
    {
        void operator()(NodeId) const {}
    };

    /**
     * Call every backup: @p call maps a backup to its unstarted
     * handler, which answers true to acknowledge. Returns the quorum
     * that @p needed acknowledgements satisfy; @p on_ack is called
     * with each acknowledging backup's id before it counts. Calls
     * start in backup order, before this returns.
     */
    template <typename Call, typename OnAck = NoAckHook>
    std::shared_ptr<sim::Quorum>
    callBackups(std::uint32_t needed, Call call, OnAck on_ack = {})
    {
        auto acks = std::make_shared<sim::Quorum>(sim_, needed);
        for (Server *backup : backups_)
            sim::spawn(
                ackInto(acks, backup->nodeId(), call(backup), on_ack));
        return acks;
    }
    /** One call of callBackups: a true answer arrives at @p acks. */
    template <typename OnAck>
    sim::Task<void>
    ackInto(std::shared_ptr<sim::Quorum> acks, NodeId backup,
            sim::Task<bool> handler, OnAck on_ack)
    {
        auto ok =
            co_await net_.callTyped<bool>(id_, backup, std::move(handler));
        if (!ok.has_value() || !*ok)
            co_return;
        on_ack(backup);
        acks->arrive();
    }

    /** Replicate a write to the backups and wait for the configured
     *  quorum of acknowledgements. */
    sim::Task<void> replicateToBackups(ReplicateWrite msg);

    sim::Simulator &sim_;
    net::Network &net_;
    NodeId id_;
    ShardId shard_;
    ftl::KvBackend &backend_;
    Config config_;
    std::vector<Server *> backups_;

    /** DRAM: one record per key (see KeyRecord). */
    KeyRecords records_;

    /** Core pool for the request-processing cost model. */
    sim::Semaphore cpu_;

    /** Latest report per client; min over all = watermark. */
    std::map<ClientId, Time> clientReports_;
    Time watermark_ = 0;

    common::StatSet stats_;
    common::Tracer trace_;
};

/** NodeId -> Server lookup used by clients and the cluster builder. */
class Directory
{
  public:
    void
    add(Server *server)
    {
        servers_[server->nodeId()] = server;
    }

    Server *
    at(NodeId id) const
    {
        auto it = servers_.find(id);
        return it == servers_.end() ? nullptr : it->second;
    }

    const std::map<NodeId, Server *> &all() const { return servers_; }

  private:
    std::map<NodeId, Server *> servers_;
};

} // namespace semel

#endif // SEMEL_SERVER_HH
