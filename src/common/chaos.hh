/**
 * @file
 * Deterministic chaos engine: a seedable fault-schedule interpreter.
 *
 * A ChaosEngine holds a list of FaultSpecs — faults parsed from a
 * small line-oriented DSL (see docs/CHAOS.md) or added
 * programmatically — and replays them at exact simulated times
 * against a ChaosSink. The engine itself knows nothing about the
 * network, clocks, or flash layers: it owns the *schedule* (parsing,
 * ordering, activation windows, trace/metrics recording, dedicated
 * RNG streams) while the sink — implemented by workload::Cluster —
 * performs the layer-specific mutations.
 *
 * Determinism contract (CONCURRENCY.md):
 *
 *  - applyUntil() is only called by the harness while the simulation
 *    is quiescent (between Simulator run calls), never from inside an
 *    event. While the simulator runs, every engine access is a read
 *    (anyActive(), activeFaultName(), ...).
 *  - All fault randomness comes from Rng streams forked off the
 *    engine's seed in construction order, never from the simulators'
 *    streams, so a run is replayable from (schedule, seed) and
 *    injections do not perturb unrelated random sequences.
 *  - Schedule times are relative to an origin set by arm(); until the
 *    engine is armed no action fires, which keeps populate/warmup
 *    phases fault-free and lets harnesses schedule in "time since
 *    measurement start".
 *  - nextActionAt() is where Cluster's run façade splits every
 *    runUntil(), so each mutation lands at exactly its scheduled
 *    simulated instant.
 */

#ifndef COMMON_CHAOS_HH
#define COMMON_CHAOS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"

namespace common {

/** Everything the engine can inject, across the three fault layers. */
enum class FaultKind : std::uint8_t {
    // net
    NodeCrash,      ///< node down (+ optional failover), restart on heal
    LinkPartition,  ///< drop messages on selected links (oneway = asym)
    LinkDelay,      ///< delay-spike: multiply link latency by magnitude
    // clocksync
    ClockStep,      ///< step a clock by `magnitude` ns (leap)
    ClockStuck,     ///< freeze a clock's output until healed
    ClockDrift,     ///< runaway oscillator: add `magnitude` ppm drift
    ClockMasterDown,///< PTP master outage: agents hold over, no syncs
    // flash
    SsdSlowChannel, ///< one gray channel: latency x magnitude
    SsdReadRetry,   ///< read-retry storm: P(retry)=magnitude, <=retries
    SsdGcStorm,     ///< background GC ops hog every channel
};

const char *faultKindName(FaultKind kind);

enum class FaultLayer : std::uint8_t { Net, Clock, Flash };
FaultLayer faultLayer(FaultKind kind);

/**
 * A node (or node set) named symbolically, resolved by the sink at
 * apply time — so one schedule works for any topology and survives
 * failovers ("primary:0" is whoever the master map says it is *now*).
 */
struct NodeSel
{
    enum class Kind : std::uint8_t {
        None,       ///< absent
        Node,       ///< raw node id / raw index (`node:7`, `clock:2`)
        Primary,    ///< `primary:S` — current primary of shard `index`
        Backup,     ///< `backup:S:R` — replica `sub` of shard `index`
        Client,     ///< `client:C` — client number `index`
        AllClients, ///< `client:*` / `clients`
        AllServers, ///< `node:*` / `servers`
        All,        ///< `all` — every server and client
    };
    Kind kind = Kind::None;
    std::int64_t index = 0;
    std::int64_t sub = 0;
};

/** One scheduled fault. Times are relative to the engine's origin. */
struct FaultSpec
{
    FaultKind kind = FaultKind::NodeCrash;
    Time at = 0;             ///< injection time (since origin)
    Duration duration = 0;   ///< 0 = never healed (active to run end)
    NodeSel selA;            ///< subject (node/clock/device)
    NodeSel selB;            ///< second endpoint (partitions, delay)
    std::int64_t channel = -1; ///< SsdSlowChannel: which channel
    std::int64_t retries = 0;  ///< SsdReadRetry: max extra retries/op
    double magnitude = 0.0;  ///< factor / ppm / step ns / probability
    bool oneway = false;     ///< LinkPartition: drop selA->selB only
    bool failover = false;   ///< NodeCrash: promote a backup too
    std::string name;        ///< label for traces/tags (default: verb)
};

/**
 * The mutation callback. Implementations (workload::Cluster) apply
 * `start == true` when a fault begins and `start == false` when it
 * heals; both calls happen only at quiescent points. A sink that has
 * no matching component (e.g. a clock fault on a Perfect-clock
 * cluster) should treat the call as a no-op rather than fail.
 */
class ChaosSink
{
  public:
    virtual ~ChaosSink() = default;
    virtual void applyFault(const FaultSpec &fault, bool start) = 0;
};

class ChaosEngine
{
  public:
    explicit ChaosEngine(std::uint64_t seed = 1) : rng_(seed) {}

    /**
     * Parse a schedule (one fault per line, `#` comments); appends to
     * any faults already added. On a syntax error returns false and,
     * when @p error is non-null, stores "line N: why".
     */
    bool parse(std::string_view text, std::string *error = nullptr);
    bool parseFile(const std::string &path, std::string *error = nullptr);

    /** Append one fault programmatically. */
    void add(FaultSpec spec);

    std::size_t faultCount() const { return faults_.size(); }
    const std::vector<FaultSpec> &faults() const { return faults_; }

    // ------------------------------------------------------------------
    // Driver API — quiescent points only (between run calls).
    // ------------------------------------------------------------------

    /**
     * Set the schedule origin: fault times are `origin + spec.at`.
     * Until armed, nextActionAt() reports no pending work, so warmup
     * and populate run fault-free.
     */
    void arm(Time origin);
    bool armed() const { return origin_ >= 0; }

    /** Absolute TrueTime of the next pending action; -1 when none. */
    Time nextActionAt() const;
    bool done() const;

    /** Apply (via @p sink) every action due at or before @p now, in
     *  schedule order; records a trace instant and counters each. */
    void applyUntil(Time now, ChaosSink &sink);

    /** Forget all applied state so the same schedule can run again. */
    void rewind();

    // ------------------------------------------------------------------
    // Read-only queries — safe from inside events (the harness writes
    // only while the simulation is quiescent).
    // ------------------------------------------------------------------

    std::uint32_t activeCount() const
    {
        return static_cast<std::uint32_t>(activeStack_.size());
    }
    bool anyActive() const { return !activeStack_.empty(); }
    bool netFaultActive() const { return activeNet_ > 0; }
    bool clockFaultActive() const { return activeClock_ > 0; }
    bool flashFaultActive() const { return activeFlash_ > 0; }
    /** Name of the most recently injected still-active fault ("" when
     *  none) — used to tag aborted-transaction traces. */
    std::string_view activeFaultName() const;

    std::uint64_t injections() const { return injections_; }
    std::uint64_t heals() const { return heals_; }

    /** Dedicated child stream for one component's fault randomness
     *  (e.g. an SSD's read-retry coin flips). Fork order is part of
     *  the determinism contract: callers fork in construction order. */
    Rng forkRng() { return rng_.fork(); }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }
    Tracer &tracer() { return trace_; }

  private:
    struct Action
    {
        Time at = 0;            ///< relative to origin
        std::uint32_t fault = 0;
        bool start = true;
    };

    /** Build + stable-sort the action list (idempotent). */
    void finalize();

    Rng rng_;
    std::vector<FaultSpec> faults_;
    std::vector<Action> actions_;
    bool finalized_ = false;

    Time origin_ = -1; ///< < 0 = not armed
    std::size_t cursor_ = 0;

    /** Indices of active faults, injection order (LIFO for naming). */
    std::vector<std::uint32_t> activeStack_;
    std::uint32_t activeNet_ = 0;
    std::uint32_t activeClock_ = 0;
    std::uint32_t activeFlash_ = 0;
    std::uint64_t injections_ = 0;
    std::uint64_t heals_ = 0;

    StatSet stats_;
    Tracer trace_;
};

} // namespace common

#endif // COMMON_CHAOS_HH
