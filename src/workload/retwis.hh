/**
 * @file
 * The Retwis benchmark (paper Table 2): a Twitter-clone transaction
 * mix over a key-value store.
 *
 *   Transaction    gets        puts   default %   read-heavy %
 *   Add User       1           2      5           5
 *   Follow User    2           2      10          10
 *   Post Tweet     3           5      35          10
 *   Get Timeline   rand(1,10)  0      50          75
 *
 * Keys are drawn from a scrambled Zipf distribution; the paper's
 * "Retwis contention parameter (alpha)" is the Zipf exponent. Each
 * instance runs one transaction at a time and, as in the paper's
 * experiments, "retries an aborted transaction with the same set of
 * keys and without any wait".
 *
 * Abort rate = aborts / (aborts + commits), counting each retry.
 *
 * RetwisRun is the measurement rule every Retwis experiment shares:
 * a closed-loop fleet on a loaded store, a discarded warm-up, then the
 * measured window.
 */

#ifndef WORKLOAD_RETWIS_HH
#define WORKLOAD_RETWIS_HH

#include <memory>
#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "common/zipf.hh"
#include "milana/client.hh"
#include "workload/cluster.hh"

namespace workload {

struct RetwisConfig
{
    /** Zipf contention parameter. */
    double alpha = 0.6;
    std::uint64_t numKeys = 50'000;
    /** Use the 75%-read-only mix of Figures 8 and 9. */
    bool readHeavy = false;
    std::uint64_t seed = 7;
};

/** One sequential Retwis session bound to one MILANA client. */
class RetwisInstance
{
  public:
    RetwisInstance(milana::MilanaClient &client,
                   const RetwisConfig &config, common::Rng rng);

    /** Closed-loop driver; winds down on Simulator::requestStop. */
    sim::Task<void> run(sim::Simulator &sim);

    // Measurement (reset clears, e.g. after warm-up).
    std::uint64_t commits() const { return commits_; }
    std::uint64_t aborts() const { return aborts_; }
    const common::Histogram &latency() const { return latency_; }
    void resetMeasurement();

  private:
    struct TxnShape
    {
        std::vector<common::Key> reads;
        std::vector<common::Key> writes;
    };

    TxnShape nextShape();
    sim::Task<bool> runOnce(const TxnShape &shape,
                            milana::CommitResult &result);

    milana::MilanaClient &client_;
    RetwisConfig config_;
    common::Rng rng_;
    common::ScrambledZipf zipf_;
    std::uint64_t serial_ = 0;

    std::uint64_t commits_ = 0;
    std::uint64_t aborts_ = 0;
    common::Histogram latency_;
};

/** A fleet of Retwis instances, one per cluster client (the paper
 *  runs 4-6 instances per client VM; here each instance gets its own
 *  client and clock). */
class RetwisWorkload
{
  public:
    RetwisWorkload(Cluster &cluster, const RetwisConfig &config);

    void start();
    void resetMeasurement();

    std::uint64_t totalCommits() const;
    std::uint64_t totalAborts() const;
    double abortRate() const;
    common::Histogram mergedLatency() const;

  private:
    Cluster &cluster_;
    std::vector<std::unique_ptr<RetwisInstance>> instances_;
};

/**
 * One Retwis experiment cell. Construction builds the cluster, bulk
 * loads it (timed on the host clock), starts it, and starts a fleet
 * over cfg.numKeys seeded with cfg.seed + 100. Schedule extra events
 * (e.g. a crash) on cluster() before measure().
 */
class RetwisRun
{
  public:
    RetwisRun(const ClusterConfig &cfg, double alpha,
              bool readHeavy = false);

    /**
     * Run @p warmup; zero the fleet's and the cluster's counters; arm
     * cfg.chaos (if any) at that instant; run @p measure plus the 1 s
     * wind-down; flush the metrics plane.
     */
    void measure(common::Duration warmup, common::Duration measure);

    Cluster &cluster() { return cluster_; }
    RetwisWorkload &fleet() { return fleet_; }
    /** Host seconds spent in Cluster::populate. */
    double populateSeconds() const { return populateSeconds_; }

  private:
    Cluster cluster_;
    RetwisWorkload fleet_;
    double populateSeconds_ = 0;
};

} // namespace workload

#endif // WORKLOAD_RETWIS_HH
