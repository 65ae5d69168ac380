#include "workload/retwis.hh"

#include <string>

#include "common/logging.hh"
#include "sim/future.hh"

namespace workload {

RetwisInstance::RetwisInstance(milana::MilanaClient &client,
                               const RetwisConfig &config,
                               common::Rng rng)
    : client_(client),
      config_(config),
      rng_(rng),
      zipf_(config.numKeys, config.alpha, config.seed)
{
}

void
RetwisInstance::resetMeasurement()
{
    commits_ = 0;
    aborts_ = 0;
    failures_ = 0;
    latency_.reset();
}

RetwisInstance::TxnShape
RetwisInstance::nextShape()
{
    // Table 2 mix. The read-heavy variant (Figures 8/9) shifts Post
    // Tweet weight onto Get Timeline: 5/10/10/75.
    const double p = rng_.nextDouble();
    std::uint32_t gets = 0;
    std::uint32_t puts = 0;
    if (config_.readHeavy) {
        if (p < 0.05) {
            gets = 1; puts = 2; // Add User
        } else if (p < 0.15) {
            gets = 2; puts = 2; // Follow User
        } else if (p < 0.25) {
            gets = 3; puts = 5; // Post Tweet
        } else {
            gets = static_cast<std::uint32_t>(rng_.nextRange(1, 10));
            puts = 0; // Get Timeline
        }
    } else {
        if (p < 0.05) {
            gets = 1; puts = 2;
        } else if (p < 0.15) {
            gets = 2; puts = 2;
        } else if (p < 0.50) {
            gets = 3; puts = 5;
        } else {
            gets = static_cast<std::uint32_t>(rng_.nextRange(1, 10));
            puts = 0;
        }
    }

    TxnShape shape;
    // Writes overlap reads where the counts allow (a Post Tweet reads
    // the user record and timeline it updates), so write-write and
    // read-write conflicts both occur under contention.
    for (std::uint32_t i = 0; i < std::max(gets, puts); ++i) {
        const common::Key key = zipf_.sample(rng_);
        if (i < gets)
            shape.reads.push_back(key);
        if (i < puts)
            shape.writes.push_back(key);
    }
    return shape;
}

sim::Task<bool>
RetwisInstance::runOnce(const TxnShape &shape,
                        milana::CommitResult &result)
{
    auto txn = client_.beginTransaction();
    for (const common::Key key : shape.reads) {
        auto read = co_await client_.get(txn, key);
        if (!read.ok) {
            client_.abortTransaction(txn);
            result = milana::CommitResult::Failed;
            co_return false;
        }
    }
    for (const common::Key key : shape.writes) {
        client_.put(txn, key,
                    "w" + std::to_string(client_.clientId()) + ":" +
                        std::to_string(++serial_));
    }
    result = co_await client_.commitTransaction(txn);
    co_return true;
}

sim::Task<void>
RetwisInstance::run(sim::Simulator &sim)
{
    while (!sim.stopRequested()) {
        const TxnShape shape = nextShape();
        // Retry an aborted transaction with the same key set, without
        // any wait (section 5.2).
        for (std::uint32_t attempt = 0;
             attempt < config_.maxAttempts && !sim.stopRequested();
             ++attempt) {
            const common::Time start = sim.now();
            milana::CommitResult result;
            co_await runOnce(shape, result);
            if (result == milana::CommitResult::Committed) {
                ++commits_;
                latency_.record(sim.now() - start);
                break;
            }
            if (result == milana::CommitResult::Aborted) {
                ++aborts_;
                continue;
            }
            ++failures_;
            break; // infrastructure failure: drop this transaction
        }
    }
}

RetwisWorkload::RetwisWorkload(Cluster &cluster,
                               const RetwisConfig &config,
                               std::uint32_t instances_per_client)
    : cluster_(cluster)
{
    common::Rng rng(config.seed);
    for (std::uint32_t c = 0; c < cluster.numClients(); ++c) {
        for (std::uint32_t i = 0; i < instances_per_client; ++i) {
            instances_.push_back(std::make_unique<RetwisInstance>(
                cluster.client(c), config, rng.fork()));
        }
    }
}

void
RetwisWorkload::start()
{
    for (auto &instance : instances_)
        sim::spawn(instance->run(cluster_.sim()));
}

void
RetwisWorkload::resetMeasurement()
{
    for (auto &instance : instances_)
        instance->resetMeasurement();
}

std::uint64_t
RetwisWorkload::totalCommits() const
{
    std::uint64_t total = 0;
    for (const auto &instance : instances_)
        total += instance->commits();
    return total;
}

std::uint64_t
RetwisWorkload::totalAborts() const
{
    std::uint64_t total = 0;
    for (const auto &instance : instances_)
        total += instance->aborts();
    return total;
}

double
RetwisWorkload::abortRate() const
{
    const double total =
        static_cast<double>(totalCommits() + totalAborts());
    return total == 0 ? 0.0
                      : static_cast<double>(totalAborts()) / total;
}

common::Histogram
RetwisWorkload::mergedLatency() const
{
    common::Histogram merged;
    for (const auto &instance : instances_)
        merged.merge(instance->latency());
    return merged;
}

} // namespace workload
