/**
 * @file
 * Reproduces Figure 8: Retwis transaction latency vs throughput for
 * the three storage backends (DRAM, VFTL, MFTL), with and without
 * client-local validation (LV), as client load increases.
 *
 * Setup mirrors the paper: 3 shards x 3 replicas, 75% read-only
 * Retwis mix, PTP clocks.
 *
 * Paper shapes:
 *  - LV buys up to +55% throughput and -35% latency (it removes two
 *    round trips from every read-only commit);
 *  - MFTL ~ +15% throughput / -10% latency vs VFTL;
 *  - VFTL *with* LV beats MFTL *without* LV.
 *
 * --jobs=N runs sweep cells on N worker threads (sweep_runner.hh);
 * output is identical for any N.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "sweep_runner.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

using common::kSecond;
using common::toMillis;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;

namespace {

struct Cell
{
    double txnPerSec = 0;
    double latencyMs = 0;
};

Cell
runCell(BackendKind backend, bool local_validation,
        std::uint32_t clients, std::uint64_t keys,
        common::Duration warmup, common::Duration measure,
        std::uint64_t seed)
{
    ClusterConfig cfg;
    cfg.numShards = 3;
    cfg.replicasPerShard = 3;
    cfg.numClients = clients;
    cfg.backend = backend;
    cfg.clocks = ClockKind::PtpSw;
    cfg.numKeys = keys;
    cfg.seed = seed;
    cfg.localValidation = local_validation;

    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();

    RetwisConfig retwis;
    retwis.alpha = 0.6;
    retwis.numKeys = keys;
    retwis.readHeavy = true; // 5/10/10/75 mix
    retwis.seed = seed + 100;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    cluster.runUntil(cluster.now() + warmup);
    fleet.resetMeasurement();
    cluster.runFor(measure);

    Cell cell;
    cell.txnPerSec = static_cast<double>(fleet.totalCommits()) /
                     common::toSeconds(measure);
    cell.latencyMs = toMillis(static_cast<common::Duration>(
        fleet.mergedLatency().mean()));
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const std::uint64_t keys =
        args.getInt("keys", args.has("full") ? 6'000'000 : 30'000);
    const auto warmup = args.getInt("warmup", 1) * kSecond;
    const auto measure =
        args.getInt("seconds", args.has("full") ? 60 : 4) * kSecond;
    const std::uint64_t seed = args.getInt("seed", 1);
    const unsigned jobs = bench::jobsFromArgs(args);
    args.rejectUnknown();

    bench::Report report("fig8_latency_throughput");
    report.params()
        .set("keys", keys)
        .set("warmup_s", common::toSeconds(warmup))
        .set("seconds", common::toSeconds(measure))
        .set("seed", seed)
        .set("full", args.has("full"));

    bench::printHeader(
        "Figure 8: Retwis transaction latency vs throughput\n"
        "3 shards x 3 replicas, 75% read-only mix, PTP; LV = "
        "client-local\nvalidation of read-only transactions");
    std::printf("%5s %4s %8s | %10s %12s\n", "store", "LV", "clients",
                "txn/sec", "latency(ms)");
    std::printf("---------------------+------------------------\n");

    struct Coord
    {
        BackendKind backend;
        bool lv;
        std::uint32_t clients;
    };
    std::vector<Coord> coords;
    for (BackendKind backend :
         {BackendKind::Dram, BackendKind::Vftl, BackendKind::Mftl}) {
        for (bool lv : {true, false}) {
            for (std::uint32_t clients : {8u, 16u, 32u, 64u, 96u})
                coords.push_back({backend, lv, clients});
        }
    }

    bench::SweepRunner runner(jobs);
    std::vector<Cell> cells(coords.size());
    runner.run(coords.size(), [&](std::size_t i) {
        const Coord &c = coords[i];
        cells[i] = runCell(c.backend, c.lv, c.clients, keys, warmup,
                           measure, seed);
    });

    for (std::size_t i = 0; i < coords.size(); ++i) {
        const Coord &c = coords[i];
        std::printf("%5s %4s %8u | %10.0f %12.2f\n",
                    workload::backendName(c.backend),
                    c.lv ? "on" : "off", c.clients, cells[i].txnPerSec,
                    cells[i].latencyMs);
        report.addRow()
            .set("backend", workload::backendName(c.backend))
            .set("local_validation", c.lv)
            .set("clients", c.clients)
            .set("txn_per_sec", cells[i].txnPerSec)
            .set("latency_ms", cells[i].latencyMs);
    }
    std::printf(
        "\nPaper (Figure 8): local validation: up to +55%% throughput\n"
        "and -35%% latency; MFTL ~ +15%% throughput vs VFTL; VFTL w/ LV\n"
        "outperforms MFTL w/o LV.\n");
    report.write(args);
    return 0;
}
