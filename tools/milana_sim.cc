/**
 * @file
 * milana_sim — command-line scenario runner for the simulated
 * MILANA/SEMEL stack. Builds an arbitrary topology, drives a Retwis
 * fleet, optionally injects a primary crash + failover, and reports
 * throughput, latency, abort rates, skew, and (on request) the full
 * stat dump of every component.
 *
 * Examples:
 *   # the paper's Figure 7 point, by hand:
 *   milana_sim --shards=1 --replicas=3 --clients=20 --backend=mftl \
 *              --clocks=ntp --alpha=0.9 --seconds=5
 *
 *   # kill shard 0's primary two seconds in, watch recovery:
 *   milana_sim --shards=2 --replicas=3 --crash-at=2 --seconds=8
 *
 *   # everything the simulator knows, for debugging:
 *   milana_sim --seconds=2 --dump-stats
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "../bench/bench_util.hh"
#include "common/chaos.hh"
#include "common/invariant_monitor.hh"
#include "common/trace.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

using common::kSecond;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;

namespace {

BackendKind
parseBackend(const std::string &name)
{
    if (name == "dram")
        return BackendKind::Dram;
    if (name == "mftl")
        return BackendKind::Mftl;
    if (name == "vftl")
        return BackendKind::Vftl;
    if (name == "sftl")
        return BackendKind::SingleVersion;
    std::fprintf(stderr, "unknown backend '%s' "
                         "(dram|mftl|vftl|sftl)\n",
                 name.c_str());
    std::exit(2);
}

ClockKind
parseClocks(const std::string &name)
{
    if (name == "perfect")
        return ClockKind::Perfect;
    if (name == "ptp")
        return ClockKind::PtpSw;
    if (name == "ptp-hw")
        return ClockKind::PtpHw;
    if (name == "ntp")
        return ClockKind::Ntp;
    if (name == "dtp")
        return ClockKind::Dtp;
    std::fprintf(stderr, "unknown clocks '%s' "
                         "(perfect|ptp|ptp-hw|ntp|dtp)\n",
                 name.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    if (args.has("help")) {
        std::printf(
            "usage: milana_sim [options]\n"
            "  --shards=N --replicas=N --clients=N --keys=N --seed=N\n"
            "  --backend=dram|mftl|vftl|sftl   --clocks=perfect|ptp|"
            "ptp-hw|ntp|dtp\n"
            "  --alpha=F (Zipf contention)     --read-heavy (75%% "
            "read-only mix)\n"
            "  --no-local-validation           --centiman\n"
            "  --seconds=N --warmup=N          --crash-at=N (crash "
            "shard 0's primary)\n"
            "  --chaos=PATH (fault schedule, see docs/CHAOS.md; armed\n"
            "                when measurement starts — times are "
            "relative\n"
            "                to the end of warmup)\n"
            "  --chaos-seed=N (fault-randomness seed, default 42)\n"
            "  --dump-stats\n"
            "  --json=PATH  (milana-bench-v1 report with full stat "
            "sets)\n"
            "  --trace=PATH (event trace; .csv extension = CSV, else "
            "JSON)\n"
            "  --trace-capacity=N (trace ring size, default 262144)\n"
            "  --perfetto=PATH (Chrome/Perfetto trace-event JSON)\n"
            "  --monitor (online invariant checks; violations exit 1)\n"
            "  --metrics=PATH (milana-metrics-v1 time-series JSON +\n"
            "                  sibling CSV; feed to tools/metrics-"
            "report)\n"
            "  --metrics-interval=D (sampling window, default 100ms;\n"
            "                        ns/us/ms/s suffixes)\n");
        return 0;
    }

    ClusterConfig cfg;
    cfg.numShards = static_cast<std::uint32_t>(args.getInt("shards", 3));
    cfg.replicasPerShard =
        static_cast<std::uint32_t>(args.getInt("replicas", 3));
    cfg.numClients =
        static_cast<std::uint32_t>(args.getInt("clients", 20));
    cfg.numKeys = static_cast<std::uint64_t>(args.getInt("keys", 50'000));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    cfg.backend = parseBackend(args.getString("backend", "mftl"));
    cfg.clocks = parseClocks(args.getString("clocks", "ptp"));
    cfg.localValidation = !args.has("no-local-validation");
    cfg.centiman = args.has("centiman");

    RetwisConfig retwis;
    retwis.alpha = args.getDouble("alpha", 0.6);
    retwis.numKeys = cfg.numKeys;
    retwis.readHeavy = args.has("read-heavy");
    retwis.seed = cfg.seed + 100;

    const auto warmup = args.getInt("warmup", 1) * kSecond;
    const auto measure = args.getInt("seconds", 5) * kSecond;
    const auto crash_at = args.getInt("crash-at", -1);
    const std::string chaos_path = args.getString("chaos", "");
    const std::int64_t chaos_seed = args.getInt("chaos-seed", 42);
    const std::string trace_path = args.getString("trace", "");
    const std::string perfetto_path = args.getString("perfetto", "");
    const bool monitor_on = args.has("monitor");
    const auto trace_capacity =
        static_cast<std::size_t>(args.getInt("trace-capacity", 262'144));
    const std::string metrics_path = args.getString("metrics", "");
    const common::Duration metrics_interval =
        args.getDuration("metrics-interval", 100 * common::kMillisecond);
    const bool dump_stats = args.has("dump-stats");
    args.rejectUnknown();

    std::unique_ptr<common::ChaosEngine> chaos;
    if (!chaos_path.empty()) {
        chaos = std::make_unique<common::ChaosEngine>(
            static_cast<std::uint64_t>(chaos_seed));
        std::string error;
        if (!chaos->parseFile(chaos_path, &error)) {
            std::fprintf(stderr, "error: %s: %s\n", chaos_path.c_str(),
                         error.c_str());
            return 2;
        }
        cfg.chaos = chaos.get();
    }

    std::unique_ptr<common::TraceLog> trace;
    if (!trace_path.empty() || !perfetto_path.empty() || monitor_on) {
        trace = std::make_unique<common::TraceLog>(trace_capacity);
        cfg.trace = trace.get();
    }
    std::unique_ptr<common::MetricsRegistry> metrics;
    if (!metrics_path.empty()) {
        metrics = std::make_unique<common::MetricsRegistry>(
            metrics_interval);
        cfg.metrics = metrics.get();
    }
    std::unique_ptr<common::InvariantMonitor> monitor;
    if (monitor_on) {
        common::InvariantMonitor::Config mcfg;
        // Single-version FTLs legitimately return versions newer than
        // the snapshot and rely on validation to abort.
        mcfg.checkSnapshotReads =
            cfg.backend != BackendKind::SingleVersion;
        mcfg.checkReplicationBeforeAck = cfg.replicasPerShard > 1;
        monitor = std::make_unique<common::InvariantMonitor>(mcfg,
                                                             &std::cerr);
        monitor->attach(*trace);
    }

    std::printf("milana_sim: %u shard(s) x %u replica(s), %u clients, "
                "%s backend, %s clocks, alpha=%.2f%s%s\n",
                cfg.numShards, cfg.replicasPerShard, cfg.numClients,
                workload::backendName(cfg.backend),
                workload::clockName(cfg.clocks), retwis.alpha,
                cfg.localValidation ? "" : ", LV off",
                cfg.centiman ? ", centiman validation" : "");

    Cluster cluster(cfg);
    std::printf("populating %llu keys...\n",
                static_cast<unsigned long long>(cfg.numKeys));
    cluster.populate();
    cluster.start();

    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    if (crash_at >= 0) {
        const auto victim = cluster.master().primaryOf(0);
        cluster.sim().schedule(
            warmup + crash_at * kSecond, [&cluster, victim] {
                std::printf("[t=%.2fs] crashing shard-0 primary "
                            "(node %u) and promoting a backup\n",
                            common::toSeconds(cluster.sim().now()),
                            victim);
                cluster.crashServer(victim);
                const auto promoted =
                    cluster.master().backupsOf(0)[0];
                sim::spawn([](Cluster *c, common::NodeId promoted)
                               -> sim::Task<void> {
                    co_await c->failover(0, promoted);
                    std::printf("[t=%.2fs] recovery complete; shard 0 "
                                "serving from node %u\n",
                                common::toSeconds(c->sim().now()),
                                promoted);
                }(&cluster, promoted));
            });
    }

    cluster.runUntil(cluster.now() + warmup);
    fleet.resetMeasurement();
    cluster.resetStats();
    if (chaos != nullptr) {
        // Schedule times are relative to this instant: warmup and
        // population ran fault-free.
        chaos->arm(cluster.now());
        std::printf("chaos armed: %zu fault(s) from %s (seed %lld)\n",
                    chaos->faultCount(), chaos_path.c_str(),
                    static_cast<long long>(chaos_seed));
    }
    cluster.runFor(measure);
    cluster.finishMetrics();

    const double seconds = common::toSeconds(measure);
    const auto latency = fleet.mergedLatency();
    std::printf("\n=== results (%.0fs measured after %.0fs warmup) ===\n",
                seconds, common::toSeconds(warmup));
    std::printf("committed:  %10llu  (%.0f txn/s)\n",
                static_cast<unsigned long long>(fleet.totalCommits()),
                static_cast<double>(fleet.totalCommits()) / seconds);
    std::printf("aborted:    %10llu  (abort rate %.2f%%)\n",
                static_cast<unsigned long long>(fleet.totalAborts()),
                fleet.abortRate() * 100.0);
    std::printf("latency:    mean %.2f ms, p50 %.2f, p95 %.2f, p99 "
                "%.2f\n",
                common::toMillis(
                    static_cast<common::Duration>(latency.mean())),
                common::toMillis(latency.p50()),
                common::toMillis(latency.p95()),
                common::toMillis(latency.p99()));
    if (cfg.clocks != ClockKind::Perfect)
        std::printf("avg client clock skew: %.1f us\n",
                    cluster.avgClientSkew() / 1000.0);

    const auto clients = cluster.clientStats();
    std::printf("local validations: %llu  (failures %llu)\n",
                static_cast<unsigned long long>(
                    clients.counterValue("txn.local_validations")),
                static_cast<unsigned long long>(clients.counterValue(
                    "txn.local_validation_fail")));

    if (dump_stats) {
        std::printf("\n--- client stats ---\n%s",
                    clients.dump("  ").c_str());
        std::printf("--- server stats ---\n%s",
                    cluster.serverStats().dump("  ").c_str());
        std::printf("--- network stats ---\n%s",
                    cluster.network().stats().dump("  ").c_str());
    }

    if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
        if (trace_path.size() >= 4 &&
            trace_path.compare(trace_path.size() - 4, 4, ".csv") == 0)
            trace->writeCsv(os);
        else
            trace->writeJson(os);
        std::printf("wrote %s (%zu events kept, %llu dropped)\n",
                    trace_path.c_str(), trace->size(),
                    static_cast<unsigned long long>(trace->dropped()));
    }
    if (!perfetto_path.empty()) {
        std::ofstream os(perfetto_path);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         perfetto_path.c_str());
            return 1;
        }
        trace->writePerfetto(os, metrics != nullptr ? &metrics->log()
                                                    : nullptr);
        std::printf("wrote %s (Perfetto trace-event JSON; open at "
                    "ui.perfetto.dev)\n",
                    perfetto_path.c_str());
    }
    if (metrics != nullptr)
        bench::writeMetricsOutputs(metrics->log(), metrics_path);

    bench::Report report("milana_sim");
    report.params()
        .set("shards", cfg.numShards)
        .set("replicas", cfg.replicasPerShard)
        .set("clients", cfg.numClients)
        .set("keys", cfg.numKeys)
        .set("seed", cfg.seed)
        .set("backend", workload::backendName(cfg.backend))
        .set("clocks", workload::clockName(cfg.clocks))
        .set("alpha", retwis.alpha)
        .set("read_heavy", retwis.readHeavy)
        .set("local_validation", cfg.localValidation)
        .set("centiman", cfg.centiman)
        .set("warmup_s", common::toSeconds(warmup))
        .set("seconds", seconds);
    if (chaos != nullptr) {
        report.params()
            .set("chaos", chaos_path)
            .set("chaos_seed", chaos_seed)
            .set("chaos_injections", chaos->injections())
            .set("chaos_heals", chaos->heals());
    }
    report.addRow()
        .set("committed", fleet.totalCommits())
        .set("aborted", fleet.totalAborts())
        .set("txn_per_sec",
             static_cast<double>(fleet.totalCommits()) / seconds)
        .set("abort_pct", fleet.abortRate() * 100.0)
        .set("latency_mean_ms",
             common::toMillis(
                 static_cast<common::Duration>(latency.mean())))
        .set("latency_p50_ms", common::toMillis(latency.p50()))
        .set("latency_p95_ms", common::toMillis(latency.p95()))
        .set("latency_p99_ms", common::toMillis(latency.p99()))
        .set("avg_client_skew_us", cluster.avgClientSkew() / 1000.0);
    report.addStats("client", clients, "client.");
    report.addStats("server", cluster.serverStats(), "server.");
    report.addStats("network", cluster.network().stats(), "net.");
    report.addStats("clocksync", cluster.clockStats());
    report.write(args);

    if (monitor != nullptr) {
        monitor->report(std::cout);
        if (!monitor->ok())
            return 1;
    }
    return 0;
}
