/**
 * @file
 * Shared helpers for the experiment harnesses: a tiny flag parser
 * (--name=value), table printing, the machine-readable report writer
 * behind every harness's --json flag, and the trace/metrics/monitor
 * outputs of one observed run (RunOutputs). Every bench accepts:
 *
 *   --seconds=N   simulated measurement seconds per cell
 *   --warmup=N    simulated warm-up seconds (excluded from stats)
 *   --keys=N      key-space size
 *   --seed=N      root RNG seed
 *   --full        paper-scale parameters (slower)
 *   --json=PATH   write a milana-bench-v1 JSON report to PATH
 *
 * A harness reads all of its flags first, then calls
 * Args::rejectUnknown(), so a mistyped or retired flag stops the run
 * instead of being silently ignored. A numeric value that does not
 * parse stops it the same way (exit status 2).
 *
 * Defaults are sized so the whole bench suite finishes in minutes of
 * wall time while preserving the paper's shapes; EXPERIMENTS.md records
 * the settings used for the committed results.
 */

#ifndef BENCH_BENCH_UTIL_HH
#define BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/invariant_monitor.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "workload/cluster.hh"

namespace bench {

class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i)
            args_.emplace_back(argv[i]);
    }

    double
    getDouble(const std::string &name, double def) const
    {
        const char *text = value(name);
        if (text == nullptr)
            return def;
        char *end = nullptr;
        errno = 0;
        const double v = std::strtod(text, &end);
        if (end == text || *end != '\0' || errno == ERANGE)
            badValue(name, text);
        return v;
    }

    std::int64_t
    getInt(const std::string &name, std::int64_t def) const
    {
        const char *text = value(name);
        if (text == nullptr)
            return def;
        char *end = nullptr;
        errno = 0;
        const long long v = std::strtoll(text, &end, 10);
        if (end == text || *end != '\0' || errno == ERANGE)
            badValue(name, text);
        return v;
    }

    std::string
    getString(const std::string &name, const std::string &def) const
    {
        queried_.insert(name);
        const std::string prefix = "--" + name + "=";
        const std::string flag = "--" + name;
        for (std::size_t i = 0; i < args_.size(); ++i) {
            if (args_[i].rfind(prefix, 0) == 0)
                return args_[i].substr(prefix.size());
            // Also accept the two-token form "--name value".
            if (args_[i] == flag && i + 1 < args_.size())
                return args_[i + 1];
        }
        return def;
    }

    bool
    has(const std::string &name) const
    {
        queried_.insert(name);
        const std::string flag = "--" + name;
        for (const auto &a : args_) {
            if (a == flag)
                return true;
        }
        return false;
    }

    /**
     * A duration flag with unit suffix: "100ms", "250us", "2s",
     * "500ns". A bare number means milliseconds (the natural unit for
     * sampling intervals). Returns @p def when absent.
     */
    common::Duration
    getDuration(const std::string &name, common::Duration def) const
    {
        const std::string text = getString(name, "");
        if (text.empty())
            return def;
        char *end = nullptr;
        const double n = std::strtod(text.c_str(), &end);
        if (end == text.c_str())
            badValue(name, text.c_str());
        const std::string unit(end);
        double scale = static_cast<double>(common::kMillisecond);
        if (unit == "ns")
            scale = static_cast<double>(common::kNanosecond);
        else if (unit == "us")
            scale = static_cast<double>(common::kMicrosecond);
        else if (unit == "ms" || unit.empty())
            scale = static_cast<double>(common::kMillisecond);
        else if (unit == "s")
            scale = static_cast<double>(common::kSecond);
        else
            badValue(name, text.c_str());
        return static_cast<common::Duration>(n * scale);
    }

    /**
     * Exit with status 2, naming the flag, if any `--name` argument was
     * never asked for by a getter above. Call once every flag has been
     * read. --json is always accepted: Report::write reads it at the
     * end of the run.
     */
    void
    rejectUnknown() const
    {
        for (const auto &a : args_) {
            if (a.rfind("--", 0) != 0)
                continue; // a value of the two-token "--name value" form
            const std::string name = a.substr(2, a.find('=') - 2);
            if (name != "json" && queried_.count(name) == 0) {
                std::fprintf(stderr, "error: unknown flag --%s\n",
                             name.c_str());
                std::exit(2);
            }
        }
    }

  private:
    /** The text after "--name=", or nullptr when the flag is absent. */
    const char *
    value(const std::string &name) const
    {
        queried_.insert(name);
        const std::string prefix = "--" + name + "=";
        for (const auto &a : args_) {
            if (a.rfind(prefix, 0) == 0)
                return a.c_str() + prefix.size();
        }
        return nullptr;
    }

    /** Exit with status 2 (like rejectUnknown) on an unparsable value. */
    [[noreturn]] static void
    badValue(const std::string &name, const char *text)
    {
        std::fprintf(stderr, "error: bad value for --%s: %s\n",
                     name.c_str(), text);
        std::exit(2);
    }

    std::vector<std::string> args_;
    /** Every flag name a getter was asked for. */
    mutable std::set<std::string> queried_;
};

/** Open @p path for writing; exits 1 on failure, so scripted
 *  pipelines fail loudly rather than read a stale file. */
inline std::ofstream
openOutput(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        std::exit(1);
    }
    return os;
}

/**
 * The observability outputs of one simulated run, shared by fig6's
 * traced cell and tools/milana-sim. Reads these flags:
 *
 *   --trace=PATH          event trace (.csv extension = CSV, else JSON)
 *   --perfetto=PATH       Chrome/Perfetto trace-event JSON
 *   --monitor             online invariant checks over the trace
 *   --trace-capacity=N    trace ring size in events (default 262144)
 *   --metrics=PATH        milana-metrics-v1 JSON plus a sibling CSV
 *   --metrics-interval=D  sampling window (default 100ms; ns/us/ms/s)
 *
 * arm() the ClusterConfig of the run before building its Cluster, and
 * write() once the run is over. This object owns the trace, metrics
 * registry and monitor, so it must outlive the Cluster.
 */
class RunOutputs
{
  public:
    explicit RunOutputs(const Args &args)
        : tracePath_(args.getString("trace", "")),
          perfettoPath_(args.getString("perfetto", "")),
          metricsPath_(args.getString("metrics", "")),
          monitorOn_(args.has("monitor")),
          traceCapacity_(static_cast<std::size_t>(
              args.getInt("trace-capacity", 262'144))),
          metricsInterval_(args.getDuration("metrics-interval",
                                            100 * common::kMillisecond))
    {
    }

    /** True when any flag asks for an output. */
    bool any() const { return traced() || !metricsPath_.empty(); }

    const std::string &tracePath() const { return tracePath_; }

    /**
     * The monitor checks that are sound for @p cfg. Single-version
     * FTLs legitimately return versions newer than the snapshot and
     * rely on validation to abort; replication-before-ack needs
     * backups.
     */
    static common::InvariantMonitor::Config
    monitorConfig(const workload::ClusterConfig &cfg)
    {
        common::InvariantMonitor::Config mcfg;
        mcfg.checkSnapshotReads =
            cfg.backend != workload::BackendKind::SingleVersion;
        mcfg.checkReplicationBeforeAck = cfg.replicasPerShard > 1;
        return mcfg;
    }

    /** Create the trace, metrics and monitor the flags ask for and
     *  wire them into @p cfg. Call once. */
    void
    arm(workload::ClusterConfig &cfg)
    {
        if (traced()) {
            trace_ = std::make_unique<common::TraceLog>(traceCapacity_);
            cfg.trace = trace_.get();
        }
        if (!metricsPath_.empty()) {
            metrics_ =
                std::make_unique<common::MetricsRegistry>(metricsInterval_);
            cfg.metrics = metrics_.get();
        }
        if (monitorOn_) {
            monitor_ = std::make_unique<common::InvariantMonitor>(
                monitorConfig(cfg), &std::cerr);
            monitor_->attach(*trace_);
        }
    }

    /** Write the trace, Perfetto and metrics files the flags name. */
    void
    write() const
    {
        if (!tracePath_.empty()) {
            std::ofstream os = openOutput(tracePath_);
            if (tracePath_.size() >= 4 &&
                tracePath_.compare(tracePath_.size() - 4, 4, ".csv") == 0)
                trace_->writeCsv(os);
            else
                trace_->writeJson(os);
            std::printf("wrote %s (%zu events kept, %llu dropped)\n",
                        tracePath_.c_str(), trace_->size(),
                        static_cast<unsigned long long>(trace_->dropped()));
        }
        const common::TimeSeriesLog *series =
            metrics_ != nullptr ? &metrics_->log() : nullptr;
        if (!perfettoPath_.empty()) {
            std::ofstream os = openOutput(perfettoPath_);
            trace_->writePerfetto(os, series);
            std::printf("wrote %s (Perfetto trace-event JSON; open at "
                        "ui.perfetto.dev)\n",
                        perfettoPath_.c_str());
        }
        if (series != nullptr) {
            // The CSV sits beside the JSON: PATH with a .json suffix
            // swapped for .csv, else PATH + ".csv".
            std::string csvPath = metricsPath_;
            if (csvPath.size() >= 5 &&
                csvPath.compare(csvPath.size() - 5, 5, ".json") == 0)
                csvPath.resize(csvPath.size() - 5);
            csvPath += ".csv";
            std::ofstream js = openOutput(metricsPath_);
            series->writeJson(js);
            std::ofstream cs = openOutput(csvPath);
            series->writeCsv(cs);
            std::printf("wrote %s and %s (%zu series)\n",
                        metricsPath_.c_str(), csvPath.c_str(),
                        series->seriesCount());
        }
    }

    /** With --monitor, print its report to @p os. False when it saw a
     *  violation. */
    bool
    reportMonitor(std::ostream &os) const
    {
        if (monitor_ == nullptr)
            return true;
        monitor_->report(os);
        return monitor_->ok();
    }

  private:
    bool
    traced() const
    {
        return !tracePath_.empty() || !perfettoPath_.empty() || monitorOn_;
    }

    std::string tracePath_;
    std::string perfettoPath_;
    std::string metricsPath_;
    bool monitorOn_;
    std::size_t traceCapacity_;
    common::Duration metricsInterval_;
    std::unique_ptr<common::TraceLog> trace_;
    std::unique_ptr<common::MetricsRegistry> metrics_;
    std::unique_ptr<common::InvariantMonitor> monitor_;
};

inline void
printHeader(const char *title)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n", title);
    std::printf("================================================================\n");
}

/**
 * An ordered list of key/value pairs serialized as one JSON object —
 * the building block of a Report's "params" object and "rows" entries.
 * Insertion order is preserved so rows read like the printed tables.
 */
class KvList
{
  public:
    using Value = std::variant<bool, std::int64_t, double, std::string>;

    template <typename T>
    KvList &
    set(const std::string &key, T v)
    {
        if constexpr (std::is_same_v<T, bool>)
            items_.emplace_back(key, Value(v));
        else if constexpr (std::is_integral_v<T>)
            items_.emplace_back(key,
                                Value(static_cast<std::int64_t>(v)));
        else if constexpr (std::is_floating_point_v<T>)
            items_.emplace_back(key, Value(static_cast<double>(v)));
        else
            items_.emplace_back(key, Value(std::string(v)));
        return *this;
    }

    void
    writeTo(common::JsonWriter &w) const
    {
        w.beginObject();
        for (const auto &[key, value] : items_) {
            w.key(key);
            if (std::holds_alternative<bool>(value))
                w.value(std::get<bool>(value));
            else if (std::holds_alternative<std::int64_t>(value))
                w.value(std::get<std::int64_t>(value));
            else if (std::holds_alternative<double>(value))
                w.value(std::get<double>(value));
            else
                w.value(std::get<std::string>(value));
        }
        w.endObject();
    }

  private:
    std::vector<std::pair<std::string, Value>> items_;
};

/**
 * Machine-readable run report, schema "milana-bench-v1":
 *
 *   {
 *     "schema": "milana-bench-v1",
 *     "bench":  "<harness name>",
 *     "params": { flag: value, ... },
 *     "rows":   [ { cell coordinates and measurements }, ... ],
 *     "stats":  { "<section>": {"counters": ..., "histograms": ...} }
 *   }
 *
 * Each printed table cell becomes one row object; "stats" carries the
 * optional full StatSet dumps (e.g. the traced cell of fig6). Finish
 * with write(args): a no-op unless the user passed --json=PATH.
 */
class Report
{
  public:
    explicit Report(std::string bench) : bench_(std::move(bench)) {}

    KvList &params() { return params_; }

    /** Append a row. The reference is valid until the next addRow(). */
    KvList &
    addRow()
    {
        rows_.emplace_back();
        return rows_.back();
    }

    /** Attach a full StatSet dump under stats.<section>, with every
     *  metric name prefixed by @p prefix (e.g. "client."). */
    void
    addStats(const std::string &section, const common::StatSet &stats,
             const std::string &prefix = "")
    {
        stats_.emplace_back(section, std::make_pair(prefix, stats));
    }

    void
    writeTo(std::ostream &os) const
    {
        common::JsonWriter w(os);
        w.beginObject();
        w.key("schema").value("milana-bench-v1");
        w.key("bench").value(bench_);
        w.key("params");
        params_.writeTo(w);
        w.key("rows").beginArray();
        for (const auto &row : rows_)
            row.writeTo(w);
        w.endArray();
        if (!stats_.empty()) {
            w.key("stats").beginObject();
            for (const auto &[section, entry] : stats_) {
                w.key(section);
                entry.second.toJson(w, entry.first);
            }
            w.endObject();
        }
        w.endObject();
        os << "\n";
    }

    /** Write the report to --json=PATH if given; exits on I/O error
     *  (see openOutput). */
    void
    write(const Args &args) const
    {
        const std::string path = args.getString("json", "");
        if (path.empty())
            return;
        std::ofstream os = openOutput(path);
        writeTo(os);
        std::printf("\nwrote %s\n", path.c_str());
    }

  private:
    std::string bench_;
    KvList params_;
    std::vector<KvList> rows_;
    std::vector<std::pair<std::string, std::pair<std::string, common::StatSet>>>
        stats_;
};

} // namespace bench

#endif // BENCH_BENCH_UTIL_HH
