/**
 * @file
 * Lightweight named statistics, in the spirit of gem5's stats package.
 *
 * Components register counters and histograms with a StatSet; harnesses
 * dump the set after a run. Everything is plain value types — no global
 * registry — so two simulations in one process never interfere.
 */

#ifndef COMMON_STATS_HH
#define COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/histogram.hh"

namespace common {

class JsonWriter;

/** A monotonically increasing named counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A named collection of counters and histograms.
 *
 * Lookup creates on first use, so call sites read naturally:
 * @code
 *   stats.counter("txn.committed").inc();
 *   stats.histogram("txn.latency").record(latency);
 * @endcode
 *
 * Names are looked up as std::string_view through a transparent
 * comparator, so a hit builds no std::string; the key is copied only
 * when the name is first created.
 */
class StatSet
{
  public:
    template <typename V>
    using Map = std::map<std::string, V, std::less<>>;

    Counter &counter(std::string_view name) { return slot(counters_, name); }
    Histogram &
    histogram(std::string_view name)
    {
        return slot(histograms_, name);
    }

    /**
     * Read-only lookup that never creates: exporters and report code
     * must use these (or the const maps) so serializing a set cannot
     * grow it — counter()/histogram() are create-on-read by design.
     * @return nullptr when the name was never recorded.
     */
    const Counter *findCounter(std::string_view name) const;
    const Histogram *findHistogram(std::string_view name) const;

    const Map<Counter> &counters() const { return counters_; }
    const Map<Histogram> &histograms() const { return histograms_; }

    /** Value of a counter, or 0 when absent (read-only convenience). */
    std::uint64_t counterValue(std::string_view name) const;

    /** Merge all stats from another set into this one. */
    void merge(const StatSet &other);

    void reset();

    /** Multi-line human-readable dump. */
    std::string dump(const std::string &prefix = "") const;

    /**
     * Emit this set as one JSON object value on an open writer:
     * `{"counters": {...}, "histograms": {name: {count,min,max,mean,
     * p50,p90,p95,p99,p999}, ...}}`. @p prefix (e.g. "client.") is
     * prepended to every metric name, producing the fully-qualified
     * `layer.component.metric` names of OBSERVABILITY.md.
     */
    void toJson(JsonWriter &w, const std::string &prefix = "") const;

  private:
    /** Find-or-create @p name in @p map. */
    template <typename V>
    static V &
    slot(Map<V> &map, std::string_view name)
    {
        auto it = map.lower_bound(name);
        if (it == map.end() || it->first != name)
            it = map.try_emplace(it, std::string(name));
        return it->second;
    }

    Map<Counter> counters_;
    Map<Histogram> histograms_;
};

} // namespace common

#endif // COMMON_STATS_HH
