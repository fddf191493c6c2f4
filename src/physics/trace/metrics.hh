/**
 * @file
 * MetricsRegistry: named monotonic counters and gauges with a stable
 * machine-readable dump.
 *
 * Where StepStats (physics/world.hh) describes the last step alone,
 * the registry is the long-lived operational surface: counters only
 * ever accumulate across the run (steps, contacts, steals,
 * quarantine events), gauges hold the latest observation (governor
 * rung, bodies asleep), and `toJson()` emits one single-line JSON
 * object in registration order — stable key order, so diffs and log
 * scrapers can rely on it.
 *
 * The registry is updated from the main thread between phase
 * barriers; it is not itself thread-safe and does not need to be.
 */

#ifndef PARALLAX_PHYSICS_TRACE_METRICS_HH
#define PARALLAX_PHYSICS_TRACE_METRICS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace parallax
{

/** Registry of monotonic counters and last-value gauges. */
class MetricsRegistry
{
  public:
    enum class Kind : std::uint8_t
    {
        Counter, // Monotonic: value only grows.
        Gauge,   // Latest observation.
    };

    struct Entry
    {
        std::string name;
        Kind kind = Kind::Counter;
        double value = 0.0;
    };

    /** Add `delta` (>= 0) to the counter `name`, registering it on
     *  first use. Negative deltas are ignored — counters are
     *  monotonic by contract. */
    void add(const std::string &name, double delta);

    /** Set the gauge `name` to `value`, registering it on first
     *  use. */
    void set(const std::string &name, double value);

    /** Current value of `name` (0 if never registered). */
    double value(const std::string &name) const;

    /** All metrics in registration order. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Single-line JSON object, keys in registration order. */
    std::string toJson() const;

    /** Drop every metric (a fresh registry). */
    void clear();

  private:
    Entry &entry(const std::string &name, Kind kind);

    std::vector<Entry> entries_;
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_TRACE_METRICS_HH
