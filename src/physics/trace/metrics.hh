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
#include <functional>
#include <string>
#include <string_view>
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
    void add(std::string_view name, double delta);

    /** Set the gauge `name` to `value`, registering it on first
     *  use. */
    void set(std::string_view name, double value);

    /** Current value of `name` (0 if never registered). */
    double value(std::string_view name) const;

    /** All metrics in registration order. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Single-line JSON object, keys in registration order. */
    std::string toJson() const;

    /** Drop every metric (a fresh registry). */
    void clear();

  private:
    /** Transparent hash: lookups by string_view build no key string,
     *  so updating a registered metric never touches the heap. */
    struct NameHash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view name) const
        {
            return std::hash<std::string_view>{}(name);
        }
    };

    Entry &entry(std::string_view name, Kind kind);

    std::vector<Entry> entries_;
    std::unordered_map<std::string, std::size_t, NameHash,
                       std::equal_to<>>
        index_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_TRACE_METRICS_HH
