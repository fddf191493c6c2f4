/**
 * @file
 * Lightweight statistics collection.
 *
 * Modules register named scalar counters, distributions, and formulas
 * with a StatGroup. Benchmark harnesses dump groups as aligned text,
 * mirroring the role of the GEMS/gem5 stats package in the paper's
 * methodology.
 */

#ifndef PARALLAX_SIM_STATS_HH
#define PARALLAX_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace parallax
{

/** A named monotonically updated scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator+=(double v) { value_ += v; return *this; }
    Counter &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }
    void reset() { value_ = 0.0; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Running distribution: count, mean, min, max, variance (Welford). */
class Distribution
{
  public:
    void sample(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double variance() const;
    double stddev() const;
    double total() const { return total_; }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double total_ = 0.0;
};

/**
 * A named collection of statistics.
 *
 * Groups own their counters/distributions; modules hold references
 * obtained at registration time. Dumping prints "group.name value"
 * lines in registration order.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);

    /** Register (or fetch) a counter with the given name. */
    Counter &counter(const std::string &name);

    /** Register (or fetch) a distribution with the given name. */
    Distribution &distribution(const std::string &name);

    /** Reset all owned statistics to zero. */
    void reset();

    /** Print all statistics to the given stream. */
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<std::string> order_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Distribution> distributions_;
};

} // namespace parallax

#endif // PARALLAX_SIM_STATS_HH
