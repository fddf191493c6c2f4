#include "stats.hh"

#include <cmath>
#include <iomanip>

namespace parallax
{

void
Distribution::sample(double v)
{
    ++count_;
    total_ += v;
    if (count_ == 1) {
        min_ = max_ = v;
    } else {
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
}

void
Distribution::reset()
{
    *this = Distribution();
}

double
Distribution::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

StatGroup::StatGroup(std::string name) : name_(std::move(name))
{
}

Counter &
StatGroup::counter(const std::string &name)
{
    auto [it, inserted] = counters_.try_emplace(name);
    if (inserted)
        order_.push_back("c:" + name);
    return it->second;
}

Distribution &
StatGroup::distribution(const std::string &name)
{
    auto [it, inserted] = distributions_.try_emplace(name);
    if (inserted)
        order_.push_back("d:" + name);
    return it->second;
}

void
StatGroup::reset()
{
    for (auto &[name, c] : counters_)
        c.reset();
    for (auto &[name, d] : distributions_)
        d.reset();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &key : order_) {
        const std::string name = key.substr(2);
        if (key[0] == 'c') {
            os << name_ << '.' << name << ' '
               << counters_.at(name).value() << '\n';
        } else {
            const auto &d = distributions_.at(name);
            os << name_ << '.' << name
               << " count=" << d.count()
               << " mean=" << d.mean()
               << " min=" << d.min()
               << " max=" << d.max()
               << " total=" << d.total() << '\n';
        }
    }
}

} // namespace parallax
