#include "metrics.hh"

#include <cstdio>

namespace parallax
{

MetricsRegistry::Entry &
MetricsRegistry::entry(std::string_view name, Kind kind)
{
    auto it = index_.find(name);
    if (it != index_.end())
        return entries_[it->second];
    index_.emplace(std::string(name), entries_.size());
    entries_.push_back(Entry{std::string(name), kind, 0.0});
    return entries_.back();
}

void
MetricsRegistry::add(std::string_view name, double delta)
{
    Entry &e = entry(name, Kind::Counter);
    if (delta > 0.0)
        e.value += delta;
}

void
MetricsRegistry::set(std::string_view name, double value)
{
    entry(name, Kind::Gauge).value = value;
}

double
MetricsRegistry::value(std::string_view name) const
{
    auto it = index_.find(name);
    return it != index_.end() ? entries_[it->second].value : 0.0;
}

std::string
MetricsRegistry::toJson() const
{
    std::string out = "{";
    bool first = true;
    for (const Entry &e : entries_) {
        if (!first)
            out += ",";
        first = false;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", e.value);
        out += "\"" + e.name + "\":" + buf;
    }
    out += "}";
    return out;
}

void
MetricsRegistry::clear()
{
    entries_.clear();
    index_.clear();
}

} // namespace parallax
