/**
 * @file
 * Test helper: split a metrics line (World::metricsLine(),
 * Server::metricsLine()) into its "key":value fields, in order.
 */

#ifndef PARALLAX_TESTS_METRICS_FIELDS_HH
#define PARALLAX_TESTS_METRICS_FIELDS_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <regex>
#include <string>
#include <utility>
#include <vector>

namespace parallax
{

using MetricsFields =
    std::vector<std::pair<std::string, std::uint64_t>>;

/** The "key":value fields of a flat JSON object of unsigned
 *  integers. The fields must rebuild `line` byte for byte, so a
 *  field the pattern skips fails the calling test. */
inline MetricsFields
metricsFields(const std::string &line)
{
    static const std::regex field("\"([^\"]+)\":([0-9]+)");
    MetricsFields out;
    std::string rebuilt = "{";
    for (std::sregex_iterator it(line.begin(), line.end(), field), end;
         it != end; ++it) {
        rebuilt += (out.empty() ? "" : ",") + it->str();
        out.emplace_back((*it)[1], std::stoull((*it)[2]));
    }
    EXPECT_EQ(rebuilt + "}", line);
    return out;
}

} // namespace parallax

#endif // PARALLAX_TESTS_METRICS_FIELDS_HH
