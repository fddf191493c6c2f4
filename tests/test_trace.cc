/**
 * @file
 * Tests for the observability layer (physics/trace/): per-phase span
 * coverage and nesting at several worker counts, the "disabled
 * tracing is free" bitwise guarantee, Chrome trace JSON shape
 * (checked against a golden normalized event sequence), and the
 * stable per-step metrics line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "parallax.hh"

#ifndef PAX_TESTS_DIR
#define PAX_TESTS_DIR "."
#endif

namespace parallax
{
namespace
{

/** Deterministic mini-scene: ground plane, a 3-box stack and a small
 *  cloth sheet, so every pipeline phase has real work (pairs,
 *  contacts, islands, cloth vertices). */
void
buildScene(World &world)
{
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(p, world.createStaticBody(Transform()));
    const BoxShape *box = world.addBox({0.5, 0.5, 0.5});
    for (int i = 0; i < 3; ++i) {
        RigidBody *b = world.createDynamicBody(
            Transform(Quat(), {0, 0.5 + i * 1.0, 0}), *box, 100.0);
        world.createGeom(box, b);
    }
    world.createCloth(4, 4, {3.0, 2.0, 0.0}, 0.25, 1.0);
}

WorldConfig
tracedConfig(unsigned workers)
{
    WorldConfig config;
    config.workerThreads = workers;
    config.deterministic = true;
    config.tracing = true;
    // Narrowphase tiles (and their chunk spans) need pairs >= two
    // grains; the mini-scene has a handful of pairs, so shrink the
    // grain rather than inflate the scene.
    config.grainSize = 1;
    return config;
}

/** Spans grouped per lane, in record order. */
std::map<unsigned, std::vector<TraceEvent>>
spansByLane(const TraceCollector &trace)
{
    std::map<unsigned, std::vector<TraceEvent>> lanes;
    for (const TraceEvent &e : trace.events()) {
        if (e.type == TraceEvent::Type::Span)
            lanes[e.lane].push_back(e);
    }
    return lanes;
}

TEST(Trace, EveryPhaseSpansEveryStep)
{
    for (unsigned workers : {0u, 2u, 8u}) {
        World world(tracedConfig(workers));
        buildScene(world);
        const int steps = 5;
        for (int i = 0; i < steps; ++i)
            world.step();

        std::map<std::string, int> count;
        for (const TraceEvent &e : world.trace().events()) {
            if (e.type == TraceEvent::Type::Span)
                ++count[e.name];
        }
        EXPECT_EQ(count["step"], steps) << "workers=" << workers;
        for (int p = 0; p < numPipelinePhases; ++p) {
            const char *name =
                pipelinePhaseName(static_cast<PipelinePhase>(p));
            EXPECT_EQ(count[name], steps)
                << "phase " << name << " workers=" << workers;
        }
        EXPECT_GT(count["island_solve"], 0) << "workers=" << workers;
        EXPECT_GT(count["cloth_step"], 0) << "workers=" << workers;
        EXPECT_EQ(world.trace().droppedEvents(), 0u);
    }
}

TEST(Trace, SpansNestWithinEachLane)
{
    // Two spans on one lane must be nested or disjoint — anything
    // else means a scope closed across a phase barrier or a worker
    // wrote into another lane's buffer.
    for (unsigned workers : {0u, 2u, 8u}) {
        World world(tracedConfig(workers));
        buildScene(world);
        for (int i = 0; i < 5; ++i)
            world.step();

        for (auto &[lane, spans] : spansByLane(world.trace())) {
            std::stable_sort(
                spans.begin(), spans.end(),
                [](const TraceEvent &a, const TraceEvent &b) {
                    if (a.ts != b.ts)
                        return a.ts < b.ts;
                    return a.dur > b.dur; // Parent first.
                });
            std::vector<TraceEvent> stack;
            for (const TraceEvent &e : spans) {
                while (!stack.empty() &&
                       e.ts >= stack.back().ts + stack.back().dur)
                    stack.pop_back();
                if (!stack.empty()) {
                    EXPECT_LE(e.ts + e.dur,
                              stack.back().ts + stack.back().dur +
                                  1e-3)
                        << "span '" << e.name << "' overlaps '"
                        << stack.back().name << "' on lane " << lane
                        << " (workers=" << workers << ")";
                }
                stack.push_back(e);
            }
        }
    }
}

TEST(Trace, WorkerLanesOnlyCarryLeafSpans)
{
    // Phase and step spans are main-thread constructs; worker lanes
    // must only ever see the stealable units.
    World world(tracedConfig(2));
    buildScene(world);
    for (int i = 0; i < 5; ++i)
        world.step();
    for (const TraceEvent &e : world.trace().events()) {
        if (e.lane == 0)
            continue;
        const std::string name = e.name;
        EXPECT_TRUE(name == "island_solve" ||
                    name == "cloth_step" ||
                    name == "narrowphase_chunk")
            << "unexpected span '" << name << "' on lane " << e.lane;
    }
}

TEST(Trace, DisabledTracingIsBitwiseIdentical)
{
    // The acceptance bar for "off costs one branch": the full world
    // state after N steps is byte-for-byte the same with tracing off
    // and on (tracing reads the clock but never the simulation), and
    // a world with tracing off records nothing.
    WorldConfig off = tracedConfig(2);
    off.tracing = false;
    World world_off(off);
    World world_on(tracedConfig(2));
    buildScene(world_off);
    buildScene(world_on);
    for (int i = 0; i < 30; ++i) {
        world_off.step();
        world_on.step();
    }
    EXPECT_TRUE(world_off.captureState() == world_on.captureState());
    EXPECT_FALSE(world_off.trace().enabled());
    EXPECT_TRUE(world_off.trace().events().empty());
    EXPECT_FALSE(world_off.writeTrace("/tmp/unused.json").empty());
}

namespace
{

/** Minimal structural validator: balanced {}/[] outside strings. */
bool
jsonBalanced(const std::string &text)
{
    std::vector<char> stack;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{': case '[': stack.push_back(c); break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default: break;
        }
    }
    return stack.empty() && !in_string;
}

} // namespace

TEST(Trace, ChromeJsonIsWellFormed)
{
    World world(tracedConfig(2));
    buildScene(world);
    for (int i = 0; i < 5; ++i)
        world.step();
    const std::string json = world.trace().toChromeJson();
    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    for (int p = 0; p < numPipelinePhases; ++p) {
        EXPECT_NE(json.find(pipelinePhaseName(
                      static_cast<PipelinePhase>(p))),
                  std::string::npos);
    }

    // writeTrace round-trips the same text through a file.
    const char *path = "/tmp/pax_test_trace.json";
    EXPECT_EQ(world.writeTrace(path), "");
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), json);
    std::remove(path);
}

TEST(Trace, GoldenNormalizedEventSequence)
{
    // The serial mini-scene's event *sequence* (names, steps, ids,
    // counter values — not timestamps) is a pure function of the
    // simulation, so it is pinned as a golden file. Regenerate with
    //   PAX_UPDATE_GOLDEN=1 ./build/tests/test_trace
    World world(tracedConfig(0));
    buildScene(world);
    for (int i = 0; i < 8; ++i)
        world.step();

    std::string normalized;
    for (const TraceEvent &e : world.trace().events()) {
        char line[128];
        switch (e.type) {
          case TraceEvent::Type::Span:
            std::snprintf(line, sizeof(line), "S %s step=%llu id=%lld\n",
                          e.name,
                          static_cast<unsigned long long>(e.step),
                          static_cast<long long>(e.id));
            break;
          case TraceEvent::Type::Counter:
            std::snprintf(line, sizeof(line),
                          "C %s step=%llu id=%lld value=%.0f\n",
                          e.name,
                          static_cast<unsigned long long>(e.step),
                          static_cast<long long>(e.id), e.value);
            break;
          case TraceEvent::Type::Instant:
            std::snprintf(line, sizeof(line), "I %s step=%llu id=%lld\n",
                          e.name,
                          static_cast<unsigned long long>(e.step),
                          static_cast<long long>(e.id));
            break;
        }
        normalized += line;
    }

    const std::string golden_path =
        std::string(PAX_TESTS_DIR) + "/golden/trace_mini.golden";
    if (std::getenv("PAX_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        out << normalized;
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), normalized)
        << "normalized trace diverged from " << golden_path
        << " — if the pipeline intentionally changed, regenerate "
           "with PAX_UPDATE_GOLDEN=1";
}

TEST(Trace, MetricsLineStableAcrossWorkerCounts)
{
    // metricsLine() reports only deterministic simulation state, so
    // in deterministic mode the line is identical at any worker
    // count — the property that makes it diffable across runs.
    std::vector<std::string> lines;
    for (unsigned workers : {0u, 2u, 8u}) {
        World world(tracedConfig(workers));
        buildScene(world);
        for (int i = 0; i < 30; ++i)
            world.step();
        lines.push_back(world.metricsLine());
    }
    EXPECT_NE(lines[0].find("\"pax_metrics\":1"), std::string::npos);
    EXPECT_EQ(lines[0], lines[1]);
    EXPECT_EQ(lines[0], lines[2]);
}

TEST(Trace, MetricsRegistryCountersAndGauges)
{
    MetricsRegistry reg;
    reg.add("steps", 1);
    reg.add("steps", 2);
    reg.add("steps", -5); // Ignored: counters are monotonic.
    reg.set("rung", 3);
    reg.set("rung", 1);
    EXPECT_EQ(reg.value("steps"), 3.0);
    EXPECT_EQ(reg.value("rung"), 1.0);
    EXPECT_EQ(reg.value("never"), 0.0);
    // Registration order, single line.
    EXPECT_EQ(reg.toJson(), "{\"steps\":3,\"rung\":1}");
    reg.clear();
    EXPECT_TRUE(reg.entries().empty());
}

TEST(Trace, WorldMetricsAccumulate)
{
    World world(tracedConfig(0));
    buildScene(world);
    for (int i = 0; i < 10; ++i)
        world.step();
    const MetricsRegistry &m = world.metrics();
    EXPECT_EQ(m.value("steps"), 10.0);
    EXPECT_GT(m.value("contacts_created"), 0.0);
    EXPECT_GE(m.value("pairs_found"), m.value("contacts_created") > 0
                                          ? 1.0 : 0.0);
    EXPECT_EQ(m.value("governor_rung"), 0.0);
    EXPECT_TRUE(jsonBalanced(m.toJson()));
    EXPECT_TRUE(jsonBalanced(world.metricsLine()));
}

TEST(Trace, DecorateTracePath)
{
    EXPECT_EQ(decorateTracePath("trace.json", "Mix_w2"),
              "trace_Mix_w2.json");
    EXPECT_EQ(decorateTracePath("a/b.json", "x"), "a/b_x.json");
    EXPECT_EQ(decorateTracePath("trace", "x"), "trace_x");
    EXPECT_EQ(decorateTracePath("a.b/c", "x"), "a.b/c_x");
    EXPECT_EQ(decorateTracePath("trace.json", ""), "trace.json");
}

} // namespace
} // namespace parallax
