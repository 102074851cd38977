/**
 * @file
 * Tests for the timeline-tracing subsystem: span recording and
 * pairing, ring-buffer overflow (drop-oldest, never corrupt), counter
 * sampling cadence through the event queue's sampler hook, and a
 * valid-JSON round-trip of a small traced whole-device run.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/ftl/ftl.h"
#include "src/sim/event_queue.h"
#include "src/ssd/ssd.h"
#include "src/trace/counters.h"
#include "src/trace/trace.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"
#include "tests/closure_adapters.h"
#include "tests/json_test_util.h"

namespace cubessd::trace {
namespace {

using testutil::JsonValue;
using testutil::parseJson;

// ------------------------------------------------------------------
// Recording
// ------------------------------------------------------------------

TEST(TraceSession, RecordsSpansInOrder)
{
    TraceSession session;
    const auto track = session.addTrack("t0");
    session.begin(track, "outer", 100, {{"depth", 0}});
    session.begin(track, "inner", 200);
    session.end(track, 300);
    session.end(track, 500);
    session.instant(track, "mark", 600);
    session.complete(track, "xfer", 700, 50, {{"bytes", 4096}});

    ASSERT_EQ(session.size(), 6u);
    EXPECT_EQ(session.dropped(), 0u);

    const auto &outer = session.event(0);
    EXPECT_EQ(outer.kind, EventKind::Begin);
    EXPECT_STREQ(outer.name, "outer");
    EXPECT_EQ(outer.ts, 100u);
    ASSERT_EQ(outer.argCount, 1u);
    EXPECT_STREQ(outer.args[0].key, "depth");
    EXPECT_EQ(outer.args[0].value, 0);

    EXPECT_EQ(session.event(1).kind, EventKind::Begin);
    EXPECT_EQ(session.event(2).kind, EventKind::End);
    EXPECT_EQ(session.event(3).kind, EventKind::End);
    EXPECT_EQ(session.event(4).kind, EventKind::Instant);

    const auto &xfer = session.event(5);
    EXPECT_EQ(xfer.kind, EventKind::Complete);
    EXPECT_EQ(xfer.ts, 700u);
    EXPECT_EQ(xfer.dur, 50u);
}

TEST(TraceSession, AsyncSpansCarryCategoryAndId)
{
    TraceSession session;
    session.asyncBegin("request", "read", 7, 100, {{"lba", 42}});
    session.asyncBegin("request", "write", 8, 150);
    session.asyncEnd("request", "read", 7, 400);
    session.asyncEnd("request", "write", 8, 500);

    ASSERT_EQ(session.size(), 4u);
    const auto &b = session.event(0);
    EXPECT_EQ(b.kind, EventKind::AsyncBegin);
    EXPECT_STREQ(b.cat, "request");
    EXPECT_EQ(b.id, 7u);
    const auto &e = session.event(2);
    EXPECT_EQ(e.kind, EventKind::AsyncEnd);
    EXPECT_EQ(e.id, 7u);
}

TEST(TraceSession, OverflowDropsOldestNeverCorrupts)
{
    TraceConfig config;
    config.capacityEvents = 4;
    TraceSession session(config);
    const auto track = session.addTrack("t0");
    for (int i = 0; i < 10; ++i)
        session.instant(track, "e", static_cast<SimTime>(i));

    EXPECT_EQ(session.size(), 4u);
    EXPECT_EQ(session.capacity(), 4u);
    EXPECT_EQ(session.recorded(), 10u);
    EXPECT_EQ(session.dropped(), 6u);
    // The survivors are the newest four, oldest first.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(session.event(i).ts, 6u + i);

    // The overflowed ring still serializes to valid JSON that
    // advertises the loss.
    std::ostringstream out;
    session.writeJson(out);
    const JsonValue root = parseJson(out.str());
    EXPECT_DOUBLE_EQ(root.at("otherData").at("dropped_events").number,
                     6.0);
    EXPECT_DOUBLE_EQ(root.at("otherData").at("recorded_events").number,
                     10.0);
}

TEST(TraceSession, ExtraArgsBeyondLimitAreTruncated)
{
    TraceSession session;
    const auto track = session.addTrack("t0");
    session.instant(track, "crowded", 1,
                    {{"a", 1},
                     {"b", 2},
                     {"c", 3},
                     {"d", 4},
                     {"e", 5},
                     {"f", 6},
                     {"g", 7}});
    ASSERT_EQ(session.size(), 1u);
    EXPECT_EQ(session.event(0).argCount, TraceSession::kMaxArgs);
}

// ------------------------------------------------------------------
// JSON serialization
// ------------------------------------------------------------------

TEST(TraceSession, JsonCarriesTrackMetadataAndMicroseconds)
{
    TraceSession session;
    const auto die = session.addTrack("die/0");
    const auto bus = session.addTrack("bus/ch0");
    session.complete(die, "program", 2'000'000, 500'000,
                     {{"block", 3}});
    session.instant(bus, "mark", 1'500);
    session.counter("queue_depth", 1'000'000, 7.0);

    std::ostringstream out;
    session.writeJson(out);
    const JsonValue root = parseJson(out.str());
    const auto &events = root.at("traceEvents").items;

    // One thread_name metadata record per track (plus process_name).
    std::map<double, std::string> threadNames;
    int processNames = 0;
    for (const auto &e : events) {
        if (e.at("ph").text != "M")
            continue;
        if (e.at("name").text == "thread_name")
            threadNames[e.at("tid").number] =
                e.at("args").at("name").text;
        else if (e.at("name").text == "process_name")
            ++processNames;
    }
    EXPECT_EQ(processNames, 1);
    EXPECT_EQ(threadNames.at(die), "die/0");
    EXPECT_EQ(threadNames.at(bus), "bus/ch0");

    // Timestamps convert ns -> us without losing resolution.
    for (const auto &e : events) {
        if (e.at("ph").text == "X") {
            EXPECT_DOUBLE_EQ(e.at("ts").number, 2000.0);
            EXPECT_DOUBLE_EQ(e.at("dur").number, 500.0);
            EXPECT_DOUBLE_EQ(e.at("args").at("block").number, 3.0);
        } else if (e.at("ph").text == "i") {
            EXPECT_DOUBLE_EQ(e.at("ts").number, 1.5);
        } else if (e.at("ph").text == "C") {
            EXPECT_EQ(e.at("name").text, "queue_depth");
            EXPECT_DOUBLE_EQ(e.at("args").at("value").number, 7.0);
        }
    }
}

// ------------------------------------------------------------------
// Counter sampling through the event-queue hook
// ------------------------------------------------------------------

TEST(CounterRegistry, SamplesAtFixedSimulatedCadence)
{
    sim::EventQueue queue;
    int work = 0;
    // Three well-spaced events; the last lands off the sampling grid.
    test::schedule(queue, 1'000, [&] { ++work; });
    test::schedule(queue, 5'000, [&] { ++work; });
    test::schedule(queue, 10'500, [&] { ++work; });

    CounterRegistry registry;
    registry.add("work", "steps",
                 [&](SimTime) { return static_cast<double>(work); });
    registry.installSampler(queue, 2'000);
    queue.run();

    EXPECT_EQ(work, 3);
    const auto &series = registry.series(0);
    // Boundaries at 2,4,6,8,10 us fall before the 10.5 us event; the
    // sampler never fires past the last event.
    ASSERT_EQ(series.size(), 5u);
    for (std::size_t i = 0; i < series.size(); ++i)
        EXPECT_EQ(series[i].ts, 2'000u * (i + 1));
    // At 2 us only the 1 us event has run; from 6 us the 5 us event
    // has run too.
    EXPECT_DOUBLE_EQ(series[0].value, 1.0);
    EXPECT_DOUBLE_EQ(series[2].value, 2.0);
    EXPECT_DOUBLE_EQ(series[4].value, 2.0);
}

TEST(CounterRegistry, ForwardsSamplesToTrace)
{
    sim::EventQueue queue;
    test::schedule(queue, 3'000, [] {});

    TraceSession session;
    CounterRegistry registry;
    registry.add("gauge", "units", [](SimTime) { return 1.25; });
    registry.attachTrace(&session);
    registry.installSampler(queue, 1'000);
    queue.run();

    ASSERT_EQ(session.size(), 3u);
    for (std::size_t i = 0; i < session.size(); ++i) {
        EXPECT_EQ(session.event(i).kind, EventKind::Counter);
        EXPECT_DOUBLE_EQ(session.event(i).number, 1.25);
    }
}

// ------------------------------------------------------------------
// Whole-device round-trip
// ------------------------------------------------------------------

ssd::SsdConfig
smallConfig()
{
    ssd::SsdConfig config;
    config.channels = 2;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 32;
    config.logicalFraction = 0.75;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = ssd::FtlKind::Cube;
    config.seed = 11;
    return config;
}

TEST(TraceIntegration, TracedRunSerializesToValidChromeTrace)
{
    ssd::Ssd dev(smallConfig());
    workload::WorkloadSpec spec = workload::allWorkloads()[3];
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 19);
    workload::Driver driver(dev, gen);
    driver.prefill(0.1);

    // Trace only the measured run (prefill's bulk writes would flood
    // the ring), as the CLI and benches do.
    TraceSession session;
    CounterRegistry registry;
    dev.attachTrace(&session);
    dev.registerCounters(registry);
    registry.attachTrace(&session);
    registry.installSampler(dev.queue(), 50'000);
    driver.run(400);

    EXPECT_GT(session.size(), 0u);
    EXPECT_GT(registry.samplesTaken(), 0u);

    std::ostringstream out;
    session.writeJson(out);
    const JsonValue root = parseJson(out.str());
    const auto &events = root.at("traceEvents").items;

    // Per-die program spans, request async spans, and counter samples
    // are all present.
    std::set<std::string> diePhases;
    std::set<std::string> counterNames;
    int asyncBegins = 0;
    int asyncEnds = 0;
    for (const auto &e : events) {
        const std::string &ph = e.at("ph").text;
        if (ph == "X")
            diePhases.insert(e.at("name").text);
        else if (ph == "C")
            counterNames.insert(e.at("name").text);
        else if (ph == "b")
            ++asyncBegins;
        else if (ph == "e")
            ++asyncEnds;
    }
    EXPECT_TRUE(diePhases.count("program") > 0);
    EXPECT_TRUE(diePhases.count("xfer_in") > 0);
    EXPECT_GE(counterNames.size(), 3u);
    EXPECT_GT(asyncBegins, 0);
    // Nothing dropped in this small run, so async spans pair up.
    EXPECT_EQ(session.dropped(), 0u);
    EXPECT_EQ(asyncBegins, asyncEnds);
}

TEST(TraceIntegration, GcCollectionsAreSpansOnTheirChipTrack)
{
    // Random overwrites on a tiny device whose erases sometimes fail:
    // every collection is one "gc" span on its chip's GC track, and
    // every failed victim erase an instant inside that span.
    ssd::SsdConfig config;
    config.channels = 1;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 16;
    config.chip.geometry.layersPerBlock = 8;
    config.chip.geometry.wlsPerLayer = 4;
    config.writeBufferPages = 24;
    config.logicalFraction = 0.6;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = ssd::FtlKind::Cube;
    config.chip.faults.enabled = true;
    config.chip.faults.eraseFailBase = 0.05;
    config.seed = 5;
    ssd::Ssd dev(config);
    TraceSession session;
    dev.attachTrace(&session);
    Rng rng(3);
    const Lba span = dev.logicalPages() * 9 / 10;
    for (int i = 0; i < 20000; ++i) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = rng.uniformInt(span);
        dev.submitSync(req);
    }
    dev.drain();
    ASSERT_EQ(session.dropped(), 0u);

    std::map<std::uint32_t, int> depth;  // open GC spans per track
    std::uint64_t spans = 0;
    std::uint64_t failedErases = 0;
    for (std::size_t i = 0; i < session.size(); ++i) {
        const auto &e = session.event(i);
        if (session.trackName(e.track).rfind("gc/chip", 0) != 0)
            continue;
        if (e.kind == EventKind::Begin) {
            EXPECT_STREQ(e.name, "gc");
            EXPECT_EQ(depth[e.track]++, 0);
            ++spans;
        } else if (e.kind == EventKind::End) {
            EXPECT_EQ(--depth[e.track], 0);
        } else {
            EXPECT_STREQ(e.name, "gc_erase_fail");
            EXPECT_EQ(depth[e.track], 1);
            ++failedErases;
        }
    }
    for (const auto &[track, open] : depth)
        EXPECT_EQ(open, 0) << session.trackName(track);
    EXPECT_GT(spans, 0u);
    EXPECT_EQ(spans, dev.ftl().gcStats().collections);
    EXPECT_GT(failedErases, 0u);
    EXPECT_EQ(failedErases, dev.ftl().stats().eraseFailures);
}

TEST(TraceIntegration, TracingIsObservationOnly)
{
    // The same workload with and without a trace attached must land
    // on identical simulated end states (bit-identical behaviour).
    auto run = [](bool traced) {
        ssd::Ssd dev(smallConfig());
        TraceSession session;
        if (traced)
            dev.attachTrace(&session);
        workload::WorkloadSpec spec = workload::allWorkloads()[3];
        workload::WorkloadGenerator gen(spec, dev.logicalPages(), 19);
        workload::Driver driver(dev, gen);
        driver.prefill(0.1);
        driver.run(300);
        return std::tuple(dev.queue().now(),
                          dev.ftl().stats().hostPrograms,
                          dev.ftl().stats().readRetries,
                          dev.ftl().gcStats().collections);
    };
    EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace cubessd::trace
