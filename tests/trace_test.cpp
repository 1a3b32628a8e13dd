/**
 * @file
 * Observability-layer tests: Arg/JSON rendering, sink installation and
 * nesting, event ordering, JSONL and Chrome trace-event serialization,
 * the off-path being a no-op, metrics summary determinism, and the
 * big determinism contract — a traced attack emits the documented
 * events and a traced campaign produces byte-identical per-trial files
 * at any job count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/sweep_grid.hh"
#include "campaign/trial_runner.hh"
#include "core/attack.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"
#include "telemetry/counters.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

using namespace voltboot;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

// --- JSON primitives -------------------------------------------------

TEST(TraceJson, NumberIsShortestRoundTrip)
{
    EXPECT_EQ(trace::jsonNumber(0.5), "0.5");
    EXPECT_EQ(trace::jsonNumber(0.0), "0");
    EXPECT_EQ(trace::jsonNumber(-3.25), "-3.25");
}

TEST(TraceJson, NonFiniteRendersNull)
{
    EXPECT_EQ(trace::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(trace::jsonNumber(INFINITY), "null");
}

TEST(TraceJson, QuoteEscapes)
{
    EXPECT_EQ(trace::jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(trace::jsonQuote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

TEST(TraceJson, ArgRendersByType)
{
    EXPECT_EQ(trace::Arg("k", "text").json, "\"text\"");
    EXPECT_EQ(trace::Arg("k", std::string("s")).json, "\"s\"");
    EXPECT_EQ(trace::Arg("k", true).json, "true");
    EXPECT_EQ(trace::Arg("k", false).json, "false");
    EXPECT_EQ(trace::Arg("k", 42).json, "42");
    EXPECT_EQ(trace::Arg("k", uint64_t{7}).json, "7");
    EXPECT_EQ(trace::Arg("k", 1.25).json, "1.25");
}

// --- off path --------------------------------------------------------

TEST(TraceOff, DisabledByDefaultAndEmitIsNoOp)
{
    EXPECT_FALSE(trace::enabled());
    trace::emit({});                   // must not crash
    trace::instant("core", "nothing"); // must not crash
    trace::Span span("core", "inert");
    span.arg({"k", 1});
    span.end();
}

// --- scopes, ordering, spans -----------------------------------------

TEST(TraceScope, InstallsResetsClockAndRestores)
{
    trace::MemoryTraceSink outer;
    trace::MemoryTraceSink inner;
    {
        trace::Scope a(outer);
        EXPECT_TRUE(trace::enabled());
        trace::setSimTime(Seconds::milliseconds(5));
        {
            trace::Scope b(inner);
            // A new scope starts its own timeline.
            EXPECT_EQ(trace::simTime().seconds(), 0.0);
            trace::instant("core", "in_inner");
        }
        // The outer clock and sink come back.
        EXPECT_EQ(trace::simTime().seconds(), 0.005);
        trace::instant("core", "in_outer");
    }
    EXPECT_FALSE(trace::enabled());
    ASSERT_EQ(inner.events().size(), 1u);
    EXPECT_EQ(inner.events()[0].name, "in_inner");
    ASSERT_EQ(outer.events().size(), 1u);
    EXPECT_EQ(outer.events()[0].name, "in_outer");
    EXPECT_EQ(outer.events()[0].ts.seconds(), 0.005);
}

TEST(TraceScope, EventsArriveInEmissionOrder)
{
    trace::MemoryTraceSink sink;
    trace::Scope scope(sink);
    for (int i = 0; i < 5; ++i) {
        trace::setSimTime(Seconds::milliseconds(i));
        trace::instant("core", "e" + std::to_string(i));
    }
    ASSERT_EQ(sink.events().size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(sink.events()[i].name, "e" + std::to_string(i));
        EXPECT_DOUBLE_EQ(sink.events()[i].ts.seconds(), i * 1e-3);
    }
}

TEST(TraceSpan, CapturesStartDurationAndArgs)
{
    trace::MemoryTraceSink sink;
    trace::Scope scope(sink);
    trace::setSimTime(Seconds::milliseconds(1));
    {
        trace::Span span("core", "work");
        span.arg({"bytes", 512});
        trace::setSimTime(Seconds::milliseconds(3));
    }
    ASSERT_EQ(sink.events().size(), 1u);
    const trace::TraceEvent &e = sink.events()[0];
    EXPECT_EQ(e.phase, trace::Phase::Complete);
    EXPECT_DOUBLE_EQ(e.ts.seconds(), 1e-3);
    EXPECT_DOUBLE_EQ(e.dur.seconds(), 2e-3);
    ASSERT_EQ(e.args.size(), 1u);
    EXPECT_EQ(e.args[0].key, "bytes");
    EXPECT_EQ(e.args[0].json, "512");
}

TEST(TraceSpan, EndIsIdempotent)
{
    trace::MemoryTraceSink sink;
    trace::Scope scope(sink);
    trace::Span span("core", "once");
    span.end();
    span.end();
    EXPECT_EQ(sink.events().size(), 1u);
}

// --- serializers -----------------------------------------------------

TEST(TraceSerialize, JsonlLineFormat)
{
    trace::TraceEvent e;
    e.phase = trace::Phase::Instant;
    e.category = "power";
    e.name = "probe_attach";
    e.ts = Seconds::milliseconds(2);
    e.args.push_back({"domain", "VDD_CORE"});
    e.args.push_back({"voltage_v", 0.8});
    EXPECT_EQ(trace::toJsonlLine(e),
              "{\"ts_us\": 2000, \"cat\": \"power\", \"ph\": \"i\", "
              "\"name\": \"probe_attach\", \"args\": "
              "{\"domain\": \"VDD_CORE\", \"voltage_v\": 0.8}}");
}

TEST(TraceSerialize, JsonlDocumentHasOneLinePerEvent)
{
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        trace::instant("core", "a");
        trace::instant("core", "b");
        trace::instant("core", "c");
    }
    const std::string doc = trace::toJsonl(sink.events());
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '\n'), 3);
    EXPECT_EQ(doc.back(), '\n');
}

TEST(TraceSerialize, ChromeTraceFormat)
{
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        trace::instant("power", "probe_attach");
        trace::Span span("core", "attack.step3_power_cycle");
        trace::setSimTime(Seconds::milliseconds(500));
    }
    const std::string doc = trace::toChromeTrace(sink.events());
    EXPECT_NE(doc.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"s\": \"p\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"dur\": 500000"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"pid\": 0"), std::string::npos);
}

TEST(TraceSerialize, JsonlFileSinkMatchesSerializer)
{
    const std::string path =
        (std::filesystem::path(testing::TempDir()) / "trace_sink.jsonl")
            .string();
    trace::MemoryTraceSink memory;
    {
        trace::JsonlFileSink file(path);
        trace::Scope scope(file);
        for (const trace::TraceEvent &e :
             {trace::TraceEvent{trace::Phase::Instant, "sram",
                                "sram_state", Seconds::milliseconds(1),
                                Seconds{0.0},
                                {{"array", "l1d"}, {"supply_v", 0.0}}},
              trace::TraceEvent{trace::Phase::Instant, "power",
                                "domain_power_up",
                                Seconds::milliseconds(2), Seconds{0.0},
                                {}}}) {
            memory.record(e);
            trace::emit(e);
        }
    }
    EXPECT_EQ(readFile(path), trace::toJsonl(memory.events()));
}

// --- metrics summaries -----------------------------------------------

TEST(Metrics, CountersGaugesHistograms)
{
    trace::MetricsSnapshot s;
    s.counters["runs"] = 3.0;
    s.gauges["jobs"] = 2.0;
    s.histograms["wall_s"] = trace::summarize({5.0, 1.0, 3.0, 2.0, 4.0});

    const trace::HistogramSummary &h = s.histograms.at("wall_s");
    EXPECT_EQ(h.count, 5u);
    EXPECT_DOUBLE_EQ(h.mean, 3.0);
    EXPECT_DOUBLE_EQ(h.min, 1.0);
    EXPECT_DOUBLE_EQ(h.max, 5.0);
    EXPECT_DOUBLE_EQ(h.p50, 3.0);
    const std::string json = s.toJson();
    EXPECT_NE(json.find("\"runs\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"wall_s\": {\"count\": 5"), std::string::npos);
}

TEST(Metrics, SnapshotIsObservationOrderIndependent)
{
    const std::vector<double> samples = {0.25, 4.0, 1.5, 0.75, 2.0, 0.1};
    const std::vector<double> reversed(samples.rbegin(), samples.rend());
    trace::MetricsSnapshot a, b;
    a.histograms["h"] = trace::summarize(samples);
    b.histograms["h"] = trace::summarize(reversed);
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(Metrics, EmptySnapshotReportsEmpty)
{
    trace::MetricsSnapshot m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(trace::summarize({}).count, 0u);
    m.counters["c"] = 1.0;
    EXPECT_FALSE(m.empty());
}

// --- the attack stack emits the documented events --------------------

TEST(TraceIntegration, AttackRunEmitsLayerEvents)
{
    trace::MemoryTraceSink sink;
    telemetry::CounterTotals spent;
    {
        trace::Scope scope(sink);
        telemetry::WorkerScope counters;
        const telemetry::CounterTotals before = telemetry::threadTotals();
        Soc soc(socConfigFor("pi4"));
        soc.powerOn();
        VoltBootAttack attack(soc);
        const AttackOutcome out = attack.execute();
        ASSERT_TRUE(out.rebooted_into_attacker_code)
            << out.failure_reason;
        attack.dumpL1(0, L1Ram::DData);
        spent = telemetry::threadTotals().since(before);
    }

    auto has = [&](const char *cat, const std::string &name) {
        for (const trace::TraceEvent &e : sink.events())
            if (std::string(e.category) == cat && e.name == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has("power", "probe_attach"));
    EXPECT_TRUE(has("power", "domain_power_down"));
    EXPECT_TRUE(has("power", "domain_power_up"));
    EXPECT_TRUE(has("sram", "sram_state"));
    EXPECT_TRUE(has("soc", "boot_rom"));
    EXPECT_TRUE(has("core", "attack.steps12_probe"));
    EXPECT_TRUE(has("core", "attack.step3_power_cycle"));
    EXPECT_TRUE(has("core", "attack.step4_extract"));

    // Timestamps never run backwards within a category's instants.
    double last = 0.0;
    for (const trace::TraceEvent &e : sink.events()) {
        if (e.phase != trace::Phase::Instant)
            continue;
        EXPECT_GE(e.ts.seconds(), last);
        last = e.ts.seconds();
    }

    // Wall-clock step costs landed in the step's telemetry slot, not
    // the trace.
    EXPECT_GT(spent.get(telemetry::Counter::StepPowerCycleNs), 0u);
    for (const trace::TraceEvent &e : sink.events())
        for (const trace::Arg &a : e.args)
            EXPECT_EQ(a.key.find("wall"), std::string::npos) << e.name;

    // The same events load as a Chrome trace document.
    const std::string chrome = trace::toChromeTrace(sink.events());
    EXPECT_NE(chrome.find("\"traceEvents\": ["), std::string::npos);
}

// --- campaign traces are schedule-independent ------------------------

/** Cheap deterministic runner that also emits a per-trial trace; the
 * event content is a pure function of (seed, index), like runTrial. */
TrialRecord
tracedFakeTrial(const TrialSpec &spec, uint64_t seed)
{
    Rng rng(deriveTrialSeed(seed, spec.index));
    TrialRecord rec;
    rec.spec = spec;
    rec.chip_seed = deriveChipSeed(seed, spec.seed_index);
    rec.status = TrialStatus::Ok;
    rec.booted = true;
    rec.accuracy = 1.0 - rng.uniform() * 0.5;

    trace::setSimTime(Seconds::milliseconds(1));
    trace::instant("power", "domain_power_down",
                   {{"domain", "VDD_CORE"}});
    trace::setSimTime(Seconds::milliseconds(1 + spec.off_ms));
    trace::instant("sram", "sram_decay",
                   {{"cells_flipped", rng.uniform()}});
    return rec;
}

TEST(TraceIntegration, CampaignTracesAreByteIdenticalAcrossJobs)
{
    const std::string spec =
        "board=pi4;attack=voltboot;off-ms=5,50;temp=25,-40;seeds=2";

    auto runWithJobs = [&](unsigned jobs) {
        const std::string dir =
            (std::filesystem::path(testing::TempDir()) /
             ("trace_jobs_" + std::to_string(jobs)))
                .string();
        CampaignConfig cfg;
        cfg.jobs = jobs;
        cfg.runner = tracedFakeTrial;
        cfg.trace_dir = dir;
        Campaign campaign(SweepGrid::parse(spec), std::move(cfg));
        campaign.run();
        return dir;
    };

    const std::string dir1 = runWithJobs(1);
    const std::string dir4 = runWithJobs(4);

    const uint64_t trials = SweepGrid::parse(spec).size();
    ASSERT_GT(trials, 1u);
    for (uint64_t i = 0; i < trials; ++i) {
        const std::string a = readFile(trialTracePath(dir1, i));
        const std::string b = readFile(trialTracePath(dir4, i));
        EXPECT_EQ(a, b) << "trial " << i
                        << " trace differs across job counts";
        // Every trial file carries its runner events plus the engine's
        // closing campaign/trial span.
        EXPECT_NE(a.find("\"cat\": \"campaign\""), std::string::npos);
        EXPECT_NE(a.find("\"name\": \"trial\""), std::string::npos);
        EXPECT_NE(a.find("domain_power_down"), std::string::npos);
    }
}

TEST(TraceIntegration, CampaignMetricsLandInResult)
{
    CampaignConfig cfg;
    cfg.jobs = 2;
    cfg.runner = tracedFakeTrial;
    Campaign campaign(
        SweepGrid::parse("board=pi4;attack=voltboot;seeds=6"),
        std::move(cfg));
    const CampaignResult result = campaign.run();

    EXPECT_FALSE(result.metrics.empty());
    EXPECT_GE(result.metrics.counters.at("campaign.queue_grabs"), 1.0);
    EXPECT_DOUBLE_EQ(result.metrics.gauges.at("campaign.jobs"), 2.0);
    const trace::HistogramSummary &h =
        result.metrics.histograms.at("campaign.trial_wall_s");
    EXPECT_EQ(h.count, result.records.size());

    // ...but only in the opt-in timing section of the JSON.
    EXPECT_EQ(result.toJson(false).find("metrics"), std::string::npos);
    EXPECT_NE(result.toJson(true).find("\"metrics\""),
              std::string::npos);
}

} // namespace
