/**
 * @file
 * Report-layer tests: the consumption half of the observability loop.
 *
 * Covers the strict JSON parser (positions, raw number text, duplicate
 * keys), the JSONL trace reader (byte-identical round trip including
 * nan/inf-as-null args, malformed-line diagnostics), span aggregation,
 * the trace invariant checker (every valid board/target/attack combo
 * passes; each invariant fires on a crafted violation), the metrics
 * reservoir cap, the power layer's voltage Counter events, Prometheus
 * exposition, campaign report generation (byte-deterministic across
 * job counts, baseline regression detection), and the voltboot_cli
 * `report` subcommand's exit-code conventions end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "campaign/campaign.hh"
#include "campaign/sweep_grid.hh"
#include "campaign/trial_runner.hh"
#include "core/analysis.hh"
#include "power/power_domain.hh"
#include "report/campaign_json.hh"
#include "report/heartbeat.hh"
#include "report/invariants.hh"
#include "report/json.hh"
#include "report/prometheus.hh"
#include "report/report.hh"
#include "report/span_aggregator.hh"
#include "report/trace_reader.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

using namespace voltboot;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

std::string
tempDir(const std::string &name)
{
    const std::string dir =
        (std::filesystem::path(testing::TempDir()) / name).string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// --- JSON parser -----------------------------------------------------

TEST(ReportJson, ParsesScalarsAndContainers)
{
    const report::JsonValue v = report::parseJson(
        R"({"a": 1, "b": [true, null, "x"], "c": {"d": -2.5e3}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.find("a")->number, 1.0);
    const report::JsonValue &b = *v.find("b");
    ASSERT_TRUE(b.isArray());
    ASSERT_EQ(b.items.size(), 3u);
    EXPECT_TRUE(b.items[0].boolean);
    EXPECT_TRUE(b.items[1].isNull());
    EXPECT_EQ(b.items[2].text, "x");
    EXPECT_DOUBLE_EQ(v.find("c")->find("d")->number, -2500.0);
}

TEST(ReportJson, NumbersKeepRawSourceText)
{
    const report::JsonValue v =
        report::parseJson(R"([0.1, 1e300, -0, 5000.000001])");
    EXPECT_EQ(v.items[0].text, "0.1");
    EXPECT_EQ(v.items[1].text, "1e300");
    EXPECT_EQ(v.items[2].text, "-0");
    EXPECT_EQ(v.items[3].text, "5000.000001");
}

TEST(ReportJson, StringEscapesDecode)
{
    const report::JsonValue v =
        report::parseJson(R"(["a\"b\\c\nd", "\u0041\u00e9"])");
    EXPECT_EQ(v.items[0].text, "a\"b\\c\nd");
    EXPECT_EQ(v.items[1].text, "A\xc3\xa9");
}

TEST(ReportJson, RejectsDuplicateKeysWithPosition)
{
    try {
        report::parseJson("{\"k\": 1,\n \"k\": 2}", "dup.json");
        FAIL() << "duplicate key accepted";
    } catch (const report::JsonParseError &e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_NE(std::string(e.what()).find("duplicate object key"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("dup.json:2:"),
                  std::string::npos);
    }
}

TEST(ReportJson, RejectsTrailingContentAndBadGrammar)
{
    EXPECT_THROW(report::parseJson("{} x"), report::JsonParseError);
    EXPECT_THROW(report::parseJson("{\"a\":}"), report::JsonParseError);
    EXPECT_THROW(report::parseJson("[1,]"), report::JsonParseError);
    EXPECT_THROW(report::parseJson("01"), report::JsonParseError);
    EXPECT_THROW(report::parseJson("\"\\q\""), report::JsonParseError);
    EXPECT_THROW(report::parseJson(""), report::JsonParseError);
}

/** @p depth nested arrays, or objects keyed "a", around a 1. */
std::string
nestedJson(size_t depth, bool objects)
{
    std::string text;
    for (size_t i = 0; i < depth; ++i)
        text += objects ? "{\"a\": " : "[";
    text += "1";
    text += std::string(depth, objects ? '}' : ']');
    return text;
}

TEST(ReportJson, RejectsNestingPastTheLimitAtItsBracket)
{
    for (bool objects : {false, true}) {
        EXPECT_NO_THROW(
            report::parseJson(nestedJson(report::kMaxJsonDepth, objects)));
        try {
            report::parseJson(
                nestedJson(report::kMaxJsonDepth + 1, objects), "deep");
            ADD_FAILURE() << "accepted nesting past the limit";
        } catch (const report::JsonParseError &e) {
            // The bracket that opens level kMaxJsonDepth + 1.
            const size_t level_width = objects ? 6 : 1;
            EXPECT_EQ(e.line(), 1u);
            EXPECT_EQ(e.column(), report::kMaxJsonDepth * level_width + 1);
            EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ReportJson, HostileNestingFailsCleanlyInEveryReader)
{
    // 30,000 levels used to overflow the stack of the recursive parser.
    const std::string dir = tempDir("deep_nesting");
    for (bool objects : {false, true}) {
        const std::string deep = nestedJson(30000, objects);
        EXPECT_THROW(report::parseSweepJson(deep, "sweep.json"),
                     report::JsonParseError);
        EXPECT_THROW(report::readTraceLine(deep, "t.jsonl", 1),
                     report::JsonParseError);
        EXPECT_THROW(report::readTrace(deep + "\n", "t.jsonl"),
                     report::JsonParseError);

        // The heartbeat reader drops unparseable lines and keeps going.
        const std::string path = dir + "/hb.jsonl";
        {
            std::ofstream out(path, std::ios::binary);
            out << deep << "\n"
                << R"({"schema": "voltboot-heartbeat-v1", "seq": 5})"
                << "\n";
        }
        const std::vector<report::Heartbeat> beats =
            report::readHeartbeats(path);
        ASSERT_EQ(beats.size(), 1u);
        EXPECT_EQ(beats[0].seq, 5u);
    }
    std::filesystem::remove_all(dir);
}

// --- trace reader round trip -----------------------------------------

/** A deliberately adversarial event sequence: fractional timestamps
 * that stress the microsecond round trip, every arg type, non-finite
 * numbers, escaped strings. */
std::vector<trace::TraceEvent>
adversarialEvents()
{
    std::vector<trace::TraceEvent> events;

    trace::TraceEvent a;
    a.phase = trace::Phase::Instant;
    a.category = "power";
    a.name = "probe_attach";
    a.ts = Seconds(1.0 / 3.0);
    a.args.emplace_back("domain", "VDD_CORE");
    a.args.emplace_back("voltage_v", 0.8);
    a.args.emplace_back("escaped", std::string("a\"b\\c\nd"));
    events.push_back(a);

    trace::TraceEvent b;
    b.phase = trace::Phase::Complete;
    b.category = "core";
    b.name = "attack.step3_power_cycle";
    b.ts = Seconds(0.4999999999);
    b.dur = Seconds(1.2345678901e-3);
    b.args.emplace_back("ok", true);
    b.args.emplace_back("count", uint64_t{12345678901234567ull});
    b.args.emplace_back("nan_arg", std::nan(""));
    b.args.emplace_back("inf_arg", INFINITY);
    events.push_back(b);

    trace::TraceEvent c;
    c.phase = trace::Phase::Counter;
    c.category = "power";
    c.name = "voltage.VDD_CORE";
    c.ts = Seconds(0.7777777777777);
    c.args.emplace_back("v", 0.7512345);
    events.push_back(c);

    trace::TraceEvent d;
    d.phase = trace::Phase::Instant;
    d.category = "sram";
    d.name = "sram_decay";
    d.ts = Seconds(123456.789012345); // large timestamp, fractional us
    d.args.emplace_back("fraction", 1e-300);
    d.args.emplace_back("neg", -2.5);
    events.push_back(d);

    return events;
}

TEST(TraceReader, RoundTripIsByteIdentical)
{
    const std::vector<trace::TraceEvent> events = adversarialEvents();
    const std::string jsonl = trace::toJsonl(events);
    const std::vector<trace::TraceEvent> parsed =
        report::readTrace(jsonl);
    ASSERT_EQ(parsed.size(), events.size());
    EXPECT_EQ(trace::toJsonl(parsed), jsonl);

    // Field-level spot checks beyond the byte contract.
    EXPECT_EQ(parsed[0].phase, trace::Phase::Instant);
    EXPECT_EQ(std::string(parsed[0].category), "power");
    EXPECT_EQ(parsed[1].phase, trace::Phase::Complete);
    EXPECT_EQ(parsed[1].args[2].json, "null"); // nan serialized as null
    EXPECT_EQ(parsed[1].args[3].json, "null"); // inf serialized as null
    EXPECT_EQ(parsed[2].phase, trace::Phase::Counter);
}

TEST(TraceReader, RoundTripSurvivesRepeatedCycles)
{
    std::string jsonl = trace::toJsonl(adversarialEvents());
    for (int cycle = 0; cycle < 3; ++cycle) {
        const std::string again =
            trace::toJsonl(report::readTrace(jsonl));
        EXPECT_EQ(again, jsonl) << "cycle " << cycle;
        jsonl = again;
    }
}

TEST(TraceReader, KnownCategoriesInternToStableStorage)
{
    const char *a = report::internCategory("power");
    const char *b = report::internCategory("power");
    EXPECT_EQ(a, b);
    const char *x = report::internCategory("custom_layer");
    const char *y = report::internCategory("custom_layer");
    EXPECT_EQ(x, y);
    EXPECT_EQ(std::string(x), "custom_layer");
}

TEST(TraceReader, MalformedLinesCarryDiagnostics)
{
    auto expectError = [](const std::string &line,
                          const std::string &needle) {
        try {
            report::readTraceLine(line, "t.jsonl", 7);
            FAIL() << "accepted: " << line;
        } catch (const report::JsonParseError &e) {
            EXPECT_EQ(e.line(), 7u) << line;
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << "message '" << e.what() << "' lacks '" << needle
                << "'";
        }
    };

    expectError(R"({"ts_us": 0, "cat": "c", "ph": "i", "name": "n")",
                "unterminated object");
    expectError(R"({"cat": "c", "ph": "i", "name": "n", "args": {}})",
                "missing required key \"ts_us\"");
    expectError(R"({"ts_us": 0, "cat": "c", "ph": "z", "name": "n",)"
                R"( "args": {}})",
                "unknown phase");
    expectError(R"({"ts_us": 0, "cat": "c", "ph": "X", "name": "n",)"
                R"( "args": {}})",
                "require \"dur_us\"");
    expectError(R"({"ts_us": 0, "cat": "c", "ph": "i", "name": "n",)"
                R"( "dur_us": 1, "args": {}})",
                "only valid on \"X\" events");
    expectError(R"({"ts_us": 0, "cat": "c", "ph": "i", "name": "n",)"
                R"( "bogus": 1, "args": {}})",
                "unknown trace key");
    expectError(R"({"ts_us": 0, "cat": "c", "ph": "i", "name": "n",)"
                R"( "args": {"k": [1]}})",
                "must be scalars");

    // Whole-document reads point at the offending line.
    const std::string doc =
        trace::toJsonlLine(adversarialEvents()[0]) + "\n" + "{broken\n";
    try {
        report::readTrace(doc, "multi.jsonl");
        FAIL() << "accepted corrupt document";
    } catch (const report::JsonParseError &e) {
        EXPECT_EQ(e.line(), 2u);
    }

    EXPECT_THROW(report::readTrace("\n", "blank.jsonl"),
                 report::JsonParseError);
}

// --- span aggregation ------------------------------------------------

std::vector<trace::TraceEvent>
nestedSpanEvents()
{
    // Children emit before parents, matching trace::Span semantics:
    //   parent [0, 10ms] { child_a [1, 4ms], child_b [5, 8ms] }
    std::vector<trace::TraceEvent> events;
    auto span = [](const char *name, double start_ms, double end_ms) {
        trace::TraceEvent ev;
        ev.phase = trace::Phase::Complete;
        ev.category = "core";
        ev.name = name;
        ev.ts = Seconds::milliseconds(start_ms);
        ev.dur = Seconds::milliseconds(end_ms - start_ms);
        return ev;
    };
    events.push_back(span("child_a", 1, 4));
    events.push_back(span("child_b", 5, 8));
    events.push_back(span("parent", 0, 10));
    return events;
}

TEST(SpanAggregator, ReconstructsNestingAndSelfTime)
{
    const report::SpanAggregate agg =
        report::SpanAggregate::build(nestedSpanEvents());

    ASSERT_EQ(agg.roots().size(), 1u);
    const report::SpanNode &parent = agg.roots()[0];
    EXPECT_EQ(parent.name, "parent");
    ASSERT_EQ(parent.children.size(), 2u);
    EXPECT_EQ(parent.children[0].name, "child_a");
    EXPECT_EQ(parent.children[1].name, "child_b");
    // 10ms total minus 3ms + 3ms of children.
    EXPECT_NEAR(parent.self_s, 0.004, 1e-12);

    EXPECT_EQ(agg.spans().at("core/parent").count, 1u);
    EXPECT_NEAR(agg.spans().at("core/child_a").total_s, 0.003, 1e-12);
    EXPECT_EQ(agg.totalEvents(), 3u);

    const std::string tree = agg.renderTree();
    EXPECT_NE(tree.find("core/parent"), std::string::npos);
    EXPECT_NE(tree.find("  - core/child_a"), std::string::npos);
}

TEST(SpanAggregator, ExtractsVoltageWaveforms)
{
    std::vector<trace::TraceEvent> events;
    for (double v : {1.0, 0.75, 0.0}) {
        trace::TraceEvent ev;
        ev.phase = trace::Phase::Counter;
        ev.category = "power";
        ev.name = "voltage.VDD_X";
        ev.ts = Seconds(events.size() * 0.001);
        ev.args.emplace_back("v", v);
        events.push_back(ev);
    }
    const report::SpanAggregate agg =
        report::SpanAggregate::build(events);
    ASSERT_EQ(agg.waveforms().count("VDD_X"), 1u);
    const auto &wf = agg.waveforms().at("VDD_X");
    ASSERT_EQ(wf.size(), 3u);
    EXPECT_DOUBLE_EQ(wf[0].volts, 1.0);
    EXPECT_DOUBLE_EQ(wf[2].volts, 0.0);
    EXPECT_NE(agg.renderWaveforms().find("`VDD_X`"), std::string::npos);
}

// --- invariants: every real combination passes -----------------------

struct Combo
{
    const char *board;
    const char *target;
    const char *attack;
};

std::vector<Combo>
validCombos()
{
    std::vector<Combo> combos;
    for (const char *board : {"pi3", "pi4"}) {
        for (const char *target :
             {"dcache", "icache", "regs", "tlb", "btb"})
            combos.push_back({board, target, "voltboot"});
        for (const char *target : {"dcache", "icache"})
            combos.push_back({board, target, "coldboot"});
    }
    combos.push_back({"imx53", "iram", "voltboot"});
    return combos;
}

TEST(Invariants, EveryBoardTargetAttackComboPasses)
{
    for (const Combo &combo : validCombos()) {
        const SweepGrid grid = SweepGrid::parse(
            std::string("board=") + combo.board + ";target=" +
            combo.target + ";attack=" + combo.attack +
            ";off-ms=5;seeds=1");
        trace::MemoryTraceSink sink;
        {
            trace::Scope scope(sink);
            runTrial(grid.at(0), 0x5eed);
        }
        ASSERT_FALSE(sink.events().empty())
            << combo.board << "/" << combo.target << "/" << combo.attack;
        const std::vector<report::Violation> violations =
            report::checkTraceInvariants(sink.events());
        EXPECT_TRUE(violations.empty())
            << combo.board << "/" << combo.target << "/" << combo.attack
            << ":\n"
            << report::renderViolations(violations);

        // Every real trace also honours the byte round trip.
        const std::string jsonl = trace::toJsonl(sink.events());
        EXPECT_EQ(trace::toJsonl(report::readTrace(jsonl)), jsonl)
            << combo.board << "/" << combo.target << "/" << combo.attack;
    }
}

// --- invariants: each check fires on a crafted violation -------------

trace::TraceEvent
instantAt(const char *cat, const char *name, double ts_s,
          std::vector<trace::Arg> args = {})
{
    trace::TraceEvent ev;
    ev.phase = trace::Phase::Instant;
    ev.category = cat;
    ev.name = name;
    ev.ts = Seconds(ts_s);
    ev.args = std::move(args);
    return ev;
}

trace::TraceEvent
counterAt(const char *name, double ts_s, double volts)
{
    trace::TraceEvent ev;
    ev.phase = trace::Phase::Counter;
    ev.category = "power";
    ev.name = name;
    ev.ts = Seconds(ts_s);
    ev.args.emplace_back("v", volts);
    return ev;
}

bool
hasViolation(const std::vector<report::Violation> &violations,
             const std::string &invariant)
{
    for (const report::Violation &v : violations)
        if (invariant == v.invariant)
            return true;
    return false;
}

TEST(Invariants, DetectsBackwardsTime)
{
    std::vector<trace::TraceEvent> events;
    events.push_back(instantAt("power", "late", 0.5));
    events.push_back(instantAt("power", "early", 0.1));
    EXPECT_TRUE(hasViolation(report::checkTraceInvariants(events),
                             "monotonic_time"));
}

TEST(Invariants, DetectsNegativeDuration)
{
    trace::TraceEvent ev;
    ev.phase = trace::Phase::Complete;
    ev.category = "core";
    ev.name = "bad_span";
    ev.ts = Seconds(1.0);
    ev.dur = Seconds(-0.5);
    EXPECT_TRUE(hasViolation(
        report::checkTraceInvariants(std::vector{ev}),
        "monotonic_time"));
}

TEST(Invariants, DetectsPartialSpanOverlap)
{
    std::vector<trace::TraceEvent> events;
    auto span = [](double s, double e) {
        trace::TraceEvent ev;
        ev.phase = trace::Phase::Complete;
        ev.category = "core";
        ev.name = "span";
        ev.ts = Seconds(s);
        ev.dur = Seconds(e - s);
        return ev;
    };
    events.push_back(span(0.0, 0.6)); // [0, 0.6]
    events.push_back(span(0.4, 1.0)); // straddles the first's end
    EXPECT_TRUE(hasViolation(report::checkTraceInvariants(events),
                             "span_nesting"));
}

TEST(Invariants, DetectsNegativeVoltage)
{
    std::vector<trace::TraceEvent> events;
    events.push_back(instantAt("power", "domain_scale", 0.0,
                               {{"domain", "VDD_X"},
                                {"from_v", 1.0},
                                {"to_v", -0.1}}));
    EXPECT_TRUE(hasViolation(report::checkTraceInvariants(events),
                             "nonnegative_voltage"));
}

TEST(Invariants, DetectsProbeHoldDip)
{
    std::vector<trace::TraceEvent> events;
    events.push_back(instantAt("power", "probe_attach", 0.0,
                               {{"domain", "VDD_X"},
                                {"voltage_v", 0.8}}));
    events.push_back(instantAt("power", "probe_transient", 0.001,
                               {{"domain", "VDD_X"},
                                {"v_min", 0.7},
                                {"v_settled", 0.78}}));
    events.push_back(counterAt("voltage.VDD_X", 0.002, 0.2)); // dip!
    const auto violations = report::checkTraceInvariants(events);
    EXPECT_TRUE(hasViolation(violations, "probe_hold"));

    // The same sample at the hold floor is fine.
    events.back() = counterAt("voltage.VDD_X", 0.002, 0.7);
    EXPECT_TRUE(report::checkTraceInvariants(events).empty());
}

TEST(Invariants, DetectsAttackStepDisorder)
{
    std::vector<trace::TraceEvent> events;
    auto step = [](const char *name, double s, double e) {
        trace::TraceEvent ev;
        ev.phase = trace::Phase::Complete;
        ev.category = "core";
        ev.name = name;
        ev.ts = Seconds(s);
        ev.dur = Seconds(e - s);
        return ev;
    };
    events.push_back(step("attack.step4_extract", 0.0, 0.1));
    events.push_back(step("attack.step3_power_cycle", 0.2, 0.3));
    EXPECT_TRUE(hasViolation(report::checkTraceInvariants(events),
                             "attack_step_order"));

    // A fresh run restarting at steps 1-2 is legitimate.
    std::vector<trace::TraceEvent> ok;
    ok.push_back(step("attack.steps12_probe", 0.0, 0.1));
    ok.push_back(step("attack.step3_power_cycle", 0.2, 0.3));
    ok.push_back(step("attack.step4_extract", 0.4, 0.5));
    ok.push_back(step("attack.steps12_probe", 0.6, 0.7));
    ok.push_back(step("attack.step3_power_cycle", 0.8, 0.9));
    EXPECT_TRUE(report::checkTraceInvariants(ok).empty());
}

/** One bounded-excursion span kind: its name, the arg that sets its
 * floor, and the invariant that audits it. */
struct ExcursionKind
{
    const char *span;
    const char *floor_arg;
    const char *invariant;
};

constexpr ExcursionKind kExcursionKinds[] = {
    {"glitch.pulse", "depth_v", "glitch_bounds"},
    {"undervolt.hold", "depth_v", "sidechannel_bounds"},
    {"coupling.capture", "dip_bound_v", "sidechannel_bounds"},
};

trace::TraceEvent
excursionSpan(const ExcursionKind &kind, double start_s, double end_s,
              const char *domain, double nominal_v, double depth_v)
{
    trace::TraceEvent ev;
    ev.phase = trace::Phase::Complete;
    ev.category = "power";
    ev.name = kind.span;
    ev.ts = Seconds(start_s);
    ev.dur = Seconds(end_s - start_s);
    ev.args.emplace_back("domain", domain);
    ev.args.emplace_back("nominal_v", nominal_v);
    ev.args.emplace_back(kind.floor_arg, depth_v);
    return ev;
}

TEST(Invariants, GlitchBoundsAcceptsAWellFormedPulse)
{
    for (const ExcursionKind &kind : kExcursionKinds) {
        SCOPED_TRACE(kind.span);
        std::vector<trace::TraceEvent> events;
        events.push_back(counterAt("voltage.VDD_CORE", 1.0e-9, 0.6));
        events.push_back(counterAt("voltage.VDD_CORE", 2.0e-9, 0.5));
        events.push_back(counterAt("voltage.VDD_CORE", 3.0e-9, 0.8));
        events.push_back(
            excursionSpan(kind, 0.5e-9, 3.0e-9, "VDD_CORE", 0.8, 0.3));
        EXPECT_TRUE(report::checkTraceInvariants(events).empty());
    }
}

TEST(Invariants, DetectsGlitchExcursionBeyondDepth)
{
    for (const ExcursionKind &kind : kExcursionKinds) {
        SCOPED_TRACE(kind.span);
        std::vector<trace::TraceEvent> events;
        events.push_back(counterAt("voltage.VDD_CORE", 1.0e-9, 0.4)); // !
        events.push_back(counterAt("voltage.VDD_CORE", 3.0e-9, 0.8));
        events.push_back(
            excursionSpan(kind, 0.5e-9, 3.0e-9, "VDD_CORE", 0.8, 0.3));
        EXPECT_TRUE(hasViolation(report::checkTraceInvariants(events),
                                 kind.invariant));
    }
}

TEST(Invariants, DetectsGlitchThatNeverRecovers)
{
    for (const ExcursionKind &kind : kExcursionKinds) {
        SCOPED_TRACE(kind.span);
        std::vector<trace::TraceEvent> events;
        events.push_back(counterAt("voltage.VDD_CORE", 1.0e-9, 0.6));
        events.push_back(counterAt("voltage.VDD_CORE", 2.9e-9, 0.6));
        events.push_back(
            excursionSpan(kind, 0.5e-9, 3.0e-9, "VDD_CORE", 0.8, 0.3));
        EXPECT_TRUE(hasViolation(report::checkTraceInvariants(events),
                                 kind.invariant));
    }
}

TEST(Invariants, DetectsGlitchPulseWithoutSamples)
{
    for (const ExcursionKind &kind : kExcursionKinds) {
        SCOPED_TRACE(kind.span);
        std::vector<trace::TraceEvent> events;
        events.push_back(
            excursionSpan(kind, 0.5e-9, 3.0e-9, "VDD_CORE", 0.8, 0.3));
        EXPECT_TRUE(hasViolation(report::checkTraceInvariants(events),
                                 kind.invariant));
    }
}

TEST(Invariants, DetectsExcursionSpanLackingAnArg)
{
    for (const ExcursionKind &kind : kExcursionKinds) {
        SCOPED_TRACE(kind.span);
        const trace::TraceEvent whole =
            excursionSpan(kind, 0.5e-9, 3.0e-9, "VDD_CORE", 0.8, 0.3);
        for (size_t drop = 0; drop < whole.args.size(); ++drop) {
            SCOPED_TRACE(whole.args[drop].key);
            trace::TraceEvent span = whole;
            span.args.erase(span.args.begin() +
                            static_cast<std::ptrdiff_t>(drop));
            std::vector<trace::TraceEvent> events;
            events.push_back(counterAt("voltage.VDD_CORE", 1.0e-9, 0.6));
            events.push_back(counterAt("voltage.VDD_CORE", 3.0e-9, 0.8));
            events.push_back(span);
            EXPECT_TRUE(hasViolation(
                report::checkTraceInvariants(events), kind.invariant));
        }
    }
}

TEST(TraceArgs, ReadersAcceptOnlyWholeTokensOfTheirShape)
{
    // One event carrying each token shape as a pre-rendered arg.
    auto raw = [](std::string key, std::string json) {
        trace::Arg arg(std::move(key), 0);
        arg.json = std::move(json);
        return arg;
    };
    trace::TraceEvent ev;
    ev.args.emplace_back("v", 0.8);
    ev.args.push_back(raw("exp", "1e-09"));
    ev.args.push_back(raw("null", "null"));
    ev.args.push_back(raw("prefix", "0.8x"));
    ev.args.push_back(raw("quoted", "\"0.8\""));
    ev.args.push_back(raw("escaped", "\"a\\\"b\""));
    ev.args.push_back(raw("empty", ""));
    ev.args.emplace_back("domain", "VDD_CORE");

    EXPECT_EQ(trace::argNumber(ev, "v"), 0.8);
    EXPECT_EQ(trace::argNumber(ev, "exp"), 1e-09);
    for (const char *key :
         {"null", "prefix", "quoted", "escaped", "empty", "domain",
          "missing"})
        EXPECT_FALSE(trace::argNumber(ev, key)) << key;

    EXPECT_EQ(trace::argString(ev, "domain"), "VDD_CORE");
    EXPECT_EQ(trace::argString(ev, "quoted"), "0.8");
    for (const char *key : {"escaped", "v", "null", "missing"})
        EXPECT_FALSE(trace::argString(ev, key)) << key;

    EXPECT_EQ(trace::voltageCounter("VDD_CORE"), "voltage.VDD_CORE");
    EXPECT_EQ(trace::voltageDomain(trace::voltageCounter("VDD_CORE")),
              "VDD_CORE");
    EXPECT_FALSE(trace::voltageDomain("current.VDD_CORE"));
}

TEST(Invariants, RealGlitchTrialTracePasses)
{
    const SweepGrid grid = SweepGrid::parse(
        "attack=glitch;glitch-off-ns=109;glitch-width-ns=2;"
        "glitch-depth=0.5;seeds=1");
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        runTrial(grid.at(0), 0x5eed);
    }
    bool has_pulse = false;
    for (const trace::TraceEvent &ev : sink.events())
        has_pulse |= ev.phase == trace::Phase::Complete &&
                     ev.name == "glitch.pulse";
    EXPECT_TRUE(has_pulse);
    const std::vector<report::Violation> violations =
        report::checkTraceInvariants(sink.events());
    EXPECT_TRUE(violations.empty())
        << report::renderViolations(violations);
}

// --- metrics summaries -----------------------------------------------

TEST(MetricsCap, UnderCapRemainsExact)
{
    const trace::HistogramSummary h =
        trace::summarize({5.0, 1.0, 3.0, 2.0, 4.0});
    EXPECT_EQ(h.count, 5u);
    EXPECT_DOUBLE_EQ(h.mean, 3.0);
    EXPECT_DOUBLE_EQ(h.p50, 3.0);
    EXPECT_DOUBLE_EQ(h.max, 5.0);
}

// --- power layer voltage counters ------------------------------------

TEST(PowerCounters, DomainEmitsVoltageSamples)
{
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        PowerDomain dom("VDD_TEST", Volt(1.0), RegulatorKind::Buck);
        dom.powerUp(Seconds(0.0), Temperature::celsius(25));
        trace::setSimTime(Seconds(0.001));
        dom.scaleVoltage(Volt(0.9));
        VoltageProbe probe;
        probe.voltage = Volt(0.8);
        dom.attachProbe(probe);
        trace::setSimTime(Seconds(0.002));
        dom.powerDown(Seconds(0.002));
        dom.detachProbe();
    }

    const report::SpanAggregate agg =
        report::SpanAggregate::build(sink.events());
    ASSERT_EQ(agg.waveforms().count("VDD_TEST"), 1u);
    const auto &wf = agg.waveforms().at("VDD_TEST");
    // power-up, scale, droop minimum, settled, detach-to-zero.
    ASSERT_EQ(wf.size(), 5u);
    EXPECT_DOUBLE_EQ(wf[0].volts, 1.0);
    EXPECT_DOUBLE_EQ(wf[1].volts, 0.9);
    EXPECT_LE(wf[2].volts, wf[3].volts); // v_min <= v_settled
    EXPECT_GT(wf[2].volts, 0.0);
    EXPECT_DOUBLE_EQ(wf[4].volts, 0.0);

    // The emitted sequence satisfies the trace invariants, probe_hold
    // included.
    EXPECT_TRUE(report::checkTraceInvariants(sink.events()).empty());
}

// --- Prometheus exposition -------------------------------------------

TEST(Prometheus, RendersCountersGaugesAndSummaries)
{
    trace::MetricsSnapshot snap;
    snap.counters["campaign.queue_grabs"] = 12;
    snap.gauges["campaign.jobs"] = 4;
    trace::HistogramSummary h;
    h.count = 8;
    h.mean = 0.5;
    h.min = 0.1;
    h.max = 1.0;
    h.p50 = 0.4;
    h.p90 = 0.9;
    h.p99 = 1.0;
    snap.histograms["campaign.trial_wall_s"] = h;

    const std::string expected =
        "# TYPE voltboot_campaign_queue_grabs counter\n"
        "voltboot_campaign_queue_grabs 12\n"
        "# TYPE voltboot_campaign_jobs gauge\n"
        "voltboot_campaign_jobs 4\n"
        "# TYPE voltboot_campaign_trial_wall_s summary\n"
        "voltboot_campaign_trial_wall_s{quantile=\"0.5\"} 0.4\n"
        "voltboot_campaign_trial_wall_s{quantile=\"0.9\"} 0.9\n"
        "voltboot_campaign_trial_wall_s{quantile=\"0.99\"} 1\n"
        "voltboot_campaign_trial_wall_s_sum 4\n"
        "voltboot_campaign_trial_wall_s_count 8\n";
    EXPECT_EQ(report::toPrometheus(snap), expected);
}

TEST(Prometheus, EmptySnapshotRendersEmpty)
{
    EXPECT_EQ(report::toPrometheus(trace::MetricsSnapshot{}), "");
}

TEST(Prometheus, EscapesLabelValues)
{
    EXPECT_EQ(report::escapeLabelValue("plain"), "plain");
    EXPECT_EQ(report::escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(report::escapeLabelValue("say \"hi\""),
              "say \\\"hi\\\"");
    EXPECT_EQ(report::escapeLabelValue("line1\nline2"),
              "line1\\nline2");
    EXPECT_EQ(report::escapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Prometheus, ConstantLabelsOnEverySample)
{
    trace::MetricsSnapshot snap;
    snap.counters["c"] = 1;
    snap.gauges["g"] = 2;
    trace::HistogramSummary h;
    h.count = 2;
    h.mean = 1.0;
    h.p50 = h.p90 = h.p99 = 1.0;
    snap.histograms["h"] = h;

    const report::PrometheusLabels labels = {
        {"grid", "board=a\nseed=\"1\""}, {"job", "0"}};
    const std::string expected =
        "# TYPE voltboot_c counter\n"
        "voltboot_c{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\"} 1\n"
        "# TYPE voltboot_g gauge\n"
        "voltboot_g{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\"} 2\n"
        "# TYPE voltboot_h summary\n"
        "voltboot_h{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\","
        "quantile=\"0.5\"} 1\n"
        "voltboot_h{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\","
        "quantile=\"0.9\"} 1\n"
        "voltboot_h{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\","
        "quantile=\"0.99\"} 1\n"
        "voltboot_h_sum{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\"} 2\n"
        "voltboot_h_count{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\"}"
        " 2\n";
    EXPECT_EQ(report::toPrometheus(snap, labels), expected);
}

TEST(Prometheus, NanAndInfRenderAsExpositionLiterals)
{
    trace::MetricsSnapshot snap;
    snap.gauges["eta"] = std::numeric_limits<double>::quiet_NaN();
    snap.gauges["hi"] = std::numeric_limits<double>::infinity();
    snap.gauges["lo"] = -std::numeric_limits<double>::infinity();
    const std::string out = report::toPrometheus(snap);
    EXPECT_NE(out.find("voltboot_eta NaN\n"), std::string::npos);
    EXPECT_NE(out.find("voltboot_hi +Inf\n"), std::string::npos);
    EXPECT_NE(out.find("voltboot_lo -Inf\n"), std::string::npos);
}

TEST(Prometheus, ExpositionIsByteDeterministic)
{
    // Insertion order must not leak into the exposition: the snapshot
    // maps are ordered, so two snapshots with the same contents render
    // byte-identically regardless of how they were built.
    trace::MetricsSnapshot a;
    a.counters["z.last"] = 3;
    a.counters["a.first"] = 1;
    a.gauges["m.mid"] = 2;
    trace::MetricsSnapshot b;
    b.gauges["m.mid"] = 2;
    b.counters["a.first"] = 1;
    b.counters["z.last"] = 3;
    const std::string ra = report::toPrometheus(a);
    EXPECT_EQ(ra, report::toPrometheus(b));
    // Counters render before gauges, names sorted within each kind.
    EXPECT_LT(ra.find("voltboot_a_first"), ra.find("voltboot_z_last"));
    EXPECT_LT(ra.find("voltboot_z_last"), ra.find("voltboot_m_mid"));
}

// --- heartbeat stream reader -----------------------------------------

namespace
{

std::string
heartbeatLine(uint64_t seq, bool final_sample, uint64_t completed,
              double rate)
{
    std::ostringstream os;
    os << "{\"schema\": \"voltboot-heartbeat-v1\", \"seq\": " << seq
       << ", \"final\": " << (final_sample ? "true" : "false")
       << ", \"campaign\": {\"seed\": 77, \"grid\": \"board=x\", "
          "\"total_trials\": 24}"
       << ", \"progress\": {\"started\": " << completed
       << ", \"completed\": " << completed << ", \"won\": " << completed
       << ", \"failed\": 0, \"skipped\": 0}"
       << ", \"counters\": {\"trials_completed\": " << completed
       << ", \"cells_processed\": " << completed * 1000 << "}"
       << ", \"wall\": {\"unix_ms\": " << 1000000 + seq * 1000
       << ", \"elapsed_s\": " << seq << ".0, \"trials_per_sec\": "
       << rate << ", \"trials_per_sec_ewma\": " << rate
       << ", \"eta_s\": 5.0}}";
    return os.str();
}

} // namespace

TEST(Heartbeat, ReadsStreamAndToleratesTornTail)
{
    const std::string dir = tempDir("heartbeat_read");
    const std::string path = dir + "/hb.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << heartbeatLine(1, false, 4, 4.0) << "\n";
        out << "\n"; // blank line: skipped
        out << "{\"schema\": \"something-else\", \"seq\": 9}\n";
        out << heartbeatLine(2, false, 9, 5.0) << "\n";
        // Counts that are not counts drop their line: the reader is
        // strict about the lines it accepts.
        for (const char *bad : {"1e300", "-1", "2.5"}) {
            std::string line = heartbeatLine(7, false, 12, 5.0);
            const std::string field = "\"completed\": 12";
            line.replace(line.find(field), field.size(),
                         std::string("\"completed\": ") + bad);
            out << line << "\n";
        }
        out << heartbeatLine(3, true, 24, 5.5) << "\n";
        // Torn tail write from a killed process: no newline, cut mid-
        // object. Must be dropped without losing the lines before it.
        out << "{\"schema\": \"voltboot-heartbeat-v1\", \"seq\": 4, ";
    }
    const std::vector<report::Heartbeat> beats =
        report::readHeartbeats(path);
    ASSERT_EQ(beats.size(), 3u);
    EXPECT_EQ(beats[0].seq, 1u);
    EXPECT_FALSE(beats[0].final_sample);
    EXPECT_EQ(beats[0].campaign_seed, 77u);
    EXPECT_EQ(beats[0].grid_spec, "board=x");
    EXPECT_EQ(beats[0].total_trials, 24u);
    EXPECT_EQ(beats[0].completed, 4u);
    EXPECT_EQ(beats[0].counters.at("cells_processed"), 4000u);
    EXPECT_DOUBLE_EQ(beats[1].trials_per_sec, 5.0);
    EXPECT_TRUE(beats[2].final_sample);
    EXPECT_EQ(beats[2].completed, 24u);
    EXPECT_EQ(beats[2].unix_ms, 1003000u);

    const std::string summary = report::renderHeartbeatSummary(beats);
    EXPECT_NE(summary.find("clean shutdown"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Heartbeat, MissingFinalSampleReadsAsInterrupted)
{
    const std::string dir = tempDir("heartbeat_interrupted");
    const std::string path = dir + "/hb.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << heartbeatLine(1, false, 4, 4.0) << "\n";
        out << heartbeatLine(2, false, 9, 5.0) << "\n";
    }
    const std::vector<report::Heartbeat> beats =
        report::readHeartbeats(path);
    ASSERT_EQ(beats.size(), 2u);
    const std::string summary = report::renderHeartbeatSummary(beats);
    EXPECT_NE(summary.find("interrupted"), std::string::npos);
    EXPECT_EQ(summary.find("clean shutdown"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Heartbeat, EmptyStreamRendersEmpty)
{
    const std::string dir = tempDir("heartbeat_empty");
    const std::string path = dir + "/hb.jsonl";
    std::ofstream(path).close();
    EXPECT_TRUE(report::readHeartbeats(path).empty());
    EXPECT_EQ(report::renderHeartbeatSummary({}), "");
    std::filesystem::remove_all(dir);
}

// --- counter tracks (campaign progress events) -----------------------

TEST(SpanAggregator, CollectsGenericCounterTracks)
{
    std::vector<trace::TraceEvent> events;
    for (int i = 0; i < 3; ++i) {
        trace::TraceEvent e;
        e.phase = trace::Phase::Counter;
        e.category = "campaign";
        e.name = "progress.done";
        e.ts = Seconds(static_cast<double>(i));
        e.args.push_back(trace::Arg("v", 4 * (i + 1)));
        events.push_back(e);
    }
    const report::SpanAggregate agg =
        report::SpanAggregate::build(events);
    ASSERT_EQ(agg.counterTracks().count("campaign/progress.done"), 1u);
    const auto &track =
        agg.counterTracks().at("campaign/progress.done");
    ASSERT_EQ(track.size(), 3u);
    EXPECT_DOUBLE_EQ(track[0].value, 4.0);
    EXPECT_DOUBLE_EQ(track[2].value, 12.0);
    EXPECT_DOUBLE_EQ(track[2].ts_s, 2.0);
    const std::string md = agg.renderCounterTracks();
    EXPECT_NE(md.find("campaign/progress.done"), std::string::npos);
}

// --- campaign JSON parsing -------------------------------------------

TEST(CampaignJson, RoundTripsThroughResultJson)
{
    // One trial per attack family and key-recovery knob, so every
    // record column carries a family-specific value.
    CampaignConfig cfg;
    cfg.jobs = 2;
    Campaign campaign(
        SweepGrid::parse("board=pi4;attack=voltboot,coldboot,glitch,"
                         "static-extract,voltage-coupling,key-recovery;"
                         "off-ms=5;glitch-off-ns=109;glitch-width-ns=2;"
                         "glitch-depth=0.5;undervolt-depth=0.3;"
                         "hold-ns=200;dumps=1,2;prior=0,1;key=0,1;"
                         "seeds=1"),
        std::move(cfg));
    const CampaignResult result = campaign.run();

    const report::SweepDoc sweep =
        report::parseSweepJson(result.toJson(true), "sweep.json");
    EXPECT_EQ(sweep.schema, "voltboot-campaign-v1");
    EXPECT_EQ(sweep.campaign_seed, result.campaign_seed);
    ASSERT_EQ(sweep.records.size(), result.records.size());
    EXPECT_TRUE(sweep.has_timing);
    EXPECT_EQ(sweep.jobs, result.jobs);
    EXPECT_EQ(sweep.metrics.histograms.count("campaign.trial_wall_s"),
              1u);

    // Every column survives the reader: the records it yields render
    // the same JSON and CSV bytes as the originals.
    CampaignResult reread;
    reread.campaign_seed = sweep.campaign_seed;
    reread.grid_spec = sweep.grid;
    reread.records = sweep.records;
    EXPECT_EQ(reread.toJson(), result.toJson());
    EXPECT_EQ(reread.toCsv(), result.toCsv());

    // The canonical document has no timing section.
    const report::SweepDoc bare =
        report::parseSweepJson(result.toJson(false));
    EXPECT_FALSE(bare.has_timing);
}

TEST(CampaignJson, RejectsSchemaViolations)
{
    EXPECT_THROW(report::parseSweepJson("{}"), report::JsonParseError);
    EXPECT_THROW(
        report::parseSweepJson(
            R"({"schema": "other", "campaign_seed": 1, "grid": "g",)"
            R"( "trials": 0, "records": []})"),
        report::JsonParseError);
    // trials / record-count mismatch.
    EXPECT_THROW(
        report::parseSweepJson(
            R"({"schema": "voltboot-campaign-v1", "campaign_seed": 1,)"
            R"( "grid": "g", "trials": 3, "records": []})"),
        report::JsonParseError);
    // Counts must be integers in [0, 2^64), rejected at their position.
    for (const char *bad : {"1e300", "-1", "2.5", "18446744073709551616"}) {
        const std::string doc =
            std::string(R"({"schema": "voltboot-campaign-v1", )"
                        R"("campaign_seed": 1, "grid": "g", "trials": )") +
            bad + R"(, "records": []})";
        try {
            report::parseSweepJson(doc, "sweep.json");
            ADD_FAILURE() << "accepted trials = " << bad;
        } catch (const report::JsonParseError &e) {
            EXPECT_NE(std::string(e.what()).find("sweep.json:1:"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("\"trials\""),
                      std::string::npos)
                << e.what();
        }
    }
    CampaignResult one;
    one.records.resize(1);
    std::string fractional = one.toJson();
    const std::string field = "\"dump_bytes\": 0";
    fractional.replace(fractional.find(field), field.size(),
                       "\"dump_bytes\": 2.5");
    EXPECT_THROW(report::parseSweepJson(fractional),
                 report::JsonParseError);

    // Unknown status/attack/target names fail at the value's position.
    for (const auto &[good, bad] :
         std::vector<std::pair<std::string, std::string>>{
             {"\"status\": \"skipped\"", "\"status\": \"bogus\""},
             {"\"attack\": \"voltboot\"", "\"attack\": \"warmboot\""},
             {"\"target\": \"dcache\"", "\"target\": \"l9cache\""}}) {
        std::string doc = one.toJson();
        const size_t at = doc.find(good);
        ASSERT_NE(at, std::string::npos) << good;
        doc.replace(at, good.size(), bad);
        const size_t value = at + bad.find(": ") + 2;
        const size_t line_start = doc.rfind('\n', value) + 1;
        try {
            report::parseSweepJson(doc, "sweep.json");
            ADD_FAILURE() << "accepted " << bad;
        } catch (const report::JsonParseError &e) {
            EXPECT_EQ(e.line(), static_cast<size_t>(std::count(
                                    doc.begin(), doc.begin() + value,
                                    '\n')) + 1)
                << e.what();
            EXPECT_EQ(e.column(), value - line_start + 1) << e.what();
            EXPECT_NE(std::string(e.what()).find("unknown value"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CampaignJson, ParsesBaseline)
{
    const report::Baseline base = report::parseBaselineJson(
        R"({"bench": "campaign_throughput", "trials": 64, "runs": [)"
        R"({"jobs": 1, "wall_seconds": 8.0, "trials_per_second": 8.0},)"
        R"({"jobs": 4, "wall_seconds": 2.0, "trials_per_second": 32.0})"
        R"(]})");
    EXPECT_EQ(base.bench, "campaign_throughput");
    EXPECT_DOUBLE_EQ(base.bestTrialsPerSecond(), 32.0);
    ASSERT_NE(base.runForJobs(4), nullptr);
    EXPECT_DOUBLE_EQ(base.runForJobs(4)->trials_per_second, 32.0);
    EXPECT_EQ(base.runForJobs(2), nullptr);
}

// --- campaign report -------------------------------------------------

TEST(CampaignReport, ByteDeterministicAcrossJobCounts)
{
    auto reportForJobs = [](unsigned jobs) {
        const std::string dir =
            tempDir("report_jobs_" + std::to_string(jobs));
        CampaignConfig cfg;
        cfg.jobs = jobs;
        cfg.trace_dir = dir;
        Campaign campaign(
            SweepGrid::parse(
                "board=pi4;attack=voltboot,coldboot;off-ms=5;seeds=1"),
            std::move(cfg));
        const CampaignResult result = campaign.run();

        const report::SweepDoc sweep =
            report::parseSweepJson(result.toJson(false));
        report::CampaignReportOptions opts;
        opts.trace_dir = dir;
        opts.check = true;
        const report::CampaignReport rep =
            report::buildCampaignReport(sweep, opts);
        EXPECT_TRUE(rep.problems.empty())
            << (rep.problems.empty() ? std::string()
                                     : rep.problems.front());
        return rep.markdown;
    };

    const std::string md1 = reportForJobs(1);
    const std::string md4 = reportForJobs(4);
    EXPECT_EQ(md1, md4);
    EXPECT_NE(md1.find("## Outcome summary"), std::string::npos);
    EXPECT_NE(md1.find("## Retention vs power-off time"),
              std::string::npos);
    EXPECT_NE(md1.find("invariant check: PASS"), std::string::npos);
    // Canonical sweeps must not leak wall-clock content.
    EXPECT_EQ(md1.find("## Wall clock"), std::string::npos);
}

TEST(CampaignReport, FlagsThroughputRegression)
{
    report::SweepDoc sweep;
    sweep.schema = "voltboot-campaign-v1";
    sweep.grid = "g";
    sweep.has_timing = true;
    sweep.jobs = 4;
    sweep.wall_seconds = 10.0;
    sweep.trials_per_second = 10.0;

    report::Baseline base;
    base.bench = "campaign_throughput";
    base.runs.push_back({4, 1.0, 1000.0});

    report::CampaignReportOptions opts;
    opts.baseline = &base;
    opts.regression_threshold = 0.5;
    const report::CampaignReport rep =
        report::buildCampaignReport(sweep, opts);
    ASSERT_EQ(rep.problems.size(), 1u);
    EXPECT_NE(rep.problems[0].find("throughput_regression"),
              std::string::npos);
    EXPECT_NE(rep.markdown.find("**REGRESSION**"), std::string::npos);

    // Within threshold: no problem.
    base.runs[0].trials_per_second = 15.0;
    EXPECT_TRUE(report::buildCampaignReport(sweep, opts)
                    .problems.empty());
}

TEST(CampaignReport, MissingTraceIsAProblemUnderCheck)
{
    report::SweepDoc sweep;
    sweep.schema = "voltboot-campaign-v1";
    sweep.grid = "g";
    TrialRecord rec;
    rec.status = TrialStatus::Ok;
    sweep.records.push_back(rec);

    report::CampaignReportOptions opts;
    opts.trace_dir = tempDir("report_missing_traces");
    opts.check = true;
    const report::CampaignReport rep =
        report::buildCampaignReport(sweep, opts);
    ASSERT_EQ(rep.problems.size(), 1u);
    EXPECT_NE(rep.problems[0].find("missing trace file"),
              std::string::npos);

    // Without --check, the gap is reported but not fatal.
    opts.check = false;
    EXPECT_TRUE(report::buildCampaignReport(sweep, opts)
                    .problems.empty());
}

// --- the CLI end to end ----------------------------------------------

#ifdef VOLTBOOT_CLI_PATH

struct CliResult
{
    int exit_code;
    std::string out;
    std::string err;
};

CliResult
runCli(const std::string &args, const std::string &dir)
{
    const std::string out_path = dir + "/cli_stdout.txt";
    const std::string err_path = dir + "/cli_stderr.txt";
    const std::string cmd = std::string(VOLTBOOT_CLI_PATH) + " " + args +
                            " > " + out_path + " 2> " + err_path;
    const int status = std::system(cmd.c_str());
    CliResult r;
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    r.out = readFile(out_path);
    r.err = readFile(err_path);
    return r;
}

TEST(Cli, ReportUsageErrorsExitTwo)
{
    const std::string dir = tempDir("cli_usage");
    EXPECT_EQ(runCli("report", dir).exit_code, 2);
    EXPECT_EQ(runCli("report bogus file", dir).exit_code, 2);
    EXPECT_EQ(runCli("report trace f.jsonl --format prom", dir)
                  .exit_code,
              2);
    EXPECT_EQ(runCli("report trace f.jsonl --bogus", dir).exit_code, 2);
    // A readable usage hint lands on stderr.
    EXPECT_NE(runCli("report", dir).err.find("usage:"),
              std::string::npos);
}

TEST(Cli, ReportTraceChecksAndWritesToStdout)
{
    const std::string dir = tempDir("cli_trace");
    const std::string trace_path = dir + "/trace.jsonl";

    // A real single-trial trace via the library (fast, deterministic).
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        runTrial(SweepGrid::parse(
                     "board=pi4;attack=voltboot;off-ms=5;seeds=1")
                     .at(0),
                 0x5eed);
    }
    CampaignResult::writeFile(trace_path,
                              trace::toJsonl(sink.events()));

    const CliResult ok =
        runCli("report trace " + trace_path + " --check", dir);
    EXPECT_EQ(ok.exit_code, 0) << ok.err;
    EXPECT_NE(ok.out.find("# Trace report"), std::string::npos);
    EXPECT_NE(ok.out.find("PASS"), std::string::npos);

    // `--out -` is the default; an explicit file works too.
    const CliResult filed = runCli("report trace " + trace_path +
                                       " --out " + dir + "/report.md",
                                   dir);
    EXPECT_EQ(filed.exit_code, 0);
    EXPECT_NE(readFile(dir + "/report.md").find("# Trace report"),
              std::string::npos);

    // Unreadable input is a data error: exit 1, not a usage error.
    EXPECT_EQ(runCli("report trace " + dir + "/absent.jsonl", dir)
                  .exit_code,
              1);
}

TEST(Cli, ReportTraceNamesInvariantOnCorruptedTrace)
{
    const std::string dir = tempDir("cli_corrupt");
    const std::string trace_path = dir + "/corrupt.jsonl";

    // A probe-held rail that dips below its own droop minimum.
    std::vector<trace::TraceEvent> events;
    events.push_back(instantAt("power", "probe_attach", 0.0,
                               {{"domain", "VDD_CORE"},
                                {"voltage_v", 0.8}}));
    events.push_back(instantAt("power", "probe_transient", 0.001,
                               {{"domain", "VDD_CORE"},
                                {"v_min", 0.7},
                                {"v_settled", 0.78}}));
    events.push_back(counterAt("voltage.VDD_CORE", 0.002, 0.1));
    CampaignResult::writeFile(trace_path, trace::toJsonl(events));

    const CliResult r =
        runCli("report trace " + trace_path + " --check", dir);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("probe_hold"), std::string::npos) << r.err;

    // Without --check the same trace renders fine.
    EXPECT_EQ(runCli("report trace " + trace_path, dir).exit_code, 0);
}

TEST(Cli, ReportCampaignEndToEnd)
{
    const std::string dir = tempDir("cli_campaign");
    const std::string traces = dir + "/traces";

    const CliResult sweep = runCli(
        "sweep --grid \"board=pi4;attack=voltboot,coldboot;off-ms=5;"
        "seeds=1\" --jobs 2 --timing --quiet --out " +
            dir + "/sweep.json --trace-dir " + traces,
        dir);
    ASSERT_EQ(sweep.exit_code, 0) << sweep.err;

    const CliResult rep = runCli("report campaign " + dir +
                                     "/sweep.json --trace-dir " +
                                     traces + " --check",
                                 dir);
    EXPECT_EQ(rep.exit_code, 0) << rep.err;
    EXPECT_NE(rep.out.find("# Campaign report"), std::string::npos);
    EXPECT_NE(rep.out.find("invariant check: PASS"), std::string::npos);
    EXPECT_NE(rep.out.find("## Wall clock"), std::string::npos);

    // Prometheus exposition of the sweep's metrics snapshot.
    const CliResult prom = runCli(
        "report campaign " + dir + "/sweep.json --format prom", dir);
    EXPECT_EQ(prom.exit_code, 0) << prom.err;
    EXPECT_NE(prom.out.find("# TYPE voltboot_campaign_trial_wall_s "
                            "summary"),
              std::string::npos);

    // `-` for --metrics goes to stdout.
    const CliResult metrics = runCli(
        "sweep --grid \"board=pi4;attack=voltboot;off-ms=5;seeds=1\" "
        "--jobs 1 --quiet --metrics -",
        dir);
    EXPECT_EQ(metrics.exit_code, 0) << metrics.err;
    EXPECT_NE(metrics.out.find("\"counters\""), std::string::npos);
}

TEST(Cli, ReportRejectsHostileNestingWithExitOne)
{
    // Used to segfault (exit 139): 30,000 levels exhausted the stack.
    const std::string dir = tempDir("cli_deep");
    const std::string path = dir + "/deep.json";
    CampaignResult::writeFile(path, nestedJson(30000, false));
    for (const char *sub : {"campaign", "trace"}) {
        const CliResult r =
            runCli(std::string("report ") + sub + " " + path, dir);
        EXPECT_EQ(r.exit_code, 1) << sub;
        EXPECT_NE(r.err.find("deep.json:1:" +
                             std::to_string(report::kMaxJsonDepth + 1) +
                             ": nesting deeper than"),
                  std::string::npos)
            << sub << ": " << r.err;
    }
}

TEST(Cli, SweepRejectsAnUnwritableHeartbeatPath)
{
    const std::string dir = tempDir("cli_heartbeat_path");
    const std::string bad = dir + "/no_such_dir/hb.jsonl";
    const CliResult r = runCli(
        "sweep --grid \"board=pi4;attack=voltboot;seeds=1\" --quiet "
        "--heartbeat " +
            bad + " --out " + dir + "/sweep.json",
        dir);
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find(bad), std::string::npos) << r.err;
    EXPECT_FALSE(std::filesystem::exists(dir + "/sweep.json"));
}

TEST(Cli, SweepTraceDirWritesProgressEvents)
{
    const std::string dir = tempDir("cli_progress");
    const std::string traces = dir + "/traces";
    const CliResult sweep = runCli(
        "sweep --grid \"board=pi4;attack=voltboot,coldboot;off-ms=5;"
        "seeds=1\" --jobs 2 --quiet --trace-dir " +
            traces,
        dir);
    ASSERT_EQ(sweep.exit_code, 0) << sweep.err;

    const std::vector<trace::TraceEvent> events =
        report::readTraceFile(traces + "/progress.jsonl");
    const trace::TraceEvent *last_done = nullptr;
    for (const trace::TraceEvent &e : events)
        if (e.name == "progress.done")
            last_done = &e;
    ASSERT_NE(last_done, nullptr);
    ASSERT_EQ(last_done->args.size(), 1u);
    EXPECT_EQ(last_done->args[0].json, "2");
}

TEST(Cli, SweepListAxesEnumeratesEveryAxis)
{
    const std::string dir = tempDir("cli_axes");
    const CliResult r = runCli("sweep --list-axes", dir);
    EXPECT_EQ(r.exit_code, 0) << r.err;
    for (const char *axis :
         {"board", "target", "attack", "temp", "off-ms", "current",
          "impedance-mohm", "glitch-off-ns", "glitch-width-ns",
          "glitch-depth", "undervolt-depth", "hold-ns", "readout-rate",
          "cpa-window-ns", "dumps", "prior", "key", "seeds"})
        EXPECT_NE(r.out.find(std::string("\n") + axis + " "),
                  std::string::npos)
            << axis;
    // The attack row names every family the parser accepts.
    const size_t row = r.out.find("\nattack ");
    ASSERT_NE(row, std::string::npos);
    const std::string attack_row =
        r.out.substr(row + 1, r.out.find('\n', row + 1) - row - 1);
    for (const char *attack : kAttackNames)
        EXPECT_NE(attack_row.find(attack), std::string::npos)
            << attack << " missing from: " << attack_row;
    EXPECT_NE(r.out.find("unit"), std::string::npos);
    EXPECT_NE(r.out.find("Enumeration order"), std::string::npos);
}

TEST(Cli, GlitchSweepTracesPassTheChecker)
{
    const std::string dir = tempDir("cli_glitch");
    const std::string traces = dir + "/traces";
    const CliResult sweep = runCli(
        "sweep --grid \"attack=glitch;glitch-off-ns=109;"
        "glitch-width-ns=2;glitch-depth=0.04,0.5;seeds=1\" --jobs 1 "
        "--quiet --out " +
            dir + "/sweep.json --trace-dir " + traces,
        dir);
    ASSERT_EQ(sweep.exit_code, 0) << sweep.err;
    for (const char *trial :
         {"/trial_000000.jsonl", "/trial_000001.jsonl"}) {
        const CliResult check =
            runCli("report trace " + traces + trial +
                       " --check --out " + dir + "/report.md",
                   dir);
        EXPECT_EQ(check.exit_code, 0) << trial << ": " << check.err;
    }
}

TEST(Cli, RetentionPathAcceptsFastAndReferenceOnly)
{
    const std::string dir = tempDir("cli_retention_path");
    // One pi4 cold-boot trial in a partial-loss cell, so the retention
    // kernel decides which cells survive.
    const std::string sweep =
        "sweep --grid \"board=pi4;attack=coldboot;temp=-110;off-ms=20;"
        "seeds=1\" --jobs 1 --quiet --out ";

    const CliResult bad =
        runCli(sweep + dir + "/bad.json --retention-path fast-cached", dir);
    EXPECT_EQ(bad.exit_code, 2);
    EXPECT_NE(bad.err.find("expected fast or reference"),
              std::string::npos)
        << bad.err;

    const CliResult fast = runCli(sweep + dir + "/fast.json", dir);
    ASSERT_EQ(fast.exit_code, 0) << fast.err;
    const CliResult ref = runCli(
        sweep + dir + "/reference.json --retention-path reference", dir);
    ASSERT_EQ(ref.exit_code, 0) << ref.err;
    const std::string fast_json = readFile(dir + "/fast.json");
    EXPECT_FALSE(fast_json.empty());
    EXPECT_EQ(readFile(dir + "/reference.json"), fast_json);
}

TEST(Cli, ColdbootAgreesWithTheOneTrialSweep)
{
    // coldboot is the one-trial sweep at the default seed, so it scores
    // the dump against the staged victim's full L1D image.
    const std::string dir = tempDir("cli_coldboot");
    const CliResult cold =
        runCli("coldboot --board pi4 --temp -110 --off-ms 5", dir);
    ASSERT_EQ(cold.exit_code, 0) << cold.err;
    const CliResult sweep = runCli(
        "sweep --grid \"board=pi4;attack=coldboot;temp=-110;off-ms=5\" "
        "--jobs 1 --quiet --out " +
            dir + "/sweep.json",
        dir);
    ASSERT_EQ(sweep.exit_code, 0) << sweep.err;
    const report::SweepDoc doc = report::readSweepFile(dir + "/sweep.json");
    ASSERT_EQ(doc.records.size(), 1u);
    const std::string expected =
        "error vs stored pattern: " +
        TextTable::pct(doc.records[0].bit_error_rate) + " ";
    EXPECT_NE(cold.out.find(expected), std::string::npos)
        << "expected '" << expected << "' in:\n"
        << cold.out;
}

TEST(Cli, AttackAgreesWithTheOneTrialSweep)
{
    // attack runs on the one-trial sweep's bench: the same die, probe
    // and staged victim. A 0.2 A probe is current-limited, so the dump
    // decays and the two error rates only agree on the same die.
    const std::string dir = tempDir("cli_attack_sweep");
    const CliResult attack =
        runCli("attack --board pi4 --current 0.2", dir);
    ASSERT_EQ(attack.exit_code, 0) << attack.err;
    const CliResult sweep = runCli(
        "sweep --grid \"board=pi4;attack=voltboot;current=0.2\" "
        "--jobs 1 --quiet --out " +
            dir + "/sweep.json",
        dir);
    ASSERT_EQ(sweep.exit_code, 0) << sweep.err;
    const report::SweepDoc doc = report::readSweepFile(dir + "/sweep.json");
    ASSERT_EQ(doc.records.size(), 1u);
    ASSERT_LT(doc.records[0].accuracy, 1.0);
    const std::string expected =
        "error vs staged victim: " +
        TextTable::pct(doc.records[0].bit_error_rate) + " ";
    EXPECT_NE(attack.out.find(expected), std::string::npos)
        << "expected '" << expected << "' in:\n"
        << attack.out;
}

TEST(Cli, AttackRunsTheStagedVictim)
{
    const std::string dir = tempDir("cli_attack");
    const CliResult ok = runCli("attack --board pi4 --target dcache", dir);
    ASSERT_EQ(ok.exit_code, 0) << ok.err;
    for (const char *step : {"step 1:", "step 2:", "step 3:"})
        EXPECT_NE(ok.out.find(step), std::string::npos) << ok.out;
    // The whole 32 KiB L1D holds the staged pattern.
    EXPECT_NE(ok.out.find("dump: 32768 bytes"), std::string::npos)
        << ok.out;
    EXPECT_NE(ok.out.find("00000000  aa aa aa aa"), std::string::npos)
        << ok.out;

    const CliResult pad = runCli("attack --board pi4 --pad PP58", dir);
    EXPECT_EQ(pad.exit_code, 1);
    EXPECT_NE(pad.out.find("attack failed: no such test pad: PP58"),
              std::string::npos)
        << pad.out;

    const CliResult target = runCli("attack --target foo", dir);
    EXPECT_EQ(target.exit_code, 2);
    EXPECT_EQ(target.out.find("step "), std::string::npos) << target.out;
    EXPECT_NE(target.err.find("unknown target 'foo'"), std::string::npos)
        << target.err;
    EXPECT_NE(target.err.find("usage:"), std::string::npos);
}

TEST(Cli, AttackFlagsRejectBadNumbersBeforeRunning)
{
    const std::string dir = tempDir("cli_attack_flags");
    for (const char *args :
         {"coldboot --temp nan", "coldboot --temp inf",
          "coldboot --off-ms -5", "coldboot --temp 1e308",
          "attack --current -1", "attack --off-ms 1e12"}) {
        const CliResult r = runCli(args, dir);
        EXPECT_EQ(r.exit_code, 2) << args;
        const std::string cmd(args);
        const std::string flag = cmd.substr(
            cmd.find("--"), cmd.rfind(' ') - cmd.find("--"));
        EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
        EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
        EXPECT_EQ(r.out.find("step "), std::string::npos) << r.out;
        EXPECT_EQ(r.out.find("cold boot at"), std::string::npos) << r.out;
    }
}

TEST(Cli, SweepRejectsARepeatedGridValue)
{
    const std::string dir = tempDir("cli_grid_repeat");
    for (const auto &[grid, msg] :
         std::vector<std::pair<const char *, const char *>>{
             {"board=pi4,pi4", "grid key 'board' repeats value 'pi4'"},
             {"temp=25,25.0", "grid key 'temp' repeats value '25.0'"}}) {
        const CliResult r = runCli(std::string("sweep --grid \"") + grid +
                                       "\" --jobs 1 --out " + dir +
                                       "/r.json --quiet",
                                   dir);
        EXPECT_EQ(r.exit_code, 1) << grid;
        EXPECT_NE(r.err.find(msg), std::string::npos) << r.err;
        EXPECT_FALSE(std::filesystem::exists(dir + "/r.json")) << grid;
    }
}

#endif // VOLTBOOT_CLI_PATH

} // namespace
