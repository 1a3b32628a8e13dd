#include "report/campaign_json.hh"

#include <fstream>
#include <sstream>

#include "report/json.hh"
#include "sim/logging.hh"

namespace voltboot
{
namespace report
{

namespace
{

[[noreturn]] void
schemaFail(const std::string &source, const JsonValue &at,
           const std::string &detail)
{
    throw JsonParseError(source, at.line, at.column, detail);
}

const JsonValue &
member(const JsonValue &object, const char *key, JsonValue::Kind kind,
       const std::string &source)
{
    const JsonValue *v = object.find(key);
    if (v == nullptr)
        schemaFail(source, object,
                   std::string("missing required key \"") + key + "\"");
    if (v->kind != kind)
        schemaFail(source, *v,
                   std::string("key \"") + key + "\" must be a " +
                       JsonValue::kindName(kind) + ", got " +
                       JsonValue::kindName(v->kind));
    return *v;
}

double
num(const JsonValue &object, const char *key, const std::string &source)
{
    return member(object, key, JsonValue::Kind::Number, source).number;
}

uint64_t
uns(const JsonValue &object, const char *key, const std::string &source)
{
    const JsonValue &v =
        member(object, key, JsonValue::Kind::Number, source);
    const std::optional<uint64_t> n = v.asCount();
    if (!n)
        schemaFail(source, v,
                   std::string("key \"") + key +
                       "\" must be an integer in [0, 2^64), got " +
                       v.text);
    return *n;
}

std::string
str(const JsonValue &object, const char *key, const std::string &source)
{
    return member(object, key, JsonValue::Kind::String, source).text;
}

bool
boolean(const JsonValue &object, const char *key,
        const std::string &source)
{
    return member(object, key, JsonValue::Kind::Bool, source).boolean;
}

std::string
readFileOrFatal(const std::string &path, const char *what)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open ", what, " '", path, "'");
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

trace::MetricsSnapshot
parseMetrics(const JsonValue &obj, const std::string &source)
{
    trace::MetricsSnapshot snap;
    for (const auto &[name, value] :
         member(obj, "counters", JsonValue::Kind::Object, source)
             .members) {
        if (!value.isNumber())
            schemaFail(source, value, "counter values must be numbers");
        snap.counters[name] = value.number;
    }
    for (const auto &[name, value] :
         member(obj, "gauges", JsonValue::Kind::Object, source)
             .members) {
        if (!value.isNumber())
            schemaFail(source, value, "gauge values must be numbers");
        snap.gauges[name] = value.number;
    }
    for (const auto &[name, value] :
         member(obj, "histograms", JsonValue::Kind::Object, source)
             .members) {
        if (!value.isObject())
            schemaFail(source, value,
                       "histogram entries must be objects");
        trace::HistogramSummary h;
        h.count = uns(value, "count", source);
        h.mean = num(value, "mean", source);
        h.min = num(value, "min", source);
        h.max = num(value, "max", source);
        h.p50 = num(value, "p50", source);
        h.p90 = num(value, "p90", source);
        h.p99 = num(value, "p99", source);
        snap.histograms[name] = h;
    }
    return snap;
}

} // namespace

SweepDoc
parseSweepJson(std::string_view text, const std::string &source)
{
    const JsonValue doc = parseJson(text, source);
    if (!doc.isObject())
        schemaFail(source, doc, "campaign document must be an object");

    SweepDoc sweep;
    sweep.schema = str(doc, "schema", source);
    if (sweep.schema != "voltboot-campaign-v1")
        schemaFail(source, *doc.find("schema"),
                   "unsupported schema \"" + sweep.schema +
                       "\" (expected voltboot-campaign-v1)");
    sweep.campaign_seed = uns(doc, "campaign_seed", source);
    sweep.grid = str(doc, "grid", source);

    const JsonValue &records =
        member(doc, "records", JsonValue::Kind::Array, source);
    const uint64_t trials = uns(doc, "trials", source);
    if (trials != records.items.size())
        schemaFail(source, records,
                   "\"trials\" (" + std::to_string(trials) +
                       ") does not match the record count (" +
                       std::to_string(records.items.size()) + ")");

    sweep.records.reserve(records.items.size());
    for (const JsonValue &r : records.items) {
        if (!r.isObject())
            schemaFail(source, r, "records must be objects");
        SweepRecord rec;
        rec.index = uns(r, "index", source);
        rec.board = str(r, "board", source);
        rec.target = str(r, "target", source);
        rec.attack = str(r, "attack", source);
        rec.temp_c = num(r, "temp_c", source);
        rec.off_ms = num(r, "off_ms", source);
        rec.current_a = num(r, "current_a", source);
        rec.impedance_mohm = num(r, "impedance_mohm", source);
        rec.seed_index = uns(r, "seed_index", source);
        rec.chip_seed = uns(r, "chip_seed", source);
        rec.status = str(r, "status", source);
        rec.detail = str(r, "detail", source);
        rec.probe_attached = boolean(r, "probe_attached", source);
        rec.booted = boolean(r, "booted", source);
        rec.dump_bytes = uns(r, "dump_bytes", source);
        rec.accuracy = num(r, "accuracy", source);
        rec.bit_error_rate = num(r, "bit_error_rate", source);
        rec.key_planted = boolean(r, "key_planted", source);
        rec.key_found = boolean(r, "key_found", source);
        rec.key_exact = boolean(r, "key_exact", source);
        // Glitch fields postdate the v1 schema; absent in old sweeps.
        if (r.find("glitch_off_ns"))
            rec.glitch_off_ns = num(r, "glitch_off_ns", source);
        if (r.find("glitch_width_ns"))
            rec.glitch_width_ns = num(r, "glitch_width_ns", source);
        if (r.find("glitch_depth_v"))
            rec.glitch_depth_v = num(r, "glitch_depth_v", source);
        if (r.find("glitch_faults"))
            rec.glitch_faults = uns(r, "glitch_faults", source);
        if (r.find("glitch_effect"))
            rec.glitch_effect = str(r, "glitch_effect", source);
        if (r.find("glitch_bypassed"))
            rec.glitch_bypassed = boolean(r, "glitch_bypassed", source);
        if (r.find("undervolt_depth_v"))
            rec.undervolt_depth_v = num(r, "undervolt_depth_v", source);
        if (r.find("hold_ns"))
            rec.hold_ns = num(r, "hold_ns", source);
        if (r.find("readout_rate"))
            rec.readout_rate = num(r, "readout_rate", source);
        if (r.find("cpa_window_ns"))
            rec.cpa_window_ns = num(r, "cpa_window_ns", source);
        if (r.find("se_frozen"))
            rec.se_frozen = boolean(r, "se_frozen", source);
        if (r.find("se_zeroized"))
            rec.se_zeroized = boolean(r, "se_zeroized", source);
        if (r.find("se_read_fraction"))
            rec.se_read_fraction = num(r, "se_read_fraction", source);
        if (r.find("cpa_recovered"))
            rec.cpa_recovered = uns(r, "cpa_recovered", source);
        if (r.find("dump_count"))
            rec.dump_count = uns(r, "dump_count", source);
        if (r.find("use_priors"))
            rec.use_priors = boolean(r, "use_priors", source);
        if (r.find("kr_scan_hits"))
            rec.kr_scan_hits = uns(r, "kr_scan_hits", source);
        if (r.find("kr_corrected_hits"))
            rec.kr_corrected_hits = uns(r, "kr_corrected_hits", source);
        if (r.find("kr_bit_errors"))
            rec.kr_bit_errors = uns(r, "kr_bit_errors", source);
        if (r.find("kr_key_bits_flipped"))
            rec.kr_key_bits_flipped =
                uns(r, "kr_key_bits_flipped", source);
        if (r.find("kr_correction_iterations"))
            rec.kr_correction_iterations =
                uns(r, "kr_correction_iterations", source);
        if (r.find("kr_disagreeing_bits"))
            rec.kr_disagreeing_bits =
                uns(r, "kr_disagreeing_bits", source);
        sweep.records.push_back(std::move(rec));
    }

    if (const JsonValue *timing = doc.find("timing")) {
        if (!timing->isObject())
            schemaFail(source, *timing, "\"timing\" must be an object");
        sweep.has_timing = true;
        sweep.wall_seconds = num(*timing, "wall_seconds", source);
        sweep.jobs = uns(*timing, "jobs", source);
        sweep.trials_per_second =
            num(*timing, "trials_per_second", source);
        if (const JsonValue *metrics = timing->find("metrics"))
            sweep.metrics = parseMetrics(*metrics, source);
    }
    return sweep;
}

SweepDoc
readSweepFile(const std::string &path)
{
    return parseSweepJson(readFileOrFatal(path, "sweep result"), path);
}

double
Baseline::bestTrialsPerSecond() const
{
    double best = 0.0;
    for (const BaselineRun &run : runs)
        best = std::max(best, run.trials_per_second);
    return best;
}

const BaselineRun *
Baseline::runForJobs(uint64_t jobs) const
{
    for (const BaselineRun &run : runs)
        if (run.jobs == jobs)
            return &run;
    return nullptr;
}

Baseline
parseBaselineJson(std::string_view text, const std::string &source)
{
    const JsonValue doc = parseJson(text, source);
    if (!doc.isObject())
        schemaFail(source, doc, "baseline document must be an object");

    Baseline base;
    base.bench = str(doc, "bench", source);
    base.trials = uns(doc, "trials", source);
    for (const JsonValue &r :
         member(doc, "runs", JsonValue::Kind::Array, source).items) {
        if (!r.isObject())
            schemaFail(source, r, "baseline runs must be objects");
        BaselineRun run;
        run.jobs = uns(r, "jobs", source);
        run.wall_seconds = num(r, "wall_seconds", source);
        run.trials_per_second = num(r, "trials_per_second", source);
        base.runs.push_back(run);
    }
    return base;
}

Baseline
readBaselineFile(const std::string &path)
{
    return parseBaselineJson(readFileOrFatal(path, "baseline"), path);
}

} // namespace report
} // namespace voltboot
