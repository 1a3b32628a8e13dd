#include "report/campaign_json.hh"

#include <fstream>
#include <sstream>
#include <type_traits>

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

/** @p v, the value of @p key, checked to be of @p kind. */
const JsonValue &
expect(const JsonValue &v, const char *key, JsonValue::Kind kind,
       const std::string &source)
{
    if (v.kind != kind)
        schemaFail(source, v,
                   std::string("key \"") + key + "\" must be a " +
                       JsonValue::kindName(kind) + ", got " +
                       JsonValue::kindName(v.kind));
    return v;
}

const JsonValue &
member(const JsonValue &object, const char *key, JsonValue::Kind kind,
       const std::string &source)
{
    const JsonValue *v = object.find(key);
    if (v == nullptr)
        schemaFail(source, object,
                   std::string("missing required key \"") + key + "\"");
    return expect(*v, key, kind, source);
}

double
num(const JsonValue &object, const char *key, const std::string &source)
{
    return member(object, key, JsonValue::Kind::Number, source).number;
}

uint64_t
count(const JsonValue &v, const char *key, const std::string &source)
{
    const std::optional<uint64_t> n =
        expect(v, key, JsonValue::Kind::Number, source).asCount();
    if (!n)
        schemaFail(source, v,
                   std::string("key \"") + key +
                       "\" must be an integer in [0, 2^64), got " +
                       v.text);
    return *n;
}

uint64_t
uns(const JsonValue &object, const char *key, const std::string &source)
{
    return count(member(object, key, JsonValue::Kind::Number, source), key,
                 source);
}

std::string
str(const JsonValue &object, const char *key, const std::string &source)
{
    return member(object, key, JsonValue::Kind::String, source).text;
}

/** The enumerator named by string @p v, the value of @p key. */
template <class E, size_t N>
E
readName(const JsonValue &v, const char *key, const std::string &source,
         const std::array<const char *, N> &names)
{
    const std::string &name =
        expect(v, key, JsonValue::Kind::String, source).text;
    const std::optional<E> value = enumFromName<E>(names, name);
    if (!value)
        schemaFail(source, v,
                   std::string("key \"") + key + "\" has unknown value \"" +
                       name + "\" (" + joinNames(names) + ")");
    return *value;
}

/** Read @p v, the value of record column @p key, into @p out. */
template <class T>
void
readValue(const JsonValue &v, const char *key, const std::string &source,
          T &out)
{
    using Kind = JsonValue::Kind;
    if constexpr (std::is_same_v<T, uint64_t>)
        out = count(v, key, source);
    else if constexpr (std::is_same_v<T, double>)
        out = expect(v, key, Kind::Number, source).number;
    else if constexpr (std::is_same_v<T, bool>)
        out = expect(v, key, Kind::Bool, source).boolean;
    else if constexpr (std::is_same_v<T, std::string>)
        out = expect(v, key, Kind::String, source).text;
    else if constexpr (std::is_same_v<T, TargetRam>)
        out = readName<T>(v, key, source, kTargetNames);
    else if constexpr (std::is_same_v<T, AttackKind>)
        out = readName<T>(v, key, source, kAttackNames);
    else
        out = readName<T>(v, key, source, kStatusNames);
}

TrialRecord
readRecord(const JsonValue &object, const std::string &source)
{
    if (!object.isObject())
        schemaFail(source, object, "records must be objects");
    TrialRecord rec;
    for (const RecordColumn &c : kRecordColumns) {
        const JsonValue *v = object.find(c.name);
        if (v == nullptr) {
            if (c.use == RecordColumn::Required)
                schemaFail(source, object,
                           std::string("missing required key \"") +
                               c.name + "\"");
            continue;
        }
        std::visit(
            [&](const auto &m) { readValue(*v, c.name, source, m.of(rec)); },
            c.member);
    }
    return rec;
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
    for (const JsonValue &r : records.items)
        sweep.records.push_back(readRecord(r, source));

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
