#include "campaign/campaign_result.hh"

#include <algorithm>
#include <fstream>
#include <string_view>
#include <type_traits>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace voltboot
{

const char *
toString(TrialStatus status)
{
    return kStatusNames.at(static_cast<size_t>(status));
}

CampaignSummary
CampaignResult::summary() const
{
    CampaignSummary s;
    s.trials = records.size();
    for (const TrialRecord &r : records) {
        switch (r.status) {
          case TrialStatus::Ok:
            ++s.ok;
            s.accuracy.add(r.accuracy);
            s.bit_error_rate.add(r.bit_error_rate);
            break;
          case TrialStatus::AttackFailed:
            ++s.attack_failed;
            break;
          case TrialStatus::Error:
            ++s.errors;
            break;
          case TrialStatus::Skipped:
            ++s.skipped;
            break;
        }
        s.booted += r.booted;
        s.keys_planted += r.key_planted;
        s.keys_found += r.key_found;
        s.keys_exact += r.key_exact;
        if (r.spec.attack == AttackKind::Glitch) {
            ++s.glitch_trials;
            s.glitch_bypassed += r.glitch_bypassed;
        }
        if (r.spec.attack == AttackKind::StaticExtract) {
            ++s.static_trials;
            s.static_frozen += r.se_frozen;
        }
        if (r.spec.attack == AttackKind::VoltageCoupling) {
            ++s.coupling_trials;
            s.cpa_key_bytes += r.cpa_recovered;
        }
        if (r.spec.attack == AttackKind::KeyRecovery) {
            ++s.keyrecovery_trials;
            s.keyrecovery_exact += r.key_exact;
        }
    }
    return s;
}

std::string
csvEscape(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string out = "\"";
    for (const char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::vector<std::string>
splitCsvRow(const std::string &line)
{
    std::vector<std::string> fields;
    std::string cur;
    bool quoted = false;
    for (size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cur += c;
            }
        } else if (c == '"' && cur.empty()) {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(std::move(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    fields.push_back(std::move(cur));
    return fields;
}

namespace
{

/** Shortest round-trip decimal rendering (stable, locale-free). */
std::string
jsonNumber(double value)
{
    return trace::jsonNumber(value);
}

std::string
jsonString(const std::string &s)
{
    return trace::jsonQuote(s);
}

/** One record value, rendered for JSON or (@p csv) for CSV. */
template <class T>
std::string
renderValue(const T &v, bool csv)
{
    if constexpr (std::is_same_v<T, uint64_t>)
        return std::to_string(v);
    else if constexpr (std::is_same_v<T, double>)
        return jsonNumber(v);
    else if constexpr (std::is_same_v<T, bool>)
        return csv ? (v ? "1" : "0") : (v ? "true" : "false");
    // Free text (effect lists join with commas, failure details may say
    // anything): RFC 4180 quoting keeps one row per trial and
    // round-trips through splitCsvRow().
    else if constexpr (std::is_same_v<T, std::string>)
        return csv ? csvEscape(v) : jsonString(v);
    else
        return csv ? toString(v) : jsonString(toString(v));
}

/** Column @p c of record @p r, rendered for JSON or CSV. */
std::string
renderCell(const RecordColumn &c, const TrialRecord &r, bool csv)
{
    return std::visit(
        [&](const auto &m) { return renderValue(m.of(r), csv); }, c.member);
}

/** CSV column order: JSON order with the free-text `detail` last. */
std::vector<const RecordColumn *>
csvColumns()
{
    std::vector<const RecordColumn *> cols;
    for (const RecordColumn &c : kRecordColumns)
        cols.push_back(&c);
    std::stable_partition(cols.begin(), cols.end(),
                          [](const RecordColumn *c) {
                              return std::string_view(c->name) != "detail";
                          });
    return cols;
}

} // namespace

std::string
CampaignResult::toJson(bool include_timing) const
{
    const CampaignSummary s = summary();
    std::string out;
    out.reserve(256 + records.size() * 320);
    out += "{\n";
    out += "  \"schema\": \"voltboot-campaign-v1\",\n";
    out += "  \"campaign_seed\": " + std::to_string(campaign_seed) + ",\n";
    out += "  \"grid\": " + jsonString(grid_spec) + ",\n";
    out += "  \"trials\": " + std::to_string(s.trials) + ",\n";
    out += "  \"summary\": {\n";
    out += "    \"ok\": " + std::to_string(s.ok) + ",\n";
    out += "    \"attack_failed\": " + std::to_string(s.attack_failed) +
           ",\n";
    out += "    \"errors\": " + std::to_string(s.errors) + ",\n";
    out += "    \"skipped\": " + std::to_string(s.skipped) + ",\n";
    out += "    \"booted\": " + std::to_string(s.booted) + ",\n";
    out += "    \"mean_accuracy\": " + jsonNumber(s.accuracy.mean()) +
           ",\n";
    out += "    \"mean_bit_error_rate\": " +
           jsonNumber(s.bit_error_rate.mean()) + ",\n";
    out += "    \"keys_planted\": " + std::to_string(s.keys_planted) +
           ",\n";
    out += "    \"keys_found\": " + std::to_string(s.keys_found) + ",\n";
    out += "    \"keys_exact\": " + std::to_string(s.keys_exact) + ",\n";
    out += "    \"glitch_trials\": " + std::to_string(s.glitch_trials) +
           ",\n";
    out += "    \"glitch_bypassed\": " +
           std::to_string(s.glitch_bypassed) + ",\n";
    out += "    \"static_trials\": " + std::to_string(s.static_trials) +
           ",\n";
    out += "    \"static_frozen\": " + std::to_string(s.static_frozen) +
           ",\n";
    out += "    \"coupling_trials\": " +
           std::to_string(s.coupling_trials) + ",\n";
    out += "    \"cpa_key_bytes\": " + std::to_string(s.cpa_key_bytes) +
           ",\n";
    out += "    \"keyrecovery_trials\": " +
           std::to_string(s.keyrecovery_trials) + ",\n";
    out += "    \"keyrecovery_exact\": " +
           std::to_string(s.keyrecovery_exact) + "\n";
    out += "  },\n";
    out += "  \"records\": [\n";
    for (size_t i = 0; i < records.size(); ++i) {
        out += "    {";
        for (const RecordColumn &c : kRecordColumns) {
            if (&c != kRecordColumns)
                out += ", ";
            out += '"';
            out += c.name;
            out += "\": " + renderCell(c, records[i], false);
        }
        out += "}";
        out += (i + 1 < records.size()) ? ",\n" : "\n";
    }
    out += "  ]";
    if (include_timing) {
        out += ",\n  \"timing\": {\n";
        out += "    \"wall_seconds\": " + jsonNumber(wall_seconds) + ",\n";
        out += "    \"jobs\": " + std::to_string(jobs) + ",\n";
        out += "    \"trials_per_second\": " +
               jsonNumber(trialsPerSecond());
        if (!metrics.empty())
            out += ",\n    \"metrics\": " + metrics.toJson(4);
        out += "\n  }";
    }
    out += "\n}\n";
    return out;
}

std::string
CampaignResult::toCsv() const
{
    const std::vector<const RecordColumn *> cols = csvColumns();
    std::string out;
    for (const RecordColumn *c : cols) {
        out += c == cols.front() ? "" : ",";
        out += c->name;
    }
    out += '\n';
    for (const TrialRecord &r : records) {
        for (const RecordColumn *c : cols) {
            out += c == cols.front() ? "" : ",";
            out += renderCell(*c, r, true);
        }
        out += '\n';
    }
    return out;
}

void
CampaignResult::writeFile(const std::string &path,
                          const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    out << content;
    if (!out)
        fatal("write to '", path, "' failed");
}

} // namespace voltboot
