#include "campaign/campaign_result.hh"

#include <fstream>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace voltboot
{

const char *
toString(TrialStatus status)
{
    switch (status) {
      case TrialStatus::Ok: return "ok";
      case TrialStatus::AttackFailed: return "attack_failed";
      case TrialStatus::Error: return "error";
      case TrialStatus::Skipped: return "skipped";
    }
    panic("bad TrialStatus");
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

const char *
jsonBool(bool b)
{
    return b ? "true" : "false";
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
        const TrialRecord &r = records[i];
        out += "    {\"index\": " + std::to_string(r.spec.index);
        out += ", \"board\": " + jsonString(r.spec.board);
        out += ", \"target\": " + jsonString(toString(r.spec.target));
        out += ", \"attack\": " + jsonString(toString(r.spec.attack));
        out += ", \"temp_c\": " + jsonNumber(r.spec.temp_c);
        out += ", \"off_ms\": " + jsonNumber(r.spec.off_ms);
        out += ", \"current_a\": " + jsonNumber(r.spec.current_a);
        out += ", \"impedance_mohm\": " +
               jsonNumber(r.spec.impedance_mohm);
        out += ", \"seed_index\": " + std::to_string(r.spec.seed_index);
        out += ", \"glitch_off_ns\": " + jsonNumber(r.spec.glitch_off_ns);
        out += ", \"glitch_width_ns\": " +
               jsonNumber(r.spec.glitch_width_ns);
        out += ", \"glitch_depth_v\": " +
               jsonNumber(r.spec.glitch_depth_v);
        out += ", \"undervolt_depth_v\": " +
               jsonNumber(r.spec.undervolt_depth_v);
        out += ", \"hold_ns\": " + jsonNumber(r.spec.hold_ns);
        out += ", \"readout_rate\": " + jsonNumber(r.spec.readout_rate);
        out += ", \"cpa_window_ns\": " + jsonNumber(r.spec.cpa_window_ns);
        out += ", \"dump_count\": " + std::to_string(r.spec.dump_count);
        out += ", \"use_priors\": ";
        out += jsonBool(r.spec.use_priors);
        out += ", \"chip_seed\": " + std::to_string(r.chip_seed);
        out += ", \"status\": " + jsonString(toString(r.status));
        out += ", \"detail\": " + jsonString(r.detail);
        out += ", \"probe_attached\": ";
        out += jsonBool(r.probe_attached);
        out += ", \"booted\": ";
        out += jsonBool(r.booted);
        out += ", \"dump_bytes\": " + std::to_string(r.dump_bytes);
        out += ", \"accuracy\": " + jsonNumber(r.accuracy);
        out += ", \"bit_error_rate\": " + jsonNumber(r.bit_error_rate);
        out += ", \"key_planted\": ";
        out += jsonBool(r.key_planted);
        out += ", \"key_found\": ";
        out += jsonBool(r.key_found);
        out += ", \"key_exact\": ";
        out += jsonBool(r.key_exact);
        out += ", \"glitch_faults\": " + std::to_string(r.glitch_faults);
        out += ", \"glitch_effect\": " + jsonString(r.glitch_effect);
        out += ", \"glitch_bypassed\": ";
        out += jsonBool(r.glitch_bypassed);
        out += ", \"se_frozen\": ";
        out += jsonBool(r.se_frozen);
        out += ", \"se_zeroized\": ";
        out += jsonBool(r.se_zeroized);
        out += ", \"se_read_fraction\": " + jsonNumber(r.se_read_fraction);
        out += ", \"cpa_recovered\": " + std::to_string(r.cpa_recovered);
        out += ", \"kr_scan_hits\": " + std::to_string(r.kr_scan_hits);
        out += ", \"kr_corrected_hits\": " +
               std::to_string(r.kr_corrected_hits);
        out += ", \"kr_bit_errors\": " + std::to_string(r.kr_bit_errors);
        out += ", \"kr_key_bits_flipped\": " +
               std::to_string(r.kr_key_bits_flipped);
        out += ", \"kr_correction_iterations\": " +
               std::to_string(r.kr_correction_iterations);
        out += ", \"kr_disagreeing_bits\": " +
               std::to_string(r.kr_disagreeing_bits);
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
    std::string out =
        "index,board,target,attack,temp_c,off_ms,current_a,"
        "impedance_mohm,seed_index,glitch_off_ns,glitch_width_ns,"
        "glitch_depth_v,undervolt_depth_v,hold_ns,readout_rate,"
        "cpa_window_ns,dump_count,use_priors,chip_seed,status,"
        "probe_attached,booted,dump_bytes,accuracy,bit_error_rate,"
        "key_planted,key_found,key_exact,glitch_faults,glitch_effect,"
        "glitch_bypassed,se_frozen,se_zeroized,se_read_fraction,"
        "cpa_recovered,kr_scan_hits,kr_corrected_hits,kr_bit_errors,"
        "kr_key_bits_flipped,kr_correction_iterations,"
        "kr_disagreeing_bits,detail\n";
    for (const TrialRecord &r : records) {
        out += std::to_string(r.spec.index) + ',';
        out += csvEscape(r.spec.board) + ',';
        out += std::string(toString(r.spec.target)) + ',';
        out += std::string(toString(r.spec.attack)) + ',';
        out += jsonNumber(r.spec.temp_c) + ',';
        out += jsonNumber(r.spec.off_ms) + ',';
        out += jsonNumber(r.spec.current_a) + ',';
        out += jsonNumber(r.spec.impedance_mohm) + ',';
        out += std::to_string(r.spec.seed_index) + ',';
        out += jsonNumber(r.spec.glitch_off_ns) + ',';
        out += jsonNumber(r.spec.glitch_width_ns) + ',';
        out += jsonNumber(r.spec.glitch_depth_v) + ',';
        out += jsonNumber(r.spec.undervolt_depth_v) + ',';
        out += jsonNumber(r.spec.hold_ns) + ',';
        out += jsonNumber(r.spec.readout_rate) + ',';
        out += jsonNumber(r.spec.cpa_window_ns) + ',';
        out += std::to_string(r.spec.dump_count) + ',';
        out += std::to_string(r.spec.use_priors) + ',';
        out += std::to_string(r.chip_seed) + ',';
        out += std::string(toString(r.status)) + ',';
        out += std::to_string(r.probe_attached) + ',';
        out += std::to_string(r.booted) + ',';
        out += std::to_string(r.dump_bytes) + ',';
        out += jsonNumber(r.accuracy) + ',';
        out += jsonNumber(r.bit_error_rate) + ',';
        out += std::to_string(r.key_planted) + ',';
        out += std::to_string(r.key_found) + ',';
        out += std::to_string(r.key_exact) + ',';
        out += std::to_string(r.glitch_faults) + ',';
        // Free-text fields (effect lists join with commas, failure
        // details may say anything): RFC 4180 quoting keeps one row
        // per trial and round-trips through splitCsvRow().
        out += csvEscape(r.glitch_effect) + ',';
        out += std::to_string(r.glitch_bypassed) + ',';
        out += std::to_string(r.se_frozen) + ',';
        out += std::to_string(r.se_zeroized) + ',';
        out += jsonNumber(r.se_read_fraction) + ',';
        out += std::to_string(r.cpa_recovered) + ',';
        out += std::to_string(r.kr_scan_hits) + ',';
        out += std::to_string(r.kr_corrected_hits) + ',';
        out += std::to_string(r.kr_bit_errors) + ',';
        out += std::to_string(r.kr_key_bits_flipped) + ',';
        out += std::to_string(r.kr_correction_iterations) + ',';
        out += std::to_string(r.kr_disagreeing_bits) + ',';
        out += csvEscape(r.detail) + '\n';
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
