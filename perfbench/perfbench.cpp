/**
 * @file
 * The repository benchmark: one named workload per run, end-to-end
 * metrics with tracing off, per-layer metrics from a traced replay.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--span-out FILE]
 *
 * Workloads (see README.md for why each exists):
 *   sweep-newchip    Campaign::run, every trial on a die never seen before
 *   sweep-reuse      Campaign::run over a temperature/off-time grid on
 *                    two dies whose fingerprint planes stay cached
 *   keyrecover-dump  KeyRecoveryEngine::recover on generated 1 MiB dumps
 *
 * Every input derives from --seed; the library only ever sees the
 * generated grid, campaign seeds and dumps. Every run checks the
 * program's outputs and exits 1 naming the failed check. The last line
 * of stdout is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
 * per-layer ones. Spans are recorded only from this file, around calls
 * into each layer's public functions, kept in memory and written to
 * --span-out when the run ends.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/trial_runner.hh"
#include "core/attack.hh"
#include "crypto/aes.hh"
#include "crypto/key_finder.hh"
#include "crypto/onchip_crypto.hh"
#include "keyfind/engine.hh"
#include "keyfind/prior.hh"
#include "os/baremetal.hh"
#include "os/workloads.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"
#include "sram/fingerprint_cache.hh"
#include "sram/retention_model.hh"
#include "telemetry/counters.hh"

using namespace voltboot;

namespace
{

using Clock = std::chrono::steady_clock;

/** Taken during static initialisation, i.e. at process start. */
const Clock::time_point kProcessStart = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** A failed output or fidelity check; the run reports no metrics. */
struct CheckFailure : std::runtime_error
{
    CheckFailure(std::string name, const std::string &detail)
        : std::runtime_error(detail), check(std::move(name))
    {}
    std::string check;
};

void
require(bool ok, const char *check, const std::string &detail)
{
    if (!ok)
        throw CheckFailure(check, detail);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest order statistic with at least ten samples above it. */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    size_t samples = 0;
};

Tail
tail(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.size() <= 10)
        return t;
    std::sort(v.begin(), v.end());
    const size_t i = v.size() - 11;
    t.value = v[i];
    t.percentile = 100.0 * static_cast<double>(i + 1) /
                   static_cast<double>(v.size());
    return t;
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root.
    uint64_t op = 0;     ///< Shared by every span of one op.
    const char *name = "";
    double start_s = 0.0; ///< Since process start.
    double end_s = 0.0;
};

std::mutex g_span_mutex;
std::vector<SpanRecord> g_spans; // guarded by g_span_mutex
std::atomic<uint64_t> g_next_span{1};
bool g_tracing = false; // set before any worker starts

thread_local uint64_t tl_parent = 0;
thread_local uint64_t tl_op = 0;

/** RAII span around one call; nests through a thread-local parent. */
class Span
{
  public:
    explicit Span(const char *name, std::optional<uint64_t> op = {})
    {
        if (!g_tracing)
            return;
        rec_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
        rec_.parent = tl_parent;
        if (op)
            tl_op = *op;
        rec_.op = tl_op;
        rec_.name = name;
        tl_parent = rec_.id;
        rec_.start_s = secondsSince(kProcessStart);
    }

    ~Span()
    {
        if (rec_.id == 0)
            return;
        rec_.end_s = secondsSince(kProcessStart);
        tl_parent = rec_.parent;
        const std::lock_guard<std::mutex> lock(g_span_mutex);
        g_spans.push_back(rec_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecord rec_;
};

/** Per span name: summed duration and summed self time. */
struct SpanTotals
{
    double dur_s = 0.0;
    double self_s = 0.0;
};

std::map<std::string, SpanTotals>
aggregateSpans()
{
    const std::lock_guard<std::mutex> lock(g_span_mutex);
    std::map<uint64_t, double> child_s;
    for (const SpanRecord &s : g_spans)
        if (s.parent)
            child_s[s.parent] += s.end_s - s.start_s;
    std::map<std::string, SpanTotals> out;
    for (const SpanRecord &s : g_spans) {
        SpanTotals &t = out[s.name];
        const double dur = s.end_s - s.start_s;
        t.dur_s += dur;
        t.self_s += dur - child_s[s.id];
    }
    return out;
}

void
writeSpans(const std::string &path)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os) {
        std::cerr << "perfbench: cannot write spans to " << path << "\n";
        return;
    }
    const std::lock_guard<std::mutex> lock(g_span_mutex);
    char buf[256];
    for (const SpanRecord &s : g_spans) {
        std::snprintf(buf, sizeof(buf),
                      "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                      "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}\n",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.op), s.name,
                      s.start_s, s.end_s);
        os << buf;
    }
}

// ------------------------------------------------------------------
// Results
// ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * What one measured pass produced. A pass is a sequence of rounds of a
 * fixed op count (a campaign over the grid, or one recovery of every
 * dump); rates are medians over rounds, so a stall on a shared host
 * moves one round, not the figure.
 */
struct Pass
{
    std::vector<double> op_s;         ///< Wall time of each op.
    std::vector<double> round_rate;   ///< Ops per second of each round.
    std::vector<double> round_cpu_op; ///< CPU seconds per op, per round.
    double wall_s = 0.0;
    double busy_s = 0.0; ///< Summed op time (sweeps: worker busy).
    double recovered_sum = 0.0; ///< Summed per-op recovered fraction.

    size_t ops() const { return op_s.size(); }

    void
    endRound(size_t ops, Clock::time_point t0, double cpu0)
    {
        round_rate.push_back(ops / std::max(secondsSince(t0), 1e-9));
        round_cpu_op.push_back((cpuSeconds() - cpu0) / ops);
    }

    double opsPerSecond() const { return median(round_rate); }
};

/** Counter deltas from the library's own observability hooks. */
struct LibCounters
{
    FingerprintCacheStats fp;
    telemetry::CounterTotals tel;

    static LibCounters
    now()
    {
        return {fingerprintCacheStats(), telemetry::totals()};
    }
};

uint64_t
delta(const LibCounters &a, const LibCounters &b, telemetry::Counter c)
{
    return b.tel.get(c) - a.tel.get(c);
}

void
property(const std::string &line)
{
    std::cout << "property: " << line << "\n";
}

// ------------------------------------------------------------------
// Sweeps
// ------------------------------------------------------------------

constexpr uint64_t kNewchipDomain = 0x6e657763ULL;
constexpr uint64_t kReuseDomain = 0x72657573ULL;
constexpr uint64_t kSetupDomain = 0x73657475ULL;
constexpr uint64_t kDumpDomain = 0x64756d70ULL;

/** Campaign workers and keyfind jobs: every workload runs 4 threads. */
constexpr unsigned kJobs = 4;
/** Setup repetitions whose median is reported as setup_s. */
constexpr int kSetupReps = 5;
/** A pass runs at least this many ops, so the tail has ten beyond. */
constexpr size_t kMinOps = 20;

struct SweepSpec
{
    std::string grid;        ///< The measured grid.
    std::string warmup_grid; ///< The per-repetition set-up grid.
    bool new_chips;          ///< Each round draws a fresh campaign seed.
};

SweepSpec
sweepSpec(const std::string &workload)
{
    if (workload == "sweep-newchip")
        return {"board=pi4;attack=voltboot;target=dcache;key=1;seeds=" +
                    std::to_string(2 * kJobs),
                "board=pi4;attack=voltboot;target=dcache;key=1;seeds=" +
                    std::to_string(kJobs),
                true};
    return {"board=pi4;attack=voltboot,coldboot;temp=-110,-80,-40,25;"
            "off-ms=5,20,500;target=dcache;seeds=2",
            "board=pi4;attack=voltboot;target=dcache;seeds=2", false};
}

CampaignResult
runRound(const SweepGrid &grid, uint64_t campaign_seed,
         decltype(CampaignConfig::runner) runner = {})
{
    CampaignConfig cfg;
    cfg.jobs = kJobs;
    cfg.seed = campaign_seed;
    cfg.chunk = 1;
    cfg.runner = std::move(runner);
    return Campaign(grid, cfg).run();
}

/** Output checks on one round of a sweep. */
void
checkSweepRound(const std::string &workload, const CampaignResult &r)
{
    for (const TrialRecord &rec : r.records) {
        const std::string who =
            "trial " + std::to_string(rec.spec.index) + " (" +
            toString(rec.spec.attack) + ", " +
            std::to_string(rec.spec.temp_c) + " C, " +
            std::to_string(rec.spec.off_ms) + " ms)";
        require(rec.status == TrialStatus::Ok, "trial-status",
                who + " ended " + toString(rec.status) + ": " +
                    rec.detail);
        if (workload == "sweep-newchip") {
            require(rec.accuracy == 1.0, "newchip-accuracy",
                    who + " accuracy " + std::to_string(rec.accuracy));
            require(rec.key_exact, "newchip-key-exact",
                    who + " did not recover the planted key exactly");
        } else if (rec.spec.attack == AttackKind::VoltBoot) {
            require(rec.accuracy == 1.0, "reuse-voltboot-accuracy",
                    who + " accuracy " + std::to_string(rec.accuracy));
        } else if (rec.spec.temp_c == 25.0) {
            require(std::abs(rec.accuracy - 0.5) <= 0.05,
                    "reuse-coldboot-25c",
                    who + " accuracy " + std::to_string(rec.accuracy) +
                        ", expected about 0.5");
        }
    }
}

/** Ground truth of the standard L1D victim (mirrors runTrial). */
struct Victim
{
    MemoryImage truth;
    std::vector<uint8_t> key;
};

Victim
stageDcacheVictim(Soc &soc, const TrialSpec &spec, Rng &rng)
{
    Victim v;
    const uint64_t base = soc.config().dram_base + 0x40000;
    if (spec.plant_key) {
        Cache &l1d = soc.memory().l1d(0);
        l1d.invalidateAll();
        l1d.setEnabled(true);
        v.key.resize(16);
        for (auto &b : v.key)
            b = static_cast<uint8_t>(rng.next());
        const std::vector<uint8_t> binary(256, 0x90);
        CaseExecution cas(l1d, base, binary, v.key);
        v.truth = l1d.dumpAll();
    } else {
        BareMetalRunner runner(soc);
        runner.runOn(0, workloads::patternStore(
                            base, soc.config().l1d.size_bytes, 0xAA));
        v.truth = soc.memory().l1d(0).dumpAll();
    }
    return v;
}

/**
 * One trial replayed through the public calls runTrial makes, with a
 * span around each. Supports the two attacks and the one target the
 * sweep workloads use.
 */
TrialRecord
tracedTrial(const TrialSpec &spec, uint64_t campaign_seed, uint64_t op)
{
    Span trial("campaign.trial", op);
    if (spec.target != TargetRam::DCache ||
        (spec.attack != AttackKind::VoltBoot &&
         spec.attack != AttackKind::ColdBoot))
        throw std::runtime_error("traced replay covers voltboot/coldboot "
                                 "on dcache only");
    TrialRecord rec;
    rec.spec = spec;
    rec.chip_seed = deriveChipSeed(campaign_seed, spec.seed_index);
    Rng rng(deriveTrialSeed(campaign_seed, spec.index));

    std::optional<Soc> soc;
    {
        Span s("soc.build");
        SocConfig cfg = socConfigFor(spec.board);
        cfg.chip_seed = rec.chip_seed;
        soc.emplace(cfg);
        soc->setAmbient(Temperature::celsius(spec.temp_c));
    }
    {
        Span s("soc.power_on");
        soc->powerOn();
    }
    Victim victim;
    {
        Span s("os.victim_stage");
        victim = stageDcacheVictim(*soc, spec, rng);
    }

    MemoryImage dump;
    if (spec.attack == AttackKind::VoltBoot) {
        AttackConfig acfg;
        acfg.probe_max_current = Amp(spec.current_a);
        acfg.probe_impedance = Ohm::milliohms(spec.impedance_mohm);
        acfg.off_time = Seconds::milliseconds(spec.off_ms);
        VoltBootAttack attack(*soc, acfg);
        AttackOutcome out;
        {
            Span s("core.steps12_probe");
            out = attack.attachProbe();
        }
        if (out.probe_attached) {
            Span s("core.step3_power_cycle");
            out = attack.powerCycleAndBoot();
        }
        rec.probe_attached = out.probe_attached;
        rec.booted = out.rebooted_into_attacker_code;
        if (!rec.booted) {
            rec.status = TrialStatus::AttackFailed;
            rec.detail = out.failure_reason;
            return rec;
        }
        Span s("core.step4_extract");
        dump = attack.dumpL1(0, L1Ram::DData);
    } else {
        ColdBootAttack attack(*soc, Temperature::celsius(spec.temp_c),
                              Seconds::milliseconds(spec.off_ms));
        {
            Span s("core.step3_power_cycle");
            rec.booted = attack.powerCycleAndBoot();
        }
        if (!rec.booted) {
            rec.status = TrialStatus::AttackFailed;
            rec.detail = "boot failed (authenticated boot?)";
            return rec;
        }
        Span s("core.step4_extract");
        dump = attack.dumpL1(0, L1Ram::DData);
    }

    Span s("core.score");
    rec.dump_bytes = dump.sizeBytes();
    rec.bit_error_rate = MemoryImage::fractionalHamming(dump, victim.truth);
    rec.accuracy = 1.0 - rec.bit_error_rate;
    if (!victim.key.empty()) {
        rec.key_planted = true;
        if (const auto hit = KeyFinder().best(dump)) {
            rec.key_found = true;
            rec.key_exact = hit->key == victim.key;
        }
    }
    rec.status = TrialStatus::Ok;
    return rec;
}

struct SweepRun
{
    Pass pass;
    std::vector<uint64_t> seeds; ///< Campaign seed of each round.
    std::vector<CampaignResult> rounds;
};

/** Run rounds until @p seconds have passed and kMinOps ops are done. */
SweepRun
measureSweep(const std::string &workload, const SweepSpec &sw,
             const SweepGrid &grid, uint64_t seed, double seconds,
             const std::vector<uint64_t> *replay = nullptr)
{
    SweepRun run;
    const uint64_t domain =
        hashCombine(seed, sw.new_chips ? kNewchipDomain : kReuseDomain);
    const Clock::time_point t0 = Clock::now();
    for (uint64_t round = 0;; ++round) {
        if (replay) {
            if (round >= replay->size())
                break;
        } else if (secondsSince(t0) >= seconds && run.pass.ops() >= kMinOps) {
            break;
        }
        const uint64_t cseed = replay ? (*replay)[round]
                               : sw.new_chips ? hashCombine(domain, round)
                                              : domain;
        decltype(CampaignConfig::runner) runner;
        if (replay) {
            const uint64_t op_base = round << 32;
            runner = [op_base](const TrialSpec &spec, uint64_t s) {
                return tracedTrial(spec, s, op_base | spec.index);
            };
        }
        const double cpu0 = cpuSeconds();
        const Clock::time_point r0 = Clock::now();
        CampaignResult r = runRound(grid, cseed, runner);
        run.pass.endRound(r.records.size(), r0, cpu0);
        checkSweepRound(workload, r);
        for (const TrialRecord &rec : r.records) {
            run.pass.op_s.push_back(rec.duration_s);
            run.pass.busy_s += rec.duration_s;
            run.pass.recovered_sum += rec.accuracy;
        }
        run.seeds.push_back(cseed);
        run.rounds.push_back(std::move(r));
    }
    run.pass.wall_s = secondsSince(t0);
    return run;
}

/** Median of kSetupReps set-ups; the first is timed from process start. */
double
setupSweep(const SweepSpec &sw, uint64_t seed, int reps)
{
    const SweepGrid warm = SweepGrid::parse(sw.warmup_grid);
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
        const Clock::time_point t0 = rep ? Clock::now() : kProcessStart;
        uint64_t cseed;
        if (sw.new_chips) {
            // Dies of their own: the measured rounds never see them.
            cseed = hashCombine(hashCombine(seed, kSetupDomain), rep);
        } else {
            clearFingerprintCache();
            cseed = hashCombine(seed, kReuseDomain);
        }
        runRound(warm, cseed);
        times.push_back(secondsSince(t0));
    }
    return median(times);
}

void
reportReuseCells(const CampaignResult &r)
{
    uint64_t partial = 0, full = 0;
    std::set<std::pair<double, double>> partial_cells, full_cells;
    for (const TrialRecord &rec : r.records) {
        if (rec.spec.attack != AttackKind::ColdBoot)
            continue;
        const auto cell = std::make_pair(rec.spec.temp_c, rec.spec.off_ms);
        if (rec.accuracy > 0.52) {
            ++partial;
            partial_cells.insert(cell);
        } else {
            ++full;
            full_cells.insert(cell);
        }
    }
    std::string list;
    for (const auto &[t, off] : partial_cells)
        list += (list.empty() ? "" : ", ") + std::to_string(int(t)) +
                " C/" + std::to_string(int(off)) + " ms";
    property("cold-boot partial-loss cells " +
             std::to_string(partial_cells.size()) + " (" +
             std::to_string(partial) + " trials: " + list +
             "), full-loss cells " + std::to_string(full_cells.size()) +
             " (" + std::to_string(full) + " trials)");
}

// ------------------------------------------------------------------
// Key recovery
// ------------------------------------------------------------------

constexpr size_t kDumpBytes = size_t{1} << 20;
constexpr size_t kDumpsPerSet = 8;
constexpr size_t kPlantsPerDump = 16; ///< One per 64 KiB region.
constexpr size_t kKeyBitsFlipped = 2;
constexpr double kNoiseBer = 0.0005;

struct Dump
{
    std::vector<MemoryImage> image; ///< One element: recover()'s span.
    std::vector<std::vector<uint8_t>> keys; ///< Planted, in order.
};

/** The dumps of one die and the flip priors profiled for it. */
struct DumpSet
{
    std::vector<float> priors;
    std::vector<Dump> dumps;
};

/**
 * A 1 MiB dump: 64 KiB regions of random bytes, zeros or a repeated
 * pattern; kPlantsPerDump AES-128 schedules whose keys each lose
 * kKeyBitsFlipped of their weakest cells by @p priors; and uniform
 * decay noise.
 */
Dump
generateDump(uint64_t seed, const std::vector<float> &priors)
{
    Rng rng(seed);
    constexpr size_t kRegion = 64 << 10;
    constexpr size_t kRegions = kDumpBytes / kRegion;
    // Fixed composition, seeded placement: half the regions random, a
    // quarter patterned, a quarter zero, so every seed costs the same.
    // The patterns are fixed too (fill byte, magic word, byte counter,
    // word counter): whether a pattern passes the correction prefilter
    // is all-or-nothing over its region.
    std::vector<size_t> order(kRegions);
    for (size_t i = 0; i < kRegions; ++i)
        order[i] = i;
    for (size_t i = kRegions - 1; i > 0; --i)
        std::swap(order[i], order[rng.next() % (i + 1)]);
    std::vector<uint8_t> bytes(kDumpBytes, 0);
    auto pattern = [](size_t which, size_t i) -> uint8_t {
        switch (which % 4) {
          case 0: return 0xAA;
          case 1: return static_cast<uint8_t>(0xdeadbeefu >> (8 * (i % 4)));
          case 2: return static_cast<uint8_t>(i);
          default: return static_cast<uint8_t>((i / 4) >> (8 * (i % 4)));
        }
    };
    for (size_t k = 0; k < kRegions; ++k) {
        const size_t r = order[k] * kRegion;
        for (size_t i = r; i < r + kRegion; ++i)
            if (k < kRegions / 2)
                bytes[i] = static_cast<uint8_t>(rng.next());
            else if (k < 3 * kRegions / 4)
                bytes[i] = pattern(k, i);
    }

    // One plant per region, so plants sit in random, patterned and zero
    // surroundings in the same 2:1:1 mix; 16-byte aligned.
    Dump d;
    for (size_t p = 0; p < kPlantsPerDump; ++p) {
        std::vector<uint8_t> key(16);
        for (auto &b : key)
            b = static_cast<uint8_t>(rng.next());
        const auto sched = Aes::expandKey(key);
        const size_t off =
            order[p] * kRegion +
            16 * (rng.next() % ((kRegion - sched.size()) / 16));
        std::copy(sched.begin(), sched.end(), bytes.begin() + off);
        // The weakest key cells by the profile are the ones that decay.
        std::vector<size_t> bits(128);
        for (size_t b = 0; b < 128; ++b)
            bits[b] = off * 8 + b;
        std::stable_sort(bits.begin(), bits.end(), [&](size_t a, size_t b) {
            return priors[a] > priors[b];
        });
        for (size_t f = 0; f < kKeyBitsFlipped; ++f)
            bytes[bits[f] / 8] ^= static_cast<uint8_t>(1u << (bits[f] % 8));
        d.keys.push_back(std::move(key));
    }
    for (size_t bit = 0; bit < kDumpBytes * 8; ++bit)
        if (rng.uniform() < kNoiseBer)
            bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    d.image.emplace_back(std::move(bytes));
    return d;
}

/** kDumpsPerSet dumps of one die, with the die's DRV-model priors
 * for a -110 C / 20 ms cold boot. */
DumpSet
generateDumpSet(uint64_t seed)
{
    const uint64_t die = hashCombine(seed, kDumpDomain);
    const RetentionModel model(RetentionConfig{}, CellRng(die, 1));
    DumpSet set;
    set.priors = keyfind::decayFlipPriors(model, kDumpBytes * 8,
                                          Seconds::milliseconds(20),
                                          Temperature::celsius(-110));
    for (size_t i = 0; i < kDumpsPerSet; ++i)
        set.dumps.push_back(
            generateDump(hashCombine(die, i + 1), set.priors));
    return set;
}

/** Every key a report names, scan hits first. */
std::vector<std::vector<uint8_t>>
reportedKeys(const keyfind::RecoveryReport &rep)
{
    std::vector<std::vector<uint8_t>> keys;
    for (const KeyCandidate &c : rep.scan_hits)
        keys.push_back(c.key);
    for (const RobustScanHit &h : rep.corrected_hits)
        keys.push_back(h.corrected.key);
    return keys;
}

/** Check one report; returns the share of planted keys recovered. */
double
checkRecovery(const Dump &d, const keyfind::RecoveryReport &rep,
              size_t index)
{
    const auto keys = reportedKeys(rep);
    for (const auto &k : keys)
        require(std::find(d.keys.begin(), d.keys.end(), k) != d.keys.end(),
                "keyrecover-unplanted-key",
                "dump " + std::to_string(index) +
                    " reported a key that was never planted");
    size_t found = 0;
    for (const auto &k : d.keys)
        found += std::find(keys.begin(), keys.end(), k) != keys.end();
    return static_cast<double>(found) / static_cast<double>(d.keys.size());
}

keyfind::KeyRecoveryEngine
engine(bool correction)
{
    keyfind::KeyRecoveryConfig cfg;
    cfg.jobs = kJobs;
    cfg.run_correction = correction;
    return keyfind::KeyRecoveryEngine(cfg);
}

struct KeyfindRun
{
    Pass pass;
    keyfind::ScanStats scan;
    keyfind::CorrectionStats correction;
};

/**
 * Recover every dump of @p set per round, until @p seconds and kMinOps
 * are reached, or for exactly @p fixed_rounds rounds. Traced, each op
 * also runs the scan-only recover so its cost shows apart from
 * correction.
 */
KeyfindRun
measureKeyfind(const DumpSet &set, double seconds,
               std::vector<std::vector<std::vector<uint8_t>>> &first_keys,
               std::optional<size_t> fixed_rounds = {})
{
    KeyfindRun run;
    const auto full = engine(true);
    const auto scan_only = engine(false);
    const Clock::time_point t0 = Clock::now();
    for (size_t round = 0;; ++round) {
        if (fixed_rounds ? round >= *fixed_rounds
                         : secondsSince(t0) >= seconds &&
                               run.pass.ops() >= kMinOps)
            break;
        const double cpu0 = cpuSeconds();
        const Clock::time_point r0 = Clock::now();
        for (size_t i = 0; i < set.dumps.size(); ++i) {
            const Dump &d = set.dumps[i];
            const Clock::time_point top = Clock::now();
            keyfind::RecoveryReport rep;
            {
                Span o("keyrecover.op", run.pass.ops());
                if (g_tracing) {
                    Span s("keyfind.scan");
                    scan_only.recover(d.image, set.priors);
                }
                Span s("keyfind.recover");
                rep = full.recover(d.image, set.priors);
            }
            const double dt = secondsSince(top);
            run.pass.op_s.push_back(dt);
            run.pass.busy_s += dt;
            run.pass.recovered_sum += checkRecovery(d, rep, i);
            run.scan += rep.scan;
            run.correction += rep.correction;
            const auto keys = reportedKeys(rep);
            if (first_keys.size() <= i)
                first_keys.push_back(keys);
            else
                require(first_keys[i] == keys, "keyrecover-determinism",
                        "dump " + std::to_string(i) +
                            " gave a different report on a repeat");
        }
        run.pass.endRound(set.dumps.size(), r0, cpu0);
    }
    run.pass.wall_s = secondsSince(t0);
    return run;
}

// ------------------------------------------------------------------
// Driver
// ------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string span_out;
};

[[noreturn]] void
usage(const std::string &detail)
{
    std::cerr << "perfbench: " << detail << "\n"
              << "usage: perfbench --workload sweep-newchip|sweep-reuse|"
                 "keyrecover-dump --seed N --seconds S --trace 0|1 "
                 "[--span-out FILE]\n";
    std::exit(2);
}

uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    uint64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (text.empty() || ec != std::errc() ||
        ptr != text.data() + text.size())
        usage("malformed value '" + text + "' for " + flag);
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = parseUint(flag, value), have_seed = true;
        else if (flag == "--seconds")
            o.seconds = static_cast<double>(parseUint(flag, value));
        else if (flag == "--trace")
            o.trace = parseUint(flag, value) != 0;
        else if (flag == "--span-out")
            o.span_out = value;
        else
            usage("unknown option " + flag);
    }
    if (o.workload != "sweep-newchip" && o.workload != "sweep-reuse" &&
        o.workload != "keyrecover-dump")
        usage("unknown or missing --workload '" + o.workload + "'");
    if (!have_seed)
        usage("--seed is required");
    return o;
}

std::vector<Metric>
endToEnd(const Pass &p, double setup_s)
{
    const Tail t = tail(p.op_s);
    std::cout << "op_tail_s is p" << t.percentile << " of " << t.samples
              << " ops\n";
    return {
        {"ops_per_s", p.opsPerSecond(), "1/s"},
        {"op_p50_s", median(p.op_s), "s"},
        {"op_tail_s", t.value, "s"},
        {"cpu_s_per_op", median(p.round_cpu_op), "s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
        {"recovered_frac",
         p.recovered_sum / std::max<size_t>(p.ops(), 1), "frac"},
    };
}

/** Per-layer metrics from the spans and the library's counters. */
std::vector<Metric>
perLayer(const Pass &untraced, const Pass &traced,
         const LibCounters &c0, const LibCounters &c1,
         const KeyfindRun *kf)
{
    using telemetry::Counter;
    const auto spans = aggregateSpans();
    const double ops = static_cast<double>(std::max<size_t>(traced.ops(), 1));
    auto self = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.self_s / ops;
    };
    auto dur = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.dur_s / ops;
    };
    const double op_s = dur("campaign.trial") + dur("keyrecover.op");
    const double op_self =
        self("campaign.trial") + self("keyrecover.op");
    const uint64_t hits = c1.fp.hits - c0.fp.hits;
    const uint64_t misses = c1.fp.misses - c0.fp.misses;
    const double trial_s = dur("campaign.trial");
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    std::vector<Metric> m = {
        {"soc.build_s", self("soc.build"), "s"},
        {"soc.power_on_s", self("soc.power_on"), "s"},
        {"os.victim_stage_s", self("os.victim_stage"), "s"},
        {"core.steps12_probe_s", self("core.steps12_probe"), "s"},
        {"core.step3_power_cycle_s", self("core.step3_power_cycle"), "s"},
        {"core.step4_extract_s", self("core.step4_extract"), "s"},
        {"core.score_s", self("core.score"), "s"},
        {"campaign.trial_s", trial_s, "s"},
        {"campaign.worker_busy_frac",
         trial_s > 0 ? ratio(traced.busy_s, kJobs * traced.wall_s) : 0.0,
         "frac"},
        {"sram.fingerprint_misses", misses / ops, "count"},
        {"sram.fingerprint_hit_frac",
         ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
         "frac"},
        {"sram.fingerprint_evictions",
         (c1.fp.evictions - c0.fp.evictions) / ops, "count"},
        {"sram.cells", delta(c0, c1, Counter::CellsProcessed) / ops,
         "count"},
        {"sim.arena_bytes", delta(c0, c1, Counter::ArenaBytes) / ops,
         "bytes"},
        {"keyfind.scan_s", self("keyfind.scan"), "s"},
        {"keyfind.recover_s", self("keyfind.recover"), "s"},
        {"keyfind.offsets", kf ? kf->scan.offsets / ops : 0.0, "count"},
        {"keyfind.early_reject_frac",
         kf ? ratio(kf->scan.early_rejects, kf->scan.offsets) : 0.0,
         "frac"},
        {"keyfind.corrections", kf ? kf->correction.attempted / ops : 0.0,
         "count"},
        {"keyfind.correction_accept_frac",
         kf ? ratio(kf->correction.accepted, kf->correction.attempted)
            : 0.0,
         "frac"},
        {"keyfind.correction_iters",
         kf ? kf->correction.iterations / ops : 0.0, "count"},
        {"trial.unattributed_frac", ratio(op_self, op_s), "frac"},
        {"trace.overhead_frac",
         ratio(untraced.opsPerSecond(), traced.opsPerSecond()) - 1.0,
         "frac"},
    };

    // The layer split each workload was chosen for (reported, not
    // enforced: a later change is free to move it).
    if (op_s > 0) {
        std::string worst;
        double worst_s = 0;
        for (const Metric &x : m)
            if (x.unit == "s" && x.name != "campaign.trial_s" &&
                x.value > worst_s)
                worst = x.name, worst_s = x.value;
        property("named spans cover " +
                 std::to_string(100.0 * (1.0 - op_self / op_s)) +
                 "% of op wall time; largest span " + worst + " (" +
                 std::to_string(100.0 * worst_s / op_s) + "% of an op)");
    }
    return m;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    char buf[64];
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
        std::cout << "metric " << metrics[i].name << " = " << buf << " "
                  << metrics[i].unit << "\n";
    }
    std::cout << json << "}}" << std::endl;
}

/** Runs the workload; returns the metrics of the requested kind. */
std::vector<Metric>
runSweep(const Options &o, uint64_t &attempted)
{
    const SweepSpec sw = sweepSpec(o.workload);
    const SweepGrid grid = SweepGrid::parse(sw.grid);
    const double setup_s =
        setupSweep(sw, o.seed, o.trace ? 1 : kSetupReps);

    const LibCounters c0 = LibCounters::now();
    const SweepRun run = measureSweep(o.workload, sw, grid, o.seed,
                                      o.trace ? o.seconds / 2 : o.seconds);
    const LibCounters c1 = LibCounters::now();
    attempted = run.pass.ops();

    const uint64_t hits = c1.fp.hits - c0.fp.hits;
    const uint64_t misses = c1.fp.misses - c0.fp.misses;
    const uint64_t digest = fnv1a(run.rounds.front().toJson(false));
    if (sw.new_chips) {
        // Nothing has cleared the cache yet: this counts the set-up too.
        require(c1.fp.hits == 0, "newchip-fingerprint-hits",
                std::to_string(c1.fp.hits) +
                    " fingerprint cache hits across set-up and " +
                    std::to_string(run.rounds.size()) +
                    " rounds of new chips");
        property("fingerprint hits 0 of " + std::to_string(misses) +
                 " lookups over " + std::to_string(run.pass.ops()) +
                 " trials in " + std::to_string(run.rounds.size()) +
                 " rounds (plus set-up)");
    } else {
        for (const CampaignResult &r : run.rounds)
            require(fnv1a(r.toJson(false)) == digest, "sweep-digest",
                    "a repeated round's canonical JSON differs");
        property("fingerprint hit fraction " +
                 std::to_string(double(hits) / double(hits + misses)) +
                 " (" + std::to_string(hits) + " of " +
                 std::to_string(hits + misses) + ")");
        reportReuseCells(run.rounds.front());
    }

    if (!o.trace) {
        std::vector<Metric> m = endToEnd(run.pass, setup_s);
        if (sw.new_chips) {
            // Repeat round 0 on a cold cache: same dies, same bytes.
            clearFingerprintCache();
            const CampaignResult again =
                runRound(grid, run.seeds.front());
            require(fnv1a(again.toJson(false)) == digest, "sweep-digest",
                    "a repeated round's canonical JSON differs");
        }
        char hex[20];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(digest));
        property(std::string("canonical JSON digest ") + hex + " repeats");
        return m;
    }

    // Traced replay of the same rounds; new chips start cold again.
    if (sw.new_chips)
        clearFingerprintCache();
    g_tracing = true;
    const LibCounters t0 = LibCounters::now();
    const SweepRun traced =
        measureSweep(o.workload, sw, grid, o.seed, 0, &run.seeds);
    const LibCounters t1 = LibCounters::now();
    g_tracing = false;
    for (size_t r = 0; r < run.rounds.size(); ++r)
        for (size_t i = 0; i < run.rounds[r].records.size(); ++i) {
            const TrialRecord &a = run.rounds[r].records[i];
            const TrialRecord &b = traced.rounds[r].records[i];
            require(a.accuracy == b.accuracy &&
                        a.bit_error_rate == b.bit_error_rate &&
                        a.key_exact == b.key_exact,
                    "trace-fidelity",
                    "traced replay of round " + std::to_string(r) +
                        " trial " + std::to_string(i) +
                        " differs from runTrial");
        }
    property("traced replay reproduced accuracy and bit_error_rate of " +
             std::to_string(traced.pass.ops()) + " trials");
    if (sw.new_chips)
        require(t1.fp.hits == t0.fp.hits, "newchip-fingerprint-hits",
                "the traced replay hit the fingerprint cache");
    return perLayer(run.pass, traced.pass, t0, t1, nullptr);
}

std::vector<Metric>
runKeyrecover(const Options &o, uint64_t &attempted)
{
    std::vector<double> setup_times;
    DumpSet set;
    for (int rep = 0; rep < (o.trace ? 1 : kSetupReps); ++rep) {
        const Clock::time_point t0 = rep ? Clock::now() : kProcessStart;
        set = generateDumpSet(o.seed);
        setup_times.push_back(secondsSince(t0));
    }

    std::vector<std::vector<std::vector<uint8_t>>> first_keys;
    const KeyfindRun run = measureKeyfind(
        set, o.trace ? o.seconds / 2 : o.seconds, first_keys);
    attempted = run.pass.ops();
    property("early-reject fraction " +
             std::to_string(double(run.scan.early_rejects) /
                            double(run.scan.offsets)) +
             "; windows carrying a planted schedule " +
             std::to_string(double(kPlantsPerDump * run.pass.ops()) /
                            double(run.scan.offsets)) +
             " (" + std::to_string(kPlantsPerDump) + " per " +
             std::to_string(run.scan.offsets / run.pass.ops()) +
             " offsets); correction accept fraction " +
             std::to_string(double(run.correction.accepted) /
                            double(run.correction.attempted)));
    if (!o.trace)
        return endToEnd(run.pass, median(setup_times));

    g_tracing = true;
    const LibCounters t0 = LibCounters::now();
    const KeyfindRun traced =
        measureKeyfind(set, 0, first_keys, run.pass.round_rate.size());
    const LibCounters t1 = LibCounters::now();
    g_tracing = false;
    property("traced replay reproduced the key reports of " +
             std::to_string(traced.pass.ops()) + " dumps");
    return perLayer(run.pass, traced.pass, t0, t1, &traced);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    std::cout << "perfbench workload=" << o.workload << " seed=" << o.seed
              << " seconds=" << o.seconds << " trace=" << o.trace
              << " jobs=" << kJobs << "\n";
    uint64_t attempted = 0;
    try {
        const std::vector<Metric> m =
            o.workload == "keyrecover-dump" ? runKeyrecover(o, attempted)
                                            : runSweep(o, attempted);
        writeSpans(o.span_out);
        printResult(true, attempted, 0, m);
        return 0;
    } catch (const CheckFailure &f) {
        std::cerr << "perfbench: check failed: " << f.check << ": "
                  << f.what() << "\n";
        printResult(false, std::max<uint64_t>(attempted, 1), 1, {});
        return 1;
    }
}
