/**
 * @file
 * Proof-of-exactness tests for the threshold-transformed retention
 * kernels: the fast and reference paths must be *byte-identical* on
 * every scenario — array transitions, full attacks, whole campaigns —
 * and the integer thresholds must classify every raw hash value exactly
 * as the scalar transcendental predicates do. Also guards the paper's
 * calibration anchor points through the fast kernel.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "campaign/campaign.hh"
#include "core/attack.hh"
#include "os/baremetal.hh"
#include "os/workloads.hh"
#include "soc/soc.hh"
#include "sram/fingerprint_cache.hh"
#include "sram/memory_array.hh"
#include "sram/retention_kernel.hh"
#include "sram/retention_model.hh"

namespace voltboot
{
namespace
{

/** RAII kernel selection (restores the previous choice on scope exit). */
struct KernelGuard
{
    explicit KernelGuard(RetentionKernel k) : saved(retentionKernel())
    {
        setRetentionKernel(k);
    }
    ~KernelGuard() { setRetentionKernel(saved); }
    RetentionKernel saved;
};

constexpr RetentionKernel kAllKernels[] = {
    RetentionKernel::Fast,
    RetentionKernel::Reference,
};

TEST(RetentionKernelSelection, ParseAndFormatRoundTrip)
{
    for (RetentionKernel k : kAllKernels) {
        RetentionKernel parsed = RetentionKernel::Fast;
        EXPECT_TRUE(parseRetentionKernel(toString(k), parsed));
        EXPECT_EQ(parsed, k);
    }
    RetentionKernel out = RetentionKernel::Reference;
    EXPECT_FALSE(parseRetentionKernel("slow", out));
    EXPECT_FALSE(parseRetentionKernel("", out));
    EXPECT_EQ(out, RetentionKernel::Reference); // untouched on failure
}

// --- Threshold exactness against the scalar predicates ---

TEST(ThresholdTransform, DecayBandClassifiesExactlyOutsideGuard)
{
    const RetentionModel m(RetentionConfig::sram6t(), CellRng(0xfeed, 1));
    const struct { double off_ms, temp_c; } cases[] = {
        {20.0, -110.0}, {5.0, -80.0}, {2.0, -40.0}, {0.001, 25.0},
    };
    for (const auto &c : cases) {
        const Seconds off = Seconds::milliseconds(c.off_ms);
        const Temperature t = Temperature::celsius(c.temp_c);
        const auto band = m.decaySurvivalBand(off, t);
        const auto scalar = [&](uint64_t raw) {
            CellParams p{};
            p.retention_z = CellRng::gaussianFromUniform(
                CellRng::uniformFromRaw(raw));
            return m.survivesUnpowered(p, off, t);
        };
        // Dense scan just outside both band edges: classification
        // there must be exact.
        for (uint64_t d = 1; d <= 4096; ++d) {
            if (band.lo >= d)
                ASSERT_FALSE(scalar(band.lo - d))
                    << "off=" << c.off_ms << "ms temp=" << c.temp_c
                    << " raw=" << band.lo - d;
            if (band.hi + d <= CellRng::kRawUniformBuckets &&
                band.hi + d - 1 < CellRng::kRawUniformBuckets)
                ASSERT_TRUE(scalar(band.hi + d - 1))
                    << "off=" << c.off_ms << "ms temp=" << c.temp_c
                    << " raw=" << band.hi + d - 1;
        }
        // Real cells: band classification (scalar inside the band)
        // must agree with the full cellParams()-based evaluation.
        for (uint64_t cell = 0; cell < 20000; ++cell) {
            const bool ref =
                m.survivesUnpowered(m.cellParams(cell), off, t);
            const uint64_t raw = m.rng().rawUniform(
                cell, RetentionModel::ChannelRetention);
            const bool fast = raw >= band.hi ||
                              (raw >= band.lo && scalar(raw));
            ASSERT_EQ(ref, fast) << "cell " << cell;
        }
    }
}

TEST(ThresholdTransform, DroopBandClassifiesExactlyOutsideGuard)
{
    const RetentionModel m(RetentionConfig::sram6t(), CellRng(0xfeed, 2));
    // Including the drv_min/drv_max clamp edges and just inside them.
    for (double mv : {50.0, 51.0, 100.0, 250.0, 400.0, 549.0, 550.0}) {
        const Volt v = Volt::millivolts(mv);
        const auto band = m.droopLossBand(v);
        const auto scalar_survives = [&](uint64_t raw) {
            CellParams p{};
            p.drv = m.drvFromZ(CellRng::gaussianFromUniform(
                CellRng::uniformFromRaw(raw)));
            return m.survivesAtVoltage(p, v);
        };
        for (uint64_t d = 1; d <= 4096; ++d) {
            if (band.lo >= d)
                ASSERT_TRUE(scalar_survives(band.lo - d))
                    << "mv=" << mv << " raw=" << band.lo - d;
            if (band.hi + d - 1 < CellRng::kRawUniformBuckets)
                ASSERT_FALSE(scalar_survives(band.hi + d - 1))
                    << "mv=" << mv << " raw=" << band.hi + d - 1;
        }
        for (uint64_t cell = 0; cell < 20000; ++cell) {
            const bool ref = m.survivesAtVoltage(m.cellParams(cell), v);
            const uint64_t raw =
                m.rng().rawUniform(cell, RetentionModel::ChannelDrv);
            const bool fast = raw < band.lo ||
                              (raw < band.hi && scalar_survives(raw));
            ASSERT_EQ(ref, fast) << "mv=" << mv << " cell " << cell;
        }
    }
}

TEST(ThresholdTransform, UniformToNormalDeviationsStayWithinGuardSlop)
{
    // The guard band assumes the FP-evaluated raw -> z chain never
    // decreases by more than kGuardSlopZ. The risky spots are the
    // seams of Acklam's piecewise approximation and the clampOpen
    // edges; scan densely around each and coarsely across the whole
    // range, tracking the running maximum.
    const double slop = RetentionModel::kGuardSlopZ;
    const double seams[] = {1e-12, 0.02425, 0.5, 1.0 - 0.02425,
                            1.0 - 1e-12};
    for (double s : seams) {
        const uint64_t k0 = CellRng::rawUniformCountBelow(s);
        const uint64_t lo = k0 >= 4096 ? k0 - 4096 : 0;
        const uint64_t hi =
            std::min(k0 + 4096, CellRng::kRawUniformBuckets);
        double running_max = CellRng::gaussianFromUniform(
            CellRng::uniformFromRaw(lo));
        for (uint64_t k = lo + 1; k < hi; ++k) {
            const double z = CellRng::gaussianFromUniform(
                CellRng::uniformFromRaw(k));
            ASSERT_GE(z, running_max - slop) << "seam " << s << " raw "
                                             << k;
            running_max = std::max(running_max, z);
        }
    }
    const uint64_t step = CellRng::kRawUniformBuckets >> 18;
    double running_max = CellRng::gaussianFromUniform(0.0);
    for (uint64_t k = 0; k < CellRng::kRawUniformBuckets; k += step) {
        const double z =
            CellRng::gaussianFromUniform(CellRng::uniformFromRaw(k));
        ASSERT_GE(z, running_max - slop) << "raw " << k;
        running_max = std::max(running_max, z);
    }
}

TEST(ThresholdTransform, MetastableDrawThresholdIsExact)
{
    const RetentionModel m(RetentionConfig::sram6t(), CellRng(0xabc, 3));
    size_t checked = 0;
    for (uint64_t cell = 0; cell < 5000; ++cell) {
        if (!m.cellParams(cell).metastable)
            continue;
        const uint64_t thr =
            CellRng::rawUniformCountBelow(m.metastableTheta(cell));
        for (uint64_t nonce = 0; nonce < 8; ++nonce) {
            const bool fast =
                m.rng().rawUniform(
                    hashCombine(cell, nonce),
                    RetentionModel::ChannelMetastableDraw) < thr;
            ASSERT_EQ(m.metastableDraw(cell, nonce), fast)
                << "cell " << cell << " nonce " << nonce;
        }
        ++checked;
    }
    EXPECT_GT(checked, 1000u); // the scan actually hit metastable cells
}

TEST(FingerprintCache, SharesPlanesAcrossIdenticalDice)
{
    clearFingerprintCache();
    auto firstWake = [](uint64_t chip_seed) {
        SramArray a("cache", 2048, chip_seed, 7);
        a.powerUp(Volt(0.8));
        return a.snapshot();
    };
    const auto base = firstWake(0x0e57);
    auto s = fingerprintCacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.bytes, 0u);

    // Same die again: served from the cache, byte-identical.
    EXPECT_EQ(firstWake(0x0e57), base);
    s = fingerprintCacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_GE(s.hits, 1u);
    EXPECT_EQ(s.entries, 1u);

    // Different silicon: a fresh entry, different fingerprint.
    EXPECT_NE(firstWake(0x0e58), base);
    s = fingerprintCacheStats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.entries, 2u);

    clearFingerprintCache();
    s = fingerprintCacheStats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
}

/** Restores the process-wide cache byte budget (and empties the cache)
 * when a test exits, so capacity experiments cannot leak. */
class CacheCapacityGuard
{
public:
    CacheCapacityGuard() : saved_(fingerprintCacheStats().capacity)
    {
        clearFingerprintCache();
    }
    ~CacheCapacityGuard()
    {
        setFingerprintCacheCapacity(saved_);
        clearFingerprintCache();
    }

private:
    size_t saved_;
};

TEST(FingerprintCache, ByteBudgetEvictsLeastRecentlyUsed)
{
    CacheCapacityGuard guard;
    auto wake = [](uint64_t chip_seed) {
        SramArray a("budget", 2048, chip_seed, 7);
        a.powerUp(Volt(0.8));
        return a.snapshot();
    };
    // Measure what one die costs, then budget for roughly two.
    wake(0xb001);
    const size_t per_entry = fingerprintCacheStats().bytes;
    ASSERT_GT(per_entry, 0u);
    setFingerprintCacheCapacity(per_entry * 5 / 2);

    wake(0xb002);
    wake(0xb003); // over budget: the LRU entry (0xb001) must go
    auto s = fingerprintCacheStats();
    EXPECT_GE(s.evictions, 1u);
    EXPECT_LE(s.entries, 2u);
    EXPECT_LE(s.bytes, s.capacity);

    // The survivors are still hits; the evicted die rebuilds, and the
    // rebuilt planes resolve to the same bytes as before eviction.
    const auto before = s;
    wake(0xb003);
    EXPECT_EQ(fingerprintCacheStats().hits, before.hits + 1);
    const auto first = wake(0xb001);
    EXPECT_EQ(fingerprintCacheStats().misses, before.misses + 1);
    EXPECT_EQ(wake(0xb001), first);
}

TEST(FingerprintCache, OversizeBuildsBypassTheCache)
{
    CacheCapacityGuard guard;
    setFingerprintCacheCapacity(0); // everything is oversize
    auto wake = [](uint64_t chip_seed) {
        SramArray a("bypass", 2048, chip_seed, 7);
        a.powerUp(Volt(0.8));
        return a.snapshot();
    };
    const auto base = wake(0x0b1d);
    auto s = fingerprintCacheStats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_GE(s.oversize, 1u);

    // Uncached wakes are still deterministic.
    EXPECT_EQ(wake(0x0b1d), base);
    EXPECT_EQ(fingerprintCacheStats().entries, 0u);
}

// --- Golden equivalence: byte-identical scenarios ---

/** One recorded step of a scenario: the full plane state and the loss
 * bookkeeping, all of which must match across kernels. */
struct ScenarioStep
{
    std::vector<uint8_t> snapshot;
    uint64_t cells_lost;
    std::vector<uint8_t> loss_mask;

    bool operator==(const ScenarioStep &other) const = default;
};

/** A partial-decay off-time for @p model at @p temp (survival strictly
 * between 5% and 95%), found by scanning the decay slope so the
 * scenario works for any cell technology. */
Seconds
partialDecayOff(const RetentionModel &model, Temperature temp)
{
    for (double secs = 1e-9; secs < 1e8; secs *= 1.3) {
        const double p = model.expectedSurvival(Seconds(secs), temp);
        if (p > 0.05 && p < 0.95)
            return Seconds(secs);
    }
    return Seconds(0.0);
}

/**
 * One eventful array life under the current kernel; returns every
 * snapshot, loss count, and loss mask along the way. Odd size
 * exercises the word-kernel tail; works for both cell technologies
 * (decay points are found on the config's own slope).
 */
std::vector<ScenarioStep>
arrayScenario(uint64_t seed, const RetentionConfig &config)
{
    std::vector<ScenarioStep> log;
    auto record = [&](const MemoryArray &a) {
        log.push_back(
            {a.snapshot(), a.lastCellsLost(), a.lastLossMask()});
    };
    MemoryArray a("golden", 1003, config, seed, 7);
    const RetentionModel model(config, CellRng(seed, 7));
    const Temperature cold = Temperature::celsius(-110);
    const Temperature warm = Temperature::celsius(85);
    a.powerUp(Volt(0.8)); // first resolve: full fingerprint
    record(a);
    a.fill(0x5A);
    a.powerDown();
    a.powerUp(Volt(0.8), partialDecayOff(model, cold), cold);
    record(a);
    a.droopTo(Volt::millivolts(300)); // partial DRV loss
    record(a);
    a.retainAt(Volt::millivolts(220)); // droop + retain
    a.resumePowered(Volt(0.8));
    record(a);
    a.powerDown();
    a.powerUp(Volt(0.8), partialDecayOff(model, warm),
              warm); // different decay point
    record(a);
    a.powerDown();
    a.powerUp(Volt(0.8), Seconds(1e9),
              Temperature::celsius(85)); // total loss: resolve-all
    record(a);
    return log;
}

void
expectScenarioMatchesReference(const RetentionConfig &config,
                               const char *config_name)
{
    for (uint64_t seed : {1ull, 2ull, 0x5eedull}) {
        KernelGuard ref(RetentionKernel::Reference);
        const auto expected = arrayScenario(seed, config);
        KernelGuard fast(RetentionKernel::Fast);
        const auto got = arrayScenario(seed, config);
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].cells_lost, expected[i].cells_lost)
                << config_name << " lastCellsLost, step " << i;
            ASSERT_EQ(got[i].loss_mask, expected[i].loss_mask)
                << config_name << " loss mask, step " << i;
            ASSERT_EQ(got[i].snapshot, expected[i].snapshot)
                << config_name << " snapshot bytes, step " << i;
        }
    }
}

TEST(GoldenEquivalence, SramTransitionsAreByteIdenticalAcrossKernels)
{
    expectScenarioMatchesReference(RetentionConfig::sram6t(), "sram6t");
}

TEST(GoldenEquivalence, DramTransitionsAreByteIdenticalAcrossKernels)
{
    expectScenarioMatchesReference(RetentionConfig::dram(), "dram");
}

/** Full Volt Boot + cold boot attack pair on pi4; returns both dumps. */
std::pair<std::vector<uint8_t>, std::vector<uint8_t>>
attackScenario()
{
    std::pair<std::vector<uint8_t>, std::vector<uint8_t>> dumps;
    {
        Soc soc(socConfigFor("pi4"));
        soc.powerOn();
        BareMetalRunner runner(soc);
        const uint64_t base = soc.config().dram_base + 0x40000;
        runner.runOn(0, workloads::patternStore(base, 8192, 0xAA));
        VoltBootAttack attack(soc, AttackConfig{});
        AttackOutcome out = attack.execute();
        EXPECT_TRUE(out.rebooted_into_attacker_code)
            << out.failure_reason;
        dumps.first = attack.dumpL1(0, L1Ram::DData).bytes();
    }
    {
        Soc soc(socConfigFor("pi4"));
        soc.powerOn();
        BareMetalRunner runner(soc);
        const uint64_t base = soc.config().dram_base + 0x40000;
        runner.runOn(0, workloads::patternStore(base, 8192, 0xAA));
        ColdBootAttack attack(soc, Temperature::celsius(-110),
                              Seconds::milliseconds(20));
        EXPECT_TRUE(attack.powerCycleAndBoot());
        dumps.second = attack.dumpL1(0, L1Ram::DData).bytes();
    }
    return dumps;
}

TEST(GoldenEquivalence, AttackAndColdBootDumpsAreByteIdentical)
{
    KernelGuard ref(RetentionKernel::Reference);
    const auto expected = attackScenario();
    KernelGuard fast(RetentionKernel::Fast);
    const auto got = attackScenario();
    ASSERT_EQ(got.first, expected.first) << "voltboot dump differs";
    ASSERT_EQ(got.second, expected.second) << "coldboot dump differs";
}

std::string
readFile(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(GoldenEquivalence, CampaignJsonCsvAndTracesAreByteIdentical)
{
    SweepGrid grid;
    grid.boards = {"pi4"};
    grid.targets = {TargetRam::DCache};
    grid.attacks = {AttackKind::VoltBoot, AttackKind::ColdBoot};
    grid.temps_c = {25.0, -80.0};
    grid.offs_ms = {5.0};
    grid.seed_count = 1;

    const auto trace_root =
        std::filesystem::temp_directory_path() / "voltboot_golden_traces";
    std::filesystem::remove_all(trace_root);

    std::string ref_json, ref_csv;
    std::vector<std::string> ref_traces;
    for (RetentionKernel k : kAllKernels) {
        KernelGuard guard(k);
        CampaignConfig cfg;
        cfg.jobs = 2;
        cfg.seed = 0xbe;
        const auto dir = trace_root / toString(k);
        cfg.trace_dir = dir.string();
        const CampaignResult result = Campaign(grid, cfg).run();
        const std::string json = result.toJson();
        const std::string csv = result.toCsv();
        std::vector<std::string> traces;
        for (uint64_t i = 0; i < grid.size(); ++i) {
            const std::string name = trialTracePath(dir.string(), i);
            traces.push_back(readFile(name));
            EXPECT_FALSE(traces.back().empty()) << name;
        }
        if (ref_json.empty()) {
            ref_json = json;
            ref_csv = csv;
            ref_traces = traces;
        } else {
            EXPECT_EQ(json, ref_json) << toString(k);
            EXPECT_EQ(csv, ref_csv) << toString(k);
            ASSERT_EQ(traces.size(), ref_traces.size());
            for (size_t i = 0; i < traces.size(); ++i)
                EXPECT_EQ(traces[i], ref_traces[i])
                    << toString(k) << " trial trace " << i;
        }
    }
    std::filesystem::remove_all(trace_root);
}

// --- Calibration anchors through the fast kernel ---

/** Empirical survival of a 64 KiB array under the current kernel,
 * measured with the complement-of-fingerprint trick. */
double
measuredSurvival(double off_ms, double temp_c)
{
    SramArray a("anchor", 65536, 0x1234, 20);
    a.powerUp(Volt(0.8));
    std::vector<uint8_t> fp = a.snapshot();
    for (size_t i = 0; i < fp.size(); ++i)
        a.writeByte(i, static_cast<uint8_t>(~fp[i]));
    a.powerDown();
    a.powerUp(Volt(0.8), Seconds::milliseconds(off_ms),
              Temperature::celsius(temp_c));
    size_t retained = 0;
    for (size_t i = 0; i < a.sizeBytes(); ++i)
        retained += std::popcount(
            static_cast<uint8_t>(a.readByte(i) ^ fp[i]));
    return static_cast<double>(retained) / a.sizeBits();
}

class FastKernelAnchor
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(FastKernelAnchor, EmpiricalSurvivalTracksExpectedSurvival)
{
    const auto [off_ms, temp_c] = GetParam();
    KernelGuard guard(RetentionKernel::Fast);
    const double measured = measuredSurvival(off_ms, temp_c);

    const RetentionModel model(RetentionConfig::sram6t(),
                               CellRng(0x1234, 20));
    const double p = model.expectedSurvival(
        Seconds::milliseconds(off_ms), Temperature::celsius(temp_c));
    // Metastable cells that lost state re-roll; a fraction land back on
    // the stored complement (same correction as SurvivalMonteCarlo).
    const double meta = model.config().metastable_fraction;
    const double expected =
        p + (1.0 - p) * meta * model.expectedMetastableFlipRate();
    EXPECT_NEAR(measured, expected, 0.02);

    // The paper's anchor points survive the threshold refactor.
    if (off_ms == 20.0 && temp_c == -110.0)
        EXPECT_NEAR(p, 0.80, 0.06);
    if (off_ms == 2.0 && temp_c == -40.0)
        EXPECT_LT(p, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    PaperAnchors, FastKernelAnchor,
    ::testing::Values(std::make_pair(20.0, -110.0),
                      std::make_pair(2.0, -40.0),
                      std::make_pair(5.0, -80.0)));

} // namespace
} // namespace voltboot
