/**
 * @file
 * Tests for the unified key-recovery engine: golden parity of the
 * batched scan against KeyFinder and of the correction stage against
 * RobustKeyScanner, byte-identical results across job counts,
 * prior-guided search cost, multi-dump fusion, the residual filter's
 * conservativeness, telemetry counters, and the campaign KeyRecovery
 * mode end to end (including the JSON round trip through the report
 * reader).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "campaign/campaign.hh"
#include "campaign/campaign_result.hh"
#include "campaign/sweep_grid.hh"
#include "campaign/trial_runner.hh"
#include "crypto/aes.hh"
#include "crypto/key_corrector.hh"
#include "crypto/key_finder.hh"
#include "keyfind/engine.hh"
#include "keyfind/prior.hh"
#include "keyfind/schedule_scan.hh"
#include "report/campaign_json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"
#include "telemetry/counters.hh"

using namespace voltboot;

namespace
{

std::vector<uint8_t>
testKey(size_t bytes, uint64_t seed = 42)
{
    Rng rng(seed);
    std::vector<uint8_t> key(bytes);
    for (auto &b : key)
        b = static_cast<uint8_t>(rng.next());
    return key;
}

std::vector<uint8_t>
corrupt(std::vector<uint8_t> data, double ber, uint64_t seed)
{
    Rng rng(seed);
    for (auto &b : data)
        for (int bit = 0; bit < 8; ++bit)
            if (rng.uniform() < ber)
                b ^= 1u << bit;
    return data;
}

/** A dump image with schedules planted at fixed offsets over random
 * filler, then corrupted at @p ber. */
MemoryImage
plantedImage(size_t bytes, const std::vector<uint8_t> &key, double ber,
             uint64_t seed, std::vector<size_t> offsets = {0x400, 0x1800})
{
    Rng rng(seed);
    std::vector<uint8_t> img(bytes);
    for (auto &b : img)
        b = static_cast<uint8_t>(rng.next());
    const auto sched = Aes::expandKey(key);
    for (size_t off : offsets) {
        if (off + sched.size() > img.size())
            fatal("plantedImage: offset ", off, " overruns the image");
        std::copy(sched.begin(), sched.end(), img.begin() + off);
    }
    return MemoryImage(corrupt(std::move(img), ber, seed + 1));
}

void
expectSameCandidates(const std::vector<KeyCandidate> &a,
                     const std::vector<KeyCandidate> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].offset, b[i].offset) << "hit " << i;
        EXPECT_EQ(a[i].key_bytes, b[i].key_bytes) << "hit " << i;
        EXPECT_EQ(a[i].key, b[i].key) << "hit " << i;
        EXPECT_EQ(a[i].bit_errors, b[i].bit_errors) << "hit " << i;
        EXPECT_EQ(a[i].error_fraction, b[i].error_fraction)
            << "hit " << i;
    }
}

class ScanParityBerSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ScanParityBerSweep, BatchedScanMatchesKeyFinder)
{
    const double ber = GetParam();
    const auto key = testKey(16, 3);
    const MemoryImage image = plantedImage(16384, key, ber, 77);

    KeyFinderConfig cfg;
    cfg.aes256 = true; // exercise both variants
    const auto reference = KeyFinder(cfg).scan(image);
    keyfind::ScanStats stats;
    const auto batched = keyfind::scheduleScan(image, cfg, &stats);
    expectSameCandidates(batched, reference);
    EXPECT_EQ(stats.offsets, stats.early_rejects + stats.scored);
    if (ber == 0.0) {
        // The planted schedules must actually be found for the parity
        // check to mean anything. (At nonzero BER a corrupted *key*
        // byte avalanches the derived schedule, so the exact scan may
        // legitimately reject the plant — correction territory.)
        EXPECT_GE(batched.size(), 2u);
    }
}

INSTANTIATE_TEST_SUITE_P(BerGrid, ScanParityBerSweep,
                         ::testing::Values(0.0, 0.01, 0.05, 0.5));

TEST(ScheduleScan, EarlyRejectFiltersAlmostEverything)
{
    // Pure random data: nothing to find, nearly nothing to score.
    Rng rng(9);
    std::vector<uint8_t> img(1 << 16);
    for (auto &b : img)
        b = static_cast<uint8_t>(rng.next());
    keyfind::ScanStats stats;
    const auto hits =
        keyfind::scheduleScan(MemoryImage(std::move(img)),
                              KeyFinderConfig{}, &stats);
    EXPECT_TRUE(hits.empty());
    ASSERT_GT(stats.offsets, 0u);
    // On random data the residual sum concentrates far above the
    // acceptance budget; well under 1% of offsets may survive.
    EXPECT_LT(static_cast<double>(stats.scored),
              0.01 * static_cast<double>(stats.offsets));
}

TEST(ScheduleScan, ResidualFilterIsConservative)
{
    // Property: any window the reference scorer accepts must survive
    // the residual filter — the summed relation residual never exceeds
    // the derived-bit error count. Stress it right at the acceptance
    // boundary with heavily corrupted planted schedules.
    const auto key = testKey(16, 31);
    for (uint64_t trial = 0; trial < 40; ++trial) {
        const auto noisy =
            corrupt(Aes::expandKey(key), 0.09, 500 + trial);
        const size_t errors = KeyFinder::scheduleBitErrors(noisy, 16);
        unsigned residual = 0;
        for (unsigned i : scheduleResidualWords(16)) {
            uint32_t w[3];
            std::memcpy(&w[0], noisy.data() + 4 * i, 4);
            std::memcpy(&w[1], noisy.data() + 4 * (i - 1), 4);
            std::memcpy(&w[2], noisy.data() + 4 * (i - 4), 4);
            residual +=
                static_cast<unsigned>(std::popcount(w[0] ^ w[1] ^ w[2]));
        }
        EXPECT_LE(residual, errors) << "trial " << trial;
    }
}

TEST(ScheduleScan, AcceptedErrorBudgetMatchesReferenceComparison)
{
    // The reference accepts iff errors/derived <= max_error_fraction
    // under exact double division; the budget must be the largest such
    // integer, across awkward fractions.
    for (double frac : {0.0, 0.05, 0.1, 1.0 / 3.0, 0.375}) {
        for (size_t bits : {1280u, 1408u, 1664u}) {
            const size_t budget =
                keyfind::acceptedErrorBudget(frac, bits);
            EXPECT_LE(static_cast<double>(budget) /
                          static_cast<double>(bits),
                      frac);
            EXPECT_GT(static_cast<double>(budget + 1) /
                          static_cast<double>(bits),
                      frac);
        }
    }
}

TEST(KeyRecoveryEngine, CorrectionHitsMatchRobustScanner)
{
    // With priors off the engine's correction stage must reproduce
    // RobustKeyScanner::scan exactly.
    const auto key = testKey(16, 5);
    const MemoryImage image = plantedImage(8192, key, 0.01, 111);

    const RobustKeyScanner scanner{KeyCorrector{}};
    const auto reference = scanner.scan(image, 16);

    keyfind::KeyRecoveryConfig cfg;
    cfg.use_priors = false;
    const auto report = keyfind::KeyRecoveryEngine(cfg).recover(image);

    ASSERT_EQ(report.corrected_hits.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(report.corrected_hits[i].offset, reference[i].offset);
        EXPECT_EQ(report.corrected_hits[i].corrected.key,
                  reference[i].corrected.key);
        EXPECT_EQ(report.corrected_hits[i].corrected.residual_bit_errors,
                  reference[i].corrected.residual_bit_errors);
        EXPECT_EQ(report.corrected_hits[i].corrected.key_bits_flipped,
                  reference[i].corrected.key_bits_flipped);
    }
    EXPECT_GE(report.correction.attempted, report.correction.accepted);
}

TEST(KeyRecoveryEngine, ByteIdenticalAcrossJobCounts)
{
    const auto key = testKey(16, 15);
    const MemoryImage image = plantedImage(32768, key, 0.02, 222);

    auto runWith = [&](unsigned jobs) {
        keyfind::KeyRecoveryConfig cfg;
        cfg.jobs = jobs;
        cfg.chunk_offsets = 512; // force many tasks
        return keyfind::KeyRecoveryEngine(cfg).recover(image);
    };
    const auto serial = runWith(1);
    for (unsigned jobs : {2u, 4u}) {
        const auto parallel = runWith(jobs);
        expectSameCandidates(parallel.scan_hits, serial.scan_hits);
        ASSERT_EQ(parallel.corrected_hits.size(),
                  serial.corrected_hits.size());
        for (size_t i = 0; i < serial.corrected_hits.size(); ++i) {
            EXPECT_EQ(parallel.corrected_hits[i].offset,
                      serial.corrected_hits[i].offset);
            EXPECT_EQ(parallel.corrected_hits[i].corrected.key,
                      serial.corrected_hits[i].corrected.key);
        }
        EXPECT_EQ(parallel.scan.offsets, serial.scan.offsets);
        EXPECT_EQ(parallel.scan.early_rejects,
                  serial.scan.early_rejects);
        EXPECT_EQ(parallel.correction.iterations,
                  serial.correction.iterations);
    }
}

TEST(KeyRecoveryEngine, BestKeyPrefersExactScan)
{
    const auto key = testKey(16, 25);
    const MemoryImage image = plantedImage(4096, key, 0.0, 333, {0x400});
    const auto report = keyfind::KeyRecoveryEngine().recover(image);
    ASSERT_FALSE(report.scan_hits.empty());
    const auto best = report.bestKey();
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(*best, key);
}

TEST(KeyfindPrior, PriorsCutSearchCost)
{
    // Flip key bits the prior marks as likely-flipped: the guided
    // search must recover the same key while expanding fewer candidate
    // schedules than the blind steepest-descent sweep.
    const auto key = testKey(16, 35);
    auto sched = Aes::expandKey(key);
    const size_t flipped[] = {1 * 8 + 2, 12 * 8 + 0};
    for (size_t bit : flipped)
        sched[bit / 8] ^= 1u << (bit % 8);

    std::vector<float> priors(128, 0.001f);
    for (size_t bit : flipped)
        priors[bit] = 0.4f;

    const KeyCorrector corrector;
    const auto blind = corrector.attempt(sched, 16);
    const auto guided = corrector.attempt(sched, 16, priors);
    ASSERT_TRUE(blind.key.has_value());
    ASSERT_TRUE(guided.key.has_value());
    EXPECT_EQ(blind.key->key, key);
    EXPECT_EQ(guided.key->key, key);
    EXPECT_LT(guided.distance_evals, blind.distance_evals);
}

TEST(KeyfindPrior, DecayPriorsComeFromTheRetentionModel)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    const RetentionModel &model = soc.l1dData(0).model();
    const size_t bits = 4096;

    const auto cold = keyfind::decayFlipPriors(
        model, bits, Seconds::milliseconds(5), Temperature::celsius(-80));
    const auto warm = keyfind::decayFlipPriors(
        model, bits, Seconds(30), Temperature::celsius(25));
    ASSERT_EQ(cold.size(), bits);
    ASSERT_EQ(warm.size(), bits);
    double cold_sum = 0, warm_sum = 0;
    for (size_t i = 0; i < bits; ++i) {
        EXPECT_GE(cold[i], 1e-4f);
        EXPECT_LE(cold[i], 0.5f);
        cold_sum += cold[i];
        warm_sum += warm[i];
    }
    // Longer, warmer off intervals must look strictly riskier.
    EXPECT_LT(cold_sum, warm_sum);

    // Unpowered for no time at all: every bit at the floor.
    const auto none = keyfind::decayFlipPriors(
        model, 64, Seconds(0.0), Temperature::celsius(25));
    for (float p : none)
        EXPECT_FLOAT_EQ(p, 1e-4f);
}

TEST(KeyfindPrior, FusionVotesOutPerDumpNoise)
{
    // Three dumps of the same data, each with disjoint-ish random
    // noise: the majority vote must be cleaner than any single dump.
    const auto key = testKey(16, 45);
    const MemoryImage truth = plantedImage(2048, key, 0.0, 444, {0x400});
    std::vector<MemoryImage> dumps;
    for (uint64_t d = 0; d < 3; ++d)
        dumps.push_back(MemoryImage(
            corrupt(truth.bytes(), 0.03, 600 + d)));

    const auto fused = keyfind::fuseDumps(dumps);
    EXPECT_EQ(fused.dumps, 3u);
    EXPECT_GT(fused.disagreeing_bits, 0u);
    const double fused_ber =
        MemoryImage::fractionalHamming(fused.image, truth);
    for (const MemoryImage &d : dumps)
        EXPECT_LT(fused_ber, MemoryImage::fractionalHamming(d, truth));

    // Disagreeing bits carry raised flip likelihood.
    size_t raised = 0;
    for (float p : fused.flip_likelihood)
        raised += p >= 0.45f;
    EXPECT_EQ(raised, fused.disagreeing_bits);
}

TEST(KeyfindPrior, FusionRecoversWhatSingleDumpsCannot)
{
    // At 6% BER a single dump usually defeats the corrector; the
    // 5-dump majority vote pushes the error rate back into range
    // (residual flip probability ~10 p^3 ~ 0.2%).
    const auto key = testKey(16, 55);
    const MemoryImage truth = plantedImage(2048, key, 0.0, 777, {0x400});
    std::vector<MemoryImage> dumps;
    for (uint64_t d = 0; d < 5; ++d)
        dumps.push_back(MemoryImage(
            corrupt(truth.bytes(), 0.06, 900 + d)));

    const keyfind::KeyRecoveryEngine engine;
    const auto fused_report =
        engine.recover(std::span<const MemoryImage>(dumps));
    EXPECT_EQ(fused_report.dumps_fused, 5u);
    const auto best = fused_report.bestKey();
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(*best, key);
}

TEST(KeyRecoveryEngine, CorrectionStatsArePinned)
{
    // Every search decision of the corrector shows in these counters.
    // They were recorded with the unbounded, allocating distance; a
    // faster distance must reproduce them exactly.
    const auto key = testKey(16, 75);
    const MemoryImage truth =
        plantedImage(16384, key, 0.0, 888, {0x400, 0x1800, 0x2c00});
    std::vector<MemoryImage> dumps;
    for (uint64_t d = 0; d < 3; ++d)
        dumps.push_back(
            MemoryImage(corrupt(truth.bytes(), 0.03, 1200 + d)));

    auto pinned = [](const keyfind::CorrectionStats &c) {
        return std::vector<uint64_t>{c.attempted,
                                     c.accepted,
                                     c.gave_up_residual,
                                     c.gave_up_error_floor,
                                     c.gave_up_max_iterations,
                                     c.iterations,
                                     c.distance_evals};
    };
    const keyfind::KeyRecoveryEngine engine;
    // Blind search on one dump, and the fused dumps' prior-guided search.
    EXPECT_EQ(pinned(engine.recover(dumps[0]).correction),
              (std::vector<uint64_t>{41, 1, 4, 36, 0, 78, 99433}));
    EXPECT_EQ(pinned(engine.recover(std::span<const MemoryImage>(dumps))
                         .correction),
              (std::vector<uint64_t>{37, 3, 9, 25, 0, 107, 208872}));
}

TEST(KeyfindTelemetry, CountersTallyScanAndCorrectionWork)
{
    telemetry::resetCounters();
    const auto key = testKey(16, 65);
    const MemoryImage image = plantedImage(8192, key, 0.01, 555);
    {
        telemetry::WorkerScope scope;
        keyfind::KeyRecoveryEngine().recover(image);
    }
    const telemetry::CounterTotals t = telemetry::totals();
    EXPECT_GT(t.get(telemetry::Counter::KeyfindOffsets), 0u);
    EXPECT_GT(t.get(telemetry::Counter::KeyfindEarlyRejects), 0u);
    EXPECT_GT(t.get(telemetry::Counter::KeyfindCorrections), 0u);
    telemetry::resetCounters();
}

// --- campaign KeyRecovery mode ---

TEST(KeyRecoverySweep, AxesRoundTripThroughDescribeAndParse)
{
    const SweepGrid grid = SweepGrid::parse(
        "board=pi4;target=dcache;attack=key-recovery;temp=-40;"
        "off-ms=50;dumps=1,3;prior=0,1;seeds=2");
    EXPECT_EQ(grid.size(), 8u);
    const SweepGrid again = SweepGrid::parse(grid.describe());
    EXPECT_EQ(again.describe(), grid.describe());

    // dump_count varies slower than prior, faster than cpa-window.
    std::set<std::pair<uint64_t, bool>> combos;
    for (uint64_t i = 0; i < grid.size(); ++i) {
        const TrialSpec spec = grid.at(i);
        EXPECT_EQ(spec.attack, AttackKind::KeyRecovery);
        combos.insert({spec.dump_count, spec.use_priors});
    }
    EXPECT_EQ(combos.size(), 4u);

    EXPECT_THROW(SweepGrid::parse("dumps=0"), FatalError);
    EXPECT_THROW(SweepGrid::parse("prior=2"), FatalError);
}

TEST(KeyRecoverySweep, EndToEndTrialProducesMetrics)
{
    SweepGrid grid = SweepGrid::parse(
        "board=pi4;target=dcache;attack=key-recovery;temp=-40;"
        "off-ms=50;dumps=2;prior=1;seeds=1");
    CampaignConfig cfg;
    cfg.jobs = 1;
    cfg.seed = 99;
    const CampaignResult result = Campaign(grid, cfg).run();
    ASSERT_EQ(result.records.size(), 1u);
    const TrialRecord &rec = result.records[0];
    ASSERT_EQ(rec.status, TrialStatus::Ok) << rec.detail;
    EXPECT_TRUE(rec.booted);
    EXPECT_TRUE(rec.key_planted);
    EXPECT_GT(rec.dump_bytes, 0u);
    EXPECT_GT(rec.accuracy, 0.5);
    // Two power cycles of a bistable array must disagree somewhere.
    EXPECT_GT(rec.kr_disagreeing_bits, 0u);

    const CampaignSummary s = result.summary();
    EXPECT_EQ(s.keyrecovery_trials, 1u);

    // The record round-trips through JSON and the report reader.
    const report::SweepDoc doc =
        report::parseSweepJson(result.toJson(), "keyfind-test");
    ASSERT_EQ(doc.records.size(), 1u);
    EXPECT_EQ(doc.records[0].spec.attack, AttackKind::KeyRecovery);
    EXPECT_EQ(doc.records[0].spec.dump_count, 2u);
    EXPECT_TRUE(doc.records[0].spec.use_priors);
    EXPECT_EQ(doc.records[0].kr_disagreeing_bits,
              rec.kr_disagreeing_bits);

    // And through CSV: the new columns are present and aligned.
    const std::string csv = result.toCsv();
    std::istringstream lines(csv);
    std::string header, row;
    std::getline(lines, header);
    std::getline(lines, row);
    const auto cols = splitCsvRow(header);
    const auto vals = splitCsvRow(row);
    ASSERT_EQ(cols.size(), vals.size());
    auto field = [&](const std::string &name) {
        for (size_t i = 0; i < cols.size(); ++i)
            if (cols[i] == name)
                return vals[i];
        ADD_FAILURE() << "missing CSV column " << name;
        return std::string();
    };
    EXPECT_EQ(field("dump_count"), "2");
    EXPECT_EQ(field("use_priors"), "1");
    EXPECT_EQ(field("kr_disagreeing_bits"),
              std::to_string(rec.kr_disagreeing_bits));
}

TEST(KeyRecoverySweep, RejectsNonDcacheTargets)
{
    SweepGrid grid = SweepGrid::parse(
        "board=pi4;target=icache;attack=key-recovery;seeds=1");
    CampaignConfig cfg;
    cfg.jobs = 1;
    const CampaignResult result = Campaign(grid, cfg).run();
    ASSERT_EQ(result.records.size(), 1u);
    EXPECT_EQ(result.records[0].status, TrialStatus::Error);
    EXPECT_NE(result.records[0].detail.find("dcache"),
              std::string::npos);
}

} // namespace
