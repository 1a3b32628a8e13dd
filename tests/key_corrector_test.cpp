/**
 * @file
 * Tests for the error-correcting AES key reconstruction, including the
 * end-to-end DRAM cold boot scenario it enables (the classic attack the
 * paper's on-chip schemes were built to stop).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "crypto/aes.hh"
#include "crypto/key_corrector.hh"
#include "crypto/key_finder.hh"
#include "keyfind/engine.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

namespace voltboot
{
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

TEST(KeyCorrector, CleanScheduleNeedsNoWork)
{
    const auto key = testKey(16);
    const auto sched = Aes::expandKey(key);
    KeyCorrector corrector;
    const auto r = corrector.correct(sched, 16);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->key, key);
    EXPECT_EQ(r->key_bits_flipped, 0u);
    EXPECT_EQ(r->residual_bit_errors, 0u);
}

TEST(KeyCorrector, RepairsErrorsInDerivedBytes)
{
    const auto key = testKey(16, 7);
    auto sched = Aes::expandKey(key);
    // Corrupt only derived bytes: the observed key bytes are intact, so
    // correction reduces to verification.
    for (size_t i = 20; i < sched.size(); i += 13)
        sched[i] ^= 0x10;
    KeyCorrector corrector;
    const auto r = corrector.correct(sched, 16);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->key, key);
}

TEST(KeyCorrector, RepairsErrorsInTheKeyBytesThemselves)
{
    const auto key = testKey(16, 9);
    auto sched = Aes::expandKey(key);
    // Flip three bits inside the master-key bytes.
    sched[1] ^= 0x04;
    sched[7] ^= 0x80;
    sched[15] ^= 0x01;
    KeyCorrector corrector;
    const auto r = corrector.correct(sched, 16);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->key, key);
    EXPECT_EQ(r->key_bits_flipped, 3u);
    // The residual is the window's own three corrupted key-byte bits:
    // the reconstructed (true) key disagrees with them by construction.
    EXPECT_EQ(r->residual_bit_errors, 3u);
}

class CorrectorBerSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(CorrectorBerSweep, RecoversAtLowBer)
{
    const double ber = GetParam();
    const auto key = testKey(16, 11);
    int recovered = 0;
    const int trials = 8;
    KeyCorrector corrector;
    for (int t = 0; t < trials; ++t) {
        const auto noisy =
            corrupt(Aes::expandKey(key), ber, 100 + t);
        const auto r = corrector.correct(noisy, 16);
        recovered += r && r->key == key;
    }
    // <=1% BER: the greedy search should almost always converge.
    EXPECT_GE(recovered, trials - 1) << "at BER " << ber;
}

INSTANTIATE_TEST_SUITE_P(LowBer, CorrectorBerSweep,
                         ::testing::Values(0.001, 0.005, 0.01));

TEST(KeyCorrector, GivesUpOnGarbage)
{
    Rng rng(5);
    std::vector<uint8_t> junk(176);
    for (auto &b : junk)
        b = static_cast<uint8_t>(rng.next());
    KeyCorrector corrector;
    EXPECT_FALSE(corrector.correct(junk, 16).has_value());
}

TEST(KeyCorrector, GarbageBailsDeterministicallyBeforeSearching)
{
    // Random data sits at ~50% residual fraction — the bistable-SRAM
    // cold-boot regime. The noise gate must recognise it in one pass
    // and report a structured reason instead of burning the iteration
    // budget on schedule expansions.
    Rng rng(5);
    std::vector<uint8_t> junk(176);
    for (auto &b : junk)
        b = static_cast<uint8_t>(rng.next());
    EXPECT_GT(KeyCorrector::linearResidualFraction(junk, 16), 0.40);

    KeyCorrector corrector;
    const auto attempt = corrector.attempt(junk, 16);
    EXPECT_FALSE(attempt.key.has_value());
    EXPECT_EQ(attempt.gave_up, GiveUpReason::ErrorFloor);
    EXPECT_EQ(attempt.iterations, 0u);
    // One distance eval to report the residual; no local search.
    EXPECT_LE(attempt.distance_evals, 1u);
    EXPECT_STREQ(toString(attempt.gave_up), "error_floor");
}

TEST(KeyCorrector, ResidualFractionTracksChannelNoise)
{
    const auto key = testKey(16, 17);
    const auto clean = Aes::expandKey(key);
    EXPECT_EQ(KeyCorrector::linearResidualFraction(clean, 16), 0.0);
    // A true schedule at BER p violates ~3p of its relation bits.
    const auto noisy = corrupt(clean, 0.02, 4242);
    const double frac = KeyCorrector::linearResidualFraction(noisy, 16);
    EXPECT_GT(frac, 0.01);
    EXPECT_LT(frac, 0.15);
}

TEST(KeyCorrector, AttemptReportsSuccessWithNoReason)
{
    const auto key = testKey(16, 19);
    auto sched = Aes::expandKey(key);
    sched[2] ^= 0x08;
    KeyCorrector corrector;
    const auto attempt = corrector.attempt(sched, 16);
    ASSERT_TRUE(attempt.key.has_value());
    EXPECT_EQ(attempt.key->key, key);
    EXPECT_EQ(attempt.gave_up, GiveUpReason::None);
    EXPECT_GT(attempt.distance_evals, 0u);
}

TEST(KeyCorrector, ResidualWordRelationsHoldOnIdealSchedules)
{
    // Every relation word set must be XOR-exact on a clean schedule,
    // for all three key sizes.
    for (size_t kb : {16u, 24u, 32u}) {
        const auto sched = Aes::expandKey(testKey(kb, 23));
        const unsigned nk = static_cast<unsigned>(kb / 4);
        for (unsigned i : scheduleResidualWords(kb)) {
            uint32_t w[3];
            std::memcpy(&w[0], sched.data() + 4 * i, 4);
            std::memcpy(&w[1], sched.data() + 4 * (i - 1), 4);
            std::memcpy(&w[2], sched.data() + 4 * (i - nk), 4);
            EXPECT_EQ(w[0] ^ w[1] ^ w[2], 0u)
                << "key bytes " << kb << " word " << i;
        }
    }
}

TEST(KeyCorrector, RejectsBadPriorSizes)
{
    const auto sched = Aes::expandKey(testKey(16, 29));
    KeyCorrector corrector;
    const std::vector<float> wrong(64, 0.1f);
    EXPECT_THROW(corrector.attempt(sched, 16, wrong), FatalError);
}

TEST(KeyCorrector, Handles256BitKeys)
{
    const auto key = testKey(32, 13);
    auto sched = Aes::expandKey(key);
    sched[3] ^= 0x40; // one key-byte error
    sched[60] ^= 0x02;
    KeyCorrector corrector;
    const auto r = corrector.correct(sched, 32);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->key, key);
}

TEST(KeyCorrector, RejectsBadSizes)
{
    std::vector<uint8_t> window(240, 0);
    KeyCorrector corrector;
    EXPECT_THROW(corrector.correct(window, 20), FatalError);
    std::vector<uint8_t> tiny(100, 0);
    EXPECT_THROW(corrector.correct(tiny, 16), FatalError);
}

TEST(KeyCorrector, RejectsNonFinitePriors)
{
    const auto sched = Aes::expandKey(testKey(16, 31));
    KeyCorrector corrector;
    for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                      std::numeric_limits<float>::infinity(),
                      -std::numeric_limits<float>::infinity()}) {
        std::vector<float> priors(128, 0.1f);
        priors[77] = bad;
        try {
            corrector.attempt(sched, 16, priors);
            ADD_FAILURE() << "accepted prior " << bad;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("bit prior 77"),
                      std::string::npos)
                << e.what();
        }
    }
}

// --- search parity against the unbounded search ----------------------

/** Bit disagreement over the whole window, from a fully expanded
 * schedule with no early exit. */
size_t
oracleDistance(std::span<const uint8_t> key, std::span<const uint8_t> window)
{
    const std::vector<uint8_t> ideal = Aes::expandKey(key);
    size_t errors = 0;
    for (size_t i = 0; i < ideal.size(); ++i)
        errors += std::popcount(static_cast<uint8_t>(window[i] ^ ideal[i]));
    return errors;
}

/**
 * The corrector's search as it stood before the bounded distance: every
 * candidate schedule expanded in full and scored exactly, and the prior
 * order built with stable_sort. KeyCorrector::attempt must reproduce its
 * every decision and counter.
 */
CorrectionAttempt
oracleAttempt(const KeyCorrectorConfig &config,
              std::span<const uint8_t> window, size_t key_bytes,
              std::span<const float> bit_priors)
{
    CorrectionAttempt out;
    const size_t schedule_bytes = Aes::scheduleBytes(key_bytes);
    const size_t key_bits = key_bytes * 8;
    const double schedule_bits = static_cast<double>(schedule_bytes * 8);
    std::vector<uint8_t> key(window.begin(), window.begin() + key_bytes);

    if (KeyCorrector::linearResidualFraction(window, key_bytes) >
        kGiveUpResidual) {
        out.gave_up = GiveUpReason::ErrorFloor;
        out.residual_bit_errors = oracleDistance(key, window);
        out.distance_evals = 1;
        return out;
    }

    size_t best = oracleDistance(key, window);
    size_t evals = 1;
    size_t flips = 0;
    size_t iterations = 0;
    GiveUpReason stalled = GiveUpReason::None;

    std::vector<size_t> order;
    if (!bit_priors.empty()) {
        order.resize(key_bits);
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return bit_priors[a] > bit_priors[b];
                         });
    }

    bool improved = true;
    while (improved && iterations < config.max_iterations && best > 0) {
        improved = false;
        size_t best_after = best;
        if (order.empty()) {
            size_t best_bit = SIZE_MAX;
            for (size_t bit = 0; bit < key_bits; ++bit) {
                key[bit / 8] ^= 1u << (bit % 8);
                const size_t d = oracleDistance(key, window);
                key[bit / 8] ^= 1u << (bit % 8);
                ++evals;
                if (d < best_after) {
                    best_after = d;
                    best_bit = bit;
                }
            }
            ++iterations;
            if (best_bit != SIZE_MAX) {
                key[best_bit / 8] ^= 1u << (best_bit % 8);
                best = best_after;
                ++flips;
                improved = true;
                continue;
            }
        } else {
            size_t hit = SIZE_MAX;
            for (size_t bit : order) {
                key[bit / 8] ^= 1u << (bit % 8);
                const size_t d = oracleDistance(key, window);
                ++evals;
                if (d < best) {
                    best = d;
                    hit = bit;
                    break;
                }
                key[bit / 8] ^= 1u << (bit % 8);
            }
            ++iterations;
            if (hit != SIZE_MAX) {
                ++flips;
                improved = true;
                continue;
            }
            best_after = best;
        }
        if (static_cast<double>(best) / schedule_bits <=
            config.accept_threshold)
            break;
        if (static_cast<double>(best) / schedule_bits >
            kLookaheadThreshold) {
            stalled = GiveUpReason::ErrorFloor;
            break;
        }
        size_t best_i = SIZE_MAX, best_j = SIZE_MAX;
        for (size_t i = 0; i + 1 < key_bits; ++i) {
            key[i / 8] ^= 1u << (i % 8);
            for (size_t j = i + 1; j < key_bits; ++j) {
                key[j / 8] ^= 1u << (j % 8);
                const size_t d = oracleDistance(key, window);
                key[j / 8] ^= 1u << (j % 8);
                ++evals;
                if (d < best_after) {
                    best_after = d;
                    best_i = i;
                    best_j = j;
                }
            }
            key[i / 8] ^= 1u << (i % 8);
        }
        if (best_i != SIZE_MAX) {
            key[best_i / 8] ^= 1u << (best_i % 8);
            key[best_j / 8] ^= 1u << (best_j % 8);
            best = best_after;
            flips += 2;
            improved = true;
        }
    }

    out.iterations = iterations;
    out.distance_evals = evals;
    out.residual_bit_errors = best;
    if (static_cast<double>(best) / schedule_bits <=
        config.accept_threshold) {
        CorrectedKey fixed;
        fixed.key = std::move(key);
        fixed.residual_bit_errors = best;
        fixed.key_bits_flipped = flips;
        fixed.iterations = iterations;
        out.key = std::move(fixed);
    } else if (stalled != GiveUpReason::None) {
        out.gave_up = stalled;
    } else if (iterations >= config.max_iterations) {
        out.gave_up = GiveUpReason::MaxIterations;
    } else {
        out.gave_up = GiveUpReason::Residual;
    }
    return out;
}

/** Per-key-bit priors for @p key_bytes: none, informative (random, with
 * the bits that really flipped boosted), or quantised to a few levels
 * (including +0 and -0) so most comparisons are ties. */
std::vector<float>
parityPriors(int mode, std::span<const uint8_t> truth,
             std::span<const uint8_t> window, Rng &rng)
{
    std::vector<float> priors;
    if (mode == 0)
        return priors;
    priors.resize(truth.size() * 8);
    static constexpr float kLevels[] = {0.3f, 0.1f, 0.0f, -0.0f, 0.1f};
    for (size_t bit = 0; bit < priors.size(); ++bit) {
        const bool flipped =
            ((truth[bit / 8] ^ window[bit / 8]) >> (bit % 8)) & 1;
        if (mode == 1)
            priors[bit] = flipped ? 0.4f
                                  : static_cast<float>(rng.uniform() * 0.2);
        else
            priors[bit] = kLevels[rng.next() % 5];
    }
    return priors;
}

TEST(KeyCorrector, BoundedSearchMatchesTheUnboundedOracle)
{
    // Window kinds: corrupted schedules over a range of bit-error rates,
    // a schedule read one word off its start (schedule-like, but no
    // key's schedule), and random data.
    static constexpr double kBers[] = {0.0, 0.004, 0.012, 0.03, 0.06};
    // Wider keys make pairwise sweeps of ~2-3e4 oracle expansions each.
    // From this kind on they stall above the acceptance bar repeatedly,
    // so they run under the one-iteration cap only.
    static constexpr size_t kWideNoisyFrom = 2;
    KeyCorrectorConfig defaults;
    KeyCorrectorConfig capped; // runs into MaxIterations
    capped.max_iterations = 1;
    KeyCorrectorConfig strict; // stalls below the lookahead bar
    strict.accept_threshold = 0.002;

    size_t windows = 0, pairwise = 0;
    size_t reasons[4] = {};
    for (size_t kb : {16u, 24u, 32u}) {
        const size_t sched_bytes = Aes::scheduleBytes(kb);
        for (uint64_t seed = 0; seed < 4; ++seed) {
            const auto truth = testKey(kb, 1000 + kb * 10 + seed);
            const auto clean = Aes::expandKey(truth);
            std::vector<std::vector<uint8_t>> kinds;
            for (double ber : kBers)
                kinds.push_back(corrupt(clean, ber, 7000 + seed));
            std::vector<uint8_t> shifted(clean.begin() + 4, clean.end());
            shifted.resize(sched_bytes, 0x5a);
            kinds.push_back(shifted);
            kinds.push_back(corrupt(std::vector<uint8_t>(sched_bytes, 0),
                                    0.5, 9000 + seed));
            for (size_t k = 0; k < kinds.size(); ++k) {
                const auto &window = kinds[k];
                for (int mode = 0; mode < 3; ++mode) {
                    Rng rng(seed * 31 + static_cast<uint64_t>(mode));
                    const auto priors = parityPriors(
                        mode, truth, std::span(window).first(kb), rng);
                    for (const KeyCorrectorConfig *cfg :
                         {&defaults, &capped, &strict}) {
                        if (kb > 16 && cfg != &capped &&
                            (cfg == &strict || k >= kWideNoisyFrom))
                            continue;
                        const CorrectionAttempt want =
                            oracleAttempt(*cfg, window, kb, priors);
                        const CorrectionAttempt got =
                            KeyCorrector(*cfg).attempt(window, kb, priors);
                        SCOPED_TRACE(testing::Message()
                                     << "kb " << kb << " seed " << seed
                                     << " window " << windows
                                     << " prior mode " << mode);
                        ASSERT_EQ(got.key.has_value(),
                                  want.key.has_value());
                        if (want.key) {
                            EXPECT_EQ(got.key->key, want.key->key);
                            EXPECT_EQ(got.key->residual_bit_errors,
                                      want.key->residual_bit_errors);
                            EXPECT_EQ(got.key->key_bits_flipped,
                                      want.key->key_bits_flipped);
                            EXPECT_EQ(got.key->iterations,
                                      want.key->iterations);
                        }
                        EXPECT_EQ(got.gave_up, want.gave_up);
                        EXPECT_EQ(got.iterations, want.iterations);
                        EXPECT_EQ(got.distance_evals, want.distance_evals);
                        EXPECT_EQ(got.residual_bit_errors,
                                  want.residual_bit_errors);
                        ++windows;
                        ++reasons[static_cast<int>(want.gave_up)];
                        pairwise += want.distance_evals >
                                    1 + want.iterations * kb * 8;
                    }
                }
            }
        }
    }
    // The grid must reach every way a search can end, and the pairwise
    // lookahead.
    EXPECT_GE(windows, 300u);
    for (size_t r = 0; r < 4; ++r)
        EXPECT_GT(reasons[r], 0u)
            << toString(static_cast<GiveUpReason>(r));
    EXPECT_GT(pairwise, 0u);
}

// --- the classic DRAM cold boot, end to end on our substrate ---

/** Run the Halderman scenario at @p celsius on the key testKey(16,
 * @p key_seed); return true if the key was recovered from the
 * post-transplant DRAM image, and store the key bits the corrector
 * repaired in @p bits_flipped when given. */
bool
dramColdBoot(double celsius, Seconds off_time, uint64_t key_seed = 21,
             size_t *bits_flipped = nullptr)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();

    // Victim: a disk-encryption key schedule sits in DRAM (the normal,
    // pre-TRESOR world).
    const auto key = testKey(16, key_seed);
    const auto sched = Aes::expandKey(key);
    soc.dramArray().write(0x40000, sched);

    // Chill, cut power for the transplant window, repower (the attacker
    // machine), dump the DRAM.
    soc.setAmbient(Temperature::celsius(celsius));
    soc.powerCycle(off_time);
    std::vector<uint8_t> window(176 + 64);
    soc.dramArray().read(0x40000, window);

    // Scan with correction: decayed master-key bytes defeat the plain
    // scanner, so the engine's correction stage pre-filters on
    // first-round consistency and repairs candidates.
    keyfind::KeyRecoveryConfig cfg;
    cfg.use_priors = false;
    const auto hits = keyfind::KeyRecoveryEngine(cfg)
                          .recover(MemoryImage(window))
                          .corrected_hits;
    if (bits_flipped)
        *bits_flipped =
            hits.empty() ? 0 : hits.front().corrected.key_bits_flipped;
    return !hits.empty() && hits.front().corrected.key == key;
}

TEST(DramColdBoot, SucceedsWhenChilled)
{
    // -50 degC, 10 s transplant: the classic attack works on DRAM.
    EXPECT_TRUE(dramColdBoot(-50.0, Seconds(10.0)));
}

TEST(DramColdBoot, SucceedsAtRoomTempForFastSwaps)
{
    // Room temperature with a sub-second swap also works — DRAM's
    // retention is just that long.
    EXPECT_TRUE(dramColdBoot(25.0, Seconds::milliseconds(200)));
}

TEST(DramColdBoot, FailsWhenWarmAndSlow)
{
    // A slow warm swap decays too much for even the corrector.
    EXPECT_FALSE(dramColdBoot(25.0, Seconds(30.0)));
}

TEST(DramColdBoot, RepairsKeysAcrossTwentySeeds)
{
    // The keys of bench/ablation_dram_coldboot's Rng(seed) pipeline,
    // seeds 1000..1019. At 0.1 s every key comes back, and the summed
    // repaired bits show the corrector at work rather than a clean dump;
    // 0.2 s is the corrector's edge, pinned at its measured count.
    auto sweep = [](Seconds off_time, size_t &bits_flipped) {
        size_t recovered = 0;
        bits_flipped = 0;
        for (uint64_t i = 0; i < 20; ++i) {
            size_t flips = 0;
            recovered += dramColdBoot(25.0, off_time, 1000 + i, &flips);
            bits_flipped += flips;
        }
        return recovered;
    };
    size_t flips = 0;
    EXPECT_EQ(sweep(Seconds::milliseconds(100), flips), 20u);
    EXPECT_GT(flips, 0u);
    EXPECT_EQ(sweep(Seconds::milliseconds(200), flips), 10u);
}

} // namespace
} // namespace voltboot
