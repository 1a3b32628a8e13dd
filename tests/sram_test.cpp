/**
 * @file
 * Tests for the SRAM/DRAM retention physics and memory arrays: DRV
 * distribution, Arrhenius temperature scaling, the literature anchor
 * points, power-state transitions, and the power-up fingerprint.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>

#include "sim/logging.hh"
#include "sram/memory_array.hh"
#include "sram/retention_model.hh"

namespace voltboot
{
namespace
{

RetentionModel
makeModel(const RetentionConfig &cfg = RetentionConfig::sram6t(),
          uint64_t seed = 0xfeed, uint64_t array = 1)
{
    return RetentionModel(cfg, CellRng(seed, array));
}

TEST(RetentionModel, DrvDistributionMoments)
{
    const RetentionModel m = makeModel();
    const int n = 50000;
    double sum = 0, sq = 0;
    for (int cell = 0; cell < n; ++cell) {
        const double drv = m.cellParams(cell).drv.volts();
        sum += drv;
        sq += drv * drv;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.250, 0.005);
    EXPECT_NEAR(std::sqrt(var), 0.035, 0.005);
}

TEST(RetentionModel, DrvRespectsPhysicalBounds)
{
    const RetentionModel m = makeModel();
    for (int cell = 0; cell < 100000; ++cell) {
        const Volt drv = m.cellParams(cell).drv;
        ASSERT_GE(drv.volts(), 0.05);
        ASSERT_LE(drv.volts(), 0.55);
    }
}

TEST(RetentionModel, PowerUpFingerprintHalfOnes)
{
    const RetentionModel m = makeModel();
    int ones = 0;
    const int n = 50000;
    for (int cell = 0; cell < n; ++cell)
        ones += m.cellParams(cell).power_up_bit;
    // "SRAMs boot up into random states where approximately 50% of the
    // bits are 1s."
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.02);
}

TEST(RetentionModel, MetastableFractionMatchesConfig)
{
    const RetentionModel m = makeModel();
    int meta = 0;
    const int n = 50000;
    for (int cell = 0; cell < n; ++cell)
        meta += m.cellParams(cell).metastable;
    EXPECT_NEAR(static_cast<double>(meta) / n,
                m.config().metastable_fraction, 0.01);
}

TEST(RetentionModel, SurvivalAtVoltageIsDrvThreshold)
{
    const RetentionModel m = makeModel();
    const CellParams p = m.cellParams(123);
    EXPECT_TRUE(m.survivesAtVoltage(p, p.drv));
    EXPECT_TRUE(m.survivesAtVoltage(p, p.drv + Volt(0.01)));
    EXPECT_FALSE(m.survivesAtVoltage(p, p.drv - Volt(0.01)));
}

TEST(RetentionModel, RetentionTimeShrinksWithTemperature)
{
    const RetentionModel m = makeModel();
    const CellParams p = m.cellParams(7);
    const Seconds cold = m.retentionTime(p, Temperature::celsius(-110));
    const Seconds cool = m.retentionTime(p, Temperature::celsius(-40));
    const Seconds room = m.retentionTime(p, Temperature::celsius(25));
    EXPECT_GT(cold, cool);
    EXPECT_GT(cool, room);
}

TEST(RetentionModel, ExpectedSurvivalMonotoneInOffTime)
{
    const RetentionModel m = makeModel();
    const Temperature t = Temperature::celsius(-60);
    double prev = 1.0;
    for (double ms : {0.1, 1.0, 10.0, 100.0, 1000.0}) {
        const double s = m.expectedSurvival(Seconds::milliseconds(ms), t);
        EXPECT_LE(s, prev);
        prev = s;
    }
}

// --- The literature anchor points the model is calibrated to ---

TEST(RetentionCalibration, SramRetains80PercentAtMinus110C20ms)
{
    // Anagnostopoulos et al.: ~80% retention after 20 ms at -110 degC.
    const RetentionModel m = makeModel();
    const double s = m.expectedSurvival(Seconds::milliseconds(20),
                                        Temperature::celsius(-110));
    EXPECT_NEAR(s, 0.80, 0.06);
}

TEST(RetentionCalibration, SramRetainsNothingAtMinus40C)
{
    // The paper's Table 1: ~zero retention at the SoC's -40 degC limit
    // for a multi-millisecond power cycle.
    const RetentionModel m = makeModel();
    const double s = m.expectedSurvival(Seconds::milliseconds(2),
                                        Temperature::celsius(-40));
    EXPECT_LT(s, 1e-3);
}

TEST(RetentionCalibration, SramDiesInMicrosecondsAtRoomTemperature)
{
    const RetentionModel m = makeModel();
    const double s_1us = m.expectedSurvival(Seconds::microseconds(1),
                                            Temperature::celsius(25));
    const double s_1ms = m.expectedSurvival(Seconds::milliseconds(1),
                                            Temperature::celsius(25));
    EXPECT_GT(s_1us, 0.3); // a microsecond glitch may be survivable
    EXPECT_LT(s_1ms, 1e-6); // a millisecond is certain death
}

TEST(RetentionCalibration, DramVastlyOutlivesSram)
{
    const RetentionModel sram = makeModel(RetentionConfig::sram6t());
    const RetentionModel dram = makeModel(RetentionConfig::dram());
    const Temperature room = Temperature::celsius(25);
    const Seconds refresh = Seconds::milliseconds(64);
    // A DRAM cell easily outlasts a refresh interval; SRAM never does.
    EXPECT_GT(dram.expectedSurvival(refresh, room), 0.99);
    EXPECT_LT(sram.expectedSurvival(refresh, room), 1e-9);
}

TEST(RetentionCalibration, ColdDramHoldsForCapturableWindows)
{
    // Halderman et al.: at -50 degC DRAM survives transplantation
    // windows of tens of seconds with little decay.
    const RetentionModel dram = makeModel(RetentionConfig::dram());
    const double s = dram.expectedSurvival(Seconds(10.0),
                                           Temperature::celsius(-50));
    EXPECT_GT(s, 0.95);
}

// --- MemoryArray state machine ---

TEST(MemoryArray, FirstPowerUpGivesFingerprint)
{
    SramArray a("t", 4096, 0x5eed, 1);
    a.powerUp(Volt(0.8));
    // Roughly half the bits should be set.
    size_t ones = 0;
    for (size_t i = 0; i < a.sizeBytes(); ++i)
        ones += std::popcount(a.readByte(i));
    const double density = static_cast<double>(ones) / a.sizeBits();
    EXPECT_NEAR(density, 0.5, 0.03);
}

TEST(MemoryArray, FingerprintIsStableAcrossColdCycles)
{
    SramArray a("t", 2048, 0x5eed, 2);
    a.powerUp(Volt(0.8));
    const std::vector<uint8_t> first = a.snapshot();
    a.powerDown();
    a.powerUp(Volt(0.8), Seconds(100.0), Temperature::celsius(25));
    const std::vector<uint8_t> second = a.snapshot();
    // Only metastable cells may differ; each flips with probability 1/2,
    // so the expected fractional HD is metastable_fraction / 2 ~ 0.09 —
    // the paper's Table 1 reports ~0.10 for this comparison.
    size_t diff_bits = 0;
    for (size_t i = 0; i < first.size(); ++i)
        diff_bits += std::popcount(
            static_cast<uint8_t>(first[i] ^ second[i]));
    const double frac = static_cast<double>(diff_bits) / (first.size() * 8);
    EXPECT_LT(frac, 0.13);
    EXPECT_GT(frac, 0.05); // metastable cells do flip
}

TEST(MemoryArray, ReadWriteRoundTrip)
{
    SramArray a("t", 256, 1, 3);
    a.powerUp(Volt(0.8));
    a.writeByte(10, 0xab);
    EXPECT_EQ(a.readByte(10), 0xab);
    a.writeWord64(16, 0x1122334455667788ull);
    EXPECT_EQ(a.readWord64(16), 0x1122334455667788ull);
}

TEST(MemoryArray, BlockReadWrite)
{
    SramArray a("t", 256, 1, 4);
    a.powerUp(Volt(0.8));
    std::vector<uint8_t> data = {1, 2, 3, 4, 5};
    a.write(100, data);
    std::vector<uint8_t> back(5);
    a.read(100, back);
    EXPECT_EQ(back, data);
}

TEST(MemoryArray, AccessWhileOffPanics)
{
    SramArray a("t", 64, 1, 5);
    EXPECT_THROW(a.readByte(0), PanicError);
    EXPECT_THROW(a.writeByte(0, 1), PanicError);
    EXPECT_THROW(a.snapshot(), PanicError);
}

TEST(MemoryArray, LongOffTimeLosesEverything)
{
    SramArray a("t", 1024, 2, 6);
    a.powerUp(Volt(0.8));
    a.fill(0xA5);
    a.powerDown();
    a.powerUp(Volt(0.8), Seconds(1.0), Temperature::celsius(25));
    // Contents must be fingerprint-like, not the pattern.
    size_t matches = 0;
    for (size_t i = 0; i < a.sizeBytes(); ++i)
        matches += a.readByte(i) == 0xA5;
    EXPECT_LT(static_cast<double>(matches) / a.sizeBytes(), 0.05);
}

TEST(MemoryArray, RetainedArraySurvivesIndefinitely)
{
    SramArray a("t", 1024, 3, 7);
    a.powerUp(Volt(0.8));
    a.fill(0x3C);
    a.retainAt(Volt(0.8)); // held well above every DRV
    // "The memory domain stays in this retention state indefinitely."
    a.resumePowered(Volt(0.8));
    for (size_t i = 0; i < a.sizeBytes(); ++i)
        ASSERT_EQ(a.readByte(i), 0x3C) << "byte " << i;
}

TEST(MemoryArray, RetentionBelowDrvLosesMarginalCells)
{
    SramArray a("t", 8192, 4, 8);
    a.powerUp(Volt(0.8));
    a.fill(0xFF);
    // Hold at 250 mV = the DRV mean: about half the cells must flip to
    // their power-up state.
    a.retainAt(Volt::millivolts(250));
    a.resumePowered(Volt(0.8));
    size_t ones = 0;
    for (size_t i = 0; i < a.sizeBytes(); ++i)
        ones += std::popcount(a.readByte(i));
    const double density = static_cast<double>(ones) / a.sizeBits();
    // Survivors stay 1; the ~50% that lost state go to a ~50/50
    // fingerprint: expected density ~0.75.
    EXPECT_NEAR(density, 0.75, 0.03);
}

TEST(MemoryArray, DroopAboveMaxDrvIsHarmless)
{
    SramArray a("t", 1024, 5, 9);
    a.powerUp(Volt(0.8));
    a.fill(0x77);
    a.droopTo(Volt(0.60)); // above drv_max = 0.55
    for (size_t i = 0; i < a.sizeBytes(); ++i)
        ASSERT_EQ(a.readByte(i), 0x77);
}

TEST(MemoryArray, DroopToGroundLosesEverything)
{
    SramArray a("t", 1024, 6, 10);
    a.powerUp(Volt(0.8));
    a.fill(0x77);
    a.droopTo(Volt(0.01));
    size_t matches = 0;
    for (size_t i = 0; i < a.sizeBytes(); ++i)
        matches += a.readByte(i) == 0x77;
    EXPECT_LT(static_cast<double>(matches) / a.sizeBytes(), 0.05);
}

TEST(MemoryArray, SameSeedSameSilicon)
{
    SramArray a("a", 512, 42, 11), b("b", 512, 42, 11);
    a.powerUp(Volt(0.8));
    b.powerUp(Volt(0.8));
    EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(MemoryArray, DifferentArrayIdDifferentFingerprint)
{
    SramArray a("a", 512, 42, 11), b("b", 512, 42, 12);
    a.powerUp(Volt(0.8));
    b.powerUp(Volt(0.8));
    EXPECT_NE(a.snapshot(), b.snapshot());
}

TEST(MemoryArray, ZeroSizeRejected)
{
    EXPECT_THROW(SramArray("t", 0, 1, 1), FatalError);
}

TEST(MemoryArray, LastLossMaskMatchesTheLossCount)
{
    SramArray a("t", 1003, 7, 13); // odd size: word-kernel tail
    a.powerUp(Volt(0.8));
    a.fill(0xFF);
    const std::vector<uint8_t> before = a.snapshot();
    a.droopTo(Volt::millivolts(250)); // ~half the cells flip
    const std::vector<uint8_t> after = a.snapshot();
    const std::vector<uint8_t> mask = a.lastLossMask();
    ASSERT_EQ(mask.size(), a.sizeBytes());
    uint64_t mask_bits = 0;
    for (size_t i = 0; i < mask.size(); ++i) {
        mask_bits += std::popcount(mask[i]);
        // Any bit that changed must be flagged lost (a lost cell may
        // still land on its old value, but never the reverse).
        ASSERT_EQ(static_cast<uint8_t>((before[i] ^ after[i]) & ~mask[i]),
                  0u)
            << "byte " << i;
    }
    EXPECT_EQ(mask_bits, a.lastCellsLost());
    EXPECT_GT(mask_bits, 0u);

    // A harmless droop reports an empty mask.
    a.droopTo(Volt(0.60)); // above drv_max
    EXPECT_EQ(a.lastCellsLost(), 0u);
    for (uint8_t b : a.lastLossMask())
        ASSERT_EQ(b, 0u);
}

TEST(MemoryArray, FillAndSnapshotAgreeWithByteAccessors)
{
    SramArray a("t", 1003, 8, 14); // not a multiple of 8: ragged word
    a.powerUp(Volt(0.8));
    a.fill(0xC3);
    for (size_t i = 0; i < a.sizeBytes(); ++i)
        ASSERT_EQ(a.readByte(i), 0xC3) << "byte " << i;
    a.writeByte(1002, 0x1F);
    a.writeByte(0, 0x80);
    const std::vector<uint8_t> snap = a.snapshot();
    ASSERT_EQ(snap.size(), a.sizeBytes());
    EXPECT_EQ(snap[0], 0x80);
    EXPECT_EQ(snap[1002], 0x1F);
    for (size_t i = 1; i < 1002; ++i)
        ASSERT_EQ(snap[i], 0xC3) << "byte " << i;
}

// --- DRAM-scale smoke: the SoA planes at hundreds of megabits ---

TEST(DramScaleSmoke, SixtyFourMebibytePlaneDecaysAndSnapshots)
{
    constexpr size_t kBytes = size_t{64} << 20; // 2^29 cells
    const RetentionModel model(RetentionConfig::dram(),
                               CellRng(0xd7a3, 1));
    // Find a partial-decay point on the DRAM slope (survival strictly
    // between 5% and 95%) instead of hard-coding technology constants.
    const Temperature temp = Temperature::celsius(85.0);
    Seconds off(0.0);
    double p_survive = 1.0;
    for (double secs = 0.01; secs < 1e8; secs *= 2.0) {
        const double p = model.expectedSurvival(Seconds(secs), temp);
        if (p > 0.05 && p < 0.95) {
            off = Seconds(secs);
            p_survive = p;
            break;
        }
    }
    ASSERT_GT(off.seconds(), 0.0) << "no partial-decay point found";

    DramArray a("dram-scale", kBytes, 0xd7a3, 1);
    a.powerUp(Volt(1.1));
    a.fill(0x5A);
    a.powerDown();
    a.powerUp(Volt(1.1), off, temp);

    const double lost_frac =
        static_cast<double>(a.lastCellsLost()) / a.sizeBits();
    EXPECT_NEAR(lost_frac, 1.0 - p_survive, 0.01);

    const std::vector<uint8_t> snap = a.snapshot();
    ASSERT_EQ(snap.size(), kBytes);
    const std::vector<uint8_t> mask = a.lastLossMask();
    ASSERT_EQ(mask.size(), kBytes);
    uint64_t mask_bits = 0;
    for (size_t i = 0; i < kBytes; ++i) {
        mask_bits += std::popcount(mask[i]);
        // Surviving cells kept the pattern exactly.
        ASSERT_EQ(static_cast<uint8_t>((snap[i] ^ 0x5A) & ~mask[i]), 0u)
            << "byte " << i;
    }
    EXPECT_EQ(mask_bits, a.lastCellsLost());
}

// --- Property sweep: retention is monotone in temperature ---

class RetentionTemperatureSweep
    : public ::testing::TestWithParam<double>
{
};

TEST_P(RetentionTemperatureSweep, ColderRetainsMore)
{
    const RetentionModel m = makeModel();
    const double celsius = GetParam();
    const Seconds off = Seconds::milliseconds(5);
    const double here =
        m.expectedSurvival(off, Temperature::celsius(celsius));
    const double colder =
        m.expectedSurvival(off, Temperature::celsius(celsius - 20));
    EXPECT_GE(colder, here);
}

INSTANTIATE_TEST_SUITE_P(Temperatures, RetentionTemperatureSweep,
                         ::testing::Values(-100.0, -80.0, -60.0, -40.0,
                                           -20.0, 0.0, 25.0, 60.0));

// --- Property sweep: Monte Carlo matches the closed form ---

class SurvivalMonteCarlo
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(SurvivalMonteCarlo, ArrayLossMatchesExpectedSurvival)
{
    const auto [celsius, off_ms] = GetParam();
    const Temperature t = Temperature::celsius(celsius);
    const Seconds off = Seconds::milliseconds(off_ms);

    SramArray a("mc", 16384, 0x1234, 20);
    a.powerUp(Volt(0.8));
    // Write the complement of the fingerprint so every retained cell is
    // distinguishable from a reverted one.
    std::vector<uint8_t> fp = a.snapshot();
    for (size_t i = 0; i < fp.size(); ++i)
        a.writeByte(i, static_cast<uint8_t>(~fp[i]));
    a.powerDown();
    a.powerUp(Volt(0.8), off, t);

    size_t retained = 0;
    for (size_t i = 0; i < a.sizeBytes(); ++i)
        retained += std::popcount(
            static_cast<uint8_t>(a.readByte(i) ^ fp[i]));
    const double measured =
        static_cast<double>(retained) / a.sizeBits();

    const RetentionModel model(RetentionConfig::sram6t(),
                               CellRng(0x1234, 20));
    // Metastable cells that lost state re-roll: a fraction land back on
    // the complement of their enrollment draw, inflating 'retained' by
    // (1-p) * meta * flip_rate.
    const double p = model.expectedSurvival(off, t);
    const double meta = model.config().metastable_fraction;
    const double expected =
        p + (1.0 - p) * meta * model.expectedMetastableFlipRate();
    EXPECT_NEAR(measured, expected, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, SurvivalMonteCarlo,
    ::testing::Values(std::make_pair(-110.0, 20.0),
                      std::make_pair(-110.0, 5.0),
                      std::make_pair(-80.0, 5.0),
                      std::make_pair(-60.0, 1.0),
                      std::make_pair(-40.0, 2.0),
                      std::make_pair(25.0, 1.0)));

TEST(Aging, UnagedArrayRevealsNothing)
{
    // Without age(), the power-up state is uncorrelated with history.
    SramArray array("fresh", 8192, 1, 1);
    array.powerUp(Volt(0.8));
    array.fill(0xC3);
    array.powerDown();
    array.powerUp(Volt(0.8), Seconds(3600.0), Temperature::celsius(25.0));
    size_t match_bits = 0;
    for (size_t i = 0; i < array.sizeBytes(); ++i)
        match_bits += 8 - std::popcount(
                              static_cast<uint8_t>(array.readByte(i) ^
                                                   0xC3));
    EXPECT_NEAR(static_cast<double>(match_bits) / array.sizeBits(), 0.5,
                0.02);
}

TEST(Aging, VoltBootNeedsNoAgingAtAll)
{
    // The contrast the paper draws: imprinting needs a decade; the
    // probe-held power cycle reproduces everything instantly.
    SramArray array("vb", 2048, 11, 1);
    array.powerUp(Volt(0.8));
    array.fill(0xC3);
    array.retainAt(Volt(0.8));
    array.resumePowered(Volt(0.8));
    for (size_t i = 0; i < array.sizeBytes(); ++i)
        ASSERT_EQ(array.readByte(i), 0xC3);
}

} // namespace
} // namespace voltboot
