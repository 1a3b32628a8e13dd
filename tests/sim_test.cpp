/**
 * @file
 * Unit tests for the sim foundation: units, RNG, event queue, logging.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "sim/cell_hash_batch.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/plane_arena.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/units.hh"

namespace voltboot
{
namespace
{

TEST(Units, VoltConstructionAndAccessors)
{
    const Volt v = Volt::millivolts(800);
    EXPECT_DOUBLE_EQ(v.volts(), 0.8);
    EXPECT_DOUBLE_EQ(v.millivolts(), 800.0);
}

TEST(Units, ArithmeticWithinUnit)
{
    const Volt a(1.2), b(0.4);
    EXPECT_DOUBLE_EQ((a + b).volts(), 1.6);
    EXPECT_DOUBLE_EQ((a - b).volts(), 0.8);
    EXPECT_DOUBLE_EQ((a * 2.0).volts(), 2.4);
    EXPECT_DOUBLE_EQ((a / 2.0).volts(), 0.6);
    EXPECT_DOUBLE_EQ(a / b, 3.0);
}

TEST(Units, Ordering)
{
    EXPECT_LT(Volt(0.5), Volt(0.8));
    EXPECT_GT(Seconds::milliseconds(2), Seconds::microseconds(500));
    EXPECT_EQ(Volt::millivolts(250), Volt(0.25));
}

TEST(Units, OhmsLaw)
{
    const Volt drop = Amp(2.0) * Ohm(0.05);
    EXPECT_DOUBLE_EQ(drop.volts(), 0.1);
    const Amp i = Volt(1.0) / Ohm(4.0);
    EXPECT_DOUBLE_EQ(i.amps(), 0.25);
}

TEST(Units, RcTimeConstant)
{
    const Seconds tau = Ohm(100.0) * Farad::microfarads(10);
    EXPECT_NEAR(tau.seconds(), 1e-3, 1e-12);
}

TEST(Units, TemperatureConversions)
{
    const Temperature t = Temperature::celsius(-40.0);
    EXPECT_DOUBLE_EQ(t.kelvins(), 233.15);
    EXPECT_DOUBLE_EQ(t.celsiusDegrees(), -40.0);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = r.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, BelowBound)
{
    Rng r(17);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(r.below(17), 17u);
}

TEST(CellRng, RandomAccessIsStable)
{
    CellRng rng(0xc0ffee, 3);
    const double first = rng.uniform(12345, 1);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(rng.uniform(12345, 1), first);
}

TEST(CellRng, ChannelsAreIndependent)
{
    CellRng rng(0xc0ffee, 3);
    EXPECT_NE(rng.bits(5, 1), rng.bits(5, 2));
    EXPECT_NE(rng.bits(5, 1), rng.bits(6, 1));
}

TEST(CellRng, DifferentChipsDifferentSilicon)
{
    CellRng a(1, 0), b(2, 0);
    int same = 0;
    for (uint64_t cell = 0; cell < 64; ++cell)
        same += (a.bits(cell, 3) & 1) == (b.bits(cell, 3) & 1);
    // ~32 expected by chance; all-64 would mean the seed is ignored.
    EXPECT_LT(same, 50);
    EXPECT_GT(same, 14);
}

TEST(CellRng, InverseNormalCdfRoundTrip)
{
    // Phi(Phi^-1(p)) == p at several quantiles.
    const auto phi = [](double x) {
        return 0.5 * std::erfc(-x / std::sqrt(2.0));
    };
    for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999})
        EXPECT_NEAR(phi(CellRng::inverseNormalCdf(p)), p, 1e-6);
}

TEST(CellRng, GaussianMomentsAcrossCells)
{
    CellRng rng(0xabc, 7);
    double sum = 0, sq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian(i, 2);
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(Seconds(3.0), [&] { order.push_back(3); });
    q.schedule(Seconds(1.0), [&] { order.push_back(1); });
    q.schedule(Seconds(2.0), [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now().seconds(), 3.0);
}

TEST(EventQueue, SimultaneousEventsUsePriorityThenFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(Seconds(1.0), [&] { order.push_back(10); }, 1);
    q.schedule(Seconds(1.0), [&] { order.push_back(0); }, 0);
    q.schedule(Seconds(1.0), [&] { order.push_back(11); }, 1);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 10, 11}));
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue q;
    q.runUntil(Seconds(5.0));
    EXPECT_DOUBLE_EQ(q.now().seconds(), 5.0);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    int fired = 0;
    q.schedule(Seconds(1.0), [&] { ++fired; });
    q.schedule(Seconds(10.0), [&] { ++fired; });
    q.runUntil(Seconds(2.0));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_DOUBLE_EQ(q.now().seconds(), 2.0);
}

TEST(Stats, RunningStatsMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12); // sample variance
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_GT(s.ci95(), 0.0);
}

TEST(Stats, RunningStatsEmptyAndSingle)
{
    RunningStats s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(Stats, RunningStatsMatchesGaussianSource)
{
    Rng rng(23);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.gaussian(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Stats, HistogramBinsAndTails)
{
    Histogram h(0.0, 10.0, 5);
    for (double x : {-1.0, 0.0, 1.9, 2.0, 5.5, 9.99, 10.0, 42.0})
        h.add(x);
    EXPECT_EQ(h.total(), 8u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.counts()[0], 2u); // 0.0, 1.9
    EXPECT_EQ(h.counts()[1], 1u); // 2.0
    EXPECT_EQ(h.counts()[2], 1u); // 5.5
    EXPECT_EQ(h.counts()[4], 1u); // 9.99
    EXPECT_NE(h.render().find("(2)"), std::string::npos);
}

TEST(Stats, HistogramRejectsBadShape)
{
    EXPECT_THROW(Histogram(0.0, 0.0, 5), FatalError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), FatalError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant broken"), PanicError);
}

TEST(Logging, MessagesAreFormatted)
{
    try {
        fatal("value ", 7, " exceeds ", 3.5);
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value 7 exceeds 3.5");
    }
}

// --- Arena-backed bit planes (the SoA retention storage) ---

TEST(PlaneArena, AllocationsAreZeroedAndAligned)
{
    PlaneArena arena;
    for (size_t nwords : {1u, 7u, 64u, 1000u}) {
        uint64_t *p = arena.allocWords(nwords);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
        for (size_t i = 0; i < nwords; ++i)
            ASSERT_EQ(p[i], 0u) << "word " << i;
    }
}

TEST(PlaneArena, ReserveYieldsOneTightBlock)
{
    PlaneArena arena;
    const size_t span = PlaneArena::alignWords(BitPlane::wordsFor(100000));
    arena.reserve(3 * span);
    arena.allocBits(100000);
    arena.allocBits(100000);
    arena.allocBits(100000);
    EXPECT_EQ(arena.blockCount(), 1u);
    EXPECT_EQ(arena.bytesUsed(), 3 * span * sizeof(uint64_t));
    EXPECT_GE(arena.bytesReserved(), arena.bytesUsed());
}

TEST(PlaneArena, ViewsSurviveAMoveOfTheArena)
{
    PlaneArena arena;
    BitPlane plane = arena.allocBits(200);
    plane.setBit(3, true);
    plane.setBit(199, true);
    PlaneArena moved = std::move(arena);
    EXPECT_TRUE(plane.bit(3));
    EXPECT_TRUE(plane.bit(199));
    EXPECT_EQ(plane.popcount(), 2u);
    EXPECT_GT(moved.bytesReserved(), 0u);
}

TEST(BitPlane, ByteAndBitAccessorsAgree)
{
    PlaneArena arena;
    BitPlane plane = arena.allocBits(30 * 8); // not a whole word count
    for (size_t addr = 0; addr < 30; ++addr)
        plane.setByte(addr, static_cast<uint8_t>(addr * 37 + 1));
    for (size_t addr = 0; addr < 30; ++addr) {
        const uint8_t v = static_cast<uint8_t>(addr * 37 + 1);
        ASSERT_EQ(plane.byteAt(addr), v) << "byte " << addr;
        for (int bit = 0; bit < 8; ++bit)
            ASSERT_EQ(plane.bit(addr * 8 + bit), (v >> bit) & 1)
                << "byte " << addr << " bit " << bit;
    }
}

TEST(BitPlane, BlockTransfersRoundTrip)
{
    PlaneArena arena;
    BitPlane plane = arena.allocBits(101 * 8);
    std::vector<uint8_t> data(57);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i ^ 0xC3);
    plane.writeBytes(11, data.data(), data.size());
    std::vector<uint8_t> back(data.size());
    plane.readBytes(11, back.data(), back.size());
    EXPECT_EQ(back, data);
    const std::vector<uint8_t> all = plane.toBytes();
    ASSERT_EQ(all.size(), 101u);
    for (size_t i = 0; i < data.size(); ++i)
        ASSERT_EQ(all[11 + i], data[i]);
    EXPECT_EQ(all[0], 0u); // untouched bytes stayed zeroed
}

TEST(BitPlane, FillSetAllAndClearKeepTheTailInvariant)
{
    PlaneArena arena;
    BitPlane plane = arena.allocBits(13 * 8); // 104 bits: ragged word
    plane.fillBytes(0xFF);
    EXPECT_EQ(plane.popcount(), 13u * 8);
    // Bits past sizeBits() in the final word must stay zero.
    EXPECT_EQ(plane.word(plane.sizeWords() - 1) & ~plane.tailMask(), 0u);
    plane.setAll();
    EXPECT_EQ(plane.popcount(), 13u * 8);
    EXPECT_EQ(plane.word(plane.sizeWords() - 1) & ~plane.tailMask(), 0u);
    plane.clear();
    EXPECT_EQ(plane.popcount(), 0u);
    plane.fillBytes(0xA5);
    for (size_t addr = 0; addr < 13; ++addr)
        ASSERT_EQ(plane.byteAt(addr), 0xA5);
}

// --- Word-mask derivation batches (bit-exact with CellRng) ---

TEST(CellHashBatch, IndexedBatchMatchesScalarBits)
{
    const CellRng rng(0xfeed, 9);
    uint64_t keys[64], out[64];
    for (unsigned i = 0; i < 64; ++i)
        keys[i] = hashCombine(i * 977 + 13, 41); // scattered keys
    for (unsigned n : {1u, 7u, 8u, 9u, 63u, 64u}) {
        cellBitsBatchIndexed(rng, keys, 5, n, out);
        for (unsigned i = 0; i < n; ++i)
            ASSERT_EQ(out[i], rng.bits(keys[i], 5))
                << "n=" << n << " i=" << i;
    }
}

TEST(CellHashBatch, BandMaskMatchesScalarCompares)
{
    const CellRng rng(0xabc, 4);
    // A band placed at the median so both sides populate, wide enough
    // that in_band bits actually occur.
    const uint64_t lo = CellRng::kRawUniformBuckets / 2;
    const uint64_t hi = lo + (CellRng::kRawUniformBuckets / 16);
    uint64_t saw_in_band = 0;
    for (uint64_t cell0 : {0ull, 64ull, 1000ull}) {
        for (unsigned n : {1u, 9u, 64u}) {
            uint64_t in_band = ~uint64_t{0};
            const uint64_t ge =
                cellBandMaskBatch(rng, cell0, 2, n, lo, hi, &in_band);
            for (unsigned b = 0; b < n; ++b) {
                const uint64_t raw = rng.rawUniform(cell0 + b, 2);
                ASSERT_EQ((ge >> b) & 1, raw >= lo ? 1u : 0u);
                ASSERT_EQ((in_band >> b) & 1,
                          (raw >= lo && raw < hi) ? 1u : 0u);
            }
            // Lanes past n must be zero in both masks.
            if (n < 64) {
                EXPECT_EQ(ge >> n, 0u);
                EXPECT_EQ(in_band >> n, 0u);
            }
            saw_in_band |= in_band;
        }
    }
    EXPECT_NE(saw_in_band, 0u); // the wide band really exercised it
}

TEST(CellHashBatch, LsbMaskMatchesScalarBits)
{
    const CellRng rng(0x5eed, 8);
    for (uint64_t cell0 : {0ull, 320ull}) {
        for (unsigned n : {1u, 5u, 16u, 64u}) {
            const uint64_t mask = cellLsbMaskBatch(rng, cell0, 3, n);
            for (unsigned b = 0; b < n; ++b)
                ASSERT_EQ((mask >> b) & 1, rng.bits(cell0 + b, 3) & 1);
            if (n < 64)
                EXPECT_EQ(mask >> n, 0u);
        }
    }
}

} // namespace
} // namespace voltboot
