/**
 * @file
 * Tests for the TLB, page table, MMU and BTB models, including their
 * behaviour as Volt Boot targets (retention through probed power cycles,
 * RAMINDEX visibility).
 */

#include <gtest/gtest.h>

#include "core/attack.hh"
#include "mem/btb.hh"
#include "mem/memory_system.hh"
#include "mem/tlb.hh"
#include "sim/logging.hh"
#include "soc/soc.hh"
#include "sram/memory_array.hh"

namespace voltboot
{
namespace
{

class TlbHarness
{
  public:
    TlbHarness()
        : mem_("mem", 1 << 20, 1, 60), region_(mem_, 0),
          tlb_store_("tlb", 64 * 16, 1, 61)
    {
        mem_.powerUp(Volt(1.1));
        tlb_store_.powerUp(Volt(0.8));
        table_.emplace(region_, /*root=*/0x10000,
                       /*alloc_base=*/0x11000);
        tlb_.emplace("DTLB", 64, 4, tlb_store_);
        tlb_->invalidateAll();
        mmu_.emplace(*tlb_, *table_);
    }

    DramArray mem_;
    MemoryRegion region_;
    SramArray tlb_store_;
    std::optional<PageTable> table_;
    std::optional<Tlb> tlb_;
    std::optional<Mmu> mmu_;
};

TEST(PageTable, MapAndWalk)
{
    TlbHarness h;
    h.table_->map(0x7f0000, 0x40000, /*writable=*/true);
    const auto e = h.table_->walk(0x7f0123);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->ppn, 0x40000u / 4096);
    EXPECT_TRUE(e->writable);
    EXPECT_FALSE(h.table_->walk(0x800000).has_value());
}

TEST(PageTable, DistinctL1RegionsAllocateDistinctTables)
{
    TlbHarness h;
    h.table_->map(0x0000000, 0x1000, false);
    EXPECT_EQ(h.table_->tablesAllocated(), 1u);
    h.table_->map(0x0001000, 0x2000, false); // same L2 table
    EXPECT_EQ(h.table_->tablesAllocated(), 1u);
    h.table_->map(0x10000000, 0x3000, false); // new L1 slot
    EXPECT_EQ(h.table_->tablesAllocated(), 2u);
    // All three still resolve.
    EXPECT_EQ(h.table_->walk(0x0000000)->ppn, 1u);
    EXPECT_EQ(h.table_->walk(0x0001000)->ppn, 2u);
    EXPECT_EQ(h.table_->walk(0x10000000)->ppn, 3u);
}

TEST(PageTable, RejectsUnalignedRoots)
{
    TlbHarness h;
    EXPECT_THROW(PageTable(h.region_, 0x10001, 0x12000), FatalError);
}

TEST(Tlb, MissThenHit)
{
    TlbHarness h;
    EXPECT_FALSE(h.tlb_->lookup(0x5000, 1).has_value());
    EXPECT_EQ(h.tlb_->misses(), 1u);
    TlbEntry e;
    e.vpn = 0x5000 / 4096;
    e.ppn = 0x9000 / 4096;
    e.asid = 1;
    e.valid = true;
    h.tlb_->insert(0x5000, e);
    const auto hit = h.tlb_->lookup(0x5000, 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->ppn, 0x9000u / 4096);
    EXPECT_EQ(h.tlb_->hits(), 1u);
}

TEST(Tlb, AsidsSeparateAddressSpaces)
{
    TlbHarness h;
    TlbEntry e;
    e.vpn = 1;
    e.ppn = 7;
    e.asid = 1;
    e.valid = true;
    h.tlb_->insert(0x1000, e);
    EXPECT_TRUE(h.tlb_->lookup(0x1000, 1).has_value());
    EXPECT_FALSE(h.tlb_->lookup(0x1000, 2).has_value());
}

TEST(Tlb, InvalidateClearsLookupsNotEntryRam)
{
    TlbHarness h;
    TlbEntry e;
    e.vpn = 3;
    e.ppn = 0xAB;
    e.asid = 0;
    e.valid = true;
    h.tlb_->insert(3 * 4096, e);
    h.tlb_->invalidateAll();
    EXPECT_FALSE(h.tlb_->lookup(3 * 4096, 0).has_value());
    // The ppn word survives in the entry RAM (the Volt Boot point).
    bool found = false;
    for (size_t way = 0; way < 4 && !found; ++way)
        for (size_t set = 0; set < 16 && !found; ++set)
            found = h.tlb_->debugReadWord(way, set, 1) == 0xAB;
    EXPECT_TRUE(found);
}

TEST(Tlb, SetConflictsEvictRoundRobin)
{
    TlbHarness h;
    // 16 sets: vpns congruent mod 16 conflict. Fill one set beyond its
    // 4 ways and check older entries fall out.
    for (uint64_t i = 0; i < 6; ++i) {
        TlbEntry e;
        e.vpn = i * 16;
        e.ppn = 100 + i;
        e.asid = 0;
        e.valid = true;
        h.tlb_->insert(e.vpn * 4096, e);
    }
    size_t alive = 0;
    for (uint64_t i = 0; i < 6; ++i)
        alive += h.tlb_->lookup(i * 16 * 4096, 0).has_value();
    EXPECT_EQ(alive, 4u);
}

TEST(Tlb, ParseDumpRoundTrips)
{
    TlbHarness h;
    // Make the entry RAM deterministic first: insert over a clean slate.
    h.tlb_store_.fill(0);
    for (uint64_t i = 0; i < 8; ++i) {
        TlbEntry e;
        e.vpn = 0x100 + i;
        e.ppn = 0x200 + i;
        e.asid = 42;
        e.valid = true;
        h.tlb_->insert(e.vpn * 4096, e);
    }
    const auto parsed = Tlb::parseDump(h.tlb_->dumpAll());
    EXPECT_EQ(parsed.size(), 8u);
    for (const auto &e : parsed) {
        EXPECT_EQ(e.asid, 42u);
        EXPECT_EQ(e.ppn - 0x200, e.vpn - 0x100);
    }
}

TEST(Mmu, TranslatesThroughTlbAndWalks)
{
    TlbHarness h;
    h.table_->map(0x7f0000, 0x40000, true);
    h.mmu_->setEnabled(true);
    h.mmu_->setAsid(5);
    const auto pa = h.mmu_->translate(0x7f0ABC);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x40ABCu);
    // Second translation hits the TLB.
    const uint64_t misses = h.tlb_->misses();
    EXPECT_EQ(*h.mmu_->translate(0x7f0DEF), 0x40DEFu);
    EXPECT_EQ(h.tlb_->misses(), misses);
    // Unmapped VA faults.
    EXPECT_FALSE(h.mmu_->translate(0x9990000).has_value());
    // Disabled MMU is identity.
    h.mmu_->setEnabled(false);
    EXPECT_EQ(*h.mmu_->translate(0x12345), 0x12345u);
}

TEST(Btb, RecordsAndPredicts)
{
    SramArray store("btb", 256 * 16, 1, 62);
    store.powerUp(Volt(0.8));
    Btb btb("BTB", 256, store);
    btb.invalidateAll();
    btb.recordBranch(0x1000, 0x2000);
    EXPECT_EQ(btb.predict(0x1000), 0x2000u);
    EXPECT_EQ(btb.predict(0x1004), 0u);
    // Aliasing PCs overwrite (direct-mapped).
    btb.recordBranch(0x1000 + 256 * 4, 0x3000);
    EXPECT_EQ(btb.predict(0x1000), 0u);
}

TEST(Btb, ParseDumpRecoversControlFlow)
{
    SramArray store("btb", 256 * 16, 1, 63);
    store.powerUp(Volt(0.8));
    store.fill(0);
    Btb btb("BTB", 256, store);
    btb.recordBranch(0x1100, 0x1180);
    btb.recordBranch(0x2200, 0x2000);
    const auto entries = Btb::parseDump(btb.dumpAll());
    ASSERT_EQ(entries.size(), 2u);
}

TEST(Btb, RejectsBadShape)
{
    SramArray store("btb", 100 * 16, 1, 64);
    store.powerUp(Volt(0.8));
    EXPECT_THROW(Btb("BTB", 100, store), FatalError); // not pow2
    EXPECT_THROW(Btb("BTB", 512, store), FatalError); // too small
}

// --- integration: the microarchitectural RAMs as Volt Boot targets ---

TEST(SocMicroArch, BtbLearnsVictimBranches)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    soc.btb(0).invalidateAll();

    Program p = Assembler::assemble(R"(
        movz x1, #5
    loop:
        sub x1, x1, #1
        cbnz x1, loop
        hlt
    )");
    p.load_address = 0x1000;
    soc.loadProgram(p);
    soc.runCore(0, 0x1000, 1000);
    // The loop branch at 0x1008 targeting 0x1004 is in the BTB.
    EXPECT_EQ(soc.btb(0).predict(0x1008), 0x1004u);
}

TEST(SocMicroArch, TlbAndBtbSurviveProbedPowerCycle)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();

    // Victim populates both structures.
    soc.dtlb(0).invalidateAll();
    soc.btb(0).invalidateAll();
    PageTable table(*soc.memory().mainMemory(), 0x100000, 0x101000);
    Mmu mmu(soc.dtlb(0), table);
    mmu.setEnabled(true);
    mmu.setAsid(9);
    table.map(0x7f000000, 0x40000, true);
    table.map(0x7f001000, 0x41000, true);
    ASSERT_TRUE(mmu.translate(0x7f000123).has_value());
    ASSERT_TRUE(mmu.translate(0x7f001456).has_value());
    soc.btb(0).recordBranch(0x8000, 0x9000);

    soc.attachProbe("TP15", VoltageProbe{Volt(0.8), Amp(3), Ohm(0.05)});
    soc.powerCycle(Seconds::milliseconds(500));

    // Post-cycle: the attacker parses the raw entry RAM and recovers the
    // victim's address-space layout and control flow.
    const auto tlb_entries = Tlb::parseDump(soc.dtlb(0).dumpAll());
    bool saw_mapping = false;
    for (const auto &e : tlb_entries)
        saw_mapping |= e.vpn == 0x7f000000ull / 4096 &&
                       e.ppn == 0x40000ull / 4096 && e.asid == 9;
    EXPECT_TRUE(saw_mapping);
    EXPECT_EQ(soc.btb(0).predict(0x8000), 0x9000u);
}

TEST(SocMicroArch, RamIndexReachesTlbAndBtb)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();
    soc.btb(0).recordBranch(0x4000, 0x5000);

    RamIndexDescriptor d{RamIndexDescriptor::kBtb, 0,
                         (0x4000 >> 2) & 255, 1};
    EXPECT_EQ(soc.port(0).ramIndexRead(d.encode()), 0x5000u);

    soc.dtlb(0).invalidateAll();
    TlbEntry e;
    e.vpn = 0x77;
    e.ppn = 0x88;
    e.asid = 1;
    e.valid = true;
    soc.dtlb(0).insert(e.vpn * 4096, e);
    // Find it through the debug descriptor space.
    bool found = false;
    for (size_t way = 0; way < 4 && !found; ++way) {
        for (size_t set = 0; set < 16 && !found; ++set) {
            RamIndexDescriptor td{RamIndexDescriptor::kDTlb, way, set, 1};
            found = soc.port(0).ramIndexRead(td.encode()) == 0x88;
        }
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace voltboot
