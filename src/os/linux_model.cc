#include "os/linux_model.hh"

#include "sim/logging.hh"

namespace voltboot
{

namespace
{

/** DRAM layout used by the model (offsets from dram_base). */
constexpr uint64_t kVictimBaseOffset = 0x40000;
constexpr uint64_t kVictimStride = 0x10000; // 64 KB per core
constexpr uint64_t kKernelRegionOffset = 0x100000;

/**
 * Kernel/daemon accesses per victim access, per core. Expressing the
 * noise per victim access (rather than per pass) models wall-clock
 * fairly: a benchmark looping over a small array completes passes
 * proportionally faster, so each pass absorbs proportionally less
 * kernel interference. The value calibrates the Table 4 shape: ~100%
 * recovery below the cache size, ~10% loss at cache size.
 */
constexpr double kKernelNoisePerVictimAccess = 0.025;
/** Bytes of kernel working set the noise touches (per core). */
constexpr size_t kKernelRegionBytes = 256 * 1024;
/**
 * Fraction of kernel accesses that land in a small hot set (timer tick
 * handlers, scheduler data): these mostly hit in the cache and exert
 * little eviction pressure. The cold remainder sweeps the full kernel
 * region and does the evicting. Real kernels are strongly
 * locality-dominated, which is why a 4 KB victim array survives at
 * 100% while a cache-sized one loses ~10% (Table 4).
 */
constexpr double kKernelHotFraction = 0.85;
/** Size of the kernel's hot working set. */
constexpr size_t kKernelHotBytes = 8 * 1024;
/** Victim passes over the array before the attack strikes. */
constexpr size_t kVictimPasses = 12;

} // namespace

LinuxModel::LinuxModel(Soc &soc, uint64_t seed) : soc_(soc), rng_(seed)
{
    const size_t need = kKernelRegionOffset + kKernelRegionBytes;
    if (soc_.config().dram_bytes < need)
        fatal("LinuxModel: DRAM too small for the benchmark layout (need ",
              need, " bytes)");
}

void
LinuxModel::boot()
{
    if (!soc_.poweredOn())
        fatal("LinuxModel: power on the SoC before booting the kernel");
    for (size_t core = 0; core < soc_.coreCount(); ++core) {
        soc_.memory().l1i(core).invalidateAll();
        soc_.memory().l1d(core).invalidateAll();
        soc_.port(core).setCacheEnables(true, true);
    }
}

void
LinuxModel::kernelNoise(size_t core, size_t count)
{
    Cache &l1d = soc_.memory().l1d(core);
    const uint64_t region =
        soc_.config().dram_base + kKernelRegionOffset;
    for (size_t i = 0; i < count; ++i) {
        uint64_t addr;
        if (rng_.chance(kKernelHotFraction)) {
            // Hot kernel structures: tight reuse, almost always hits.
            addr = region + (rng_.below(kKernelHotBytes / 8) * 8);
        } else {
            // Cold sweeps (page cache, slab churn): these allocate and
            // evict.
            addr = region + (rng_.below(kKernelRegionBytes / 8) * 8);
        }
        // Mix of reads and writes.
        if (rng_.chance(0.3))
            l1d.write64(addr, rng_.next(), /*secure=*/false);
        else
            l1d.read64(addr, /*secure=*/false);
        ++noise_count_;
    }
}

std::vector<VictimArray>
LinuxModel::runArrayBenchmark(size_t array_bytes)
{
    if (array_bytes % 8)
        fatal("LinuxModel: array size must be 8-byte aligned");
    const size_t n = array_bytes / 8;
    std::vector<VictimArray> truth(soc_.coreCount());

    // Victim setup: each core's process fills its private array with
    // unique elements (an 8-byte element is "recovered" only if all its
    // bytes appear in the post-attack dump, Table 4's rule).
    for (size_t core = 0; core < soc_.coreCount(); ++core) {
        VictimArray &v = truth[core];
        v.base = soc_.config().dram_base + kVictimBaseOffset +
                 core * kVictimStride;
        if (array_bytes > kVictimStride)
            fatal("LinuxModel: array exceeds the per-core victim window");
        v.elements.resize(n);
        Cache &l1d = soc_.memory().l1d(core);
        for (size_t i = 0; i < n; ++i) {
            v.elements[i] = 0xA500000000000000ull |
                            (static_cast<uint64_t>(core) << 48) |
                            (i + 1);
            l1d.write64(v.base + i * 8, v.elements[i], /*secure=*/false);
        }
    }

    // Steady-state phase: victims loop over their arrays; the kernel's
    // background work interleaves. The noise is spread uniformly through
    // each pass rather than batched, like timer ticks and daemons.
    const double noise_per_access = kKernelNoisePerVictimAccess;
    for (size_t pass = 0; pass < kVictimPasses; ++pass) {
        const bool last = pass + 1 == kVictimPasses;
        // The power cut lands mid-pass at a random element.
        const size_t cut = last ? rng_.below(n) : n;
        for (size_t core = 0; core < soc_.coreCount(); ++core) {
            Cache &l1d = soc_.memory().l1d(core);
            const VictimArray &v = truth[core];
            for (size_t i = 0; i < cut; ++i) {
                l1d.read64(v.base + i * 8, /*secure=*/false);
                if (rng_.uniform() < noise_per_access)
                    kernelNoise(core, 1);
            }
        }
    }
    return truth;
}

void
LinuxModel::runProgramOnCore(size_t core, const Program &program,
                             uint64_t max_steps)
{
    soc_.loadProgram(program);
    soc_.runCore(core, program.load_address, max_steps);
}

} // namespace voltboot
