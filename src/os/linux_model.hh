/**
 * @file
 * A lightweight model of a Linux system under test — enough OS dynamics
 * to reproduce the paper's Table 4 and Figure 8.
 *
 * The paper's observation is architectural, not about Linux internals:
 * when a victim's working set approaches the L1 size, kernel background
 * activity evicts victim lines, so the fraction of the victim's data an
 * attacker recovers from the d-cache falls from 100% to ~90%. We model
 * exactly that mechanism: per-core victim processes stream over their
 * arrays through the real simulated caches while "kernel" accesses with a
 * fixed, calibrated rate touch random lines in a separate kernel region.
 */

#ifndef VOLTBOOT_OS_LINUX_MODEL_HH
#define VOLTBOOT_OS_LINUX_MODEL_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "soc/soc.hh"

namespace voltboot
{

/** Ground truth of one core's victim benchmark. */
struct VictimArray
{
    uint64_t base = 0;
    std::vector<uint64_t> elements; ///< 8-byte values written, in order.
};

/**
 * Drives victim + kernel memory traffic over a booted Soc.
 *
 * The caller powers the Soc on; boot() invalidates and enables the
 * caches the way a kernel would, then benchmark runs issue traffic.
 */
class LinuxModel
{
  public:
    /** @p seed seeds the scheduling-noise RNG. */
    LinuxModel(Soc &soc, uint64_t seed = 0x11eb);

    /** Kernel boot: invalidate stale tags, enable L1s on every core. */
    void boot();

    /**
     * Run the Section 7.1.2 microbenchmark on every core: each core's
     * process fills a private array of @p array_bytes with distinct
     * 8-byte elements and then loops over it while kernel noise runs.
     * Execution stops mid-pass at a pseudo-random point, which is when
     * the attacker pulls the plug. Returns per-core ground truth.
     */
    std::vector<VictimArray> runArrayBenchmark(size_t array_bytes);

    /**
     * Run a short real program (assembled vb64) on core @p core with the
     * caches enabled, so its instructions become i-cache-resident — used
     * for the Figure 8 "grep the i-cache for the app's code" check.
     */
    void runProgramOnCore(size_t core, const Program &program,
                          uint64_t max_steps = 2'000'000);

    /** Number of kernel noise accesses issued so far (diagnostics). */
    uint64_t noiseAccesses() const { return noise_count_; }

  private:
    void kernelNoise(size_t core, size_t count);

    Soc &soc_;
    Rng rng_;
    uint64_t noise_count_ = 0;
};

} // namespace voltboot

#endif // VOLTBOOT_OS_LINUX_MODEL_HH
