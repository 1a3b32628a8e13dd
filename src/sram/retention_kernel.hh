/**
 * @file
 * Runtime selection of the per-cell retention kernel.
 *
 * The retention hot path (power-up resolve, unpowered decay, voltage
 * droop) has two bit-identical implementations:
 *
 *  - Fast: the threshold-transformed kernels — per-transition binary
 *    search finds the exact raw-hash cutoff once, then each cell is one
 *    integer compare and the results are applied 64 cells at a time
 *    with word-level bit ops (see docs/PERFORMANCE.md).
 *  - Reference: the original scalar path — per-cell splitmix hash
 *    chains, Acklam's inverse normal CDF and an exp() per transition.
 *    It is the oracle the golden-equivalence tests hold Fast to.
 *
 * The selection is process-global (campaign workers construct hermetic
 * per-trial SoCs, so a global is both safe and what the CLI wants). It
 * defaults to Fast; setRetentionKernel() (driven by the CLI's
 * --retention-path flag) overrides it.
 */

#ifndef VOLTBOOT_SRAM_RETENTION_KERNEL_HH
#define VOLTBOOT_SRAM_RETENTION_KERNEL_HH

#include <string_view>

namespace voltboot
{

/** Which implementation the retention hot path runs. */
enum class RetentionKernel
{
    Fast,      ///< Threshold compares + word-masked application.
    Reference, ///< Original scalar per-cell transcendental path.
};

/** Current process-wide kernel selection (thread-safe). */
RetentionKernel retentionKernel();

/** Override the process-wide kernel selection (thread-safe). */
void setRetentionKernel(RetentionKernel kernel);

/**
 * Parse "fast" or "reference" into @p out.
 * @return false (leaving @p out untouched) on any other spelling.
 */
bool parseRetentionKernel(std::string_view name, RetentionKernel &out);

/** Canonical spelling of @p kernel (the strings parse() accepts). */
const char *toString(RetentionKernel kernel);

} // namespace voltboot

#endif // VOLTBOOT_SRAM_RETENTION_KERNEL_HH
