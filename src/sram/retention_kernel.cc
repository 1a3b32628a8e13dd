#include "sram/retention_kernel.hh"

#include <atomic>

namespace voltboot
{

namespace
{

/** Process-wide selection; constant-initialised to Fast. */
std::atomic<RetentionKernel> kernel_slot{RetentionKernel::Fast};

} // namespace

RetentionKernel
retentionKernel()
{
    return kernel_slot.load(std::memory_order_relaxed);
}

void
setRetentionKernel(RetentionKernel kernel)
{
    kernel_slot.store(kernel, std::memory_order_relaxed);
}

bool
parseRetentionKernel(std::string_view name, RetentionKernel &out)
{
    if (name == "fast")
        out = RetentionKernel::Fast;
    else if (name == "reference")
        out = RetentionKernel::Reference;
    else
        return false;
    return true;
}

const char *
toString(RetentionKernel kernel)
{
    switch (kernel) {
      case RetentionKernel::Fast:
        return "fast";
      case RetentionKernel::Reference:
        return "reference";
    }
    return "?";
}

} // namespace voltboot
