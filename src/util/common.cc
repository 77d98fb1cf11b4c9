#include "util/common.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace fpc {

namespace {

constexpr std::align_val_t kPage{4096};

}  // namespace

void*
AllocateLargeBuffer(size_t bytes)
{
    void* p = ::operator new(bytes, kPage);
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    // Advice only: a kernel without THP, or one that has none to spare,
    // keeps backing the buffer with small pages.
    ::madvise(p, bytes / 4096 * 4096, MADV_HUGEPAGE);
#endif
    return p;
}

void
FreeLargeBuffer(void* p, size_t bytes) noexcept
{
    ::operator delete(p, bytes, kPage);
}

}  // namespace fpc
