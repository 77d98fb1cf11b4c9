#include "core/arena.h"

namespace fpc {

Bytes&
ScratchArena::BitmapLevel(size_t i)
{
    // Levels shrink by 8x per step, so even pathological inputs stay tiny;
    // the pool grows once and each Bytes keeps its capacity thereafter.
    if (i >= bitmap_levels_.size()) bitmap_levels_.resize(i + 1);
    return bitmap_levels_[i];
}

Bytes&
ScratchArena::BitmapKept(size_t i)
{
    if (i >= bitmap_kept_.size()) bitmap_kept_.resize(i + 1);
    return bitmap_kept_[i];
}

size_t
ScratchArena::CapacityBytes() const
{
    size_t total = pipeline_a_.capacity() + pipeline_b_.capacity();
    for (const Bytes& s : slots_) total += s.capacity();
    total += words32_.capacity() * sizeof(uint32_t);
    total += words64_.capacity() * sizeof(uint64_t);
    total += histogram_.capacity() * sizeof(unsigned);
    for (const Bytes& b : bitmap_levels_) total += b.capacity();
    for (const Bytes& b : bitmap_kept_) total += b.capacity();
    return total;
}

}  // namespace fpc
