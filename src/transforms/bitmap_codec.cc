#include "transforms/bitmap_codec.h"

#include "util/simd.h"

namespace fpc::tf {

namespace {

/**
 * Byte lengths of the successive bitmap levels, largest first. Levels
 * shrink 8x per step, so 24 entries cover any conceivable bitmap; the
 * fixed array keeps level-size computation off the heap.
 */
struct LevelSizes {
    std::array<size_t, 24> sizes;
    size_t count = 0;

    explicit LevelSizes(size_t bitmap_size)
    {
        size_t s = bitmap_size;
        sizes[count++] = s;
        while (s > 4) {
            s = (s + 7) / 8;  // one bit per byte of the level below
            FPC_CHECK(count < sizes.size(), "bitmap level overflow");
            sizes[count++] = s;
        }
    }
};

}  // namespace

size_t
PopcountBitmap(ByteSpan bitmap)
{
    return simd::PopcountBits(bitmap.data(), bitmap.size() * 8);
}

void
CompressBitmap(ByteSpan bitmap, Bytes& out, ScratchArena& scratch)
{
    // Build the level stack bottom-up: level k+1 marks the non-repeating
    // bytes of level k; only those bytes survive. Level 0 is the input
    // span; higher levels live in the arena's bitmap pool.
    const simd::KernelTable& kernels = simd::Kernels(scratch.KernelIsa());
    size_t n_levels = 1;
    ByteSpan cur = bitmap;
    while (cur.size() > 4) {
        Bytes& next = scratch.BitmapLevel(n_levels);
        next.assign((cur.size() + 7) / 8, std::byte{0});
        Bytes& surviving = scratch.BitmapKept(n_levels - 1);
        surviving.resize(cur.size());
        const size_t count = kernels.diff_scan(cur.data(), cur.size(),
                                               next.data(),
                                               surviving.data());
        surviving.resize(count);
        cur = ByteSpan(next);
        ++n_levels;
    }

    // Emit: final level verbatim, then kept bytes from the smallest level's
    // parent down to level 0's kept bytes.
    AppendBytes(out, cur);
    for (size_t k = n_levels - 1; k-- > 0;) {
        AppendBytes(out, ByteSpan(scratch.BitmapKept(k)));
    }
}

void
CompressBitmap(ByteSpan bitmap, Bytes& out)
{
    ScratchArena scratch;
    CompressBitmap(bitmap, out, scratch);
}

const Bytes&
DecompressBitmap(ByteReader& br, size_t bitmap_size, ScratchArena& scratch)
{
    const simd::KernelTable& kernels = simd::Kernels(scratch.KernelIsa());
    const LevelSizes levels(bitmap_size);
    ByteSpan cur = br.GetBytes(levels.sizes[levels.count - 1]);

    for (size_t level = levels.count - 1; level-- > 0;) {
        const size_t target = levels.sizes[level];
        // Each set bit of the level above consumes one kept byte; taking
        // them as one span (bounds-checked by the reader) lets the
        // expand kernel run unchecked.
        const size_t kept_count = simd::PopcountBits(cur.data(), target);
        ByteSpan kept = br.GetBytes(kept_count);
        Bytes& expanded = scratch.BitmapLevel(level);
        expanded.resize(target);
        kernels.diff_expand(cur.data(), target, kept.data(),
                            expanded.data());
        cur = ByteSpan(expanded);
    }

    Bytes& result = scratch.BitmapLevel(0);
    if (levels.count == 1) {
        // No expansion ran; copy the final level into the result slot.
        AssignBytes(result, cur);
    }
    FPC_PARSE_CHECK(result.size() == bitmap_size, "bitmap size mismatch");
    return result;
}

Bytes
DecompressBitmap(ByteReader& br, size_t bitmap_size)
{
    ScratchArena scratch;
    // Copy out: the arena (and the slot the result lives in) dies here.
    return DecompressBitmap(br, bitmap_size, scratch);
}

}  // namespace fpc::tf
