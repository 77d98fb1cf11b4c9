/**
 * @file
 * RZE — Repeated Zero Elimination (paper Section 3.2, Figure 5). A bitmap
 * records which input bytes are non-zero (set bit = non-zero); the zero
 * bytes are dropped. The bitmap itself is then recursively compressed with
 * repeated-byte elimination (bitmap_codec.h), which is the "repeated"
 * enhancement the paper credits with a substantial ratio boost.
 *
 * Wire format: varint(in size) | varint(#non-zero bytes) | compressed
 * bitmap | the non-zero bytes. (The paper emits non-zero bytes before the
 * bitmap; the order is immaterial since both sides know every size.)
 *
 * The bitmap and the gathered non-zero bytes live in arena scratch slots.
 */
#include "transforms/transforms.h"

#include "transforms/bitmap_codec.h"
#include "util/bitio.h"
#include "util/simd.h"

namespace fpc::tf {

namespace {

void
RzeEncodeImpl(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    ByteWriter wr(out);
    wr.Put<uint64_t>(in.size());

    const size_t bitmap_size = (in.size() + 7) / 8;
    Bytes& bitmap = scratch.Slot(0);
    bitmap.assign(bitmap_size, std::byte{0});
    Bytes& nonzero = scratch.Slot(1);
    nonzero.resize(in.size());
    const size_t count = simd::Kernels(scratch.KernelIsa())
                             .nonzero_scan(in.data(), in.size(),
                                           bitmap.data(), nonzero.data());
    nonzero.resize(count);
    wr.PutVarint(nonzero.size());
    CompressBitmap(ByteSpan(bitmap), out, scratch);
    AppendBytes(out, ByteSpan(nonzero));
}

void
RzeDecodeImpl(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    constexpr const char* kStage = "RZE";
    ByteReader br(in, kStage);
    const size_t orig_size = br.Get<uint64_t>();
    // Budget before anything (bitmap size, output resize) is derived from
    // the wire-declared size: the recursively expanded bitmap alone would
    // otherwise amplify a corrupt orig_size into a huge allocation.
    FPC_PARSE_CHECK_AT(orig_size <= scratch.DecodeBudget(),
                       "RZE declared size exceeds decode budget", kStage, 0);
    const size_t nonzero_count = br.GetVarint();
    FPC_PARSE_CHECK_AT(nonzero_count <= orig_size, "RZE count out of range",
                       kStage, sizeof(uint64_t));

    const Bytes& bitmap =
        DecompressBitmap(br, (orig_size + 7) / 8, scratch);
    ByteSpan nonzero = br.GetBytes(nonzero_count);

    const size_t base = out.size();
    // Zeroed explicitly: the scatter writes only the nonzero positions.
    out.resize(base + orig_size, std::byte{0});
    std::byte* dest = out.data() + base;
    // Every set bit consumes one payload byte; checking the total up
    // front (trailing padding bits masked off) lets the scatter kernel
    // run unchecked.
    const size_t needed = simd::PopcountBits(bitmap.data(), orig_size);
    FPC_PARSE_CHECK_AT(needed <= nonzero.size(), "RZE payload underrun",
                       kStage, br.Pos());
    simd::Kernels(scratch.KernelIsa())
        .nonzero_scatter(bitmap.data(), orig_size, nonzero.data(), dest);
}

}  // namespace

void
RzeEncode(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    RzeEncodeImpl(in, out, scratch);
}

void
RzeDecode(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    RzeDecodeImpl(in, out, scratch);
}

void
RzeEncode(ByteSpan in, Bytes& out)
{
    ScratchArena scratch;
    RzeEncodeImpl(in, out, scratch);
}

void
RzeDecode(ByteSpan in, Bytes& out)
{
    ScratchArena scratch;
    RzeDecodeImpl(in, out, scratch);
}

}  // namespace fpc::tf
