/**
 * @file
 * The seven data transformations of the paper (Section 3): DIFFMS, MPLG,
 * BIT, RZE, FCM, RAZE, and RARE.
 *
 * Uniform stage contract shared by every transform:
 *  - Encode(in, out, scratch): append `varint(in.size())` followed by the
 *    stage payload. Transforms that work on W-byte words process the
 *    whole-word prefix and carry the <W trailing bytes verbatim, so every
 *    stage is total on arbitrary byte strings.
 *  - Decode(in, out, scratch): consume the entire span produced by Encode
 *    and append exactly the original bytes.
 *  - DecodeInto(in, dest, scratch): where provided, decode directly into a
 *    span of exactly the original size (used by the pipeline for the first
 *    stage so chunk decode writes straight into the destination buffer).
 *
 * All temporary buffers come from the caller's ScratchArena (core/arena.h):
 * after the arena warms up, the per-chunk stages perform no heap
 * allocations. Stages only use Slot()/Words()/Histogram() and the bitmap
 * pools — never the arena's pipeline ping-pong buffers, which may back the
 * stage's own input span. The input span never aliases `out`.
 *
 * The two-argument overloads are convenience wrappers that run on a
 * throwaway arena; they serve tests, benches, and one-off callers, not the
 * hot path.
 *
 * The chunk pipeline (core/pipeline.h) composes stages by feeding each
 * stage's full output buffer to the next; decoding runs the inverses in
 * reverse order (paper Section 3).
 */
#ifndef FPC_TRANSFORMS_TRANSFORMS_H
#define FPC_TRANSFORMS_TRANSFORMS_H

#include "core/arena.h"
#include "util/common.h"

namespace fpc::tf {

// ---- DIFFMS: difference coding + two's-complement -> magnitude-sign ----
void DiffmsEncode32(ByteSpan in, Bytes& out, ScratchArena& scratch);
void DiffmsDecode32(ByteSpan in, Bytes& out, ScratchArena& scratch);
void DiffmsEncode64(ByteSpan in, Bytes& out, ScratchArena& scratch);
void DiffmsDecode64(ByteSpan in, Bytes& out, ScratchArena& scratch);
void DiffmsDecodeInto32(ByteSpan in, std::span<std::byte> dest,
                        ScratchArena& scratch);
void DiffmsDecodeInto64(ByteSpan in, std::span<std::byte> dest,
                        ScratchArena& scratch);

// ---- MPLG: per-subchunk leading-zero-bit elimination (enhanced) ----
void MplgEncode32(ByteSpan in, Bytes& out, ScratchArena& scratch);
void MplgDecode32(ByteSpan in, Bytes& out, ScratchArena& scratch);
void MplgEncode64(ByteSpan in, Bytes& out, ScratchArena& scratch);
void MplgDecode64(ByteSpan in, Bytes& out, ScratchArena& scratch);

// ---- BIT: bit-plane transposition (MSB plane first) ----
void BitEncode32(ByteSpan in, Bytes& out, ScratchArena& scratch);
void BitDecode32(ByteSpan in, Bytes& out, ScratchArena& scratch);
void BitEncode64(ByteSpan in, Bytes& out, ScratchArena& scratch);
void BitDecode64(ByteSpan in, Bytes& out, ScratchArena& scratch);

// ---- RZE: repeated zero elimination at byte granularity ----
void RzeEncode(ByteSpan in, Bytes& out, ScratchArena& scratch);
void RzeDecode(ByteSpan in, Bytes& out, ScratchArena& scratch);

// ---- FCM: finite context method (whole-input stage of DPratio) ----
// Whole-input, not per-chunk: runs once per Compress/Decompress, so it is
// exempt from the zero-allocation rule. It takes only the kernel ISA and
// the thread count (StageThreads) from the arena; the output bytes do not
// depend on the thread count.
void FcmEncode(ByteSpan in, Bytes& out, ScratchArena& scratch);
void FcmDecode(ByteSpan in, Bytes& out, ScratchArena& scratch);
/** FcmDecode into exactly the decoded size (throws CorruptStreamError on
 *  any other), writing every byte of possibly uninitialised @p out. */
void FcmDecodeInto(ByteSpan in, std::span<std::byte> out,
                   ScratchArena& scratch);
/** Exact FcmEncode output size for an input of @p in_size bytes. */
size_t FcmEncodedSize(size_t in_size);
/** FcmEncode into exactly FcmEncodedSize(in.size()) bytes, writing every
 *  one of them, so @p out may be uninitialised memory. */
void FcmEncodeInto(ByteSpan in, std::span<std::byte> out,
                   ScratchArena& scratch);

// ---- RAZE: repeated adaptive zero elimination (64-bit words) ----
void RazeEncode64(ByteSpan in, Bytes& out, ScratchArena& scratch);
void RazeDecode64(ByteSpan in, Bytes& out, ScratchArena& scratch);

// ---- RARE: repeated adaptive repetition elimination (64-bit words) ----
void RareEncode64(ByteSpan in, Bytes& out, ScratchArena& scratch);
void RareDecode64(ByteSpan in, Bytes& out, ScratchArena& scratch);

// 32-bit RAZE/RARE variants (used by ablation studies, not by the four
// shipped algorithms).
void RazeEncode32(ByteSpan in, Bytes& out, ScratchArena& scratch);
void RazeDecode32(ByteSpan in, Bytes& out, ScratchArena& scratch);
void RareEncode32(ByteSpan in, Bytes& out, ScratchArena& scratch);
void RareDecode32(ByteSpan in, Bytes& out, ScratchArena& scratch);

// Convenience overloads on a throwaway arena (tests, benches, one-off use).
void DiffmsEncode32(ByteSpan in, Bytes& out);
void DiffmsDecode32(ByteSpan in, Bytes& out);
void DiffmsEncode64(ByteSpan in, Bytes& out);
void DiffmsDecode64(ByteSpan in, Bytes& out);
void MplgEncode32(ByteSpan in, Bytes& out);
void MplgDecode32(ByteSpan in, Bytes& out);
void MplgEncode64(ByteSpan in, Bytes& out);
void MplgDecode64(ByteSpan in, Bytes& out);
void BitEncode32(ByteSpan in, Bytes& out);
void BitDecode32(ByteSpan in, Bytes& out);
void BitEncode64(ByteSpan in, Bytes& out);
void BitDecode64(ByteSpan in, Bytes& out);
void RzeEncode(ByteSpan in, Bytes& out);
void RzeDecode(ByteSpan in, Bytes& out);
void FcmEncode(ByteSpan in, Bytes& out);
void FcmDecode(ByteSpan in, Bytes& out);
void RazeEncode64(ByteSpan in, Bytes& out);
void RazeDecode64(ByteSpan in, Bytes& out);
void RareEncode64(ByteSpan in, Bytes& out);
void RareDecode64(ByteSpan in, Bytes& out);
void RazeEncode32(ByteSpan in, Bytes& out);
void RazeDecode32(ByteSpan in, Bytes& out);
void RareEncode32(ByteSpan in, Bytes& out);
void RareDecode32(ByteSpan in, Bytes& out);

}  // namespace fpc::tf

#endif  // FPC_TRANSFORMS_TRANSFORMS_H
