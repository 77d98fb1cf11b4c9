/**
 * @file
 * FCM — Finite Context Method (paper Section 3.2, Figure 6). The only
 * whole-input stage: for each 64-bit value, a hash of the three preceding
 * values selects a context; a value "matches" when one of the up to four
 * most recent earlier values with the same context hash is equal to it,
 * and the newest equal one wins. The output is two n-word arrays — values
 * (0 where matched) and backward distances (0 where unmatched) — which
 * double the data volume but are far more compressible than the original
 * (half the entries are zero).
 *
 * Both directions run chunk-parallel over ScratchArena::StageThreads()
 * threads, and the output bytes do not depend on the thread count.
 *
 * Encode is the paper's sort-by-(hash, index) formulation with the sort
 * replaced by a stable radix partition: the match rule only compares
 * indices whose hashes are equal, so (hash, index) records are
 * scattered by the high hash bits — per-thread histograms, a prefix sum
 * ordered by (partition, thread), a scatter — which leaves each partition
 * in index order. Each partition is then searched on its own with a small
 * chained table (bucket heads plus one link per record, walked newest
 * first) sized to stay in L2. Context hashes are recomputed per block by
 * the kernel-layer fcm_hash (util/simd.h) rather than stored.
 *
 * Decode resolves distances straight from the wire span into the output
 * in O(n): each thread fills a contiguous segment, resolving references
 * that stay inside it and deferring (one bit per word) any entry whose
 * reference leaves the segment or lands on a deferred entry. A final pass
 * resolves the deferred entries in index order, when everything they can
 * refer to is already in place.
 *
 * Wire format: varint(in size) | n value words | n distance words |
 * trailing (<8) bytes verbatim.
 */
#include <algorithm>
#include <bit>
#include <memory>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "transforms/transforms.h"

#include "util/bitio.h"
#include "util/simd.h"

namespace fpc::tf {

namespace {

constexpr const char* kStage = "FCM";

/** How many preceding same-hash values are probed for a match (paper: 4). */
constexpr size_t kFcmProbes = 4;

constexpr uint32_t kNil = 0xffffffffu;

/** Words hashed per block; the block and its hashes stay in L1. */
constexpr size_t kHashBlock = 1024;
/** Context words fcm_hash reads before a block's first word. */
constexpr size_t kHashLead = 3;
/** Records per partition aimed for: its records and chained table fit L2. */
constexpr size_t kPartitionWords = 32 * 1024;
constexpr unsigned kMaxPartitionBits = 12;
/** Partitions above this size are searched serially with a shared table. */
constexpr size_t kLargePartition = 4 * kPartitionWords;
/** Fewer words per thread than this cost more to fork than they save. */
constexpr size_t kMinWordsPerThread = 32 * 1024;

uint64_t
LoadWord(const std::byte* words, size_t i)
{
    uint64_t v;
    std::memcpy(&v, words + i * sizeof(uint64_t), sizeof(v));
    return v;
}

void
StoreWord(std::byte* words, size_t i, uint64_t v)
{
    std::memcpy(words + i * sizeof(uint64_t), &v, sizeof(v));
}

size_t
ThreadsFor(size_t n, int max_threads)
{
    const size_t cap = max_threads > 1 ? static_cast<size_t>(max_threads) : 1;
    return std::clamp<size_t>(n / kMinWordsPerThread, 1, cap);
}

/** Word range [begin, end) of segment @p t of @p segments over n words.
 *  Inner boundaries are multiples of 64, so no two segments share a word
 *  of the decoder's deferred bitmap. */
std::pair<size_t, size_t>
Segment(size_t n, size_t t, size_t segments)
{
    const size_t blocks = (n + 63) / 64;
    const auto edge = [&](size_t s) {
        return std::min(n, blocks * s / segments * 64);
    };
    return {edge(t), edge(t + 1)};
}

/**
 * Run task(k, worker) for k in [0, tasks) on @p threads threads (worker in
 * [0, threads)), dynamically scheduled. One thread runs the loop inline
 * with no OpenMP region, so the per-chunk FCM of mode=auto DP — already
 * inside an executor's parallel loop — never nests a team. Tasks must not
 * throw.
 */
template <typename Task>
void
ForEachTask(size_t tasks, size_t threads, const Task& task)
{
#ifdef _OPENMP
    if (threads > 1) {
#pragma omp parallel for schedule(dynamic) num_threads(threads)
        for (std::int64_t k = 0; k < static_cast<std::int64_t>(tasks); ++k) {
            task(static_cast<size_t>(k),
                 static_cast<size_t>(omp_get_thread_num()));
        }
        return;
    }
#endif
    for (size_t k = 0; k < tasks; ++k) task(k, 0);
}

/** Context hashes of one block of input words, computed in a caller-owned
 *  buffer of 2 * (kHashBlock + kHashLead) words (the words, then their
 *  hashes). */
class BlockHasher {
 public:
    BlockHasher(const std::byte* words, simd::Isa isa, uint64_t* buffer)
        : words_(words), kernels_(simd::Kernels(isa)), values_(buffer),
          hashes_(buffer + kHashBlock + kHashLead) {}

    /** Load words [begin, end), end - begin <= kHashBlock. */
    void
    Load(size_t begin, size_t end)
    {
        lead_ = std::min(begin, kHashLead);
        const size_t first = begin - lead_;
        std::memcpy(values_, words_ + first * sizeof(uint64_t),
                    (end - first) * sizeof(uint64_t));
        kernels_.fcm_hash(values_, end - first, hashes_);
    }

    /** Context hash of the k-th word of the loaded block. */
    uint64_t Hash(size_t k) const { return hashes_[lead_ + k]; }

 private:
    const std::byte* words_;
    const simd::KernelTable& kernels_;
    uint64_t* values_;
    uint64_t* hashes_;
    size_t lead_ = 0;
};

/** Power-of-two chained-table size for a partition of @p records. */
size_t
TableSlots(size_t records)
{
    return std::bit_ceil(std::max<size_t>(16, 2 * records));
}

/** Chained-table scratch for searching partitions of up to `capacity`
 *  records: bucket heads plus one link per record. Uninitialised;
 *  SearchPartition resets the heads it uses. */
struct SearchTable {
    explicit SearchTable(size_t capacity)
        : heads(new uint32_t[TableSlots(capacity)]),
          link(new uint32_t[capacity]) {}
    std::unique_ptr<uint32_t[]> heads;
    std::unique_ptr<uint32_t[]> link;
};

/**
 * One hash partition's records, in index order: find each record's match
 * among the up to kFcmProbes newest earlier records with an equal hash and
 * write its distance word. Values are compared in the input words, and
 * only for equal hashes.
 */
void
SearchPartition(const uint64_t* hash, const uint32_t* index, size_t size,
                const std::byte* words, SearchTable& table, std::byte* dists)
{
    const size_t mask = TableSlots(size) - 1;
    uint32_t* heads = table.heads.get();
    uint32_t* link = table.link.get();
    std::fill(heads, heads + mask + 1, kNil);
    // Slot collisions between different hashes are skipped without
    // counting against the probe budget. The low hash bits pick the slot;
    // the partition was chosen by the high ones.
    for (size_t r = 0; r < size; ++r) {
        const uint64_t h = hash[r];
        const size_t slot = static_cast<size_t>(h) & mask;
        uint64_t dist = 0;
        size_t probes = 0;
        for (uint32_t j = heads[slot]; j != kNil; j = link[j]) {
            if (hash[j] != h) continue;
            if (LoadWord(words, index[j]) == LoadWord(words, index[r])) {
                dist = index[r] - index[j];
                break;
            }
            if (++probes == kFcmProbes) break;
        }
        StoreWord(dists, index[r], dist);
        link[r] = heads[slot];
        heads[slot] = static_cast<uint32_t>(r);
    }
}

void
FcmEncodeImpl(ByteSpan in, std::span<std::byte> out, simd::Isa isa,
              int max_threads)
{
    const size_t n = in.size() / sizeof(uint64_t);
    FPC_CHECK(n < kNil, "FCM input exceeds 2^32 - 1 words");
    FPC_CHECK(out.size() == FcmEncodedSize(in.size()),
              "FCM output span has the wrong size");
    std::byte* dst = out.data();
    StoreWord(dst, 0, in.size());
    std::byte* out_values = dst + sizeof(uint64_t);
    std::byte* out_dists = out_values + n * sizeof(uint64_t);
    const ByteSpan tail = in.subspan(n * sizeof(uint64_t));
    if (!tail.empty()) {
        std::memcpy(out_dists + n * sizeof(uint64_t), tail.data(),
                    tail.size());
    }
    if (n == 0) return;

    const size_t threads = ThreadsFor(n, max_threads);
    // On one thread, an input no bigger than a large partition is searched
    // whole: partitioning it would only add a second hashing pass.
    unsigned bits = 0;
    while ((threads > 1 || n > kLargePartition) && bits < kMaxPartitionBits &&
           (n >> bits) > kPartitionWords) {
        ++bits;
    }
    const size_t parts = size_t{1} << bits;
    const auto part_of = [bits](uint64_t h) {
        return bits == 0 ? size_t{0} : static_cast<size_t>(h >> (64 - bits));
    };

    // (hash, index) records. Default-initialised: the workers' scatter is
    // the first touch.
    std::unique_ptr<uint64_t[]> rec_hash(new uint64_t[n]);
    std::unique_ptr<uint32_t[]> rec_index(new uint32_t[n]);
    std::unique_ptr<uint64_t[]> block_buffers(
        new uint64_t[threads * 2 * (kHashBlock + kHashLead)]);
    // cursor[t * parts + p]: thread t's record count in partition p, then
    // (after the prefix sum) its next write position there.
    std::vector<size_t> cursor(threads * parts, 0);

    const auto for_each_block = [&](size_t t, const auto& visit) {
        BlockHasher hasher(
            in.data(), isa,
            block_buffers.get() + t * 2 * (kHashBlock + kHashLead));
        const auto [begin, end] = Segment(n, t, threads);
        for (size_t b = begin; b < end; b += kHashBlock) {
            const size_t e = std::min(end, b + kHashBlock);
            hasher.Load(b, e);
            for (size_t k = 0; k < e - b; ++k) visit(hasher.Hash(k), b + k);
        }
    };

    // One partition is the input itself: a record's position is its index.
    if (parts > 1) {
        ForEachTask(threads, threads, [&](size_t t, size_t) {
            size_t* count = cursor.data() + t * parts;
            for_each_block(t, [&](uint64_t hash, size_t) {
                ++count[part_of(hash)];
            });
        });
    } else {
        cursor[0] = n;
    }

    // Stable order: partitions ascending, then threads (= index ranges).
    std::vector<size_t> part_begin(parts + 1, 0);
    size_t at = 0;
    size_t largest = 0;
    for (size_t p = 0; p < parts; ++p) {
        part_begin[p] = at;
        for (size_t t = 0; t < threads; ++t) {
            const size_t c = cursor[t * parts + p];
            cursor[t * parts + p] = at;
            at += c;
        }
        largest = std::max(largest, at - part_begin[p]);
    }
    part_begin[parts] = at;

    ForEachTask(threads, threads, [&](size_t t, size_t) {
        size_t* next = cursor.data() + t * parts;
        for_each_block(t, [&](uint64_t hash, size_t i) {
            const size_t pos = parts == 1 ? i : next[part_of(hash)]++;
            rec_hash[pos] = hash;
            rec_index[pos] = static_cast<uint32_t>(i);
        });
    });

    // Partitions beyond kLargePartition (inputs with few distinct
    // contexts) are searched one at a time after the rest, so each
    // worker's table stays L2-sized and only one large table is built.
    const auto size_of = [&](size_t p) {
        return part_begin[p + 1] - part_begin[p];
    };
    const auto search = [&](size_t p, SearchTable& table) {
        const size_t b = part_begin[p];
        SearchPartition(rec_hash.get() + b, rec_index.get() + b, size_of(p),
                        in.data(), table, out_dists);
    };
    std::vector<SearchTable> tables;
    for (size_t t = 0; t < threads; ++t) {
        tables.emplace_back(std::min(largest, kLargePartition));
    }
    ForEachTask(parts, threads, [&](size_t p, size_t worker) {
        if (size_of(p) <= kLargePartition) search(p, tables[worker]);
    });
    if (largest > kLargePartition) {
        SearchTable table(largest);
        for (size_t p = 0; p < parts; ++p) {
            if (size_of(p) > kLargePartition) search(p, table);
        }
    }

    // Matched entries carry a 0 value word; the rest carry the input word.
    ForEachTask(threads, threads, [&](size_t t, size_t) {
        const auto [begin, end] = Segment(n, t, threads);
        for (size_t i = begin; i < end; ++i) {
            StoreWord(out_values, i,
                      LoadWord(out_dists, i) == 0 ? LoadWord(in.data(), i)
                                                  : 0);
        }
    });
}

void
FcmDecodeImpl(ByteSpan in, Bytes& out, int max_threads)
{
    ByteReader br(in, kStage);
    const size_t orig_size = br.Get<uint64_t>();
    const size_t n = orig_size / sizeof(uint64_t);
    // Bound n by the actual payload first: for a huge wire-declared
    // orig_size the product in the equality check below would wrap and
    // could spuriously pass.
    FPC_PARSE_CHECK_AT(n <= br.Remaining() / (2 * sizeof(uint64_t)),
                       "FCM payload size mismatch", kStage, 0);
    FPC_PARSE_CHECK_AT(br.Remaining() == 2 * n * sizeof(uint64_t) +
                                             orig_size % sizeof(uint64_t),
                       "FCM payload size mismatch", kStage, 0);
    const std::byte* values = br.GetBytes(n * sizeof(uint64_t)).data();
    const std::byte* dists = br.GetBytes(n * sizeof(uint64_t)).data();
    const ByteSpan tail = br.Rest();

    const size_t base = out.size();
    out.resize(base + orig_size);
    std::byte* dst = out.data() + base;
    if (!tail.empty()) {
        std::memcpy(dst + n * sizeof(uint64_t), tail.data(), tail.size());
    }

    // Every distance points backwards, so resolving in index order is
    // O(n). Within a segment a thread can do the same for references that
    // stay inside it; the rest wait, marked in `deferred`, for the final
    // in-order pass.
    const size_t threads = ThreadsFor(n, max_threads);
    std::unique_ptr<uint64_t[]> deferred(new uint64_t[(n + 63) / 64]);
    std::vector<size_t> first_bad(threads, n);
    const auto is_deferred = [&](size_t i) {
        return (deferred[i / 64] >> (i % 64) & 1) != 0;
    };
    ForEachTask(threads, threads, [&](size_t t, size_t) {
        const auto [begin, end] = Segment(n, t, threads);
        std::fill(deferred.get() + begin / 64,
                  deferred.get() + (end + 63) / 64, 0);
        for (size_t i = begin; i < end; ++i) {
            const uint64_t d = LoadWord(dists, i);
            if (d == 0) {
                StoreWord(dst, i, LoadWord(values, i));
                continue;
            }
            if (d > i) {
                first_bad[t] = i;
                return;
            }
            const size_t j = i - static_cast<size_t>(d);
            if (j < begin || is_deferred(j)) {
                deferred[i / 64] |= uint64_t{1} << (i % 64);
            } else {
                StoreWord(dst, i, LoadWord(dst, j));
            }
        }
    });
    // The lowest bad index is the one a serial in-order decode reports.
    const size_t bad = *std::min_element(first_bad.begin(), first_bad.end());
    FPC_PARSE_CHECK_AT(bad == n, "FCM distance out of range", kStage,
                       sizeof(uint64_t) + (n + bad) * sizeof(uint64_t));

    for (size_t w = 0; w < (n + 63) / 64; ++w) {
        for (uint64_t bits = deferred[w]; bits != 0; bits &= bits - 1) {
            const size_t i =
                w * 64 + static_cast<size_t>(std::countr_zero(bits));
            StoreWord(dst, i, LoadWord(dst, i - LoadWord(dists, i)));
        }
    }
}

}  // namespace

size_t
FcmEncodedSize(size_t in_size)
{
    return sizeof(uint64_t) + 2 * (in_size - in_size % sizeof(uint64_t)) +
           in_size % sizeof(uint64_t);
}

void
FcmEncodeInto(ByteSpan in, std::span<std::byte> out, ScratchArena& scratch)
{
    FcmEncodeImpl(in, out, scratch.KernelIsa(), scratch.StageThreads());
}

void
FcmEncode(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    const size_t base = out.size();
    out.resize(base + FcmEncodedSize(in.size()));
    FcmEncodeInto(in, std::span(out).subspan(base), scratch);
}

void
FcmDecode(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    FcmDecodeImpl(in, out, scratch.StageThreads());
}

void
FcmEncode(ByteSpan in, Bytes& out)
{
    ScratchArena scratch;
    FcmEncode(in, out, scratch);
}

void
FcmDecode(ByteSpan in, Bytes& out)
{
    ScratchArena scratch;
    FcmDecode(in, out, scratch);
}

}  // namespace fpc::tf
