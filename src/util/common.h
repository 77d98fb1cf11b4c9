/**
 * @file
 * Shared basic types, span aliases, and checking macros used across fpcomp.
 */
#ifndef FPC_UTIL_COMMON_H
#define FPC_UTIL_COMMON_H

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace fpc {

/** Buffers from this size up are allocated by AllocateLargeBuffer. It is
 *  glibc's largest mmap threshold, so each such buffer is its own
 *  mapping: aligning it costs no heap fragmentation, and its pages go
 *  back to the system when it is freed. */
inline constexpr size_t kLargeBuffer = size_t{32} << 20;

/**
 * Allocate @p bytes (>= kLargeBuffer) of uninitialised memory that starts
 * on a page boundary, so the 16 KiB chunk slots that parallel workers
 * fill cover whole pages: no two threads first-touch the same page (a
 * page both fault on counts twice, and the second waits on the first).
 * The buffer is advised to transparent huge pages where the kernel offers
 * them: a codec output is written once, front to back, so one fault per
 * 2 MiB replaces 512, and pages the codec never writes (the slack of an
 * upper-bound container) stay unbacked. Throws std::bad_alloc. Release
 * with FreeLargeBuffer.
 */
void* AllocateLargeBuffer(size_t bytes);
void FreeLargeBuffer(void* p, size_t bytes) noexcept;

/**
 * std::allocator whose value-less construct() default-initialises, so a
 * vector's `resize(n)` and `Bytes(n)` allocate without zero-filling (for
 * trivial types default-initialisation is a no-op and the construct loop
 * compiles away). Growth then costs no serial memset and no page touch
 * before the first real write: an output buffer is first touched by the
 * threads that fill it. Value-carrying construction (`resize(n, v)`,
 * `Bytes(n, v)`, copies) is unchanged, so a site that reads bytes before
 * writing them asks for zeros explicitly with `std::byte{0}`.
 *
 * Buffers of kLargeBuffer bytes or more come from AllocateLargeBuffer.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
    using std::allocator<T>::allocator;

    template <typename U>
    struct rebind {
        using other = DefaultInitAllocator<U>;
    };

    T*
    allocate(size_t n)
    {
        if (n < kLargeBuffer / sizeof(T)) return std::allocator<T>::allocate(n);
        return static_cast<T*>(AllocateLargeBuffer(n * sizeof(T)));
    }

    void
    deallocate(T* p, size_t n) noexcept
    {
        if (n < kLargeBuffer / sizeof(T)) {
            std::allocator<T>::deallocate(p, n);
        } else {
            FreeLargeBuffer(p, n * sizeof(T));
        }
    }

    template <typename U>
    void
    construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void*>(p)) U;
    }
};

/** Byte buffer of the codec. `Bytes(n)` / `resize(n)` leave the new bytes
 *  uninitialised (DefaultInitAllocator); every such site writes each byte
 *  before reading it, or zero-fills explicitly. */
using Bytes = std::vector<std::byte, DefaultInitAllocator<std::byte>>;
using ByteSpan = std::span<const std::byte>;

/** Sentinel for "byte offset unknown" in CorruptStreamError. */
inline constexpr size_t kNoOffset = static_cast<size_t>(-1);

/**
 * Thrown when a compressed stream is malformed, truncated, or corrupt.
 *
 * Carries the decode stage that rejected the input ("MPLG", "container",
 * "stream", ...) and the byte offset of the failed read, relative to the
 * payload that stage was decoding. Both are optional: errors raised before
 * a stage is known report Stage() == nullptr / Offset() == kNoOffset.
 */
class CorruptStreamError : public std::runtime_error {
 public:
    explicit CorruptStreamError(const std::string& what)
        : CorruptStreamError(nullptr, kNoOffset, what) {}

    CorruptStreamError(const char* stage, size_t offset,
                       const std::string& what)
        : std::runtime_error(Format(stage, offset, what)),
          stage_(stage),
          offset_(offset) {}

    /** Decode stage that rejected the input, or nullptr if unknown. */
    const char* Stage() const noexcept { return stage_; }

    /** Byte offset within that stage's payload, or kNoOffset. */
    size_t Offset() const noexcept { return offset_; }

 private:
    static std::string
    Format(const char* stage, size_t offset, const std::string& what)
    {
        std::string m = "fpcomp: corrupt stream: ";
        if (stage != nullptr) {
            m += '[';
            m += stage;
            if (offset != kNoOffset) {
                m += " @ byte ";
                m += std::to_string(offset);
            }
            m += "] ";
        }
        m += what;
        return m;
    }

    const char* stage_;
    size_t offset_;
};

/** Thrown on API misuse (bad arguments, unknown algorithm ids, ...). */
class UsageError : public std::invalid_argument {
 public:
    explicit UsageError(const std::string& what)
        : std::invalid_argument("fpcomp: " + what) {}
};

/**
 * Internal invariant check. Unlike assert() it is active in release builds;
 * codec correctness must not depend on the build type.
 */
#define FPC_CHECK(cond, msg)                                                  \
    do {                                                                      \
        if (!(cond)) {                                                        \
            std::fprintf(stderr, "fpcomp internal error: %s (%s:%d)\n",       \
                         msg, __FILE__, __LINE__);                            \
            std::abort();                                                     \
        }                                                                     \
    } while (0)

/** Validation of untrusted (compressed) input; throws instead of aborting. */
#define FPC_PARSE_CHECK(cond, msg)                                            \
    do {                                                                      \
        if (!(cond)) throw ::fpc::CorruptStreamError(msg);                    \
    } while (0)

/** FPC_PARSE_CHECK with stage name / byte offset attached to the error. */
#define FPC_PARSE_CHECK_AT(cond, msg, stage, offset)                          \
    do {                                                                      \
        if (!(cond)) {                                                        \
            throw ::fpc::CorruptStreamError((stage), (offset), (msg));        \
        }                                                                     \
    } while (0)

/** Reinterpret a value's object representation as another same-sized type. */
template <typename To, typename From>
inline To
BitCastTo(const From& from)
{
    static_assert(sizeof(To) == sizeof(From));
    To to;
    std::memcpy(&to, &from, sizeof(To));
    return to;
}

/** Append a span of bytes: an uninitialised resize plus one memcpy
 *  (vector::insert would copy element by element under a non-std
 *  allocator). */
inline void
AppendBytes(Bytes& out, ByteSpan span)
{
    if (span.empty()) return;
    const size_t base = out.size();
    out.resize(base + span.size());
    std::memcpy(out.data() + base, span.data(), span.size());
}

/** Replace @p out's contents with @p span (one memcpy; vector::assign
 *  would copy element by element under a non-std allocator). */
inline void
AssignBytes(Bytes& out, ByteSpan span)
{
    out.clear();
    AppendBytes(out, span);
}

/** Append raw bytes of a trivially copyable value to a byte vector. */
template <typename T>
inline void
AppendRaw(Bytes& out, const T& value)
{
    AppendBytes(out, ByteSpan(reinterpret_cast<const std::byte*>(&value),
                              sizeof(T)));
}

/** Read a trivially copyable value at a byte offset (bounds-checked). */
template <typename T>
inline T
ReadRaw(ByteSpan in, size_t offset)
{
    // Subtract-form bounds check: `offset + sizeof(T)` would wrap for an
    // attacker-controlled offset near SIZE_MAX and pass the naive check.
    FPC_PARSE_CHECK(offset <= in.size() && sizeof(T) <= in.size() - offset,
                    "read past end");
    T value;
    std::memcpy(&value, in.data() + offset, sizeof(T));
    return value;
}

/** View a vector of arithmetic values as bytes. */
template <typename T>
inline ByteSpan
AsBytes(const std::vector<T>& v)
{
    return ByteSpan(reinterpret_cast<const std::byte*>(v.data()),
                    v.size() * sizeof(T));
}

template <typename T>
inline ByteSpan
AsBytes(std::span<const T> v)
{
    return ByteSpan(reinterpret_cast<const std::byte*>(v.data()),
                    v.size() * sizeof(T));
}

/** Copy the whole-word prefix of a byte span into a typed vector. */
template <typename T>
inline std::vector<T>
LoadWords(ByteSpan in)
{
    std::vector<T> words(in.size() / sizeof(T));
    if (!words.empty()) {
        std::memcpy(words.data(), in.data(), words.size() * sizeof(T));
    }
    return words;
}

/** LoadWords into a caller-provided (capacity-retaining) vector. */
template <typename T>
inline void
LoadWordsInto(ByteSpan in, std::vector<T>& words)
{
    words.resize(in.size() / sizeof(T));
    if (!words.empty()) {
        std::memcpy(words.data(), in.data(), words.size() * sizeof(T));
    }
}

/** Read the @p i-th T-sized word of @p in (unaligned load). */
template <typename T>
inline T
WordAt(ByteSpan in, size_t i)
{
    T v;
    std::memcpy(&v, in.data() + i * sizeof(T), sizeof(T));
    return v;
}

/** The fixed chunk size used by every chunked stage (paper Section 3). */
inline constexpr size_t kChunkSize = 16384;

/** MPLG subchunk size: 32 subchunks per chunk (paper Section 3.1). */
inline constexpr size_t kSubchunkSize = 512;

/**
 * Slack added on top of the destination chunk size to form a chunk's decode
 * budget (ScratchArena::DecodeBudget). Legitimately encoded intermediate
 * stage outputs exceed the chunk size only by per-stage framing: an 8-byte
 * size header per stage plus the adaptive transforms' bitmap framing
 * (~ chunk/8 bits compressed, well under 1 KiB per stage at 16 KiB chunks).
 * 2 KiB covers the deepest pipeline (DIFFMS+RAZE+RARE) with margin.
 */
inline constexpr size_t kChunkDecodeSlack = 2048;

}  // namespace fpc

#endif  // FPC_UTIL_COMMON_H
