/**
 * @file
 * Small bit-manipulation helpers used by address mapping and table
 * indexing code. All functions are constexpr and branch-light; several
 * assert on preconditions in debug builds.
 */

#ifndef CAMEO_UTIL_BITOPS_HH
#define CAMEO_UTIL_BITOPS_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <string_view>

namespace cameo
{

/** True iff @p v is a power of two (zero is not). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2(v). Precondition: v != 0. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    assert(v != 0);
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** Exact log2(v). Precondition: v is a power of two. */
constexpr unsigned
exactLog2(std::uint64_t v)
{
    assert(isPowerOfTwo(v));
    return floorLog2(v);
}

/** Smallest power of two >= v. Precondition: v != 0. */
constexpr std::uint64_t
nextPowerOfTwo(std::uint64_t v)
{
    assert(v != 0);
    return std::bit_ceil(v);
}

/** Extract bits [lo, lo+count) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned lo, unsigned count)
{
    assert(count <= 64 && lo < 64);
    const std::uint64_t mask =
        count >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << count) - 1);
    return (v >> lo) & mask;
}

/** Ceiling division for unsigned integers. Precondition: d != 0. */
constexpr std::uint64_t
divCeil(std::uint64_t n, std::uint64_t d)
{
    assert(d != 0);
    return (n + d - 1) / d;
}

/** Align @p v up to a multiple of @p a (a must be a power of two). */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t a)
{
    assert(isPowerOfTwo(a));
    return (v + a - 1) & ~(a - 1);
}

/**
 * Mix bits of a 64-bit value into a well-distributed hash
 * (finalizer from SplitMix64). Used for PC-index hashing.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/**
 * FNV-1a over a byte string. Used wherever a stable, portable 64-bit
 * digest of a cache/shard key is needed (trace-arena file names, shard
 * assignment) — stability across runs and hosts is the point, so this
 * must never change.
 */
constexpr std::uint64_t
fnv1a64(std::string_view text,
        std::uint64_t seed = 1469598103934665603ULL)
{
    std::uint64_t hash = seed;
    for (const char c : text) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

} // namespace cameo

#endif // CAMEO_UTIL_BITOPS_HH
