#include "core/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>

// The AVX2 paths use per-function target attributes, so they compile
// into every binary without global -m flags and are safe to *link* on
// any x86-64 — only calling them requires the CPU feature, which the
// cpuid gate below guarantees. Non-x86 targets, MSVC-style drivers, and
// BFLY_SIMD=OFF builds compile the scalar table only.
#if defined(BFLY_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define BFLY_SIMD_X86 1
#include <immintrin.h>
#endif

namespace bfly::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These ARE the semantics: every vector
// kernel below must match them bit for bit on every input.
// ---------------------------------------------------------------------------

// The branching key of cut/branch_bound.cpp's select_next, verbatim:
// side-count difference, then activity, then degree.
inline std::uint64_t branch_key(const std::uint32_t* a0,
                                const std::uint32_t* a1,
                                const std::uint32_t* deg, std::size_t i) {
  const std::uint32_t x = a0[i];
  const std::uint32_t y = a1[i];
  const std::uint32_t diff = x > y ? x - y : y - x;
  return (static_cast<std::uint64_t>(diff) << 42) |
         (static_cast<std::uint64_t>(x + y) << 21) |
         static_cast<std::uint64_t>(deg[i]);
}

std::size_t select_max_key_scalar(const std::uint64_t* mask, std::size_t nbits,
                                  const std::uint32_t* a0,
                                  const std::uint32_t* a1,
                                  const std::uint32_t* deg,
                                  std::uint32_t /*max_value*/) {
  const std::size_t words = (nbits + 63) / 64;
  // Keys are offset by one so "nothing found" is exactly best == 0 and
  // a strictly-greater compare reproduces first-max-in-index-order.
  std::uint64_t best_key = 0;
  std::size_t best = static_cast<std::size_t>(-1);
  for (std::size_t wi = 0; wi < words; ++wi) {
    std::uint64_t w = mask[wi];
    while (w != 0) {
      const std::size_t i =
          wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      const std::uint64_t key = branch_key(a0, a1, deg, i) + 1;
      if (key > best_key) {
        best_key = key;
        best = i;
      }
    }
  }
  return best;
}

void diff_histogram_scalar(const std::uint64_t* mask, std::size_t nbits,
                           const std::uint32_t* a0, const std::uint32_t* a1,
                           std::uint32_t /*max_diff*/, std::uint32_t* p01,
                           std::uint32_t* bucket0, std::uint32_t* bucket1) {
  const std::size_t words = (nbits + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    std::uint64_t w = mask[wi];
    while (w != 0) {
      const std::size_t i =
          wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      const std::uint32_t x = a0[i];
      const std::uint32_t y = a1[i];
      if (x > y) {
        ++p01[0];
        ++bucket0[x - y];
      } else if (y > x) {
        ++p01[1];
        ++bucket1[y - x];
      }
    }
  }
}

constexpr KernelTable kScalarTable = {select_max_key_scalar,
                                      diff_histogram_scalar};

// The vector candidate scans pay a fixed per-call cost (group setup,
// horizontal reduction, field-accumulator flush); with only a handful
// of set bits — the deep-in-tree common case, where most search nodes
// live — the scalar bit walk is cheaper, so those kernels delegate
// below this population. Threshold picked empirically on the B16/W32
// probes; results are bit-identical either way, so it only moves time.
inline bool sparse_mask(const std::uint64_t* mask, std::size_t words) {
  std::uint64_t pop = 0;
  for (std::size_t i = 0; i < words; ++i) {
    pop += static_cast<std::uint64_t>(std::popcount(mask[i]));
    if (pop > 16) return false;
  }
  return true;
}

#if defined(BFLY_SIMD_X86)

// ---------------------------------------------------------------------------
// AVX2 kernels: 256-bit lanes, 8 packed or 4 wide candidates per step.
// popcnt is in the target set for the scalar tails (every AVX2 CPU has
// it; the cpuid gate checks anyway).
// ---------------------------------------------------------------------------

// Wide-field (64-bit key) scan, 4 candidates per step: the fallback for
// graphs whose degrees overflow the packed 32-bit key. The mask word is
// walked nibble by nibble (skipping zero nibbles), each nibble selecting
// up to 4 lanes of a 4x64-bit key vector; a strictly-greater blend keeps
// the earliest index per lane, and the horizontal reduction breaks key
// ties toward the smaller index — together exactly the scalar first-max
// semantics. Keys are biased by +1 so empty lanes (key 0) never win;
// biased keys stay < 2^63, so the signed epi64 compare is order-exact.
__attribute__((target("avx2,popcnt"))) std::size_t select_max_key_avx2_wide(
    const std::uint64_t* mask, std::size_t nbits, const std::uint32_t* a0,
    const std::uint32_t* a1, const std::uint32_t* deg) {
  const std::size_t words = (nbits + 63) / 64;
  const __m256i lane_bits = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i lane_idx = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i one = _mm256_set1_epi64x(1);
  __m256i best_key = _mm256_setzero_si256();
  __m256i best_idx = _mm256_setzero_si256();
  // The final partial 4-group (when nbits % 4 != 0) falls back to
  // scalar; its indices are larger than every vector-processed index,
  // so a strictly-greater merge at the end preserves the tie break.
  std::uint64_t tail_key = 0;
  std::size_t tail_idx = static_cast<std::size_t>(-1);
  for (std::size_t wi = 0; wi < words; ++wi) {
    std::uint64_t w = mask[wi];
    while (w != 0) {
      const int g = std::countr_zero(w) >> 2;
      const std::uint64_t nib =
          (w >> (4 * g)) & 0xfull;
      w &= ~(0xfull << (4 * g));
      const std::size_t base = wi * 64 + 4 * static_cast<std::size_t>(g);
      if (base + 4 <= nbits) {
        const __m128i va0 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a0 + base));
        const __m128i va1 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a1 + base));
        const __m128i vdeg =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(deg + base));
        const __m128i diff = _mm_sub_epi32(_mm_max_epu32(va0, va1),
                                           _mm_min_epu32(va0, va1));
        const __m128i sum = _mm_add_epi32(va0, va1);
        __m256i key = _mm256_or_si256(
            _mm256_slli_epi64(_mm256_cvtepu32_epi64(diff), 42),
            _mm256_or_si256(
                _mm256_slli_epi64(_mm256_cvtepu32_epi64(sum), 21),
                _mm256_cvtepu32_epi64(vdeg)));
        key = _mm256_add_epi64(key, one);
        const __m256i member = _mm256_cmpeq_epi64(
            _mm256_and_si256(_mm256_set1_epi64x(static_cast<long long>(nib)),
                             lane_bits),
            lane_bits);
        key = _mm256_and_si256(key, member);
        const __m256i idx = _mm256_add_epi64(
            _mm256_set1_epi64x(static_cast<long long>(base)), lane_idx);
        const __m256i gt = _mm256_cmpgt_epi64(key, best_key);
        best_key = _mm256_blendv_epi8(best_key, key, gt);
        best_idx = _mm256_blendv_epi8(best_idx, idx, gt);
      } else {
        for (std::uint64_t bits = nib; bits != 0; bits &= bits - 1) {
          const std::size_t i =
              base + static_cast<std::size_t>(std::countr_zero(bits));
          const std::uint64_t key = branch_key(a0, a1, deg, i) + 1;
          if (key > tail_key) {
            tail_key = key;
            tail_idx = i;
          }
        }
      }
    }
  }
  alignas(32) std::uint64_t keys[4];
  alignas(32) std::uint64_t idxs[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(keys), best_key);
  _mm256_store_si256(reinterpret_cast<__m256i*>(idxs), best_idx);
  std::uint64_t bk = 0;
  std::size_t bi = static_cast<std::size_t>(-1);
  for (int l = 0; l < 4; ++l) {
    if (keys[l] > bk ||
        (keys[l] != 0 && keys[l] == bk && idxs[l] < static_cast<std::uint64_t>(bi))) {
      bk = keys[l];
      bi = static_cast<std::size_t>(idxs[l]);
    }
  }
  if (tail_key > bk) {
    bk = tail_key;
    bi = tail_idx;
  }
  return bi;
}

// Packed-key (32-bit) scan, 8 candidates per step: when every input
// value is < 1024, key32 = (diff << 21) | (sum << 10) | deg keeps the
// same (diff, sum, deg) lexicographic order as the 64-bit key with no
// field overflow (diff << 21 <= 1023 * 2^21; + sum << 10 + deg + the
// +1 bias stays < 2^31, so the signed epi32 compare is order-exact) —
// and the scan runs at twice the lane density with no widening shuffles.
// The mask word is walked byte by byte, skipping zero bytes.
__attribute__((target("avx2,popcnt"))) std::size_t select_max_key_avx2(
    const std::uint64_t* mask, std::size_t nbits, const std::uint32_t* a0,
    const std::uint32_t* a1, const std::uint32_t* deg,
    std::uint32_t max_value) {
  const std::size_t words = (nbits + 63) / 64;
  if (sparse_mask(mask, words)) {
    return select_max_key_scalar(mask, nbits, a0, a1, deg, max_value);
  }
  if (max_value >= 1024) {
    return select_max_key_avx2_wide(mask, nbits, a0, a1, deg);
  }
  const __m256i lane_bits =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i one = _mm256_set1_epi32(1);
  __m256i best_key = _mm256_setzero_si256();
  __m256i best_idx = _mm256_setzero_si256();
  std::uint64_t tail_key = 0;
  std::size_t tail_idx = static_cast<std::size_t>(-1);
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::uint64_t w = mask[wi];
    if (w == 0) continue;
    // Fixed 8-group walk (predictable branches on dense masks, which is
    // what the search sees); full bytes — the common case mid-search —
    // skip the lane-membership arithmetic entirely.
    for (int g = 0; g < 8; ++g) {
      const std::uint64_t byte = (w >> (8 * g)) & 0xffull;
      if (byte == 0) continue;
      const std::size_t base = wi * 64 + 8 * static_cast<std::size_t>(g);
      if (base + 8 <= nbits) {
        const __m256i va0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + base));
        const __m256i va1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + base));
        const __m256i vdeg =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(deg + base));
        const __m256i diff = _mm256_sub_epi32(_mm256_max_epu32(va0, va1),
                                              _mm256_min_epu32(va0, va1));
        const __m256i sum = _mm256_add_epi32(va0, va1);
        __m256i key = _mm256_add_epi32(
            _mm256_or_si256(
                _mm256_slli_epi32(diff, 21),
                _mm256_or_si256(_mm256_slli_epi32(sum, 10), vdeg)),
            one);
        if (byte != 0xff) {
          const __m256i member = _mm256_cmpeq_epi32(
              _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(byte)),
                               lane_bits),
              lane_bits);
          key = _mm256_and_si256(key, member);
        }
        const __m256i idx = _mm256_add_epi32(
            _mm256_set1_epi32(static_cast<int>(base)), lane_idx);
        const __m256i gt = _mm256_cmpgt_epi32(key, best_key);
        best_key = _mm256_blendv_epi8(best_key, key, gt);
        best_idx = _mm256_blendv_epi8(best_idx, idx, gt);
      } else {
        for (std::uint64_t bits = byte; bits != 0; bits &= bits - 1) {
          const std::size_t i =
              base + static_cast<std::size_t>(std::countr_zero(bits));
          const std::uint64_t key = branch_key(a0, a1, deg, i) + 1;
          if (key > tail_key) {
            tail_key = key;
            tail_idx = i;
          }
        }
      }
    }
  }
  // Horizontal reduction: broadcast the max key with shuffle/max steps,
  // then take the smallest index among the lanes holding it (per-lane
  // overwrites are strictly-greater only, so each such lane already
  // holds its own earliest index — the cross-lane min finishes the
  // scalar first-max tie break).
  __m256i m = _mm256_max_epu32(
      best_key, _mm256_permute2x128_si256(best_key, best_key, 1));
  m = _mm256_max_epu32(m, _mm256_shuffle_epi32(m, 0x4e));
  m = _mm256_max_epu32(m, _mm256_shuffle_epi32(m, 0xb1));
  const std::uint32_t bk = static_cast<std::uint32_t>(
      _mm256_extract_epi32(m, 0));
  std::size_t bi = static_cast<std::size_t>(-1);
  if (bk != 0) {
    unsigned hit = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(
            _mm256_cmpeq_epi32(best_key, m))));
    alignas(32) std::uint32_t idxs[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(idxs), best_idx);
    std::uint32_t bmin = ~0u;
    for (; hit != 0; hit &= hit - 1) {
      const std::uint32_t cand =
          idxs[std::countr_zero(static_cast<std::uint32_t>(hit))];
      if (cand < bmin) bmin = cand;
    }
    bi = bmin;
  }
  // The scalar tail's 64-bit key collapses to the 32-bit packing order,
  // and its indices exceed every vector index, so strictly-greater is
  // again the exact merge. Rebuild the packed form for the comparison.
  if (tail_idx != static_cast<std::size_t>(-1)) {
    const std::uint32_t x = a0[tail_idx];
    const std::uint32_t y = a1[tail_idx];
    const std::uint32_t d = x > y ? x - y : y - x;
    const std::uint32_t packed = (d << 21) | ((x + y) << 10) | deg[tail_idx];
    if (packed + 1 > bk) {
      bi = tail_idx;
    }
  }
  return bi;
}

// 8-lane histogram. Fast path (diffs <= 4, the butterfly-family case):
// every candidate deposits ONE bit-field increment per side — the diff
// d scales to a 12-bit field at bit 12*d of a 64-bit lane accumulator
// via a variable shift, so a whole group costs one sub/bias/scale/
// widen/shift chain with no movemask/popcount domain crossings at all.
// Both sides share the accumulator: the SIGNED diff d in [-4, 4] maps
// to a 7-bit field at bit (d + 4) * 7 — bucket1 counts sit below the
// center, bucket0 counts above, and the center field 4 absorbs ties
// and non-member lanes (never read back). Field capacity 127 with one
// hit per lane per group bounds the path to 15 words (nbits <= 960),
// ample for the exact frontier (n <= 64 proofs, n <= a few hundred
// budgeted sweeps). Larger bitsets and degrees 5..16 use per-bucket
// equality movemasks; degrees above 16 fall back to the scalar
// reference. The counters are commutative sums, so every path produces
// equal results.
__attribute__((target("avx2,popcnt"))) void diff_histogram_avx2(
    const std::uint64_t* mask, std::size_t nbits, const std::uint32_t* a0,
    const std::uint32_t* a1, std::uint32_t max_diff, std::uint32_t* p01,
    std::uint32_t* bucket0, std::uint32_t* bucket1) {
  const std::size_t words = (nbits + 63) / 64;
  if (max_diff > 16 || sparse_mask(mask, words)) {
    diff_histogram_scalar(mask, nbits, a0, a1, max_diff, p01, bucket0,
                          bucket1);
    return;
  }
  const __m256i lane_bits =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones64 = _mm256_set1_epi64x(1);
  const __m256i bias = _mm256_set1_epi32(4);
  const bool fields = max_diff <= 4 && words <= 15;
  __m256i acc_lo = zero, acc_hi = zero;
  std::uint32_t p0 = 0, p1 = 0;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::uint64_t w = mask[wi];
    if (w == 0) continue;
    for (int g = 0; g < 8; ++g) {
      const std::uint64_t byte = (w >> (8 * g)) & 0xffull;
      if (byte == 0) continue;
      const std::size_t base = wi * 64 + 8 * static_cast<std::size_t>(g);
      if (base + 8 <= nbits) {
        const __m256i va0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + base));
        const __m256i va1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + base));
        __m256i member = _mm256_set1_epi32(-1);
        if (byte != 0xff) {
          member = _mm256_cmpeq_epi32(
              _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(byte)),
                               lane_bits),
              lane_bits);
        }
        if (fields) {
          // Counts are < 2^26, so the subtraction stays in signed range.
          // Non-members blend to the ignored center field (db == 4).
          const __m256i db = _mm256_blendv_epi8(
              bias,
              _mm256_add_epi32(_mm256_sub_epi32(va0, va1), bias), member);
          // Field bit offset 7*db = 8*db - db; widen per 128-bit half.
          const __m256i s = _mm256_sub_epi32(_mm256_slli_epi32(db, 3), db);
          acc_lo = _mm256_add_epi64(
              acc_lo, _mm256_sllv_epi64(ones64, _mm256_cvtepu32_epi64(
                                                    _mm256_castsi256_si128(
                                                        s))));
          acc_hi = _mm256_add_epi64(
              acc_hi, _mm256_sllv_epi64(ones64, _mm256_cvtepu32_epi64(
                                                    _mm256_extracti128_si256(
                                                        s, 1))));
        } else {
          const __m256i d0 = _mm256_and_si256(
              _mm256_max_epi32(_mm256_sub_epi32(va0, va1), zero), member);
          const __m256i d1 = _mm256_and_si256(
              _mm256_max_epi32(_mm256_sub_epi32(va1, va0), zero), member);
          p0 += static_cast<std::uint32_t>(std::popcount(
              static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(
                  _mm256_cmpgt_epi32(d0, zero))))));
          p1 += static_cast<std::uint32_t>(std::popcount(
              static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(
                  _mm256_cmpgt_epi32(d1, zero))))));
          for (std::uint32_t d = 1; d <= max_diff; ++d) {
            const __m256i vd = _mm256_set1_epi32(static_cast<int>(d));
            bucket0[d] += static_cast<std::uint32_t>(std::popcount(
                static_cast<unsigned>(_mm256_movemask_ps(
                    _mm256_castsi256_ps(_mm256_cmpeq_epi32(d0, vd))))));
            bucket1[d] += static_cast<std::uint32_t>(std::popcount(
                static_cast<unsigned>(_mm256_movemask_ps(
                    _mm256_castsi256_ps(_mm256_cmpeq_epi32(d1, vd))))));
          }
        }
      } else {
        for (std::uint64_t bits = byte; bits != 0; bits &= bits - 1) {
          const std::size_t i =
              base + static_cast<std::size_t>(std::countr_zero(bits));
          const std::uint32_t x = a0[i];
          const std::uint32_t y = a1[i];
          if (x > y) {
            ++p0;
            ++bucket0[x - y];
          } else if (y > x) {
            ++p1;
            ++bucket1[y - x];
          }
        }
      }
    }
  }
  if (fields) {
    alignas(32) std::uint64_t f[2][4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(f[0]), acc_lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(f[1]), acc_hi);
    // Decompose per lane (lane fields stay < 128; cross-lane sums may
    // not, so sum after extraction).
    for (std::uint32_t d = 1; d <= max_diff; ++d) {
      std::uint32_t c0 = 0, c1 = 0;
      for (int l = 0; l < 4; ++l) {
        c0 += static_cast<std::uint32_t>((f[0][l] >> (7 * (4 + d))) & 0x7f) +
              static_cast<std::uint32_t>((f[1][l] >> (7 * (4 + d))) & 0x7f);
        c1 += static_cast<std::uint32_t>((f[0][l] >> (7 * (4 - d))) & 0x7f) +
              static_cast<std::uint32_t>((f[1][l] >> (7 * (4 - d))) & 0x7f);
      }
      bucket0[d] += c0;
      bucket1[d] += c1;
      p0 += c0;
      p1 += c1;
    }
  }
  p01[0] += p0;
  p01[1] += p1;
}

constexpr KernelTable kAvx2Table = {select_max_key_avx2,
                                    diff_histogram_avx2};

#endif  // BFLY_SIMD_X86

const KernelTable* table_for(DispatchLevel level) noexcept {
#if defined(BFLY_SIMD_X86)
  switch (level) {
    case DispatchLevel::kAvx2: return &kAvx2Table;
    case DispatchLevel::kScalar: break;
  }
#else
  (void)level;
#endif
  return &kScalarTable;
}

DispatchLevel detect() noexcept {
#if defined(BFLY_SIMD_X86)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) {
    return DispatchLevel::kAvx2;
  }
#endif
  return DispatchLevel::kScalar;
}

// Detection plus the BFLY_SIMD_DISPATCH pin, evaluated once. An unknown
// name or an over-detection request is reported on stderr and clamped —
// never silently honored (a test asserting "avx2 forced" on a machine
// without it should fail its level check, not fault).
DispatchLevel initial_level() noexcept {
  const DispatchLevel detected = detect();
  const char* env = std::getenv("BFLY_SIMD_DISPATCH");
  if (env == nullptr || *env == '\0') return detected;
  DispatchLevel requested;
  if (!parse_level(env, requested)) {
    std::fprintf(stderr,
                 "bfly: ignoring unknown BFLY_SIMD_DISPATCH='%s' "
                 "(expected scalar or avx2)\n",
                 env);
    return detected;
  }
  if (requested > detected) {
    std::fprintf(stderr,
                 "bfly: BFLY_SIMD_DISPATCH=%s exceeds this build/CPU's "
                 "level %s; clamping\n",
                 to_string(requested), to_string(detected));
    return detected;
  }
  return requested;
}

std::atomic<int>& active_cell() noexcept {
  static std::atomic<int> cell{static_cast<int>(initial_level())};
  return cell;
}

}  // namespace

const char* to_string(DispatchLevel level) noexcept {
  switch (level) {
    case DispatchLevel::kScalar: return "scalar";
    case DispatchLevel::kAvx2: return "avx2";
  }
  return "?";
}

bool parse_level(std::string_view name, DispatchLevel& out) noexcept {
  if (name == "scalar") {
    out = DispatchLevel::kScalar;
  } else if (name == "avx2") {
    out = DispatchLevel::kAvx2;
  } else {
    return false;
  }
  return true;
}

DispatchLevel detected_level() noexcept {
  static const DispatchLevel level = detect();
  return level;
}

DispatchLevel active_level() noexcept {
  return static_cast<DispatchLevel>(
      active_cell().load(std::memory_order_relaxed));
}

bool set_active_level(DispatchLevel level) noexcept {
  if (level > detected_level()) return false;
  active_cell().store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

const KernelTable& kernels() noexcept { return *table_for(active_level()); }

const KernelTable& kernels_for(DispatchLevel level) noexcept {
  return *table_for(level);
}

}  // namespace bfly::simd
