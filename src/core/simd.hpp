// Runtime-dispatched SIMD scans for the bitset branch-and-bound.
//
// The exact search spends its time in two candidate scans over the
// unassigned set: the most-constrained branching argmax and the
// assignment-count bound's difference histogram. This header exposes
// those two scans as a table of function pointers with two
// implementations — portable scalar and AVX2 — selected once at startup
// by cpuid and overridable for testing:
//
//   * `BFLY_SIMD_DISPATCH={scalar,avx2}` in the environment pins the
//     level before first use (unknown names are ignored and requests
//     above the detected level are clamped, both loudly);
//   * set_active_level() switches at runtime for differential tests and
//     the bench's --dispatch rows. It must not race in-flight solver
//     calls — flip it between runs, not during them.
//
// The AVX2 table is bit-identical to the scalar reference by contract:
// same results on every input including tail groups (bit counts not
// divisible by 8) and zero-length masks, and select_max_key reproduces
// the scalar first-max-in-index-order tie break exactly, so solver node
// counts are dispatch-invariant. tests/test_simd_kernels.cpp enforces
// this differentially; the scalar path is the reference, never removed.
//
// Configure-time: the AVX2 paths compile only under BFLY_SIMD=ON (the
// default) on x86-64 GCC/Clang, via per-function target attributes — no
// global -mavx* flags, so one binary carries both levels and plain
// builds stay portable. With BFLY_SIMD=OFF (or off-x86) only the scalar
// table exists and detected_level() reports kScalar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bfly::simd {

enum class DispatchLevel : int {
  kScalar = 0,  ///< portable bit walks (the differential reference)
  kAvx2 = 1,    ///< 256-bit lanes, 8 packed candidates per step
};

/// "scalar" / "avx2".
[[nodiscard]] const char* to_string(DispatchLevel level) noexcept;

/// Parses a level name (the env-override / --dispatch vocabulary).
/// Returns false and leaves `out` untouched on an unknown name.
[[nodiscard]] bool parse_level(std::string_view name,
                               DispatchLevel& out) noexcept;

/// Best level this build AND this CPU support (cpuid-detected once).
[[nodiscard]] DispatchLevel detected_level() noexcept;

/// Level the kernel table currently dispatches to. Starts at
/// detected_level() unless BFLY_SIMD_DISPATCH pinned it lower.
[[nodiscard]] DispatchLevel active_level() noexcept;

/// Switches the active level. Returns false (and changes nothing) when
/// the request exceeds detected_level(). Not safe to call while solver
/// threads are running — the table pointer is a relaxed atomic, so a
/// racing reader would see a torn *schedule*, never torn data, but the
/// differential contract (same level for a whole run) would be void.
bool set_active_level(DispatchLevel level) noexcept;

/// The dispatched scans. Mask pointers are to little-endian 64-bit
/// words; `nbits == 0` is valid everywhere (zero-length mask). Callers
/// guarantee bits above a mask's logical size are zero — the Bitset64
/// invariant — so the scans need no tail masking.
struct KernelTable {
  /// Most-constrained branching scan: over the set bits i of
  /// mask[0..nbits), maximize
  ///     key(i) = (|a0[i]-a1[i]| << 42) | ((a0[i]+a1[i]) << 21) | deg[i]
  /// returning the SMALLEST index among the maxima (scalar first-max
  /// semantics — ties keep the earlier index). Returns SIZE_MAX when no
  /// bit is set. a0/a1/deg have nbits entries; every field must fit its
  /// 21-bit lane (true for any graph this library solves exactly).
  /// `max_value` bounds every a0/a1/deg entry (the caller passes the
  /// graph's max degree); when it is < 1024 the vector paths compare
  /// 32-bit packed keys (diff << 21 | sum << 10 | deg) — the same field
  /// order with no overflow, hence the identical argmax — at twice the
  /// lane density.
  std::size_t (*select_max_key)(const std::uint64_t* mask, std::size_t nbits,
                                const std::uint32_t* a0,
                                const std::uint32_t* a1,
                                const std::uint32_t* deg,
                                std::uint32_t max_value);
  /// Fused preference/difference histogram over the set bits i of
  /// mask[0..nbits) — the branch-and-bound assignment-count bound's
  /// scan. For each set i with d = a0[i] - a1[i]:
  ///   d > 0: ++p01[0], ++bucket0[d];   d < 0: ++p01[1], ++bucket1[-d].
  /// Accumulates into caller-zeroed p01[2] and bucket0/bucket1[0 ..
  /// max_diff] (|d| <= max_diff, the graph's max degree; the caller
  /// sizes the buckets). Pure commutative accumulation, so lane order
  /// never shows: all levels produce equal counters.
  void (*diff_histogram)(const std::uint64_t* mask, std::size_t nbits,
                         const std::uint32_t* a0, const std::uint32_t* a1,
                         std::uint32_t max_diff, std::uint32_t* p01,
                         std::uint32_t* bucket0, std::uint32_t* bucket1);
};

/// Kernel table for the active level. One relaxed atomic load; cache
/// the reference across a tight loop if the indirection ever shows up.
[[nodiscard]] const KernelTable& kernels() noexcept;

/// Kernel table for a specific level, active or not (differential tests
/// compare levels side by side without flipping the global). Levels
/// above detected_level() return tables that would fault on this CPU —
/// callers check detected_level() first.
[[nodiscard]] const KernelTable& kernels_for(DispatchLevel level) noexcept;

}  // namespace bfly::simd
