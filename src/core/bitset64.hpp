// Dynamic bitset over 64-bit words.
//
// Used by the exact solvers to represent node subsets; sized at runtime,
// supports popcount, word-level iteration, and the fused and_count that
// the bitset-parallel branch-and-bound is built on. The exact frontier
// fits in one or two words, so the word loops are plain std::popcount
// loops; the search's two dispatched scans live in core/simd.hpp. Bits
// above size() are always zero — the invariant the whole-word loops
// rely on.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/error.hpp"

namespace bfly {

class Bitset64 {
 public:
  Bitset64() = default;

  explicit Bitset64(std::size_t nbits)
      : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return nbits_; }

  void set(std::size_t i) {
    BFLY_ASSERT(i < nbits_);
    words_[i >> 6] |= (1ull << (i & 63));
  }

  void reset(std::size_t i) {
    BFLY_ASSERT(i < nbits_);
    words_[i >> 6] &= ~(1ull << (i & 63));
  }

  void flip(std::size_t i) {
    BFLY_ASSERT(i < nbits_);
    words_[i >> 6] ^= (1ull << (i & 63));
  }

  [[nodiscard]] bool test(std::size_t i) const {
    BFLY_ASSERT(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1ull;
  }

  void clear() noexcept {
    for (auto& w : words_) w = 0;
  }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }

  [[nodiscard]] bool any() const noexcept {
    for (auto w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Calls fn(index) for every set bit, in increasing index order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int b = std::countr_zero(w);
        fn(wi * 64 + static_cast<std::size_t>(b));
        w &= w - 1;
      }
    }
  }

  /// popcount(*this & other) without materializing the intersection —
  /// the inner-loop primitive of the bitset branch-and-bound (assigned-
  /// neighbor counts are popcounts of adj[v] & side_mask).
  [[nodiscard]] std::size_t and_count(const Bitset64& other) const {
    BFLY_ASSERT(nbits_ == other.nbits_);
    std::size_t c = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      c += static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
    }
    return c;
  }

  /// Sets every bit in [0, size()).
  void set_all() {
    if (nbits_ == 0) return;
    for (auto& w : words_) w = ~0ull;
    const std::size_t tail = nbits_ & 63;
    if (tail != 0) words_.back() = (1ull << tail) - 1;
  }

  /// Number of 64-bit words backing the bitset.
  [[nodiscard]] std::size_t num_words() const noexcept {
    return words_.size();
  }

  /// Read-only view of the backing words (bit i lives in word i / 64).
  /// Exposed so the exact kernels can fuse multi-operand expressions
  /// (adj[v] & side & ~assigned) in one pass without temporaries.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  friend bool operator==(const Bitset64&, const Bitset64&) = default;

 private:
  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace bfly
