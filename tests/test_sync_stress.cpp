// Dynamic twin of the static capability annotations (DESIGN.md §12):
// hammers the annotated primitives — GuardedCell and SharedIncumbent —
// from many threads and asserts schedule-independent invariants against
// serial ground truth.
// Runs in every flavor; under -DBFLY_SANITIZE=thread (`ctest -L tsan`)
// tsan additionally checks the lock discipline the annotations promise.
//
// The invariants are chosen to be exact under any interleaving:
//
//   * N threads bumping a GuardedCell counter K times each: the final
//     value is exactly N * K iff no increment was lost.
//   * N threads publishing capacities into a SharedIncumbent: the final
//     capacity is the global minimum, and the surviving side vector is
//     the one published with it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/sync.hpp"
#include "core/thread_pool.hpp"
#include "cut/incumbent.hpp"

namespace bfly {
namespace {

constexpr unsigned kThreads = 8;

TEST(SyncStress, GuardedCellLosesNoIncrements) {
  constexpr std::uint64_t kIncrements = 20000;
  sync::GuardedCell<std::uint64_t> cell;
  std::atomic<bool> done{false};

  std::thread reader([&cell, &done] {
    // Concurrent snapshots must be monotone partial sums, never torn.
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const std::uint64_t v = cell.load();
      ASSERT_GE(v, last);
      ASSERT_LE(v, kThreads * kIncrements);
      last = v;
    }
  });

  TaskGroup group(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    group.add([&cell] {
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        cell.with([](std::uint64_t& v) { ++v; });
      }
    });
  }
  group.wait();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(cell.load(), kThreads * kIncrements);
}

TEST(SyncStress, SharedIncumbentConvergesToGlobalMinimum) {
  // Thread t publishes a deterministic capacity schedule; the side
  // vector encodes the capacity so the winner's snapshot is checkable.
  constexpr std::size_t kNodes = 16;
  constexpr std::size_t kRounds = 500;
  cut::SharedIncumbent incumbent;

  auto sides_for = [](std::size_t capacity) {
    std::vector<std::uint8_t> s(kNodes, 0);
    for (std::size_t b = 0; b < kNodes; ++b) {
      s[b] = static_cast<std::uint8_t>((capacity >> b) & 1u);
    }
    return s;
  };

  std::size_t global_min = cut::SharedIncumbent::kUnset;
  std::vector<std::vector<std::size_t>> schedules(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    SplitMix64 sm(0xabcdull * (t + 1));
    auto& sched = schedules[t];
    sched.reserve(kRounds);
    for (std::size_t r = 0; r < kRounds; ++r) {
      // Capacities in [1, 2^20]: strictly positive so kUnset never wins.
      const std::size_t cap =
          static_cast<std::size_t>(sm.next() % (1u << 20)) + 1;
      sched.push_back(cap);
      global_min = std::min(global_min, cap);
    }
  }

  TaskGroup group(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    group.add([&incumbent, &schedules, &sides_for, t] {
      for (const std::size_t cap : schedules[t]) {
        incumbent.publish(cap, sides_for(cap));
      }
    });
  }
  group.wait();

  EXPECT_EQ(incumbent.capacity(), global_min);
  // The surviving snapshot must be the one published WITH the winning
  // capacity — publish() swaps capacity and sides under one lock.
  EXPECT_EQ(incumbent.sides(), sides_for(global_min));
}

}  // namespace
}  // namespace bfly
