// Tests for the bisection query service (DESIGN.md §14): protocol
// parsing, symmetry-canonical cache keys, the two-tier crash-safe
// cache, and the executor's admission/coalescing/deadline/fault
// behavior. Service tests stage the queue deterministically with
// autostart=false and release it with start().

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <unistd.h>

#include "cut/branch_bound.hpp"
#include "expansion/expansion.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault_injection.hpp"
#include "robust/supervisor.hpp"
#include "service/cache.hpp"
#include "service/daemon.hpp"
#include "service/executor.hpp"
#include "service/request.hpp"

namespace {

using namespace bfly;
namespace fs = std::filesystem;

fs::path temp_cache_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() /
                   ("bfly_test_service_" + name + "_" +
                    std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

/// RAII cleanup so a failing test does not leak its cache directory
/// into the next run.
struct DirGuard {
  fs::path dir;
  explicit DirGuard(fs::path d) : dir(std::move(d)) {}
  ~DirGuard() { fs::remove_all(dir); }
};

service::Request bw(service::Family family, std::uint32_t n,
                    service::Policy policy = service::Policy::kExact) {
  service::Request r;
  r.kind = service::QueryKind::kBisectionWidth;
  r.family = family;
  r.n = n;
  r.policy = policy;
  return r;
}

service::Request boundary(service::Family family, std::uint32_t n,
                          std::uint64_t mask) {
  service::Request r;
  r.kind = service::QueryKind::kBoundary;
  r.family = family;
  r.n = n;
  r.subset_mask = mask;
  return r;
}

/// Oracle for canonical_mask: the mask's whole orbit, closed breadth-
/// first under the group's generators. Sorted ascending, so front() is
/// the lex-min representative the service must pick.
std::vector<std::uint64_t> mask_orbit(const algo::PermutationGroup& group,
                                      std::uint64_t mask) {
  std::unordered_set<std::uint64_t> seen{mask};
  std::vector<std::uint64_t> orbit{mask};
  for (std::size_t i = 0; i < orbit.size(); ++i) {
    for (const algo::Perm& gen : group.generators()) {
      const std::uint64_t im = algo::apply_to_mask(gen, orbit[i]);
      if (seen.insert(im).second) orbit.push_back(im);
    }
  }
  std::sort(orbit.begin(), orbit.end());
  return orbit;
}

/// Collects async responses and lets the test block until N arrived.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<service::Response> responses;

  std::function<void(service::Response)> sink() {
    return [this](service::Response r) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(r));
      cv.notify_all();
    };
  }

  std::vector<service::Response> wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(60),
                [&] { return responses.size() >= n; });
    return responses;
  }
};

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(Protocol, ParsesMinimalBisectionLine) {
  const auto r = service::parse_request("BW b 8");
  EXPECT_EQ(r.kind, service::QueryKind::kBisectionWidth);
  EXPECT_EQ(r.family, service::Family::kButterfly);
  EXPECT_EQ(r.n, 8u);
  EXPECT_EQ(r.policy, service::Policy::kExact);
  EXPECT_EQ(r.deadline_seconds, 0.0);
  EXPECT_EQ(r.node_budget, 0u);
  EXPECT_TRUE(r.id.empty());
}

TEST(Protocol, ParsesAllOptionsAndFamilies) {
  const auto r = service::parse_request(
      "bw wrapped 16 policy=heuristic deadline_ms=500 nodes=12345 id=a.b:c-1");
  EXPECT_EQ(r.family, service::Family::kWrapped);
  EXPECT_EQ(r.n, 16u);
  EXPECT_EQ(r.policy, service::Policy::kHeuristic);
  EXPECT_DOUBLE_EQ(r.deadline_seconds, 0.5);
  EXPECT_EQ(r.node_budget, 12345u);
  EXPECT_EQ(r.id, "a.b:c-1");

  EXPECT_EQ(service::parse_request("BW ccc 8").family, service::Family::kCcc);
  EXPECT_EQ(service::parse_request("BW q 16").family,
            service::Family::kHypercube);
  EXPECT_EQ(service::parse_request("BW HYPERCUBE 16").family,
            service::Family::kHypercube);
}

TEST(Protocol, ParsesBoundaryMask) {
  const auto r = service::parse_request("BOUNDARY b 4 0f id=x");
  EXPECT_EQ(r.kind, service::QueryKind::kBoundary);
  EXPECT_EQ(r.subset_mask, 0xfu);
  EXPECT_EQ(r.id, "x");
}

TEST(Protocol, RejectsMalformedLines) {
  const char* bad[] = {
      "",                          // empty
      "FROB b 8",                  // unknown verb
      "BW martian 8",              // unknown family
      "BW b",                      // missing n
      "BW b eight",                // non-numeric n
      "BW b -8",                   // signed
      "BW b 8x",                   // trailing junk in number
      "BW b 99999999999999999999", // u32 overflow
      "BW b 8 policy=psychic",     // unknown policy
      "BW b 8 deadline_ms=86400001",  // past the 24h cap
      "BW b 8 frobnicate=1",       // unknown option
      "BW b 8 id=no/slash",        // id charset
      "BOUNDARY b 4",              // missing mask
      "BOUNDARY b 4 0xzz",         // bad hex
  };
  for (const char* line : bad) {
    EXPECT_THROW((void)service::parse_request(line), service::ProtocolError)
        << "accepted: " << line;
  }
  // id length cap (64) and the line-size cap.
  EXPECT_THROW((void)service::parse_request("BW b 8 id=" +
                                            std::string(65, 'a')),
               service::ProtocolError);
  EXPECT_THROW((void)service::parse_request(
                   "BW b 8 " + std::string(service::kMaxLineBytes, ' ')),
               service::ProtocolError);
}

TEST(Protocol, FormatResponseRoundsTripAndSanitizes) {
  service::Response ok;
  ok.status = service::Status::kOk;
  ok.id = "q1";
  ok.key = 0x1234abcd5678ef00ull;
  ok.value = 8;
  ok.exact = true;
  ok.source = service::Source::kMemory;
  ok.wall_ms = 0.25;
  const std::string line = service::format_response(ok);
  EXPECT_NE(line.find("OK id=q1 key=1234abcd5678ef00 value=8 exact=1"),
            std::string::npos)
      << line;

  service::Response err;
  err.status = service::Status::kShed;
  err.id = "q2";
  err.detail = "line one\nline two";
  const std::string eline = service::format_response(err);
  EXPECT_NE(eline.find("ERR id=q2 status=shed"), std::string::npos) << eline;
  // A newline smuggled into the detail must not split the response line.
  EXPECT_EQ(eline.find('\n'), std::string::npos) << eline;
}

// ---------------------------------------------------------------------------
// Canonical keys
// ---------------------------------------------------------------------------

TEST(CanonicalKey, SymmetricBoundaryMasksCollide) {
  // Every member of a mask's automorphism orbit must map to the same
  // cache key — that is the whole point of canonicalization.
  const auto group =
      service::automorphism_group(service::Family::kButterfly, 4);
  const std::uint64_t mask = 0x13;  // arbitrary 12-node B4 subset
  const auto orbit = mask_orbit(group, mask);
  ASSERT_GE(orbit.size(), 2u) << "B4 automorphisms should move this mask";
  const std::uint64_t key0 =
      service::canonical_key(boundary(service::Family::kButterfly, 4, mask));
  for (const std::uint64_t m : orbit) {
    EXPECT_EQ(service::canonical_key(
                  boundary(service::Family::kButterfly, 4, m)),
              key0);
  }
}

TEST(CanonicalKey, DistinguishesInstancesButNotPolicy) {
  const auto k_b8 = service::canonical_key(bw(service::Family::kButterfly, 8));
  EXPECT_NE(k_b8, service::canonical_key(bw(service::Family::kButterfly, 4)));
  EXPECT_NE(k_b8, service::canonical_key(bw(service::Family::kWrapped, 8)));
  EXPECT_NE(k_b8, service::canonical_key(
                      boundary(service::Family::kButterfly, 8, 0)));
  // Policy is not part of the identity of the answer.
  EXPECT_EQ(k_b8, service::canonical_key(bw(service::Family::kButterfly, 8,
                                            service::Policy::kHeuristic)));
}

TEST(CanonicalKey, ValidInstanceDomain) {
  EXPECT_TRUE(service::valid_instance(service::Family::kButterfly, 4));
  EXPECT_FALSE(service::valid_instance(service::Family::kButterfly, 3));
  EXPECT_FALSE(service::valid_instance(service::Family::kButterfly, 0));
  EXPECT_FALSE(service::valid_instance(service::Family::kWrapped, 2));
  EXPECT_TRUE(service::valid_instance(service::Family::kWrapped, 4));
  EXPECT_TRUE(service::valid_instance(service::Family::kHypercube, 2));
  // 4096-node service ceiling.
  EXPECT_FALSE(service::valid_instance(service::Family::kHypercube, 8192));
}

// Four threads race to key the same instances, none keyed before in this
// process (ctest runs each test in a process of its own), so they race
// through the one-time element-table build too. They must agree with
// each other and with the orbit oracle.
TEST(CanonicalKey, CanonicalKeyIsThreadSafe) {
  const std::pair<service::Family, std::uint32_t> instances[] = {
      {service::Family::kWrapped, 16},
      {service::Family::kCcc, 16},
      {service::Family::kHypercube, 32},
      {service::Family::kButterfly, 8},
  };
  std::mt19937_64 rng(0x7a5e);
  std::vector<service::Request> reqs;
  for (const auto& [family, n] : instances) {
    const std::uint64_t nodes = service::instance_nodes(family, n);
    const std::uint64_t full =
        nodes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << nodes) - 1;
    for (int i = 0; i < 16; ++i) reqs.push_back(boundary(family, n, rng() & full));
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<std::uint64_t>> keys(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (const service::Request& r : reqs) {
        keys[t].push_back(service::canonical_key(r));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(keys[t], keys[0]);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const service::Request& r = reqs[i];
    const auto orbit = mask_orbit(service::automorphism_group(r.family, r.n),
                                  r.subset_mask);
    EXPECT_EQ(keys[0][i], service::canonical_key(r, orbit.front()));
  }
}

// canonical_mask (least image over the cached element list) against the
// orbit closure: exhaustively where 2^N masks are few, on seeded random
// masks elsewhere — every <= 64-node instance the service accepts.
TEST(CanonicalKey, CanonicalMaskMatchesOrbitOracle) {
  using service::Family;

  // Exhaustive: walk the masks orbit by orbit, so the oracle closes each
  // orbit once and every member must canonicalize to its front.
  const std::pair<Family, std::uint32_t> exhaustive[] = {
      {Family::kButterfly, 2}, {Family::kButterfly, 4},
      {Family::kWrapped, 4},   {Family::kCcc, 4},
      {Family::kHypercube, 2}, {Family::kHypercube, 4},
      {Family::kHypercube, 8}, {Family::kHypercube, 16},
  };
  for (const auto& [family, n] : exhaustive) {
    const auto group = service::automorphism_group(family, n);
    const std::uint64_t count = std::uint64_t{1}
                                << service::instance_nodes(family, n);
    std::vector<std::uint8_t> done(count, 0);
    std::size_t mismatches = 0;
    for (std::uint64_t mask = 0; mask < count; ++mask) {
      if (done[mask]) continue;
      const auto orbit = mask_orbit(group, mask);
      for (const std::uint64_t m : orbit) {
        done[m] = 1;
        if (service::canonical_mask(family, n, m) != orbit.front()) {
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << service::to_string(family) << n;
  }

  const std::pair<Family, std::uint32_t> sampled[] = {
      {Family::kButterfly, 8}, {Family::kWrapped, 8},
      {Family::kCcc, 8},       {Family::kWrapped, 16},
      {Family::kCcc, 16},      {Family::kHypercube, 32},
  };
  std::mt19937_64 rng(0xb0a2d);
  for (const auto& [family, n] : sampled) {
    const auto group = service::automorphism_group(family, n);
    const std::uint64_t nodes = service::instance_nodes(family, n);
    const std::uint64_t full =
        nodes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << nodes) - 1;
    std::size_t mismatches = 0;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t mask = rng() & full;
      if (service::canonical_mask(family, n, mask) !=
          mask_orbit(group, mask).front()) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << service::to_string(family) << n;
  }

  // Q64's 46,080-element group: the empty set, one vertex, random.
  const auto q64 = service::automorphism_group(Family::kHypercube, 64);
  for (const std::uint64_t mask : {std::uint64_t{0}, std::uint64_t{1} << 37,
                                   std::uint64_t{0x9e3779b97f4a7c15}}) {
    EXPECT_EQ(service::canonical_mask(Family::kHypercube, 64, mask),
              mask_orbit(q64, mask).front())
        << std::hex << mask;
  }
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

service::CacheEntry entry_for(const service::Request& r, std::uint64_t value,
                              bool exact) {
  service::CacheEntry e;
  e.key = service::canonical_key(r);
  e.kind = r.kind;
  e.family = r.family;
  e.n = r.n;
  e.mask = r.kind == service::QueryKind::kBoundary
               ? service::canonical_mask(r.family, r.n, r.subset_mask)
               : 0;
  e.value = value;
  e.exact = exact;
  return e;
}

TEST(Cache, WireRoundTripAndEveryBitflipRejected) {
  const auto e = entry_for(boundary(service::Family::kButterfly, 4, 0x13),
                           7, true);
  const auto bytes = service::encode_entry(e);
  const auto back = service::decode_entry(bytes);
  EXPECT_EQ(back.key, e.key);
  EXPECT_EQ(back.value, e.value);
  EXPECT_EQ(back.mask, e.mask);
  EXPECT_EQ(back.exact, e.exact);

  // The checksum (or the magic/version checks) must catch any
  // single-byte corruption, and any truncation.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0x40;
    EXPECT_THROW((void)service::decode_entry(bad), robust::SnapshotError)
        << "byte " << i << " flip decoded";
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)service::decode_entry(
                     std::span<const std::uint8_t>(bytes.data(), len)),
                 robust::SnapshotError)
        << "prefix " << len << " decoded";
  }
}

TEST(Cache, DecodeRejectsKeyMismatch) {
  // A syntactically intact entry whose stored key does not match its
  // instance is a mislabeled answer — the decoder must refuse it.
  auto e = entry_for(bw(service::Family::kButterfly, 4), 4, true);
  e.key ^= 1;
  const auto bytes = service::encode_entry(e);
  EXPECT_THROW((void)service::decode_entry(bytes), robust::SnapshotError);
}

TEST(Cache, LruMergeNeverDowngradesProofs) {
  service::LruCache lru(8);
  const auto req = bw(service::Family::kButterfly, 4);
  lru.put(entry_for(req, 5, /*exact=*/false));
  // A tighter heuristic bound replaces a looser one...
  EXPECT_EQ(lru.put(entry_for(req, 4, false)).value, 4u);
  EXPECT_FALSE(lru.get(service::canonical_key(req))->exact);
  // ...an exact answer replaces any heuristic...
  EXPECT_TRUE(lru.put(entry_for(req, 4, true)).exact);
  // ...and nothing replaces an exact answer.
  const auto kept = lru.put(entry_for(req, 3, false));
  EXPECT_TRUE(kept.exact);
  EXPECT_EQ(kept.value, 4u);
  EXPECT_EQ(lru.get(service::canonical_key(req))->value, 4u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  service::LruCache lru(2);
  const auto a = bw(service::Family::kButterfly, 4);
  const auto b = bw(service::Family::kButterfly, 8);
  const auto c = bw(service::Family::kWrapped, 4);
  lru.put(entry_for(a, 1, true));
  lru.put(entry_for(b, 2, true));
  (void)lru.get(service::canonical_key(a));  // a is now most recent
  lru.put(entry_for(c, 3, true));            // evicts b
  EXPECT_TRUE(lru.get(service::canonical_key(a)).has_value());
  EXPECT_FALSE(lru.get(service::canonical_key(b)).has_value());
  EXPECT_TRUE(lru.get(service::canonical_key(c)).has_value());
}

TEST(Cache, PersistentStoreLoadRecover) {
  const DirGuard guard(temp_cache_dir("persist"));
  service::PersistentCache disk(guard.dir);
  const auto e = entry_for(bw(service::Family::kButterfly, 4), 4, true);
  disk.store(e);
  const auto hit = disk.load(e.key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value, 4u);
  EXPECT_TRUE(hit->exact);
  EXPECT_FALSE(disk.load(e.key ^ 1).has_value());  // miss, not an error

  // A fresh instance over the same directory recovers the entry.
  service::PersistentCache disk2(guard.dir);
  const auto report = disk2.recover();
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].key, e.key);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.tmp_removed, 0u);
}

TEST(Cache, RecoverySweepsTornWritesAndQuarantinesCorruption) {
  const DirGuard guard(temp_cache_dir("recover"));
  service::PersistentCache disk(guard.dir);
  const auto good = entry_for(bw(service::Family::kButterfly, 4), 4, true);
  const auto bad = entry_for(bw(service::Family::kButterfly, 8), 8, true);
  disk.store(good);
  disk.store(bad);

  // Corrupt one entry in place and fake a torn write.
  std::size_t corrupted = 0;
  for (const auto& de : fs::directory_iterator(guard.dir)) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(bad.key));
    if (de.path().filename() == std::string(hex) + ".bfc") {
      std::fstream f(de.path(), std::ios::in | std::ios::out |
                                    std::ios::binary);
      f.seekp(12);
      f.put('\xff');
      ++corrupted;
    }
  }
  ASSERT_EQ(corrupted, 1u);
  std::ofstream(guard.dir / "0000000000000000.bfc.tmp") << "torn";

  service::PersistentCache disk2(guard.dir);
  const auto report = disk2.recover();
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].key, good.key);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.tmp_removed, 1u);
  EXPECT_EQ(disk2.quarantined(), 1u);
  // The quarantined file is set aside, not deleted: evidence survives.
  bool found_quarantined = false;
  for (const auto& de : fs::directory_iterator(guard.dir)) {
    if (de.path().extension() == ".quarantined") found_quarantined = true;
    EXPECT_NE(de.path().extension(), ".tmp");
  }
  EXPECT_TRUE(found_quarantined);
}

TEST(Cache, MislabeledFilenameQuarantined) {
  const DirGuard guard(temp_cache_dir("mislabel"));
  service::PersistentCache disk(guard.dir);
  const auto e = entry_for(bw(service::Family::kButterfly, 4), 4, true);
  disk.store(e);
  // Rename the entry under a different key's filename: the content is
  // intact but claims the wrong identity.
  fs::path src;
  for (const auto& de : fs::directory_iterator(guard.dir)) src = de.path();
  fs::rename(src, guard.dir / "00000000deadbeef.bfc");

  service::PersistentCache disk2(guard.dir);
  const auto report = disk2.recover();
  EXPECT_TRUE(report.entries.empty());
  EXPECT_EQ(report.quarantined, 1u);
}

TEST(Cache, TwoTierLookupPromotesFromDisk) {
  const DirGuard guard(temp_cache_dir("twotier"));
  // LRU of one: inserting the second entry evicts the first from
  // memory while its file stays on disk.
  service::ServiceCache cache(/*lru_capacity=*/1, guard.dir);
  const auto a = entry_for(bw(service::Family::kButterfly, 4), 4, true);
  const auto b = entry_for(bw(service::Family::kButterfly, 8), 8, true);
  EXPECT_EQ(cache.insert(a), service::ServiceCache::InsertOutcome::kPersisted);
  EXPECT_EQ(cache.insert(b), service::ServiceCache::InsertOutcome::kPersisted);

  const auto hit = cache.lookup(a.key, /*want_exact=*/true);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->source, service::Source::kDisk);
  EXPECT_EQ(hit->entry.value, 4u);
  // The disk hit was promoted: the next lookup is a memory hit.
  const auto again = cache.lookup(a.key, true);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->source, service::Source::kMemory);
}

TEST(Cache, ExactPolicySkipsHeuristicEntries) {
  service::ServiceCache cache(8, {});
  const auto req = bw(service::Family::kButterfly, 4);
  cache.insert(entry_for(req, 5, /*exact=*/false));
  const auto key = service::canonical_key(req);
  EXPECT_FALSE(cache.lookup(key, /*want_exact=*/true).has_value());
  const auto relaxed = cache.lookup(key, /*want_exact=*/false);
  ASSERT_TRUE(relaxed.has_value());
  EXPECT_EQ(relaxed->entry.value, 5u);
}

// ---------------------------------------------------------------------------
// Backoff policy
// ---------------------------------------------------------------------------

TEST(Backoff, PolicyIsDeterministicCappedAndJittered) {
  robust::BackoffPolicy p;
  p.initial_ms = 10.0;
  p.multiplier = 2.0;
  p.cap_ms = 55.0;
  EXPECT_DOUBLE_EQ(p.delay_ms(0), 10.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(1), 20.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(2), 40.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(3), 55.0);  // capped
  EXPECT_DOUBLE_EQ(p.delay_ms(9), 55.0);

  p.jitter_fraction = 0.5;
  p.jitter_seed = 42;
  for (unsigned a = 0; a < 6; ++a) {
    const double base = std::min(10.0 * (1u << a), 55.0);
    const double d = p.delay_ms(a);
    EXPECT_GE(d, base);
    EXPECT_LT(d, base * 1.5);
    // Same (seed, attempt) always sleeps identically.
    EXPECT_DOUBLE_EQ(d, p.delay_ms(a));
  }
  auto q = p;
  q.jitter_seed = 43;
  bool any_differs = false;
  for (unsigned a = 0; a < 6; ++a) {
    any_differs = any_differs || p.delay_ms(a) != q.delay_ms(a);
  }
  EXPECT_TRUE(any_differs);
}

// ---------------------------------------------------------------------------
// Service executor
// ---------------------------------------------------------------------------

TEST(Service, ColdComputeMatchesReferenceThenWarmHit) {
  service::ServiceOptions opts;
  opts.workers = 1;
  service::Service svc(opts);

  const auto req = bw(service::Family::kButterfly, 4);
  const auto reference =
      cut::min_bisection_branch_bound(service::build_graph(req.family, req.n));

  const auto cold = svc.query(req);
  ASSERT_EQ(cold.status, service::Status::kOk) << cold.detail;
  EXPECT_EQ(cold.value, reference.capacity);
  EXPECT_TRUE(cold.exact);
  EXPECT_EQ(cold.source, service::Source::kComputed);

  const auto warm = svc.query(req);
  ASSERT_EQ(warm.status, service::Status::kOk);
  EXPECT_EQ(warm.value, cold.value);
  EXPECT_EQ(warm.source, service::Source::kMemory);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.hits_memory, 1u);
  EXPECT_EQ(stats.ok, 2u);
}

TEST(Service, BoundaryServedInlineAndSymmetricMaskHitsSameEntry) {
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.autostart = false;  // no workers: inline paths must still answer
  service::Service svc(opts);

  const Graph g = service::build_graph(service::Family::kButterfly, 4);
  const std::uint64_t mask = 0x13;
  std::vector<NodeId> set;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (((mask >> v) & 1u) != 0) set.push_back(v);
  }
  const auto expected = expansion::edge_boundary(g, set);

  const auto r1 = svc.query(boundary(service::Family::kButterfly, 4, mask));
  ASSERT_EQ(r1.status, service::Status::kOk) << r1.detail;
  EXPECT_EQ(r1.value, expected);
  EXPECT_TRUE(r1.exact);
  EXPECT_EQ(r1.source, service::Source::kComputed);

  // A symmetric sibling of the mask is a memory hit on the same entry.
  const auto group =
      service::automorphism_group(service::Family::kButterfly, 4);
  const auto orbit = mask_orbit(group, mask);
  ASSERT_GE(orbit.size(), 2u);
  const std::uint64_t sibling = orbit.back() != mask ? orbit.back()
                                                     : orbit.front();
  const auto r2 = svc.query(boundary(service::Family::kButterfly, 4, sibling));
  ASSERT_EQ(r2.status, service::Status::kOk);
  EXPECT_EQ(r2.value, expected);
  EXPECT_EQ(r2.source, service::Source::kMemory);
  EXPECT_EQ(r2.key, r1.key);
}

TEST(Service, BoundaryCountsStayInMemory) {
  // A boundary count is cheaper to recompute than to write to a file:
  // the persistent tier keeps bisection widths only, and a restarted
  // service recomputes the count.
  const DirGuard guard(temp_cache_dir("boundary"));
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.cache_dir = guard.dir;
  const auto req = boundary(service::Family::kButterfly, 4, 0x13);
  std::uint64_t value = 0;
  {
    service::Service svc(opts);
    const auto r = svc.query(req);
    ASSERT_EQ(r.status, service::Status::kOk) << r.detail;
    EXPECT_EQ(r.source, service::Source::kComputed);
    value = r.value;
    EXPECT_EQ(svc.query(req).source, service::Source::kMemory);
    EXPECT_EQ(svc.stats().persist_failures, 0u);
  }
  EXPECT_TRUE(fs::is_empty(guard.dir));
  {
    service::Service svc(opts);
    EXPECT_EQ(svc.stats().recovered_entries, 0u);
    const auto r = svc.query(req);
    ASSERT_EQ(r.status, service::Status::kOk) << r.detail;
    EXPECT_EQ(r.source, service::Source::kComputed);
    EXPECT_EQ(r.value, value);
  }
}

TEST(Service, BadRequestsRejectedInline) {
  service::ServiceOptions opts;
  opts.autostart = false;
  service::Service svc(opts);

  auto r = svc.query(bw(service::Family::kButterfly, 3));  // not a power of 2
  EXPECT_EQ(r.status, service::Status::kBadRequest);
  r = svc.query(bw(service::Family::kHypercube, 8192));    // past the ceiling
  EXPECT_EQ(r.status, service::Status::kBadRequest);
  // BOUNDARY on a >64-node instance has no mask-orbit canonicalizer.
  r = svc.query(boundary(service::Family::kButterfly, 32, 1));
  EXPECT_EQ(r.status, service::Status::kBadRequest);
  // Mask bits outside the node range.
  r = svc.query(boundary(service::Family::kButterfly, 4, 1ull << 63));
  EXPECT_EQ(r.status, service::Status::kBadRequest);
  EXPECT_EQ(svc.stats().bad_request, 4u);
}

TEST(Service, IdenticalInFlightRequestsCoalesce) {
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.autostart = false;  // stage all parties before any worker runs
  service::Service svc(opts);

  constexpr std::size_t kParties = 5;
  Collector col;
  for (std::size_t i = 0; i < kParties; ++i) {
    auto req = bw(service::Family::kButterfly, 4);
    req.id = "p" + std::to_string(i);
    svc.query_async(std::move(req), col.sink());
  }
  {
    // Nothing has answered yet — the queue is staged, not running.
    std::lock_guard<std::mutex> lock(col.mu);
    EXPECT_TRUE(col.responses.empty());
  }
  svc.start();
  const auto responses = col.wait_for(kParties);
  ASSERT_EQ(responses.size(), kParties);

  std::size_t computed = 0, coalesced = 0;
  for (const auto& r : responses) {
    ASSERT_EQ(r.status, service::Status::kOk) << r.detail;
    EXPECT_EQ(r.value, responses[0].value);
    EXPECT_TRUE(r.exact);
    if (r.source == service::Source::kComputed) ++computed;
    if (r.source == service::Source::kCoalesced) ++coalesced;
  }
  EXPECT_EQ(computed, 1u);
  EXPECT_EQ(coalesced, kParties - 1);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.coalesced, kParties - 1);
}

TEST(Service, RequestArrivingMidSolveJoinsTheRunningComputation) {
  // Unlike the staged test above, the workers run from the start: the
  // second request lands while the first's multi-ms exact B8 solve is
  // in flight (or, if timing slips, after it finished and cached).
  // Either way the invariant is one computation total — the pending
  // entry outlives the queue pop, so mid-solve arrivals join it
  // instead of popping a duplicate solve on the idle second worker.
  service::ServiceOptions opts;
  opts.workers = 2;
  service::Service svc(opts);

  Collector col;
  svc.query_async(bw(service::Family::kButterfly, 8), col.sink());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const service::Response second =
      svc.query(bw(service::Family::kButterfly, 8));

  const auto responses = col.wait_for(1);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(responses[0].status, service::Status::kOk) << responses[0].detail;
  ASSERT_EQ(second.status, service::Status::kOk) << second.detail;
  EXPECT_EQ(second.value, responses[0].value);
  EXPECT_TRUE(second.exact);
  EXPECT_NE(second.source, service::Source::kComputed);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.coalesced + stats.hits_memory, 1u);
}

TEST(Service, FullQueueShedsHonestly) {
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.autostart = false;
  service::Service svc(opts);

  Collector col;
  svc.query_async(bw(service::Family::kButterfly, 4), col.sink());
  // Same key coalesces instead of consuming a queue slot.
  svc.query_async(bw(service::Family::kButterfly, 4), col.sink());

  // A distinct computation needs a slot, and there is none: shed,
  // inline, before the workers even exist.
  std::atomic<bool> shed_inline{false};
  svc.query_async(bw(service::Family::kWrapped, 4),
                  [&](service::Response r) {
                    EXPECT_EQ(r.status, service::Status::kShed);
                    EXPECT_NE(r.detail.find("queue"), std::string::npos);
                    shed_inline.store(true);
                  });
  EXPECT_TRUE(shed_inline.load());

  svc.start();
  const auto responses = col.wait_for(2);
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& r : responses) {
    EXPECT_EQ(r.status, service::Status::kOk) << r.detail;
  }
  EXPECT_EQ(svc.stats().shed, 1u);
}

TEST(Service, DeadlinePassedWhileQueuedIsHonest) {
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.autostart = false;
  service::Service svc(opts);

  auto req = bw(service::Family::kButterfly, 8);
  req.deadline_seconds = 0.001;
  Collector col;
  svc.query_async(std::move(req), col.sink());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  svc.start();  // by now the deadline is long gone
  const auto responses = col.wait_for(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, service::Status::kDeadline);
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
}

TEST(Service, ShutdownShedsQueuedWork) {
  Collector col;
  {
    service::ServiceOptions opts;
    opts.autostart = false;  // never started: the queue drains via shed
    service::Service svc(opts);
    svc.query_async(bw(service::Family::kButterfly, 8), col.sink());
  }
  ASSERT_EQ(col.responses.size(), 1u);
  EXPECT_EQ(col.responses[0].status, service::Status::kShed);
  EXPECT_NE(col.responses[0].detail.find("shutting down"), std::string::npos);
}

TEST(Service, PersistsAcrossRestartAndRecovers) {
  const DirGuard guard(temp_cache_dir("restart"));
  std::uint64_t cold_value = 0;
  {
    service::ServiceOptions opts;
    opts.workers = 1;
    opts.cache_dir = guard.dir;
    service::Service svc(opts);
    const auto r = svc.query(bw(service::Family::kButterfly, 4));
    ASSERT_EQ(r.status, service::Status::kOk) << r.detail;
    EXPECT_TRUE(r.exact);
    cold_value = r.value;
  }
  {
    service::ServiceOptions opts;
    opts.workers = 1;
    opts.cache_dir = guard.dir;
    service::Service svc(opts);
    const auto stats0 = svc.stats();
    EXPECT_GE(stats0.recovered_entries, 1u);
    EXPECT_EQ(stats0.quarantined, 0u);
    // Recovery preloaded the LRU: the restarted daemon answers from
    // memory without recomputing.
    const auto r = svc.query(bw(service::Family::kButterfly, 4));
    ASSERT_EQ(r.status, service::Status::kOk) << r.detail;
    EXPECT_EQ(r.value, cold_value);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.source, service::Source::kMemory);
    EXPECT_EQ(svc.stats().computed, 0u);
  }
}

// ---------------------------------------------------------------------------
// Fault injection through the service
// ---------------------------------------------------------------------------

TEST(ServiceFaults, EnqueueFaultShedsInsteadOfCrashing) {
  if (!fault::compiled_in()) {
    GTEST_SKIP() << "BFLY_FAULT_INJECTION is off in this build";
  }
  service::ServiceOptions opts;
  opts.workers = 1;
  service::Service svc(opts);
  fault::ScopedFaultPlan plan(
      fault::FaultPlan{}.set(fault::Site::kEnqueue, /*fire_at_hit=*/1));
  const auto r = svc.query(bw(service::Family::kButterfly, 8));
  EXPECT_EQ(r.status, service::Status::kShed);
  EXPECT_NE(r.detail.find("fault"), std::string::npos);
  EXPECT_EQ(svc.stats().shed, 1u);
}

TEST(ServiceFaults, DispatchFaultFailsHonestlyAndServiceSurvives) {
  if (!fault::compiled_in()) {
    GTEST_SKIP() << "BFLY_FAULT_INJECTION is off in this build";
  }
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.autostart = false;
  service::Service svc(opts);
  Collector col;
  svc.query_async(bw(service::Family::kButterfly, 4), col.sink());
  fault::ScopedFaultPlan plan(
      fault::FaultPlan{}.set(fault::Site::kDispatch, /*fire_at_hit=*/1));
  svc.start();
  const auto responses = col.wait_for(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, service::Status::kFailed);

  // The worker survived the injected fault: once the plan stops firing
  // the same instance computes fine.
  const auto ok = svc.query(bw(service::Family::kButterfly, 4));
  EXPECT_EQ(ok.status, service::Status::kOk) << ok.detail;
}

TEST(ServiceFaults, CacheWriteFaultLosesPersistenceNotTheAnswer) {
  if (!fault::compiled_in()) {
    GTEST_SKIP() << "BFLY_FAULT_INJECTION is off in this build";
  }
  const DirGuard guard(temp_cache_dir("cachewrite"));
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.cache_dir = guard.dir;
  service::Service svc(opts);
  const auto reference = cut::min_bisection_branch_bound(
      service::build_graph(service::Family::kButterfly, 4));
  fault::ScopedFaultPlan plan(fault::FaultPlan{}.set(
      fault::Site::kCacheWrite, /*fire_at_hit=*/1, /*fire_count=*/1u << 20));
  const auto r = svc.query(bw(service::Family::kButterfly, 4));
  ASSERT_EQ(r.status, service::Status::kOk) << r.detail;
  EXPECT_EQ(r.value, reference.capacity);
  EXPECT_GE(svc.stats().persist_failures, 1u);
  // Nothing half-written reached the persistent tier.
  std::size_t bfc_files = 0;
  for (const auto& de : fs::directory_iterator(guard.dir)) {
    if (de.path().extension() == ".bfc") ++bfc_files;
  }
  EXPECT_EQ(bfc_files, 0u);
}

// ---------------------------------------------------------------------------
// Daemon line protocol
// ---------------------------------------------------------------------------

TEST(Daemon, LineSessionEndToEnd) {
  std::istringstream in(
      "BW b 4 id=q1\n"
      "BW b 4 id=q2\n"
      "BOUNDARY b 4 0f id=q3\n"
      "BW b 3 id=q4\n"
      "this is not a protocol line\n"
      "STATS\n"
      "QUIT\n");
  std::ostringstream out;
  service::DaemonOptions opts;
  opts.service.workers = 1;
  const int rc = service::run_daemon(in, out, opts);
  EXPECT_EQ(rc, 0);

  const std::string text = out.str();
  EXPECT_EQ(text.find("READY"), 0u) << text;
  EXPECT_NE(text.find("OK id=q1"), std::string::npos) << text;
  EXPECT_NE(text.find("OK id=q2"), std::string::npos) << text;
  EXPECT_NE(text.find("OK id=q3"), std::string::npos) << text;
  EXPECT_NE(text.find("ERR id=q4 status=bad-request"), std::string::npos)
      << text;
  EXPECT_NE(text.find("ERR id=- status=bad-request"), std::string::npos)
      << text;
  EXPECT_NE(text.find("STATS"), std::string::npos) << text;

  // The four protocol lines were admitted (the garbage line never
  // reached the service); q1 and q2 are the same instance, so the pair
  // is one computation plus one coalesce or hit. STATS is answered while
  // q1 and q3 may still be running, so its computed count is 0, 1 or 2
  // (q3's BOUNDARY count is a computation too); each response's source
  // is final.
  EXPECT_NE(text.find("received=4"), std::string::npos) << text;
  const auto source_of = [&text](const std::string& id) {
    const std::size_t line = text.find("OK id=" + id + " ");
    if (line == std::string::npos) return std::string();
    const std::size_t from = text.find("source=", line) + 7;
    return text.substr(from, text.find_first_of(" \n", from) - from);
  };
  EXPECT_EQ((source_of("q1") == "computed") + (source_of("q2") == "computed"),
            1)
      << text;
  EXPECT_EQ(text.find("computed=3"), std::string::npos) << text;
}

}  // namespace
