#include "service/cache.hpp"

#include <algorithm>
#include <array>
#include <system_error>
#include <utility>

#include "robust/checkpoint.hpp"
#include "robust/fault_injection.hpp"
#include "robust/wire.hpp"

namespace bfly::service {

namespace {

namespace wire = robust::wire;
using robust::SnapshotError;
using robust::SnapshotFault;

constexpr std::array<std::uint8_t, 8> kMagic = {'B', 'F', 'L', 'Y',
                                                'S', 'V', 'C', '1'};
constexpr std::uint32_t kVersion = 1;

[[nodiscard]] std::string key_hex(std::uint64_t key) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[i] = kHex[(key >> (60 - 4 * i)) & 0xf];
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_entry(const CacheEntry& e) {
  std::vector<std::uint8_t> out;
  out.reserve(64);
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  wire::put_u32(out, kVersion);
  wire::put_u64(out, e.key);
  out.push_back(static_cast<std::uint8_t>(e.kind));
  out.push_back(static_cast<std::uint8_t>(e.family));
  wire::put_u32(out, e.n);
  wire::put_u64(out, e.mask);
  wire::put_u64(out, e.value);
  out.push_back(e.exact ? 1 : 0);
  wire::put_u64(out, wire::fnv1a(wire::kFnvOffset, out.data(), out.size()));
  return out;
}

CacheEntry decode_entry(std::span<const std::uint8_t> bytes) {
  wire::Reader r(bytes);
  const auto magic = r.raw(kMagic.size(), "magic");
  if (!std::equal(magic.begin(), magic.end(), kMagic.begin())) {
    throw SnapshotError(SnapshotFault::kBadMagic,
                        "file does not start with the BFLYSVC magic");
  }
  const std::uint32_t version = r.u32("version");
  if (version != kVersion) {
    throw SnapshotError(SnapshotFault::kBadVersion,
                        "unknown cache-entry version " +
                            std::to_string(version));
  }
  CacheEntry e;
  e.key = r.u64("key");
  const std::uint8_t kind = r.u8("kind");
  const std::uint8_t family = r.u8("family");
  e.n = r.u32("n");
  e.mask = r.u64("mask");
  e.value = r.u64("value");
  const std::uint8_t exact = r.u8("exact");

  const std::uint64_t declared = r.u64("checksum");
  const std::uint64_t actual =
      wire::fnv1a(wire::kFnvOffset, bytes.data(), r.consumed() - 8);
  if (declared != actual) {
    throw SnapshotError(SnapshotFault::kBadChecksum,
                        "cache entry does not match its checksum");
  }
  if (r.remaining() != 0) {
    throw SnapshotError(SnapshotFault::kMalformed,
                        std::to_string(r.remaining()) +
                            " trailing bytes after the checksum");
  }

  if (kind > static_cast<std::uint8_t>(QueryKind::kBoundary)) {
    throw SnapshotError(SnapshotFault::kMalformed,
                        "kind " + std::to_string(kind) + " is not a query");
  }
  if (family > static_cast<std::uint8_t>(Family::kHypercube)) {
    throw SnapshotError(SnapshotFault::kMalformed,
                        "family " + std::to_string(family) + " is unknown");
  }
  if (exact > 1) {
    throw SnapshotError(SnapshotFault::kMalformed,
                        "exact flag is neither 0 nor 1");
  }
  e.kind = static_cast<QueryKind>(kind);
  e.family = static_cast<Family>(family);
  e.exact = exact == 1;

  // An entry whose instance is outside the service domain, or whose
  // stored key disagrees with the canonical key of its own fields, is
  // hostile or stale — never serve it.
  if (!valid_instance(e.family, e.n)) {
    throw SnapshotError(SnapshotFault::kMalformed,
                        "entry names an instance outside the service domain");
  }
  Request probe;
  probe.kind = e.kind;
  probe.family = e.family;
  probe.n = e.n;
  probe.subset_mask = e.mask;
  if (e.kind == QueryKind::kBoundary) {
    const std::uint64_t nodes = instance_nodes(e.family, e.n);
    if (nodes > 64 || (nodes < 64 && (e.mask >> nodes) != 0)) {
      throw SnapshotError(SnapshotFault::kMalformed,
                          "boundary mask is outside the instance's node range");
    }
  }
  if (canonical_key(probe) != e.key) {
    throw SnapshotError(SnapshotFault::kWrongGraph,
                        "entry key does not match its own fields");
  }
  return e;
}

std::optional<CacheEntry> LruCache::get(std::uint64_t key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  order_.splice(order_.begin(), order_, it->second);
  return *it->second;
}

CacheEntry LruCache::put(const CacheEntry& e) {
  const auto it = map_.find(e.key);
  if (it != map_.end()) {
    CacheEntry& held = *it->second;
    const bool stronger = (e.exact && !held.exact) ||
                          (e.exact == held.exact && e.value < held.value);
    if (stronger) held = e;
    order_.splice(order_.begin(), order_, it->second);
    return held;
  }
  if (capacity_ == 0) return e;
  if (order_.size() >= capacity_) {
    map_.erase(order_.back().key);
    order_.pop_back();
  }
  order_.push_front(e);
  map_[e.key] = order_.begin();
  return e;
}

PersistentCache::PersistentCache(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      throw SnapshotError(SnapshotFault::kIo,
                          "cannot create cache directory " + dir_.string());
    }
  }
}

std::filesystem::path PersistentCache::entry_path(std::uint64_t key) const {
  return dir_ / (key_hex(key) + ".bfc");
}

void PersistentCache::quarantine(const std::filesystem::path& path) {
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  std::filesystem::path aside = path;
  aside += ".quarantined";
  std::error_code ec;
  std::filesystem::rename(path, aside, ec);
  if (ec) std::filesystem::remove(path, ec);
}

PersistentCache::RecoveryReport PersistentCache::recover() {
  RecoveryReport report;
  if (!enabled()) return report;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir_, ec)) {
    const std::filesystem::path& path = de.path();
    if (path.extension() == ".tmp") {
      std::error_code rec;
      std::filesystem::remove(path, rec);
      ++report.tmp_removed;
      continue;
    }
    if (path.extension() != ".bfc") continue;
    try {
      const CacheEntry e = decode_entry(wire::read_file(path));
      if (path.stem().string() != key_hex(e.key)) {
        // An entry copied over another key's file would otherwise serve
        // the wrong instance under that key.
        throw SnapshotError(SnapshotFault::kWrongGraph,
                            "file name does not match the entry key");
      }
      report.entries.push_back(e);
    } catch (const SnapshotError&) {
      quarantine(path);
      ++report.quarantined;
    }
  }
  return report;
}

std::optional<CacheEntry> PersistentCache::load(std::uint64_t key) {
  if (!enabled()) return std::nullopt;
  const std::filesystem::path path = entry_path(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return std::nullopt;
  try {
    CacheEntry e = decode_entry(wire::read_file(path));
    if (e.key != key) {
      throw SnapshotError(SnapshotFault::kWrongGraph,
                          "entry key does not match the requested key");
    }
    return e;
  } catch (const SnapshotError& err) {
    if (err.fault() != SnapshotFault::kIo) quarantine(path);
    return std::nullopt;
  }
}

void PersistentCache::store(const CacheEntry& e) {
  if (!enabled()) return;
  BFLY_FAULT_POINT(kCacheWrite);
  wire::atomic_write_file(entry_path(e.key), encode_entry(e));
}

std::uint64_t PersistentCache::quarantined() const noexcept {
  return quarantined_.load(std::memory_order_relaxed);
}

ServiceCache::ServiceCache(std::size_t lru_capacity,
                           std::filesystem::path dir)
    : lru_(lru_capacity), disk_(std::move(dir)) {
  PersistentCache::RecoveryReport report = disk_.recover();
  recovered_entries_ = report.entries.size();
  tmp_removed_ = report.tmp_removed;
  sync::MutexLock lock(mem_mu_);
  for (const CacheEntry& e : report.entries) lru_.put(e);
}

std::optional<ServiceCache::Hit> ServiceCache::lookup(std::uint64_t key,
                                                      bool want_exact,
                                                      QueryKind kind) {
  {
    sync::MutexLock lock(mem_mu_);
    if (std::optional<CacheEntry> e = lru_.get(key)) {
      if (!want_exact || e->exact) return Hit{*e, Source::kMemory};
    }
  }
  if (!persisted(kind)) return std::nullopt;
  std::optional<CacheEntry> e;
  {
    sync::MutexLock lock(disk_mu_);
    e = disk_.load(key);
  }
  if (!e || (want_exact && !e->exact)) return std::nullopt;
  CacheEntry merged;
  {
    sync::MutexLock lock(mem_mu_);
    merged = lru_.put(*e);
  }
  return Hit{merged, Source::kDisk};
}

ServiceCache::InsertOutcome ServiceCache::insert(const CacheEntry& e) {
  CacheEntry merged;
  {
    sync::MutexLock lock(mem_mu_);
    merged = lru_.put(e);
  }
  if (!disk_.enabled() || !persisted(e.kind)) {
    return InsertOutcome::kMemoryOnly;
  }
  try {
    sync::MutexLock lock(disk_mu_);
    disk_.store(merged);
    return InsertOutcome::kPersisted;
  } catch (const std::exception&) {
    // An injected kCacheWrite fault or a real I/O refusal: the answer
    // stays correct and in memory; only durability is lost.
    return InsertOutcome::kPersistFailed;
  }
}

}  // namespace bfly::service
