// Two-tier result cache for the query service (DESIGN.md §14).
//
// Tier 1 is a plain in-memory LRU. Tier 2 is a crash-safe directory of
// one-entry BFLYSVC files riding the same wire machinery as the BFLYSNP
// checkpoints (robust/wire.hpp): versioned, checksummed, written with
// atomic temp-plus-rename, decoded through the bounds-checked Reader.
// A corrupted entry is quarantined (renamed aside) and treated as a
// miss — the daemon never crashes on, and never serves, a bad file.
// Only bisection widths reach tier 2 (see persisted()).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "service/request.hpp"

namespace bfly::service {

/// One cached answer, exactly what the persistent tier serializes.
struct CacheEntry {
  std::uint64_t key = 0;     ///< canonical_key of the instance
  QueryKind kind = QueryKind::kBisectionWidth;
  Family family = Family::kButterfly;
  std::uint32_t n = 0;
  std::uint64_t mask = 0;    ///< canonical mask (BOUNDARY) or 0
  std::uint64_t value = 0;
  bool exact = false;
};

/// Whether the persistent tier keeps answers of this kind. A bisection
/// width costs a solver run. A boundary count costs about a microsecond
/// to recompute, less than creating the file that would hold it (from
/// a few to hundreds of microseconds, with the file system's load), so
/// BOUNDARY answers live in the LRU only.
[[nodiscard]] constexpr bool persisted(QueryKind kind) noexcept {
  return kind == QueryKind::kBisectionWidth;
}

/// BFLYSVC wire format: magic | u32 version | payload | u64 FNV-1a.
/// Throws robust::SnapshotError on any defect (same taxonomy as the
/// snapshot decoder — the service maps every error to quarantine).
[[nodiscard]] std::vector<std::uint8_t> encode_entry(const CacheEntry& e);
[[nodiscard]] CacheEntry decode_entry(std::span<const std::uint8_t> bytes);

/// In-memory LRU keyed by canonical key. Not internally locked; the
/// ServiceCache holds its mutex across every call. The merge rule
/// protects proofs: an exact entry is never overwritten by a heuristic
/// one, and between two heuristic bounds the smaller (tighter) wins.
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::optional<CacheEntry> get(std::uint64_t key);

  /// Applies the merge rule; returns the entry now cached under the key
  /// (which may be the stronger pre-existing one).
  CacheEntry put(const CacheEntry& e);

  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }

 private:
  std::size_t capacity_;
  std::list<CacheEntry> order_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<CacheEntry>::iterator> map_;
};

/// Crash-safe persistent tier: one <16-hex-key>.bfc file per entry in
/// one directory. An empty directory path disables the tier. It stores
/// whatever it is given; ServiceCache gives it persisted() kinds only.
class PersistentCache {
 public:
  explicit PersistentCache(std::filesystem::path dir);

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }

  struct RecoveryReport {
    std::vector<CacheEntry> entries;  ///< every intact entry on disk
    std::size_t quarantined = 0;      ///< corrupt files renamed aside
    std::size_t tmp_removed = 0;      ///< torn writes swept away
  };

  /// Startup scan: removes *.tmp leftovers from a crash mid-write,
  /// quarantines undecodable or mislabeled entries, returns the intact
  /// ones for warm-starting the LRU. Never throws on bad content.
  [[nodiscard]] RecoveryReport recover();

  /// Loads one entry; a missing file is a miss (nullopt), a corrupt or
  /// mislabeled file is quarantined and a miss. Never throws on bad
  /// content.
  [[nodiscard]] std::optional<CacheEntry> load(std::uint64_t key);

  /// Persists one entry via atomic temp-plus-rename. Throws
  /// SnapshotError{kIo} on filesystem refusal and carries the
  /// BFLY_FAULT_POINT(kCacheWrite) chaos site — callers treat both as
  /// "result stays in memory only".
  void store(const CacheEntry& e);

  /// Corrupt entries quarantined since construction (recover + load).
  [[nodiscard]] std::uint64_t quarantined() const noexcept;

 private:
  [[nodiscard]] std::filesystem::path entry_path(std::uint64_t key) const;
  void quarantine(const std::filesystem::path& path);

  std::filesystem::path dir_;
  std::atomic<std::uint64_t> quarantined_{0};
};

/// The two tiers behind one lookup/insert surface, with the locking the
/// executor relies on: the LRU sits behind mem_mu_, disk I/O behind
/// disk_mu_ (file reads never run under the memory lock, so a slow disk
/// cannot stall cache hits).
class ServiceCache {
 public:
  struct Hit {
    CacheEntry entry;
    Source source = Source::kMemory;
  };

  enum class InsertOutcome : std::uint8_t {
    kPersisted,      ///< in the LRU and on disk
    kMemoryOnly,     ///< persistence disabled, or a kind it does not keep
    kPersistFailed,  ///< disk write refused (fault or I/O); LRU still holds it
  };

  ServiceCache(std::size_t lru_capacity, std::filesystem::path dir);

  /// want_exact skips heuristic entries (an exact-policy request must
  /// not be satisfied by an unproven bound). A key of a kind that is not
  /// persisted() is looked up in memory only.
  [[nodiscard]] std::optional<Hit> lookup(
      std::uint64_t key, bool want_exact,
      QueryKind kind = QueryKind::kBisectionWidth);

  InsertOutcome insert(const CacheEntry& e);

  [[nodiscard]] std::uint64_t quarantined() const noexcept {
    return disk_.quarantined();
  }
  [[nodiscard]] std::size_t recovered_entries() const noexcept {
    return recovered_entries_;
  }
  [[nodiscard]] std::size_t tmp_removed() const noexcept {
    return tmp_removed_;
  }
  [[nodiscard]] bool persistent() const noexcept { return disk_.enabled(); }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return disk_.dir();
  }

 private:
  sync::Mutex mem_mu_;
  LruCache lru_ BFLY_GUARDED_BY(mem_mu_);
  sync::Mutex disk_mu_;  ///< serializes tier-2 file I/O
  PersistentCache disk_;
  std::size_t recovered_entries_ = 0;
  std::size_t tmp_removed_ = 0;
};

}  // namespace bfly::service
