// Versioned, checksummed snapshots of branch-and-bound search state.
//
// A BisectionSnapshot binds a cut::BranchBoundSearchState (the seed-
// prefix completion map, the incumbent, and the pooled node count — see
// cut/branch_bound.hpp) to a fingerprint of the graph it was taken on.
// The wire format is a little-endian byte stream:
//
//   magic "BFLYSNP1" | u32 version | payload | u64 FNV-1a of the above
//
// so a resumed process can refuse, with a structured SnapshotError,
// anything that is not a complete, untampered snapshot of the same
// problem: wrong magic, unknown version, truncation, flipped bits,
// implausible counts, non-0/1 side values, or a different graph. The
// decoder never trusts a length field before bounds-checking it, and
// caps every count at a plausibility limit so corrupt headers cannot
// drive huge allocations (fuzz/fuzz_checkpoint.cpp hammers exactly
// this surface).
//
// save_snapshot() writes to a sibling temp file and renames it into
// place, so a crash mid-write leaves either the old snapshot or none —
// never a torn file.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "cut/branch_bound.hpp"

namespace bfly::robust {

/// Why a snapshot was rejected; carried by SnapshotError so tests and
/// the fuzz harness can assert on the failure class, not message text.
enum class SnapshotFault {
  kIo,           ///< file missing / unreadable / unwritable
  kTruncated,    ///< stream ends before a declared field
  kBadMagic,     ///< not a snapshot file at all
  kBadVersion,   ///< snapshot from an unknown format revision
  kBadChecksum,  ///< payload bytes do not match the trailing checksum
  kMalformed,    ///< fields are internally inconsistent or implausible
  kWrongGraph,   ///< fingerprint does not match the presented graph
};

[[nodiscard]] const char* to_string(SnapshotFault f);

/// Structured rejection: every failure path in this module throws this
/// (never crashes, never returns a half-decoded snapshot).
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotFault fault, const std::string& what)
      : std::runtime_error(std::string("snapshot rejected [") +
                           to_string(fault) + "]: " + what),
        fault_(fault) {}

  [[nodiscard]] SnapshotFault fault() const noexcept { return fault_; }

 private:
  SnapshotFault fault_;
};

/// Order-independent-of-nothing fingerprint of a graph's exact edge
/// list (FNV-1a over node count, edge count, and every endpoint pair in
/// storage order). Two graphs built by the same deterministic generator
/// collide exactly when they are the same graph, which is the contract
/// resume needs.
[[nodiscard]] std::uint64_t graph_fingerprint(const Graph& g);

/// A search state bound to the graph it belongs to.
struct BisectionSnapshot {
  std::uint64_t fingerprint = 0;
  cut::BranchBoundSearchState state;
};

/// Serializes to the wire format described above. Never fails.
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const BisectionSnapshot& snap);

/// Parses and fully validates a snapshot byte stream. Throws
/// SnapshotError on any defect; a returned snapshot is structurally
/// sound (counts consistent, sides 0/1, checksum verified).
[[nodiscard]] BisectionSnapshot decode_snapshot(
    std::span<const std::uint8_t> bytes);

/// Atomically replaces path with the encoded snapshot (temp + rename).
/// Throws SnapshotError{kIo} when the filesystem refuses.
void save_snapshot(const std::filesystem::path& path,
                   const BisectionSnapshot& snap);

/// Reads and decodes path. When expect_fingerprint is nonzero, also
/// checks the snapshot belongs to that graph (throws kWrongGraph).
[[nodiscard]] BisectionSnapshot load_snapshot(
    const std::filesystem::path& path, std::uint64_t expect_fingerprint = 0);

/// True when path exists and holds at least a snapshot header (cheap
/// pre-flight for "should this solve resume?" — the full validation
/// still happens in load_snapshot).
[[nodiscard]] bool snapshot_exists(const std::filesystem::path& path);

/// Reassembles a multi-process sharded search (BranchBoundOptions::
/// shard_count) into one resumable state: the shards' prefix-done maps
/// are OR-ed (each shard only ever searched — and marked — prefixes of
/// its own residue class), the best incumbent wins (capacity ties break
/// toward the earlier argument, keeping the merge order-insensitive up
/// to witness choice), and node counters sum. Every shard must come
/// from the same run shape: equal fingerprints (else kWrongGraph), equal
/// seed_depth / prefix count (else kMalformed), non-empty input (else
/// kMalformed). Resuming the merged
/// snapshot unsharded closes the proof: when every prefix is done the
/// resume returns immediately with exactness kExact.
[[nodiscard]] BisectionSnapshot merge_snapshots(
    std::span<const BisectionSnapshot> shards);

/// True when a (typically merged) snapshot's every seed prefix is done —
/// the search space is covered and an unsharded resume will simply
/// certify the incumbent instead of searching.
[[nodiscard]] bool snapshot_closed(const BisectionSnapshot& snap);

}  // namespace bfly::robust
