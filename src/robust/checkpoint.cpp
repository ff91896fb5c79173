#include "robust/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <system_error>

#include "robust/wire.hpp"

namespace bfly::robust {

namespace {

using wire::fnv1a;
using wire::fnv1a_u64;
using wire::put_u32;
using wire::put_u64;
using wire::Reader;

constexpr std::array<std::uint8_t, 8> kMagic = {'B', 'F', 'L', 'Y',
                                                'S', 'N', 'P', '1'};
// v3 has v1's layout. v2 appended a search-mode byte and two table
// counters after nodes_spent; v2 streams still decode when the mode is
// 0 (a plain search, whose prefix list this build reproduces), and the
// counters are discarded.
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kMinVersion = 1;
constexpr std::uint64_t kNoIncumbent =
    std::numeric_limits<std::uint64_t>::max();

void require_binary(const std::vector<std::uint8_t>& v, const char* field) {
  for (const std::uint8_t b : v) {
    if (b > 1) {
      throw SnapshotError(SnapshotFault::kMalformed,
                          std::string(field) + " holds a non-0/1 value");
    }
  }
}

}  // namespace

const char* to_string(SnapshotFault f) {
  switch (f) {
    case SnapshotFault::kIo: return "io";
    case SnapshotFault::kTruncated: return "truncated";
    case SnapshotFault::kBadMagic: return "bad-magic";
    case SnapshotFault::kBadVersion: return "bad-version";
    case SnapshotFault::kBadChecksum: return "bad-checksum";
    case SnapshotFault::kMalformed: return "malformed";
    case SnapshotFault::kWrongGraph: return "wrong-graph";
  }
  return "?";
}

std::uint64_t graph_fingerprint(const Graph& g) {
  std::uint64_t h = wire::kFnvOffset;
  h = fnv1a_u64(h, g.num_nodes());
  h = fnv1a_u64(h, g.num_edges());
  for (const auto& [u, v] : g.edges()) {
    h = fnv1a_u64(h, u);
    h = fnv1a_u64(h, v);
  }
  return h;
}

std::vector<std::uint8_t> encode_snapshot(const BisectionSnapshot& snap) {
  const cut::BranchBoundSearchState& st = snap.state;
  std::vector<std::uint8_t> out;
  out.reserve(64 + st.prefix_done.size() + st.incumbent_sides.size());
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  put_u32(out, kVersion);
  put_u64(out, snap.fingerprint);
  put_u32(out, st.seed_depth);
  put_u64(out, st.prefix_done.size());
  out.insert(out.end(), st.prefix_done.begin(), st.prefix_done.end());
  // SIZE_MAX ("no incumbent yet") is widened to the u64 sentinel so the
  // format is identical on 32-bit size_t platforms.
  put_u64(out, st.incumbent_capacity == static_cast<std::size_t>(-1)
                   ? kNoIncumbent
                   : static_cast<std::uint64_t>(st.incumbent_capacity));
  put_u64(out, st.incumbent_sides.size());
  out.insert(out.end(), st.incumbent_sides.begin(), st.incumbent_sides.end());
  put_u64(out, st.nodes_spent);
  put_u64(out, fnv1a(wire::kFnvOffset, out.data(), out.size()));
  return out;
}

BisectionSnapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  const auto magic = r.raw(kMagic.size(), "magic");
  if (!std::equal(magic.begin(), magic.end(), kMagic.begin())) {
    throw SnapshotError(SnapshotFault::kBadMagic,
                        "file does not start with the snapshot magic");
  }
  const std::uint32_t version = r.u32("version");
  if (version < kMinVersion || version > kVersion) {
    throw SnapshotError(SnapshotFault::kBadVersion,
                        "unknown snapshot version " + std::to_string(version));
  }

  BisectionSnapshot snap;
  cut::BranchBoundSearchState& st = snap.state;
  snap.fingerprint = r.u64("fingerprint");
  st.seed_depth = r.u32("seed_depth");
  st.prefix_done = r.sized_bytes("prefix_done");
  const std::uint64_t cap = r.u64("incumbent_capacity");
  st.incumbent_capacity = cap == kNoIncumbent
                              ? static_cast<std::size_t>(-1)
                              : static_cast<std::size_t>(cap);
  st.incumbent_sides = r.sized_bytes("incumbent_sides");
  st.nodes_spent = r.u64("nodes_spent");
  std::uint8_t v2_mode = 0;
  if (version == 2) {
    v2_mode = r.u8("v2 search mode");
    (void)r.raw(16, "v2 table counters");
  }

  // The checksum covers every byte before it; verify before trusting
  // the semantic checks' conclusions (a flipped length byte would have
  // thrown above already, a flipped payload byte lands here).
  const std::uint64_t declared = r.u64("checksum");
  const std::uint64_t actual =
      fnv1a(wire::kFnvOffset, bytes.data(), bytes.size() - r.remaining() - 8);
  if (declared != actual) {
    throw SnapshotError(SnapshotFault::kBadChecksum,
                        "payload does not match its checksum");
  }
  if (r.remaining() != 0) {
    throw SnapshotError(SnapshotFault::kMalformed,
                        std::to_string(r.remaining()) +
                            " trailing bytes after the checksum");
  }

  // Cross-field sanity: the decoder only returns states the seed-prefix
  // driver could actually have produced.
  if (st.seed_depth > 64) {
    throw SnapshotError(SnapshotFault::kMalformed,
                        "seed_depth " + std::to_string(st.seed_depth) +
                            " is implausible");
  }
  require_binary(st.prefix_done, "prefix_done");
  require_binary(st.incumbent_sides, "incumbent_sides");
  if (v2_mode != 0) {
    // Mode 1 came from a symmetry-pruned search, whose deduplicated
    // prefix list no longer exists; anything else was never written.
    throw SnapshotError(SnapshotFault::kMalformed,
                        "v2 search mode " + std::to_string(v2_mode) +
                            " is not the plain search (0)");
  }
  const bool has_incumbent =
      st.incumbent_capacity != static_cast<std::size_t>(-1);
  if (has_incumbent != !st.incumbent_sides.empty()) {
    throw SnapshotError(SnapshotFault::kMalformed,
                        "incumbent capacity and side vector disagree on "
                        "whether an incumbent exists");
  }
  return snap;
}

void save_snapshot(const std::filesystem::path& path,
                   const BisectionSnapshot& snap) {
  wire::atomic_write_file(path, encode_snapshot(snap));
}

BisectionSnapshot load_snapshot(const std::filesystem::path& path,
                                std::uint64_t expect_fingerprint) {
  const std::vector<std::uint8_t> bytes = wire::read_file(path);
  BisectionSnapshot snap = decode_snapshot(bytes);
  if (expect_fingerprint != 0 && snap.fingerprint != expect_fingerprint) {
    throw SnapshotError(SnapshotFault::kWrongGraph,
                        "snapshot was taken on a different graph");
  }
  return snap;
}

bool snapshot_exists(const std::filesystem::path& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec) && !ec &&
         std::filesystem::file_size(path, ec) >= 20 && !ec;
}

BisectionSnapshot merge_snapshots(std::span<const BisectionSnapshot> shards) {
  if (shards.empty()) {
    throw SnapshotError(SnapshotFault::kMalformed,
                        "merge_snapshots needs at least one shard");
  }
  BisectionSnapshot merged = shards[0];
  for (std::size_t i = 1; i < shards.size(); ++i) {
    const BisectionSnapshot& s = shards[i];
    if (s.fingerprint != merged.fingerprint) {
      throw SnapshotError(SnapshotFault::kWrongGraph,
                          "shard snapshots were taken on different graphs");
    }
    if (s.state.seed_depth != merged.state.seed_depth ||
        s.state.prefix_done.size() != merged.state.prefix_done.size()) {
      throw SnapshotError(SnapshotFault::kMalformed,
                          "shard snapshots disagree on seed depth or prefix "
                          "count — not shards of one run");
    }
    for (std::size_t pi = 0; pi < merged.state.prefix_done.size(); ++pi) {
      merged.state.prefix_done[pi] |= s.state.prefix_done[pi];
    }
    if (s.state.incumbent_capacity < merged.state.incumbent_capacity) {
      merged.state.incumbent_capacity = s.state.incumbent_capacity;
      merged.state.incumbent_sides = s.state.incumbent_sides;
    }
    merged.state.nodes_spent += s.state.nodes_spent;
  }
  return merged;
}

bool snapshot_closed(const BisectionSnapshot& snap) {
  for (const std::uint8_t done : snap.state.prefix_done) {
    if (done == 0) return false;
  }
  return !snap.state.prefix_done.empty();
}

}  // namespace bfly::robust
