// Snapshot-decoder fuzzer: the checkpoint format is the one place the
// library parses bytes it may not have written itself (a resumed solve
// reads whatever is on disk after a crash), so the decoder must treat
// the input as hostile. Two modes per input:
//
//   * raw decode — arbitrary bytes through decode_snapshot: the only
//     acceptable outcomes are a fully validated snapshot or a
//     SnapshotError; any other exception, crash, or sanitizer report
//     is a bug. A successful decode must re-encode to bytes that decode
//     again to the same state (the format round-trips).
//   * mutate round-trip — the input also seeds a VALID snapshot, which
//     is encoded in an input-chosen format version (current v3, legacy
//     v1, or legacy v2 with search mode 0 or 1) and then damaged with
//     one input-chosen byte flip or truncation. Undamaged, v1, v3 and
//     v2 mode 0 must decode to the seeded state and v2 mode 1 (a
//     symmetry-pruned search) must be refused as kMalformed; damaged,
//     every stream must be rejected with a structured SnapshotError
//     (the checksum or a bounds check fires), never half-decoded.
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "cut/branch_bound.hpp"
#include "robust/checkpoint.hpp"
#include "robust/wire.hpp"

namespace {

using bfly::robust::BisectionSnapshot;

bool states_equal(const bfly::cut::BranchBoundSearchState& a,
                  const bfly::cut::BranchBoundSearchState& b) {
  return a.seed_depth == b.seed_depth && a.prefix_done == b.prefix_done &&
         a.incumbent_capacity == b.incumbent_capacity &&
         a.incumbent_sides == b.incumbent_sides &&
         a.nodes_spent == b.nodes_spent;
}

/// Deterministically derives a structurally valid snapshot from the
/// fuzz input, so the mutate mode damages realistic streams rather
/// than the decoder's early reject paths only.
BisectionSnapshot derive_snapshot(const std::uint8_t* data,
                                  std::size_t size) {
  BisectionSnapshot snap;
  std::uint64_t mix = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < size; ++i) {
    mix = (mix ^ data[i]) * 0x100000001b3ull;
  }
  snap.fingerprint = mix | 1u;  // nonzero
  auto& st = snap.state;
  st.seed_depth = static_cast<unsigned>(mix % 17u);
  st.prefix_done.assign(1 + (mix >> 8) % 64u, 0);
  for (std::size_t i = 0; i < st.prefix_done.size(); ++i) {
    st.prefix_done[i] = static_cast<std::uint8_t>((mix >> (i % 32u)) & 1u);
  }
  if ((mix & 2u) != 0) {
    st.incumbent_capacity = (mix >> 16) % 1000u;
    st.incumbent_sides.assign(2 + (mix >> 24) % 62u, 0);
    for (std::size_t i = 0; i < st.incumbent_sides.size(); ++i) {
      st.incumbent_sides[i] =
          static_cast<std::uint8_t>((mix >> ((i + 7) % 32u)) & 1u);
    }
  }
  st.nodes_spent = mix >> 3;
  return snap;
}

/// Legacy encodings, written independently of encode_snapshot from the
/// format history: v1 is v3's layout under version 1; v2 inserts a
/// search-mode byte and two u64 table counters before the checksum.
std::vector<std::uint8_t> encode_legacy(const BisectionSnapshot& snap,
                                        std::uint32_t version,
                                        std::uint8_t v2_mode,
                                        std::uint64_t mix) {
  namespace wire = bfly::robust::wire;
  const auto& st = snap.state;
  std::vector<std::uint8_t> out = {'B', 'F', 'L', 'Y', 'S', 'N', 'P', '1'};
  wire::put_u32(out, version);
  wire::put_u64(out, snap.fingerprint);
  wire::put_u32(out, st.seed_depth);
  wire::put_u64(out, st.prefix_done.size());
  out.insert(out.end(), st.prefix_done.begin(), st.prefix_done.end());
  wire::put_u64(out, st.incumbent_capacity == static_cast<std::size_t>(-1)
                         ? ~std::uint64_t{0}
                         : st.incumbent_capacity);
  wire::put_u64(out, st.incumbent_sides.size());
  out.insert(out.end(), st.incumbent_sides.begin(),
             st.incumbent_sides.end());
  wire::put_u64(out, st.nodes_spent);
  if (version == 2) {
    out.push_back(v2_mode);
    wire::put_u64(out, (mix >> 11) % 100000u);  // table counters
    wire::put_u64(out, (mix >> 21) % 100000u);
  }
  wire::put_u64(out, wire::fnv1a(wire::kFnvOffset, out.data(), out.size()));
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Mode 1: the raw bytes are the snapshot file.
  try {
    const BisectionSnapshot snap =
        bfly::robust::decode_snapshot({data, size});
    // The decoder accepted it, so it must be canonical: encoding the
    // decoded state and decoding again is the identity.
    const auto re = bfly::robust::encode_snapshot(snap);
    const BisectionSnapshot again = bfly::robust::decode_snapshot(re);
    if (again.fingerprint != snap.fingerprint ||
        !states_equal(again.state, snap.state)) {
      std::abort();
    }
  } catch (const bfly::robust::SnapshotError&) {
    // Structured rejection is the contract.
  }

  // Mode 2: damage a valid stream at an input-chosen point.
  if (size < 2) return 0;
  const BisectionSnapshot valid = derive_snapshot(data, size);
  // data[1] bits 1-2 pick the format: 0 = v3, 1 = v1, 2 = v2 mode 0,
  // 3 = v2 mode 1.
  const unsigned format = (data[1] >> 1) & 3u;
  const std::uint64_t mix = valid.fingerprint;
  const auto bytes =
      format == 0 ? bfly::robust::encode_snapshot(valid)
      : format == 1
          ? encode_legacy(valid, 1, 0, mix)
          : encode_legacy(valid, 2, static_cast<std::uint8_t>(format - 2),
                          mix);
  try {
    const BisectionSnapshot back = bfly::robust::decode_snapshot(bytes);
    if (format == 3 || back.fingerprint != valid.fingerprint ||
        !states_equal(back.state, valid.state)) {
      std::abort();  // lossless decode, and v2 mode 1 must never decode
    }
  } catch (const bfly::robust::SnapshotError& e) {
    if (format != 3 || e.fault() != bfly::robust::SnapshotFault::kMalformed) {
      std::abort();  // a freshly encoded snapshot must decode
    }
  }

  const std::size_t pos = data[0] % bytes.size();
  if ((data[1] & 1u) != 0) {
    // Single byte flip (guaranteed to change the byte).
    auto damaged = bytes;
    damaged[pos] ^= static_cast<std::uint8_t>(data[1] | 1u);
    try {
      (void)bfly::robust::decode_snapshot(damaged);
      std::abort();  // corruption slipped past the checksum
    } catch (const bfly::robust::SnapshotError&) {
    }
  } else {
    // Truncation to a strict prefix.
    try {
      (void)bfly::robust::decode_snapshot(
          std::span<const std::uint8_t>(bytes.data(), pos));
      std::abort();  // a strict prefix decoded as complete
    } catch (const bfly::robust::SnapshotError&) {
    }
  }
  return 0;
}
