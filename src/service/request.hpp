// Request/response model and line protocol for the bisection query
// service (DESIGN.md §14).
//
// A Request names a paper instance (topology family + width parameter),
// the quantity wanted (bisection width, or the edge boundary of a
// subset), a solver policy, and budgets. The cache key is canonical
// under the instance's automorphism group: BOUNDARY masks are replaced
// by the lexicographically smallest member of their orbit, the least
// image under the group's element list (built once per process per
// instance), so queries identical up to symmetry share one cache entry
// and one in-flight computation.
//
// The line protocol is the untrusted surface (fuzz/fuzz_service_proto
// drives it): parse_request either returns a syntactically valid
// Request or throws a typed ProtocolError — it never crashes, never
// allocates proportionally to a hostile length field, and never lets a
// malformed number through as zero.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "algo/automorphism.hpp"
#include "core/graph.hpp"

namespace bfly::service {

/// Topology families the service answers for, keyed by the paper's
/// width parameter n (number of columns; power of two). For hypercubes
/// n is the number of nodes, so Q8 is the 3-cube.
enum class Family : std::uint8_t {
  kButterfly = 0,   ///< Bn: (log n + 1) levels x n columns
  kWrapped,         ///< Wn: log n levels x n columns, wrapped
  kCcc,             ///< CCCn: log n cycles x n positions
  kHypercube,       ///< Qd with d = log n
};

enum class QueryKind : std::uint8_t {
  kBisectionWidth = 0,  ///< BW: minimum bisection capacity
  kBoundary,            ///< BOUNDARY: edge boundary of a subset mask
};

enum class Policy : std::uint8_t {
  kExact = 0,   ///< Supervisor ladder starting at the exact engine
  kPortfolio,   ///< full heuristic portfolio racing the exact engine
  kHeuristic,   ///< heuristics only (no exactness claim possible)
};

[[nodiscard]] const char* to_string(Family f);
[[nodiscard]] const char* to_string(QueryKind k);
[[nodiscard]] const char* to_string(Policy p);

struct Request {
  QueryKind kind = QueryKind::kBisectionWidth;
  Family family = Family::kButterfly;
  std::uint32_t n = 4;
  std::uint64_t subset_mask = 0;   ///< BOUNDARY only; bit v = node v in S
  Policy policy = Policy::kExact;
  double deadline_seconds = 0.0;   ///< 0 = service default
  std::uint64_t node_budget = 0;   ///< 0 = service default
  std::string id;                  ///< client tag echoed in the response
};

/// Honest outcome classes: a shed or expired request says so instead of
/// blocking forever or returning a half-computed number.
enum class Status : std::uint8_t {
  kOk = 0,
  kShed,         ///< admission control rejected (queue full / enqueue fault)
  kDeadline,     ///< the request's deadline passed before compute started
  kBadRequest,   ///< semantically invalid instance
  kFailed,       ///< every ladder step failed (or a dispatch fault fired)
};

/// Where an OK answer came from.
enum class Source : std::uint8_t {
  kNone = 0,
  kMemory,      ///< in-memory LRU hit
  kDisk,        ///< persistent-tier hit (promoted to the LRU)
  kComputed,    ///< this request ran the solver
  kCoalesced,   ///< rode an identical in-flight computation
};

[[nodiscard]] const char* to_string(Status s);
[[nodiscard]] const char* to_string(Source s);

struct Response {
  Status status = Status::kFailed;
  std::string id;
  std::uint64_t key = 0;     ///< canonical instance key (0 for bad requests)
  std::uint64_t value = 0;   ///< the bound; meaningful only when kOk
  bool exact = false;        ///< value carries an optimality proof
  Source source = Source::kNone;
  double wall_ms = 0.0;      ///< admission-to-response wall time
  std::string detail;        ///< human-readable context for non-OK statuses
};

/// Thrown by parse_request on any syntactic defect in an input line.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Hard cap on an input line; longer lines are rejected before any
/// tokenization so a hostile client cannot make the parser allocate big.
inline constexpr std::size_t kMaxLineBytes = 4096;

/// True when (family, n) names an instance the service will solve:
/// n a power of two within the family's domain, and the node count
/// within the service ceiling (4096 nodes; 64 for BOUNDARY queries,
/// whose masks are one 64-bit word).
[[nodiscard]] bool valid_instance(Family family, std::uint32_t n);
[[nodiscard]] std::uint64_t instance_nodes(Family family, std::uint32_t n);

/// Builds the instance graph (valid_instance must hold).
[[nodiscard]] Graph build_graph(Family family, std::uint32_t n);

/// The instance's automorphism group from the topology's published
/// generators (valid_instance must hold).
[[nodiscard]] algo::PermutationGroup automorphism_group(Family family,
                                                        std::uint32_t n);

/// Lexicographically smallest member of the mask's orbit under the
/// instance's automorphism group: the least image of the mask over the
/// group's elements, enumerated on the instance's first use and kept
/// for the life of the process (thread-safe). Requires
/// instance_nodes <= 64.
[[nodiscard]] std::uint64_t canonical_mask(Family family, std::uint32_t n,
                                           std::uint64_t mask);

/// Number of instance edges with exactly one end in the mask, counted
/// on the instance graph kept alongside the element list. Requires
/// instance_nodes <= 64.
[[nodiscard]] std::uint64_t subset_edge_boundary(Family family,
                                                 std::uint32_t n,
                                                 std::uint64_t mask);

/// Canonical cache key: FNV over (kind, family, n) plus, for BOUNDARY,
/// the canonical mask — so symmetric queries collide by construction.
/// Policy is deliberately excluded: the cache stores the best-known
/// value with its exactness flag, and exact-policy lookups simply skip
/// non-exact entries.
[[nodiscard]] std::uint64_t canonical_key(const Request& r);

/// canonical_key for a caller that already holds the BOUNDARY request's
/// canonical_mask (ignored for BW).
[[nodiscard]] std::uint64_t canonical_key(const Request& r,
                                          std::uint64_t canon_mask);

/// Parses one protocol line:
///
///   BW <family> <n> [policy=exact|portfolio|heuristic]
///                   [deadline_ms=<u32>] [nodes=<u64>] [id=<tag>]
///   BOUNDARY <family> <n> <mask-hex> [id=<tag>] [...]
///
/// Family tokens (case-insensitive): b/butterfly, w/wrapped, ccc,
/// q/hypercube. Numbers parse strictly (full token, no sign, range
/// checked); ids are <= 64 chars of [A-Za-z0-9._:-]. Throws
/// ProtocolError on anything else. Semantic validation (power-of-two n,
/// mask within the node range) is the service's job, not the parser's.
[[nodiscard]] Request parse_request(std::string_view line);

/// One response line:
///   OK id=<id> key=<16 hex> value=<u64> exact=<0|1> source=<s> ms=<ms>
///   ERR id=<id> status=<shed|deadline|bad-request|failed> detail=<text>
[[nodiscard]] std::string format_response(const Response& r);

}  // namespace bfly::service
