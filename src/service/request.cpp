#include "service/request.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <mutex>
#include <vector>

#include "core/error.hpp"
#include "expansion/expansion.hpp"
#include "robust/wire.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/hypercube.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace bfly::service {

namespace {

[[nodiscard]] bool is_pow2(std::uint32_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

[[nodiscard]] std::uint32_t log2_u32(std::uint32_t n) {
  std::uint32_t d = 0;
  while ((1u << d) < n) ++d;
  return d;
}

/// Service ceiling: instances past this are a capacity-planning job,
/// not a query (heuristics on 4k nodes still answer within a deadline).
constexpr std::uint64_t kMaxNodes = 4096;
constexpr std::uint64_t kMaxBoundaryNodes = 64;
constexpr std::size_t kMaxIdChars = 64;

/// Element-list cap for the BOUNDARY instances: the largest group among
/// them is Q64's, 2^6 * 6! = 46,080 elements.
constexpr std::size_t kMaxBoundaryGroupOrder = 46'080;

[[nodiscard]] bool id_char_ok(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '.' ||
         c == '_' || c == ':' || c == '-';
}

[[nodiscard]] std::string upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

[[nodiscard]] std::uint64_t parse_u64(std::string_view tok, const char* what,
                                      std::uint64_t max_value, int base = 10) {
  std::uint64_t v = 0;
  std::string_view body = tok;
  if (base == 16 && body.size() > 2 &&
      (body.substr(0, 2) == "0x" || body.substr(0, 2) == "0X")) {
    body.remove_prefix(2);
  }
  if (body.empty()) {
    throw ProtocolError(std::string(what) + " is empty");
  }
  const auto [ptr, ec] =
      std::from_chars(body.data(), body.data() + body.size(), v, base);
  if (ec != std::errc() || ptr != body.data() + body.size()) {
    throw ProtocolError(std::string(what) + " '" + std::string(tok) +
                        "' is not a valid number");
  }
  if (v > max_value) {
    throw ProtocolError(std::string(what) + " " + std::to_string(v) +
                        " exceeds the protocol ceiling " +
                        std::to_string(max_value));
  }
  return v;
}

[[nodiscard]] Family parse_family(std::string_view tok) {
  const std::string t = upper(tok);
  if (t == "B" || t == "BF" || t == "BUTTERFLY") return Family::kButterfly;
  if (t == "W" || t == "WRAPPED") return Family::kWrapped;
  if (t == "CCC") return Family::kCcc;
  if (t == "Q" || t == "HYPERCUBE") return Family::kHypercube;
  throw ProtocolError("unknown family '" + std::string(tok) + "'");
}

[[nodiscard]] Policy parse_policy(std::string_view tok) {
  const std::string t = upper(tok);
  if (t == "EXACT") return Policy::kExact;
  if (t == "PORTFOLIO") return Policy::kPortfolio;
  if (t == "HEURISTIC") return Policy::kHeuristic;
  throw ProtocolError("unknown policy '" + std::string(tok) + "'");
}

[[nodiscard]] std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
    std::size_t j = i;
    while (j < line.size() &&
           std::isspace(static_cast<unsigned char>(line[j])) == 0) {
      ++j;
    }
    if (j > i) toks.push_back(line.substr(i, j - i));
    i = j;
  }
  return toks;
}

void append_hex16(std::string& out, std::uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kHex[(v >> shift) & 0xf]);
  }
}

}  // namespace

const char* to_string(Family f) {
  switch (f) {
    case Family::kButterfly: return "B";
    case Family::kWrapped: return "W";
    case Family::kCcc: return "CCC";
    case Family::kHypercube: return "Q";
  }
  return "?";
}

const char* to_string(QueryKind k) {
  switch (k) {
    case QueryKind::kBisectionWidth: return "BW";
    case QueryKind::kBoundary: return "BOUNDARY";
  }
  return "?";
}

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kExact: return "exact";
    case Policy::kPortfolio: return "portfolio";
    case Policy::kHeuristic: return "heuristic";
  }
  return "?";
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kShed: return "shed";
    case Status::kDeadline: return "deadline";
    case Status::kBadRequest: return "bad-request";
    case Status::kFailed: return "failed";
  }
  return "?";
}

const char* to_string(Source s) {
  switch (s) {
    case Source::kNone: return "none";
    case Source::kMemory: return "memory";
    case Source::kDisk: return "disk";
    case Source::kComputed: return "computed";
    case Source::kCoalesced: return "coalesced";
  }
  return "?";
}

std::uint64_t instance_nodes(Family family, std::uint32_t n) {
  if (!is_pow2(n)) return 0;
  const std::uint64_t d = log2_u32(n);
  switch (family) {
    case Family::kButterfly: return (d + 1) * n;
    case Family::kWrapped: return d * n;
    case Family::kCcc: return d * n;
    case Family::kHypercube: return n;
  }
  return 0;
}

bool valid_instance(Family family, std::uint32_t n) {
  if (!is_pow2(n)) return false;
  switch (family) {
    case Family::kButterfly:
      if (n < 2) return false;
      break;
    case Family::kWrapped:
    case Family::kCcc:
      if (n < 4) return false;  // the builders need log n >= 2
      break;
    case Family::kHypercube:
      if (n < 2) return false;
      break;
  }
  const std::uint64_t nodes = instance_nodes(family, n);
  return nodes > 0 && nodes <= kMaxNodes;
}

Graph build_graph(Family family, std::uint32_t n) {
  BFLY_ASSERT(valid_instance(family, n));
  switch (family) {
    case Family::kButterfly: return topo::Butterfly(n).graph();
    case Family::kWrapped: return topo::WrappedButterfly(n).graph();
    case Family::kCcc: return topo::CubeConnectedCycles(n).graph();
    case Family::kHypercube: return topo::Hypercube(log2_u32(n)).graph();
  }
  BFLY_ASSERT(false);
  return {};
}

algo::PermutationGroup automorphism_group(Family family, std::uint32_t n) {
  BFLY_ASSERT(valid_instance(family, n));
  const NodeId nodes = static_cast<NodeId>(instance_nodes(family, n));
  switch (family) {
    case Family::kButterfly:
      return {nodes, topo::Butterfly(n).automorphism_generators()};
    case Family::kWrapped:
      return {nodes, topo::WrappedButterfly(n).automorphism_generators()};
    case Family::kCcc:
      return {nodes, topo::CubeConnectedCycles(n).automorphism_generators()};
    case Family::kHypercube:
      return {nodes, topo::Hypercube(log2_u32(n)).automorphism_generators()};
  }
  BFLY_ASSERT(false);
  return {};
}

namespace {

/// What BOUNDARY queries need of one <= 64-node instance, built once per
/// process: the graph and the automorphism group's full element list,
/// flat as one-byte images (element e maps v to images[e * nodes + v]).
struct BoundaryInstance {
  std::once_flag once;
  NodeId nodes = 0;
  Graph graph;
  std::vector<std::uint8_t> images;
};

const BoundaryInstance& boundary_instance(Family family, std::uint32_t n) {
  BFLY_CHECK(valid_instance(family, n) &&
                 instance_nodes(family, n) <= kMaxBoundaryNodes,
             "boundary queries need a valid <= 64-node instance");
  // Indexed by (family, log2 n): n <= 64 on every <= 64-node instance.
  static std::array<std::array<BoundaryInstance, 7>, 4> table;
  BoundaryInstance& slot =
      table[static_cast<std::size_t>(family)][log2_u32(n)];
  std::call_once(slot.once, [&slot, family, n] {
    const algo::PermutationGroup group = automorphism_group(family, n);
    const std::vector<algo::Perm>* elements =
        group.elements(kMaxBoundaryGroupOrder);
    BFLY_CHECK(elements != nullptr,
               "automorphism group exceeds the canonicalization cap");
    slot.nodes = group.degree();
    slot.images.reserve(elements->size() * slot.nodes);
    for (const algo::Perm& p : *elements) {
      slot.images.insert(slot.images.end(), p.begin(), p.end());
    }
    slot.graph = build_graph(family, n);
  });
  return slot;
}

}  // namespace

std::uint64_t canonical_mask(Family family, std::uint32_t n,
                             std::uint64_t mask) {
  const BoundaryInstance& inst = boundary_instance(family, n);
  // The orbit is the set of images of the mask under every element (the
  // identity among them), so its lex-min is the least image.
  std::uint64_t best = mask;
  for (std::size_t off = 0; off < inst.images.size(); off += inst.nodes) {
    const std::uint8_t* image = inst.images.data() + off;
    std::uint64_t out = 0;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      out |= std::uint64_t{1} << image[std::countr_zero(m)];
    }
    best = std::min(best, out);
  }
  return best;
}

std::uint64_t subset_edge_boundary(Family family, std::uint32_t n,
                                   std::uint64_t mask) {
  std::vector<NodeId> set;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    set.push_back(static_cast<NodeId>(std::countr_zero(m)));
  }
  return expansion::edge_boundary(boundary_instance(family, n).graph, set);
}

std::uint64_t canonical_key(const Request& r, std::uint64_t canon_mask) {
  namespace wire = robust::wire;
  std::uint64_t h = wire::kFnvOffset;
  h = wire::fnv1a_u64(h, 0x42464c59u);  // 'BFLY' domain tag
  h = wire::fnv1a_u64(h, static_cast<std::uint64_t>(r.kind));
  h = wire::fnv1a_u64(h, static_cast<std::uint64_t>(r.family));
  h = wire::fnv1a_u64(h, r.n);
  if (r.kind == QueryKind::kBoundary) h = wire::fnv1a_u64(h, canon_mask);
  return h;
}

std::uint64_t canonical_key(const Request& r) {
  return canonical_key(r, r.kind == QueryKind::kBoundary
                              ? canonical_mask(r.family, r.n, r.subset_mask)
                              : 0);
}

Request parse_request(std::string_view line) {
  if (line.size() > kMaxLineBytes) {
    throw ProtocolError("line exceeds " + std::to_string(kMaxLineBytes) +
                        " bytes");
  }
  const std::vector<std::string_view> toks = tokenize(line);
  if (toks.empty()) {
    throw ProtocolError("empty request line");
  }

  Request r;
  const std::string verb = upper(toks[0]);
  std::size_t pos = 1;
  if (verb == "BW") {
    r.kind = QueryKind::kBisectionWidth;
  } else if (verb == "BOUNDARY") {
    r.kind = QueryKind::kBoundary;
  } else {
    throw ProtocolError("unknown verb '" + std::string(toks[0]) + "'");
  }

  if (pos >= toks.size()) throw ProtocolError("missing family");
  r.family = parse_family(toks[pos++]);
  if (pos >= toks.size()) throw ProtocolError("missing width parameter n");
  r.n = static_cast<std::uint32_t>(
      parse_u64(toks[pos++], "n", std::uint64_t{1} << 20));
  if (r.kind == QueryKind::kBoundary) {
    if (pos >= toks.size()) throw ProtocolError("missing subset mask");
    r.subset_mask = parse_u64(toks[pos++], "mask",
                              std::numeric_limits<std::uint64_t>::max(), 16);
  }

  for (; pos < toks.size(); ++pos) {
    const std::string_view tok = toks[pos];
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw ProtocolError("expected key=value, got '" + std::string(tok) +
                          "'");
    }
    const std::string key = upper(tok.substr(0, eq));
    const std::string_view val = tok.substr(eq + 1);
    if (key == "POLICY") {
      r.policy = parse_policy(val);
    } else if (key == "DEADLINE_MS") {
      r.deadline_seconds =
          static_cast<double>(parse_u64(val, "deadline_ms", 86'400'000)) /
          1e3;
    } else if (key == "NODES") {
      r.node_budget = parse_u64(val, "nodes",
                                std::numeric_limits<std::uint64_t>::max());
    } else if (key == "ID") {
      if (val.empty() || val.size() > kMaxIdChars) {
        throw ProtocolError("id must be 1.." + std::to_string(kMaxIdChars) +
                            " chars");
      }
      for (const char c : val) {
        if (!id_char_ok(c)) {
          throw ProtocolError("id holds a character outside [A-Za-z0-9._:-]");
        }
      }
      r.id = std::string(val);
    } else {
      throw ProtocolError("unknown option '" + key + "'");
    }
  }
  return r;
}

std::string format_response(const Response& r) {
  std::string out;
  out.reserve(96);
  const std::string& id = r.id.empty() ? std::string("-") : r.id;
  if (r.status == Status::kOk) {
    out += "OK id=";
    out += id;
    out += " key=";
    append_hex16(out, r.key);
    out += " value=" + std::to_string(r.value);
    out += " exact=";
    out += r.exact ? '1' : '0';
    out += " source=";
    out += to_string(r.source);
    char ms[32];
    std::snprintf(ms, sizeof ms, " ms=%.3f", r.wall_ms);
    out += ms;
  } else {
    out += "ERR id=";
    out += id;
    out += " status=";
    out += to_string(r.status);
    if (!r.detail.empty()) {
      out += " detail=";
      for (const char c : r.detail) {
        out.push_back(c == '\n' || c == '\r' ? ' ' : c);
      }
    }
  }
  return out;
}

}  // namespace bfly::service
