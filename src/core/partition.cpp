#include "core/partition.hpp"

#include "core/error.hpp"

namespace bfly {

Partition::Partition(const Graph& g)
    : g_(&g), sides_(g.num_nodes(), 0), size0_(g.num_nodes()) {}

Partition::Partition(const Graph& g, const std::vector<std::uint8_t>& sides)
    : g_(&g), sides_(sides) {
  BFLY_CHECK(sides_.size() == g.num_nodes(),
             "side assignment size must equal node count");
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    BFLY_CHECK(sides_[v] <= 1, "sides must be 0 or 1");
    if (sides_[v] == 0) ++size0_;
  }
  cut_ = recompute_capacity();
}

std::int64_t Partition::gain(NodeId v) const {
  const int s = sides_[v];
  std::int64_t cross = 0, same = 0;
  for (const NodeId u : g_->neighbors(v)) {
    if (sides_[u] == s) {
      ++same;
    } else {
      ++cross;
    }
  }
  return cross - same;
}

void Partition::move(NodeId v) {
  const std::int64_t gv = gain(v);
  cut_ = static_cast<std::size_t>(static_cast<std::int64_t>(cut_) - gv);
  if (sides_[v] == 0) {
    --size0_;
  } else {
    ++size0_;
  }
  sides_[v] ^= 1;
}

bool Partition::is_bisection() const noexcept {
  const std::size_t n = sides_.size();
  const std::size_t half = (n + 1) / 2;
  return size0_ <= half && (n - size0_) <= half;
}

std::size_t Partition::recompute_capacity() const {
  return bfly::cut_capacity(*g_, sides_);
}

void Partition::validate() const {
  BFLY_CHECK(sides_.size() == g_->num_nodes(),
             "partition size must equal node count");
  std::size_t zeros = 0;
  for (const auto s : sides_) {
    BFLY_CHECK(s <= 1, "sides must be 0 or 1");
    if (s == 0) ++zeros;
  }
  BFLY_CHECK(zeros == size0_, "cached side-0 count does not match recount");
  BFLY_CHECK(cut_ == recompute_capacity(),
             "cached cut capacity does not match recount");
}

std::size_t cut_capacity(const Graph& g,
                         const std::vector<std::uint8_t>& sides) {
  BFLY_CHECK(sides.size() == g.num_nodes(), "side assignment size mismatch");
  std::size_t c = 0;
  for (const auto& [u, v] : g.edges()) {
    if (sides[u] != sides[v]) ++c;
  }
  return c;
}

}  // namespace bfly
