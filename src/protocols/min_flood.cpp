#include "protocols/min_flood.hpp"

#include <algorithm>

namespace ncdn {

min_flood::min_flood(std::size_t nodes, std::size_t universe,
                     std::size_t batch, std::size_t item_bits,
                     const std::vector<bool>* fail)
    : universe_(universe),
      batch_(batch),
      item_bits_(static_cast<std::uint32_t>(item_bits)),
      fail_channel_(fail != nullptr),
      seen_(nodes, bitvec(universe)),
      active_(nodes, bitvec(universe)),
      fail_(fail != nullptr ? *fail : std::vector<bool>(nodes, false)) {
  NCDN_EXPECTS(batch >= 1 && item_bits <= UINT32_MAX);
  NCDN_EXPECTS(fail_.size() == nodes);
}

bool min_flood::any_fail() const {
  return std::find(fail_.begin(), fail_.end(), true) != fail_.end();
}

std::vector<std::size_t> min_flood::smallest(node_id u, bool consume) {
  bitvec& mask = active_[u];
  std::vector<std::size_t> out;
  for (std::size_t i = mask.first_set(); i < universe_ && out.size() < batch_;
       i = mask.first_set_from(i + 1)) {
    if (out.empty()) out.reserve(std::min(batch_, universe_));
    out.push_back(i);
    if (consume) mask.set(i, false);
  }
  return out;
}

std::vector<std::size_t> min_flood::agreed(bool consume) {
  const std::vector<std::size_t> first = smallest(0, consume);
  for (node_id u = 1; u < active_.size(); ++u) {
    NCDN_ASSERT(smallest(u, consume) == first);  // min-flood agreement
  }
  return first;
}

}  // namespace ncdn
