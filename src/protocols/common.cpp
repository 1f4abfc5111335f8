#include "protocols/common.hpp"

#include <algorithm>
#include <numeric>

namespace ncdn {

std::vector<std::size_t> payload_order(const token_distribution& dist) {
  std::vector<std::size_t> order(dist.k());
  std::iota(order.begin(), order.end(), std::size_t{0});
  auto less = [&](std::size_t a, std::size_t b) {
    const bitvec& pa = dist.tokens[a].payload;
    const bitvec& pb = dist.tokens[b].payload;
    const auto& wa = pa.words();
    const auto& wb = pb.words();
    for (std::size_t i = 0; i < wa.size(); ++i) {
      if (wa[i] != wb[i]) return wa[i] < wb[i];
    }
    return a < b;
  };
  std::sort(order.begin(), order.end(), less);
  return order;
}

payload_index::payload_index(const token_distribution& dist) {
  map_.reserve(dist.k());
  for (std::size_t t = 0; t < dist.k(); ++t) {
    map_.emplace(dist.tokens[t].payload.hash(), t);
  }
  NCDN_ENSURES(map_.size() == dist.k());  // payloads are distinct
}

bitvec pack_block(const token_distribution& dist,
                  std::span<const std::size_t> tokens,
                  std::size_t item_bits) {
  const std::size_t d = dist.d_bits;
  bitvec block(item_bits);
  const std::size_t slots = std::min(tokens.size(), item_bits / d);
  for (std::size_t j = 0; j < slots; ++j) {
    block.copy_bits_from(dist.tokens[tokens[j]].payload, 0, d, j * d);
  }
  return block;
}

void unpack_block(const bitvec& block, std::size_t d_bits,
                  const payload_index& index, std::vector<std::size_t>& out) {
  for (std::size_t j = 0; j < block.size() / d_bits; ++j) {
    const bitvec payload = block.slice(j * d_bits, d_bits);
    if (!payload.any()) continue;  // padding
    out.push_back(index.at(payload.hash()));
  }
}

}  // namespace ncdn
