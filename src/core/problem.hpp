// The k-token dissemination instance a session runs, and the record it
// reports back.  Algorithms and adversaries are picked by registry name
// (core/registry.hpp); a run is a `session` (core/session.hpp).
#pragma once

#include <string>

#include "core/metrics.hpp"
#include "protocols/common.hpp"

namespace ncdn {

struct problem {
  std::size_t n = 0;  // nodes
  std::size_t k = 0;  // tokens
  std::size_t d = 0;  // token bits
  std::size_t b = 0;  // message bits (b >= log2 n)
  round_t t_stability = 1;
  placement place = placement::one_per_node;
  double slack = 2.0;  // constant hidden in the O(b) message budget (§7)
};

/// The session's run record: the protocol_result the protocol reported,
/// the instance it ran on, the registry names that selected it, and the
/// session-observed per-round aggregates.
struct run_report : protocol_result {
  problem prob;
  std::string algorithm_name;
  std::string adversary_name;
  std::uint64_t seed = 0;
  session_metrics metrics;
};

}  // namespace ncdn
