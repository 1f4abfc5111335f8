#include "protocols/flooding.hpp"

#include <algorithm>

#include "protocols/min_flood.hpp"

namespace ncdn {

round_task<protocol_result> flooding_machine(network& net, token_state& st,
                                             flooding_config cfg) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t k = dist.k();
  const std::size_t d = dist.d_bits;
  NCDN_EXPECTS(cfg.b_bits >= d);
  const std::size_t batch = std::max<std::size_t>(1, cfg.b_bits / d);

  // Tokens are compared as d-bit strings; precompute that order once and
  // flood in rank space (rank r <-> token order[r]).
  const std::vector<std::size_t> order = payload_order(dist);
  min_flood flood(n, k, batch, d);
  {
    std::vector<std::size_t> rank_of(k);
    for (std::size_t i = 0; i < k; ++i) rank_of[order[i]] = i;
    for (node_id u = 0; u < n; ++u) {
      for (std::size_t t : dist.held_by_node[u]) flood.add(u, rank_of[t]);
    }
  }
  auto learn = [&](node_id u, std::size_t rk) { st.learn(u, order[rk]); };

  const round_t phase_len = static_cast<round_t>(std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.phase_factor * static_cast<double>(n))));
  const std::size_t phases = (k + batch - 1) / batch;

  protocol_result res;
  const round_t start_round = net.rounds_elapsed();

  if (cfg.pipelined) {
    // Streaming mode: no finalization schedule (see header); run until the
    // observer sees completion or a generous cap.  The active set is the
    // stream's unsent ranks; a node that has sent them all starts over.
    const round_t cap = 4 * static_cast<round_t>(phases) * phase_len +
                        4 * static_cast<round_t>(n);
    for (round_t r = 0; r < cap && !st.all_complete(); ++r) {
      for (node_id u = 0; u < n; ++u) {
        if (!flood.active(u).any()) flood.restart(u);
      }
      flood.round(net, st, learn, /*consume=*/true);
      co_await next_round;
    }
    res.rounds = net.rounds_elapsed() - start_round;
    res.complete = st.all_complete();
    res.completion_round = res.complete ? res.rounds : 0;
    res.max_message_bits = net.max_observed_message_bits();
    res.epochs = 1;
    co_return res;
  }

  for (std::size_t phase = 0; phase < phases; ++phase) {
    for (round_t r = 0; r < phase_len; ++r) {
      flood.round(net, st, learn);
      co_await next_round;
      if (res.completion_round == 0 && st.all_complete()) {
        res.completion_round = net.rounds_elapsed() - start_round;
      }
    }
    // Phase boundary: every node finalizes its `batch` smallest known
    // non-finalized tokens, the same set everywhere (header comment).
    for (std::size_t rk : flood.agreed(/*consume=*/true)) {
      for (node_id u = 0; u < n; ++u) st.retire(u, order[rk]);
    }
  }

  res.rounds = net.rounds_elapsed() - start_round;
  res.complete = st.all_complete();
  if (res.completion_round == 0 && res.complete) {
    res.completion_round = res.rounds;
  }
  res.max_message_bits = net.max_observed_message_bits();
  res.epochs = phases;
  co_return res;
}

}  // namespace ncdn
