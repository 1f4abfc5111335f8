#include "protocols/naive_indexed.hpp"

#include <algorithm>

#include "core/bits.hpp"
#include "protocols/min_flood.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {

round_task<protocol_result> naive_indexed_machine(
    network& net, token_state& st, naive_indexed_config cfg) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t k = dist.k();
  const std::size_t d = dist.d_bits;
  const std::size_t id_bits = dist.id_bits();
  NCDN_EXPECTS(cfg.b_bits >= d);
  NCDN_EXPECTS(cfg.b_bits >= 2 * id_bits);

  // m IDs per iteration: half the message for coefficients in the coded
  // phase, and the flood carries m IDs per message.
  const std::size_t m = std::max<std::size_t>(1, cfg.b_bits / (2 * id_bits));

  const std::size_t max_iters =
      cfg.max_iterations != 0 ? cfg.max_iterations : 8 + 4 * ceil_div(k, m) * 2;

  protocol_result res;
  const round_t start = net.rounds_elapsed();
  std::vector<bool> raise_fail(n, false);
  std::vector<std::vector<std::size_t>> last_iter_tokens(n);

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    // --- min-flood of the m smallest unretired IDs (n rounds).  Tokens are
    //     sorted by (origin, seq), so token-index order is packed-ID order.
    min_flood ids(n, k, m, id_bits, &raise_fail);
    std::fill(raise_fail.begin(), raise_fail.end(), false);
    for (node_id u = 0; u < n; ++u) ids.seed(u, st.remaining_mask(u));
    for (std::size_t r = 0; r < n; ++r) {
      ids.round(net, st);
      co_await next_round;
    }
    if (ids.any_fail()) {
      for (node_id u = 0; u < n; ++u) {
        for (std::size_t t : last_iter_tokens[u]) st.reinstate(u, t);
        last_iter_tokens[u].clear();
      }
      continue;
    }
    for (auto& v : last_iter_tokens) v.clear();

    // All nodes agree on the m smallest (min-flood, full n rounds).
    const std::vector<std::size_t> sel_tokens = ids.agreed(/*consume=*/false);
    if (sel_tokens.empty()) {
      res.epochs = iter + 1;
      break;  // nothing unretired anywhere
    }

    // --- indexed broadcast of the selected tokens (sorted-ID indexing) ---
    rlnc_session session(n, sel_tokens.size(), d);
    session.set_arena(net.arena());
    for (std::size_t i = 0; i < sel_tokens.size(); ++i) {
      for (node_id u = 0; u < n; ++u) {
        if (st.knows(u, sel_tokens[i])) {
          session.seed(u, i, dist.tokens[sel_tokens[i]].payload);
        }
      }
    }
    const round_t bc_rounds = static_cast<round_t>(std::max<std::size_t>(
        1, static_cast<std::size_t>(
               cfg.broadcast_factor *
               static_cast<double>(n + sel_tokens.size()))));
    co_await session.run_stepped(net, bc_rounds, /*stop_early=*/false);

    for (node_id u = 0; u < n; ++u) {
      if (!session.node_complete(u)) {
        raise_fail[u] = true;
        continue;
      }
      for (std::size_t i = 0; i < sel_tokens.size(); ++i) {
        st.learn(u, sel_tokens[i]);
        st.retire(u, sel_tokens[i]);
        last_iter_tokens[u].push_back(sel_tokens[i]);
      }
    }
    if (res.completion_round == 0 && st.all_complete()) {
      res.completion_round = net.rounds_elapsed() - start;
    }
    res.epochs = iter + 1;
  }

  res.rounds = net.rounds_elapsed() - start;
  res.complete = st.all_complete();
  if (res.completion_round == 0 && res.complete) {
    res.completion_round = res.rounds;
  }
  res.max_message_bits = net.max_observed_message_bits();
  co_return res;
}

}  // namespace ncdn
