#include "protocols/naive_indexed.hpp"

#include <algorithm>

#include "core/bits.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {

namespace {

struct id_flood_msg {
  std::vector<std::size_t> tokens;  // token indices (wire: packed ids)
  bool fail = false;
  std::size_t id_bits = 0;
  std::size_t bit_size() const noexcept {
    return tokens.size() * id_bits + 1;
  }
};

}  // namespace

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
  // known[u]: IDs node u has seen this flood, as a k-bit mask over token
  // indices.  Tokens are sorted by (origin, seq), so index order is packed-ID
  // order and the m smallest IDs are the mask's first m set bits.
  std::vector<bitvec> known(n);
  auto smallest = [&](node_id u) {
    std::vector<std::size_t> out;
    for (std::size_t t = known[u].first_set(); t < k && out.size() < m;
         t = known[u].first_set_from(t + 1)) {
      out.push_back(t);
    }
    return out;
  };

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    // --- min-flood of the m smallest unretired IDs (n rounds) ---
    std::vector<bool> fail_bit(raise_fail.begin(), raise_fail.end());
    std::fill(raise_fail.begin(), raise_fail.end(), false);
    for (node_id u = 0; u < n; ++u) known[u] = st.remaining_mask(u);
    for (std::size_t r = 0; r < n; ++r) {
      net.step<id_flood_msg>(
          st,
          [&](node_id u, rng&) -> std::optional<id_flood_msg> {
            id_flood_msg msg{smallest(u), fail_bit[u], id_bits};
            if (msg.tokens.empty() && !msg.fail) return std::nullopt;
            return msg;
          },
          [&](node_id u, const std::vector<const id_flood_msg*>& inbox) {
            for (const id_flood_msg* msg : inbox) {
              fail_bit[u] = fail_bit[u] || msg->fail;
              for (std::size_t t : msg->tokens) known[u].set(t);
            }
          });
      co_await next_round;
    }
    bool fail_seen = false;
    for (node_id u = 0; u < n; ++u) fail_seen = fail_seen || fail_bit[u];
    if (fail_seen) {
      for (node_id u = 0; u < n; ++u) {
        for (std::size_t t : last_iter_tokens[u]) st.reinstate(u, t);
        last_iter_tokens[u].clear();
      }
      continue;
    }
    for (auto& v : last_iter_tokens) v.clear();

    // All nodes agree on the m smallest (min-flood, full n rounds).
    const std::vector<std::size_t> sel_tokens = smallest(0);
    for (node_id u = 1; u < n; ++u) NCDN_ASSERT(smallest(u) == sel_tokens);
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
