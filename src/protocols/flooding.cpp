#include "protocols/flooding.hpp"

#include <algorithm>
#include <optional>

#include "linalg/bitvec.hpp"

namespace ncdn {

namespace {

/// A token-forwarding message: up to B tokens, each d bits on the wire.
struct forward_msg {
  std::vector<std::size_t> tokens;  // global token indices (wire: payloads)
  std::size_t d_bits = 0;
  std::size_t bit_size() const noexcept { return tokens.size() * d_bits; }
};

}  // namespace

round_task<protocol_result> flooding_machine(network& net, token_state& st,
                                             flooding_config cfg) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t k = dist.k();
  const std::size_t d = dist.d_bits;
  NCDN_EXPECTS(cfg.b_bits >= d);
  const std::size_t batch = std::max<std::size_t>(1, cfg.b_bits / d);

  // Tokens are compared as d-bit strings; precompute that order once and
  // work in rank space (rank r <-> token order[r]).
  const std::vector<std::size_t> order = payload_order(dist);
  std::vector<std::size_t> rank_of(k);
  for (std::size_t i = 0; i < k; ++i) rank_of[order[i]] = i;

  // active[u]: ranks known to u and not yet finalized (k-bit mask).
  // unsent[u]: pipelined mode only — active ranks not yet sent this pass.
  std::vector<bitvec> active(n, bitvec(k));
  std::vector<bitvec> unsent;
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t t : dist.held_by_node[u]) active[u].set(rank_of[t]);
  }

  const round_t phase_len = static_cast<round_t>(std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.phase_factor * static_cast<double>(n))));
  const std::size_t phases = (k + batch - 1) / batch;

  protocol_result res;
  const round_t start_round = net.rounds_elapsed();

  auto deliver = [&](node_id u, const std::vector<const forward_msg*>& inbox) {
    for (const forward_msg* m : inbox) {
      for (std::size_t t : m->tokens) {
        if (st.knows(u, t)) continue;
        st.learn(u, t);
        active[u].set(rank_of[t]);
        if (cfg.pipelined) unsent[u].set(rank_of[t]);
      }
    }
  };
  // The tokens of the B smallest ranks set in `mask`; `consume` clears them.
  auto smallest = [&](bitvec& mask, bool consume) {
    std::vector<std::size_t> tokens;
    for (std::size_t rk = mask.first_set(); rk < k && tokens.size() < batch;
         rk = mask.first_set_from(rk + 1)) {
      if (tokens.empty()) tokens.reserve(std::min(batch, k));
      tokens.push_back(order[rk]);
      if (consume) mask.set(rk, false);
    }
    return tokens;
  };
  auto message = [&](bitvec& mask,
                     bool consume) -> std::optional<forward_msg> {
    std::vector<std::size_t> tokens = smallest(mask, consume);
    if (tokens.empty()) return std::nullopt;
    return forward_msg{std::move(tokens), d};
  };

  if (cfg.pipelined) {
    // Streaming mode: no finalization schedule (see header); run until the
    // observer sees completion or a generous cap.
    unsent = active;
    const round_t cap = 4 * static_cast<round_t>(phases) * phase_len +
                        4 * static_cast<round_t>(n);
    for (round_t r = 0; r < cap && !st.all_complete(); ++r) {
      net.step<forward_msg>(
          st,
          [&](node_id u, rng&) -> std::optional<forward_msg> {
            if (!unsent[u].any()) unsent[u] = active[u];  // restart stream
            return message(unsent[u], /*consume=*/true);
          },
          deliver);
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
      net.step<forward_msg>(
          st,
          [&](node_id u, rng&) -> std::optional<forward_msg> {
            return message(active[u], /*consume=*/false);
          },
          deliver);
      co_await next_round;
      if (res.completion_round == 0 && st.all_complete()) {
        res.completion_round = net.rounds_elapsed() - start_round;
      }
    }
    // Phase boundary: every node finalizes its `batch` smallest known
    // non-finalized tokens.  The min-flood argument (header comment)
    // guarantees all nodes pick the same set; asserted here.
    const auto first_choice = smallest(active[0], /*consume=*/true);
    for (node_id u = 0; u < n; ++u) {
      const std::vector<std::size_t> done =
          u == 0 ? first_choice : smallest(active[u], /*consume=*/true);
      NCDN_ASSERT(done == first_choice);  // min-flood agreement
      for (std::size_t t : done) st.retire(u, t);
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
