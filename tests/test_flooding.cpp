// Token-forwarding baseline tests (system S7 / Theorem 2.1 upper bound).
#include <gtest/gtest.h>

#include <memory>

#include "protocols/flooding.hpp"

namespace ncdn {
namespace {

struct flood_case {
  std::size_t n, k, d, b;
  const char* adversary;
  bool pipelined;
};

class flooding_suite : public ::testing::TestWithParam<flood_case> {};

std::unique_ptr<adversary> build_adversary(const char* name, std::size_t n,
                                           std::uint64_t seed) {
  if (std::string(name) == "static-path") return make_static_path(n);
  if (std::string(name) == "static-star") return make_static_star(n);
  if (std::string(name) == "permuted-path") return make_permuted_path(n, seed);
  if (std::string(name) == "sorted-path") return make_sorted_path();
  return make_random_connected(n, n / 2, seed);
}

TEST_P(flooding_suite, disseminates_everything) {
  const flood_case c = GetParam();
  rng r(1000 + c.n + c.k);
  const auto dist = make_distribution(
      c.n, c.k, c.d,
      c.k == c.n ? placement::one_per_node : placement::random_spread, r);
  auto adv = build_adversary(c.adversary, c.n, 17);
  network net(c.n, c.b, *adv, 23);
  token_state st(dist);
  flooding_config cfg;
  cfg.b_bits = c.b;
  cfg.pipelined = c.pipelined;
  const protocol_result res = run_rounds(flooding_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
  EXPECT_GT(res.completion_round, 0u);
  EXPECT_LE(res.completion_round, res.rounds);
  const std::size_t batch = std::max<std::size_t>(1, c.b / c.d);
  if (!c.pipelined) {
    // Theorem 2.1 schedule: ceil(k/(b/d)) phases of n rounds.
    EXPECT_EQ(res.rounds, ((c.k + batch - 1) / batch) * c.n);
  }
  // Wire: at most batch tokens of d bits per message.
  EXPECT_LE(res.max_message_bits, batch * c.d);
}

INSTANTIATE_TEST_SUITE_P(
    sweeps, flooding_suite,
    ::testing::Values(
        flood_case{16, 16, 8, 8, "static-path", false},
        flood_case{16, 16, 8, 8, "permuted-path", false},
        flood_case{16, 16, 8, 8, "sorted-path", false},
        flood_case{24, 24, 8, 32, "permuted-path", false},
        flood_case{24, 12, 8, 16, "random-connected", false},
        flood_case{32, 32, 16, 64, "permuted-path", false},
        flood_case{16, 16, 8, 8, "static-star", false},
        flood_case{16, 16, 8, 8, "static-path", true},
        flood_case{24, 24, 8, 16, "permuted-path", true},
        flood_case{32, 16, 8, 8, "sorted-path", true}));

TEST(flooding, single_token_floods_in_one_phase) {
  rng r(5);
  const auto dist = make_distribution(12, 1, 8, placement::random_spread, r);
  auto adv = make_static_path(12);
  network net(12, 16, *adv, 5);
  token_state st(dist);
  flooding_config cfg;
  cfg.b_bits = 16;
  const protocol_result res = run_rounds(flooding_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.rounds, 12u);
  EXPECT_EQ(res.epochs, 1u);
}

TEST(flooding, larger_messages_cut_rounds_linearly) {
  // Theorem 2.1: rounds scale ~ 1/b (the linear regime coding beats).
  rng r(6);
  round_t prev = 0;
  for (std::size_t b : {8u, 16u, 32u, 64u}) {
    rng rr(7);
    const auto dist = make_distribution(16, 16, 8, placement::one_per_node, rr);
    auto adv = make_permuted_path(16, 9);
    network net(16, b, *adv, 9);
    token_state st(dist);
    flooding_config cfg;
    cfg.b_bits = b;
    const protocol_result res = run_rounds(flooding_machine(net, st, cfg));
    EXPECT_TRUE(res.complete);
    if (prev != 0) {
      EXPECT_EQ(res.rounds * 2, prev);
    }
    prev = res.rounds;
  }
}

// Emission order on a static path whose node 0 holds all k = 5 tokens, with
// B = b/d = 2 tokens per message.  Every node must forward the B smallest
// (by payload) ranks it has not yet sent, so node j learns rank batch
// {0,1}, {2,3}, {4} one per round (pipelined) or one per n-round phase
// (phased), and each round's wire carries exactly the modelled token count.
struct order_log {
  // learned[r][u]: payload ranks node u first knew after round r + 1.
  std::vector<std::vector<std::vector<std::size_t>>> learned;
  std::vector<std::size_t> tokens_on_wire;  // per round
};

order_log run_single_source_path(std::size_t n, bool pipelined) {
  constexpr std::size_t k = 5;
  constexpr std::size_t d = 8;
  rng r(41);
  const auto dist = make_distribution(n, k, d, placement::single_source, r);
  const std::vector<std::size_t> order = payload_order(dist);
  auto adv = make_static_path(n);
  network net(n, 2 * d, *adv, 3);
  token_state st(dist);
  std::vector<std::vector<bool>> seen(n, std::vector<bool>(k));
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t rk = 0; rk < k; ++rk) seen[u][rk] = st.knows(u, order[rk]);
  }
  order_log log;
  net.set_round_hook([&](const round_digest& digest) {
    auto& round = log.learned.emplace_back(n);
    for (node_id u = 0; u < n; ++u) {
      for (std::size_t rk = 0; rk < k; ++rk) {
        if (!seen[u][rk] && st.knows(u, order[rk])) {
          seen[u][rk] = true;
          round[u].push_back(rk);
        }
      }
    }
    log.tokens_on_wire.push_back(digest.message_bits / d);
  });
  flooding_config cfg;
  cfg.b_bits = 2 * d;
  cfg.pipelined = pipelined;
  const protocol_result res = run_rounds(flooding_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.rounds, log.learned.size());
  return log;
}

void expect_batches_arrive_at(const order_log& log, std::size_t n,
                              std::size_t round_stride) {
  const std::vector<std::vector<std::size_t>> batches = {{0, 1}, {2, 3}, {4}};
  for (node_id j = 1; j < n; ++j) {
    for (std::size_t r = 0; r < log.learned.size(); ++r) {
      std::vector<std::size_t> want;
      for (std::size_t i = 0; i < batches.size(); ++i) {
        if (i * round_stride + j == r + 1) want = batches[i];
      }
      EXPECT_EQ(log.learned[r][j], want) << "node " << j << " round " << r + 1;
    }
  }
}

TEST(flooding, pipelined_streams_smallest_ranks_first) {
  const order_log two = run_single_source_path(2, /*pipelined=*/true);
  expect_batches_arrive_at(two, 2, 1);
  EXPECT_EQ(two.tokens_on_wire, (std::vector<std::size_t>{2, 4, 3}));

  // Node 0 runs dry after round 3 and restarts its stream from every rank
  // it knows: round 4 carries its {0,1} again next to node 1's {4} and
  // node 2's {2,3}.
  const order_log three = run_single_source_path(3, /*pipelined=*/true);
  expect_batches_arrive_at(three, 3, 1);
  EXPECT_EQ(three.tokens_on_wire, (std::vector<std::size_t>{2, 4, 5, 5}));
}

TEST(flooding, phased_sends_smallest_unfinalized_ranks) {
  const order_log two = run_single_source_path(2, /*pipelined=*/false);
  expect_batches_arrive_at(two, 2, 2);
  EXPECT_EQ(two.tokens_on_wire,
            (std::vector<std::size_t>{2, 4, 2, 4, 1, 2}));

  const order_log three = run_single_source_path(3, /*pipelined=*/false);
  expect_batches_arrive_at(three, 3, 3);
  EXPECT_EQ(three.tokens_on_wire,
            (std::vector<std::size_t>{2, 4, 6, 2, 4, 6, 1, 2, 3}));
}

TEST(flooding, completion_tracks_observer_not_schedule) {
  // On a star the tokens spread much faster than the worst-case schedule;
  // completion_round must reflect that while rounds follows the schedule.
  rng r(8);
  const auto dist = make_distribution(20, 20, 8, placement::one_per_node, r);
  auto adv = make_static_star(20);
  network net(20, 8, *adv, 10);
  token_state st(dist);
  flooding_config cfg;
  cfg.b_bits = 8;
  const protocol_result res = run_rounds(flooding_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
  EXPECT_LT(res.completion_round, res.rounds);
}

}  // namespace
}  // namespace ncdn
