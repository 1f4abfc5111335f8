// Centralized coding (S17, Corollary 2.6) and the counting application
// (S18, §4.1 remark).
#include <gtest/gtest.h>

#include "protocols/centralized.hpp"
#include "protocols/counting.hpp"

namespace ncdn {
namespace {

TEST(centralized, disseminates_in_linear_rounds) {
  for (std::size_t n : {16u, 32u}) {
    rng r(3 + n);
    const auto dist = make_distribution(n, n, 16, placement::one_per_node, r);
    auto adv = make_permuted_path(n, 7);
    network net(n, 64, *adv, 11);
    token_state st(dist);
    centralized_config cfg;
    cfg.b_bits = 64;
    const protocol_result res =
        run_rounds(centralized_rlnc_machine(net, st, cfg));
    EXPECT_TRUE(res.complete);
    // Theta(n): generous constant but clearly linear, and headerless.
    EXPECT_LE(res.rounds, 8 * n);
    EXPECT_LE(res.max_message_bits, 64u);
  }
}

TEST(centralized, message_carries_no_header_bits) {
  // With b = 4d, four combinations fit and the wire cost is exactly b.
  const std::size_t n = 12, d = 16, b = 64;
  rng r(13);
  const auto dist = make_distribution(n, n, d, placement::one_per_node, r);
  auto adv = make_static_path(n);
  network net(n, b, *adv, 17);
  token_state st(dist);
  centralized_config cfg;
  cfg.b_bits = b;
  const protocol_result res =
      run_rounds(centralized_rlnc_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.max_message_bits, (b / d) * d);
}

TEST(centralized, works_on_sorted_path_adversary) {
  const std::size_t n = 20;
  rng r(19);
  const auto dist = make_distribution(n, n, 8, placement::one_per_node, r);
  auto adv = make_sorted_path();
  network net(n, 32, *adv, 23);
  token_state st(dist);
  centralized_config cfg;
  cfg.b_bits = 32;
  const protocol_result res =
      run_rounds(centralized_rlnc_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
}

struct counting_case {
  std::size_t n;
  counting_engine engine;
  // Pinned for the seeds below, so that a change to either engine's UID
  // flood state cannot move a run unnoticed.
  round_t rounds;
  std::size_t final_estimate;
};

class counting_suite : public ::testing::TestWithParam<counting_case> {};

TEST_P(counting_suite, counts_exactly) {
  const counting_case c = GetParam();
  auto adv = make_permuted_path(c.n, 29);
  network net(c.n, 128, *adv, 31);
  counting_config cfg;
  cfg.b_bits = 128;
  cfg.engine = c.engine;
  const counting_result res = run_counting(net, cfg);
  EXPECT_TRUE(res.correct);
  EXPECT_EQ(res.count, c.n);
  // Estimates double from 2; the winning estimate is in [n, 2n).
  EXPECT_GE(res.final_estimate, c.n);
  EXPECT_LT(res.final_estimate, 2 * c.n + 2);
  EXPECT_EQ(res.rounds, c.rounds);
  EXPECT_EQ(res.final_estimate, c.final_estimate);
}

INSTANTIATE_TEST_SUITE_P(
    sizes_and_engines, counting_suite,
    ::testing::Values(counting_case{5, counting_engine::flooding, 72, 8},
                      counting_case{12, counting_engine::flooding, 232, 16},
                      counting_case{23, counting_engine::flooding, 808, 32},
                      counting_case{5, counting_engine::coding, 214, 8},
                      counting_case{12, counting_engine::coding, 478, 16},
                      counting_case{23, counting_engine::coding, 996, 32}));

TEST(counting, works_on_static_and_geometric_topologies) {
  for (int which = 0; which < 2; ++which) {
    const std::size_t n = 14;
    auto adv = which == 0 ? make_static_path(n)
                          : make_random_geometric(n, 0.35, 37);
    network net(n, 128, *adv, 41);
    counting_config cfg;
    cfg.b_bits = 128;
    const counting_result res = run_counting(net, cfg);
    EXPECT_TRUE(res.correct) << "topology " << which;
  }
}

TEST(counting, attempts_grow_logarithmically) {
  const std::size_t n = 29;
  auto adv = make_permuted_path(n, 43);
  network net(n, 128, *adv, 47);
  counting_config cfg;
  cfg.b_bits = 128;
  const counting_result res = run_counting(net, cfg);
  ASSERT_TRUE(res.correct);
  // 2 -> 4 -> 8 -> 16 -> 32: five attempts for n = 29.
  EXPECT_EQ(res.attempts, 5u);
}

}  // namespace
}  // namespace ncdn
