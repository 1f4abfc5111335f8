// Registry + session tests: every registered protocol x adversary pair
// constructs and completes a tiny session through the string API,
// stepping is bit-identical to the inline run, and the observer stream /
// parameter machinery behave.  Also holds the token_state micro-asserts
// for the pre-reserved retirement storage.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"

namespace ncdn {
namespace {

// Per-protocol sizing for the tiny (n=8, k=8) cross-product: message budget
// and the stability window the engine needs to be feasible (patching wants
// a window long enough for full broadcast cycles inside it, §8).
struct tiny_shape {
  std::size_t b = 32;
  round_t t = 1;
};

tiny_shape shape_for(const std::string& protocol) {
  if (protocol == "tstable/patch" || protocol == "tstable/patch-gather") {
    return {32, 256};
  }
  if (protocol.rfind("tstable/", 0) == 0) return {32, 4};
  return {32, 1};
}

problem tiny_problem(const std::string& protocol) {
  const tiny_shape shape = shape_for(protocol);
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = shape.b;
  prob.t_stability = shape.t;
  return prob;
}

void expect_reports_equal(const run_report& a, const run_report& b,
                          const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.completion_round, b.completion_round) << what;
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.early_stop, b.early_stop) << what;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << what;
  EXPECT_EQ(a.epochs, b.epochs) << what;
  EXPECT_EQ(a.metrics.observed_completion_round,
            b.metrics.observed_completion_round)
      << what;
  EXPECT_EQ(a.metrics.total_message_bits, b.metrics.total_message_bits)
      << what;
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds) << what;
}

TEST(registries, names_are_unique) {
  const std::vector<std::string> protos = list_protocol_names();
  const std::vector<std::string> advs = list_adversary_names();
  EXPECT_GE(protos.size(), 13u);
  EXPECT_GE(advs.size(), 7u);
  for (std::size_t i = 0; i < protos.size(); ++i) {
    for (std::size_t j = i + 1; j < protos.size(); ++j) {
      EXPECT_NE(protos[i], protos[j]);
    }
  }
  for (std::size_t i = 0; i < advs.size(); ++i) {
    for (std::size_t j = i + 1; j < advs.size(); ++j) {
      EXPECT_NE(advs[i], advs[j]);
    }
  }
}

// The acceptance gate: every registered protocol x adversary name builds a
// tiny session through the string API and runs to completion.
using cross_case = std::pair<std::string, std::string>;

class registry_cross_suite
    : public ::testing::TestWithParam<cross_case> {};

TEST_P(registry_cross_suite, string_api_completes) {
  const auto& [proto, adv] = GetParam();
  const problem prob = tiny_problem(proto);
  const std::uint64_t seed = 17;

  // Live-subset adversaries (churn) only pair with partition-tolerant
  // protocols; every other combination must be rejected cleanly at
  // construction, never aborted mid-run.
  {
    const protocol_entry* entry = protocol_registry::instance().find(proto);
    ASSERT_NE(entry, nullptr);
    const auto adv_probe = build_adversary(prob, adversary_spec{adv, {}}, 1);
    if (entry->needs_full_connectivity && !adv_probe->full_connectivity()) {
      EXPECT_THROW(session(prob, protocol_spec{proto, {}},
                           adversary_spec{adv, {}}, seed),
                   std::invalid_argument);
      return;
    }
  }

  session s(prob, protocol_spec{proto, {}}, adversary_spec{adv, {}}, seed);
  const run_report rep = s.run_to_completion();
  EXPECT_TRUE(rep.complete) << proto << " on " << adv;
  EXPECT_GT(rep.rounds, 0u) << proto << " on " << adv;
  EXPECT_EQ(rep.algorithm_name, proto);
  EXPECT_EQ(rep.adversary_name, adv);
  if (rep.complete) {
    EXPECT_GT(rep.metrics.observed_completion_round, 0u) << proto;
  }
}

std::vector<cross_case> cross_product() {
  std::vector<cross_case> out;
  for (const std::string& p : list_protocol_names()) {
    for (const std::string& a : list_adversary_names()) {
      out.push_back({p, a});
    }
  }
  return out;
}

std::string cross_name(const ::testing::TestParamInfo<cross_case>& info) {
  std::string s = info.param.first + "_" + info.param.second;
  for (char& ch : s) {
    if (!(std::isalnum(static_cast<unsigned char>(ch)))) ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(all_pairs, registry_cross_suite,
                         ::testing::ValuesIn(cross_product()), cross_name);

TEST(session, stepping_is_bit_identical_to_inline_run) {
  for (const char* proto :
       {"token-forwarding", "greedy-forward", "rlnc-direct", "tstable/auto"}) {
    const problem prob = tiny_problem(proto);
    session inline_s(prob, protocol_spec{proto, {}},
                     adversary_spec{"permuted-path", {}}, 23);
    const run_report inline_rep = inline_s.run_to_completion();

    session stepped(prob, protocol_spec{proto, {}},
                    adversary_spec{"permuted-path", {}}, 23);
    round_t observed_rounds = 0;
    round_t last_round = 0;
    stepped.set_observer([&](const round_metrics& m) {
      ++observed_rounds;
      EXPECT_EQ(m.round, last_round + 1);  // every round, exactly once
      last_round = m.round;
      EXPECT_EQ(m.knowledge.size(), prob.n);
    });
    round_t steps = 0;
    while (stepped.step()) ++steps;
    ASSERT_TRUE(stepped.finished());
    const run_report& step_rep = stepped.report();

    expect_reports_equal(inline_rep, step_rep,
                         std::string(proto) + " (stepped vs inline)");
    EXPECT_EQ(steps, observed_rounds);
    EXPECT_EQ(observed_rounds, step_rep.metrics.rounds);
  }
}

TEST(session, observer_sees_monotone_knowledge_and_completion) {
  const problem prob = tiny_problem("token-forwarding");
  session s(prob, protocol_spec{"token-forwarding", {}},
            adversary_spec{"static-path", {}}, 5);
  std::size_t last_total = 0;
  round_t completion_seen = 0;
  s.set_observer([&](const round_metrics& m) {
    EXPECT_GE(m.total_knowledge, last_total);  // forwarding never forgets
    last_total = m.total_knowledge;
    if (completion_seen == 0 && m.all_complete(prob.k)) {
      completion_seen = m.round;
    }
  });
  const run_report& rep = s.run_to_completion();
  ASSERT_TRUE(rep.complete);
  EXPECT_EQ(completion_seen, rep.metrics.observed_completion_round);
  // The session's central observer subsumes the protocol's hand-rolled
  // completion tracking: flooding checks after every round, so the two
  // agree exactly.
  EXPECT_EQ(rep.metrics.observed_completion_round, rep.completion_round);
}

TEST(session, abandoning_a_stepped_session_mid_run_unwinds_cleanly) {
  const problem prob = tiny_problem("greedy-forward");
  session s(prob, protocol_spec{"greedy-forward", {}},
            adversary_spec{"permuted-path", {}}, 7);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.finished());
  // Destructor destroys the suspended machine's coroutine frames; there is
  // no protocol thread to cancel (see test_machine.cpp for the no-thread
  // assertions).
}

TEST(session, params_override_problem_and_reject_typos) {
  problem prob = tiny_problem("tstable/chunked");
  prob.t_stability = 1;  // overridden below

  param_map params;
  params["t_stability"] = "4";
  session s(prob, protocol_spec{"tstable/chunked", params},
            adversary_spec{"permuted-path", params}, 31);
  const run_report rep = s.run_to_completion();
  EXPECT_TRUE(rep.complete);
  EXPECT_EQ(rep.prob.t_stability, 4u);

  problem field_prob = prob;
  field_prob.t_stability = 4;
  session by_field(field_prob, protocol_spec{"tstable/chunked", {}},
                   adversary_spec{"permuted-path", {}}, 31);
  expect_reports_equal(rep, by_field.run_to_completion(),
                       "t_stability=4 param vs problem field");

  // The CLI hands both specs the same --param map: a key consumed by one
  // side (radius belongs to the adversary) must not trip the other.
  param_map shared;
  shared["radius"] = "0.9";
  session ok(prob, protocol_spec{"greedy-forward", shared},
             adversary_spec{"random-geometric", shared}, 3);
  EXPECT_TRUE(ok.run_to_completion().complete);

  EXPECT_THROW(session(prob, protocol_spec{"greedy-forward", {{"zap", "1"}}},
                       adversary_spec{"permuted-path", {}}, 1),
               std::invalid_argument);
  // Conflicting problem-level values across the two specs would configure
  // the driver and the network from different problems; rejected.
  EXPECT_THROW(session(prob, protocol_spec{"greedy-forward", {{"b", "64"}}},
                       adversary_spec{"permuted-path", {{"b", "16"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(session(prob, protocol_spec{"greedy-forward", {}},
                       adversary_spec{"permuted-path", {{"radius", "x"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(session(prob, protocol_spec{"no-such-protocol", {}},
                       adversary_spec{"permuted-path", {}}, 1),
               std::invalid_argument);
  EXPECT_THROW(session(prob, protocol_spec{"greedy-forward", {}},
                       adversary_spec{"no-such-adversary", {}}, 1),
               std::invalid_argument);
}

TEST(session, rejects_more_tokens_than_distinct_payloads) {
  // Tokens are distinct d-bit strings, so k >= 2^d is infeasible: the
  // session rejects it as a user error instead of tripping the token
  // generator's contract.
  problem prob;
  prob.n = 512;
  prob.k = 512;
  prob.d = 8;
  prob.b = 32;
  for (const char* proto : {"rlnc-direct", "token-forwarding"}) {
    try {
      session s(prob, protocol_spec{proto, {}},
                adversary_spec{"permuted-path", {}}, 1);
      FAIL() << proto << " accepted k = 2^d";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("k < 2^d"), std::string::npos)
          << err.what();
    }
  }
  // One short of the limit is feasible.
  prob.k = 255;
  prob.n = 255;
  EXPECT_NO_THROW(session(prob, protocol_spec{"token-forwarding", {}},
                          adversary_spec{"permuted-path", {}}, 1));
}

TEST(session, adversary_params_reshape_the_topology) {
  problem prob = tiny_problem("token-forwarding");
  // A denser random-connected graph should not disseminate slower on
  // average; mainly this proves the factory actually consumes the key.
  session sparse(prob, protocol_spec{"token-forwarding", {}},
                 adversary_spec{"random-connected", {{"extra_edges", "0"}}},
                 11);
  session dense(prob, protocol_spec{"token-forwarding", {}},
                adversary_spec{"random-connected", {{"extra_edges", "20"}}},
                11);
  const run_report rs = sparse.run_to_completion();
  const run_report rd = dense.run_to_completion();
  EXPECT_TRUE(rs.complete);
  EXPECT_TRUE(rd.complete);
  EXPECT_LE(rd.metrics.observed_completion_round,
            rs.metrics.observed_completion_round);
}

TEST(session, rejects_out_of_range_round_count_factors) {
  // Every *_factor multiplies a round count.  A negative one used to wrap
  // the cast (a hang), a huge one overflowed it, one that fit the cast
  // could still schedule ~1e16 rounds (1e15, a practical hang), and a
  // phased token-forwarding phase shorter than n rounds broke min-flood
  // agreement (an abort).  All are user errors now.
  const std::vector<std::pair<const char*, const char*>> factors = {
      {"token-forwarding", "phase_factor"},
      {"token-forwarding-pipelined", "phase_factor"},
      {"naive-indexed", "broadcast_factor"},
      {"greedy-forward", "gather_factor"},
      {"greedy-forward", "flood_factor"},
      {"greedy-forward", "broadcast_factor"},
      {"priority-forward/flooding", "broadcast_factor"},
      {"priority-forward/charged", "charged_factor"},
      {"tstable/chunked", "gather_factor"},
      {"tstable/chunked", "flood_factor"},
      {"tstable/chunked", "broadcast_cap_factor"},
      {"centralized-rlnc", "cap_factor"},
      {"rlnc-direct", "cap_factor"},
      {"rlnc-sparse", "cap_factor"},
      {"rlnc-gen", "cap_factor"},
  };
  auto expect_rejected = [](const char* proto, const char* key,
                            const char* value) {
    const problem prob = tiny_problem(proto);
    const param_map params = {{key, value}};
    const std::string spelling = std::string(key) + "=" + value;
    try {
      session s(prob, protocol_spec{proto, params},
                adversary_spec{"permuted-path", {}}, 1);
      ADD_FAILURE() << proto << " accepted " << spelling;
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find(spelling), std::string::npos)
          << err.what();
    }
  };
  for (const auto& [proto, key] : factors) {
    expect_rejected(proto, key, "-1");
    expect_rejected(proto, key, "1e15");
    expect_rejected(proto, key, "1e30");
  }
  expect_rejected("token-forwarding", "phase_factor", "0");
  expect_rejected("token-forwarding", "phase_factor", "0.5");
  // The ceiling is 2^32 rounds: 5e8 * n = 4e9 is accepted, 6e8 * n = 4.8e9
  // is not (n = 8).
  expect_rejected("token-forwarding", "phase_factor", "6e8");
  EXPECT_NO_THROW(session(tiny_problem("token-forwarding"),
                          protocol_spec{"token-forwarding",
                                        {{"phase_factor", "5e8"}}},
                          adversary_spec{"permuted-path", {}}, 1));

  // The boundaries themselves run: a phased run needs a full n-round
  // phase, the streaming run only uses the factor for its cap.
  for (const auto& [proto, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"token-forwarding", "1"}, {"token-forwarding-pipelined", "0"}}) {
    session s(tiny_problem(proto),
              protocol_spec{proto, {{"phase_factor", value}}},
              adversary_spec{"permuted-path", {}}, 1);
    EXPECT_TRUE(s.run_to_completion().complete) << proto;
  }
}

TEST(session, forwarding_statistics_are_pinned_above_golden_sizes) {
  // The n16 golden never reaches these sizes; pinning the run statistics
  // keeps a change to the forwarding and min-flood state from moving them
  // unnoticed.  Each row is `ncdn-run run --alg A --topo T --param ...`
  // at seed 1 (the problem below is ncdn-run's ad-hoc default).
  struct pinned {
    const char* alg;
    const char* topo;
    param_map params;
    round_t rounds;
    round_t completion_round;
    round_t observed_completion_round;
    std::size_t total_message_bits;
  };
  const std::vector<pinned> rows = {
      {"token-forwarding-pipelined", "t-interval-random",
       {{"n", "1024"}, {"k", "64"}, {"b", "64"}, {"t", "4"},
        {"placement", "random-spread"}},
       30, 30, 30, 1516032},
      {"token-forwarding", "random-connected",
       {{"n", "256"}, {"k", "256"}, {"d", "16"}, {"b", "64"}},
       16384, 16131, 16131, 268402256},
      {"naive-indexed", "permuted-path",
       {{"n", "128"}, {"k", "128"}, {"b", "64"}},
       41600, 41472, 41473, 74253995},
      {"priority-forward/flooding", "permuted-path",
       {{"n", "32"}, {"k", "32"}, {"b", "64"}},
       1504, 1472, 14, 3580576},
      {"tstable/patch-gather", "permuted-path",
       {{"n", "32"}, {"k", "32"}, {"d", "8"}, {"b", "16"},
        {"t_stability", "256"}},
       3616, 3328, 3397, 1044650},
  };
  for (const pinned& row : rows) {
    problem prob;
    prob.n = 16;
    prob.k = 16;
    prob.d = 8;
    prob.b = 32;
    session s(prob, protocol_spec{row.alg, row.params},
              adversary_spec{row.topo, row.params}, 1);
    const run_report rep = s.run_to_completion();
    EXPECT_TRUE(rep.complete) << row.alg;
    EXPECT_EQ(rep.rounds, row.rounds) << row.alg;
    EXPECT_EQ(rep.completion_round, row.completion_round) << row.alg;
    EXPECT_EQ(rep.metrics.observed_completion_round,
              row.observed_completion_round)
        << row.alg;
    EXPECT_EQ(rep.metrics.total_message_bits, row.total_message_bits)
        << row.alg;
  }
}

TEST(session, naive_indexed_completes_one_round_before_the_observer_sees_it) {
  // naive-indexed learns an iteration's tokens after its broadcast phase
  // returns, so the completing round R is reported as completion_round
  // while the session's per-round observer first sees every node complete
  // at the end of round R + 1, the first round of the confirming flood.
  // The n16 goldens carry both fields, so the offset is pinned here rather
  // than changed.
  problem prob;
  prob.n = 16;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;
  for (const char* topo : {"permuted-path", "random-connected",
                           "static-star"}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      session s(prob, protocol_spec{"naive-indexed", {}},
                adversary_spec{topo, {}}, seed);
      const run_report rep = s.run_to_completion();
      ASSERT_TRUE(rep.complete) << topo << " seed " << seed;
      EXPECT_EQ(rep.metrics.observed_completion_round,
                rep.completion_round + 1)
          << topo << " seed " << seed;
    }
  }
  // forwarding_statistics_are_pinned_above_golden_sizes pins the same
  // offset at n = k = 128.
}

TEST(session, greedy_forward_completion_round_bounds_the_observer) {
  // greedy-forward reports the end of the epoch whose broadcast finishes
  // the run; the observer sees every token known no more than one round
  // after that (the next gather round), and often far earlier, because
  // gathering relays tokens through every node.
  problem prob;
  prob.n = 16;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;
  std::size_t earlier = 0;
  std::size_t one_after = 0;
  for (const char* topo : {"permuted-path", "random-connected",
                           "static-star", "sorted-path"}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      session s(prob, protocol_spec{"greedy-forward", {}},
                adversary_spec{topo, {}}, seed);
      const run_report rep = s.run_to_completion();
      ASSERT_TRUE(rep.complete) << topo << " seed " << seed;
      const round_t observed = rep.metrics.observed_completion_round;
      EXPECT_LE(observed, rep.completion_round + 1)
          << topo << " seed " << seed;
      if (observed < rep.completion_round) ++earlier;
      if (observed == rep.completion_round + 1) ++one_after;
      if (std::string(topo) == "permuted-path" && seed == 1) {
        EXPECT_EQ(observed, 12u);
        EXPECT_EQ(rep.completion_round, 128u);
      }
    }
  }
  // Both sides of the bound occur on these cells.
  EXPECT_GT(earlier, 0u);
  EXPECT_GT(one_after, 0u);
}

TEST(token_state, learn_on_retired_token_stays_constant_time) {
  // The retirement mask is pre-reserved from dist.k() at construction, so
  // learning a globally retired token is a bit probe + counter bump and
  // never touches the remaining_/consideration bookkeeping.
  rng r(3);
  const token_distribution dist =
      make_distribution(8, 8, 8, placement::one_per_node, r);
  token_state st(dist);

  st.retire_everywhere(3);
  const node_id u = 5;
  ASSERT_FALSE(st.knows(u, 3));
  const std::size_t remaining_before = st.remaining_count(u);

  st.learn(u, 3);
  EXPECT_TRUE(st.knows(u, 3));
  EXPECT_FALSE(st.in_consideration(u, 3));  // retired stays retired
  EXPECT_EQ(st.remaining_count(u), remaining_before);

  // Re-learning is idempotent.
  st.learn(u, 3);
  EXPECT_EQ(st.remaining_count(u), remaining_before);

  // A non-retired token still enters consideration normally.
  if (!st.knows(u, 2)) {
    st.learn(u, 2);
    EXPECT_TRUE(st.in_consideration(u, 2));
  }
}

}  // namespace
}  // namespace ncdn
