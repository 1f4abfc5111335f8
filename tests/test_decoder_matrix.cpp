// Encoder-schedule x decoder-strategy matrix tests (PR10).
//
// Four layers of guarantees:
//   * equivalence: the banded-pivot eliminator and the generic grouped
//     rref are the same code on the wire — identical draws, rounds, and
//     decodes over several seeds — and differ only in elimination cost
//     (banded XORs strictly fewer words);
//   * byte-identity: the default-path sweep (no link:/content:/sched:/dec:
//     cells) dumps bytes equal to the committed golden for every
//     threads x batch combination;
//   * decode-delay: the new session metrics are shaped sanely (p50 <= p90
//     <= max, events == n*k for complete one-shot coded runs) and absent
//     for token-forwarding protocols;
//   * oracle: every layout x dec cell agrees with per-window batch
//     elimination (gf2_rref, field_decoder<gf2>) on rank, decodability,
//     payloads, emitted rows and XOR counts, and the registry rejects
//     invalid sched=/dec= combos with messages listing the recognized
//     values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "coding/backend.hpp"
#include "coding/matrix.hpp"
#include "core/session.hpp"
#include "gf/field.hpp"
#include "linalg/bitmatrix.hpp"
#include "linalg/decoder.hpp"
#include "protocols/rlnc_broadcast.hpp"
#include "runner/sweep.hpp"

namespace ncdn {
namespace {

// --- banded vs generic grouped elimination ----------------------------------

struct run_signature {
  round_t rounds = 0;
  std::uint64_t xors = 0;
  std::vector<std::uint64_t> decode_hashes;
  std::vector<std::size_t> progress;

  bool same_wire(const run_signature& o) const {
    return rounds == o.rounds && decode_hashes == o.decode_hashes &&
           progress == o.progress;
  }
};

run_signature run_backend(std::unique_ptr<coding_backend> backend,
                          std::uint64_t seed, std::size_t n = 10,
                          std::size_t k = 12, std::size_t d = 16) {
  rng payload_rng(seed);
  auto adv = make_permuted_path(n, seed * 3 + 1);
  network net(n, k + d, *adv, seed * 5 + 2);
  rlnc_session s(n, k, d, std::move(backend));
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(payload_rng);
    payloads.push_back(p);
    s.seed(static_cast<node_id>(i % n), i, p);
  }
  run_signature sig;
  sig.rounds =
      run_rounds(s.run_stepped(net, 400 * (n + k), /*stop_early=*/true));
  EXPECT_TRUE(s.all_complete());
  sig.xors = s.xor_word_ops();
  for (node_id u = 0; u < n; ++u) {
    sig.progress.push_back(s.decode_progress(u));
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(s.decode(u, i), payloads[i]);
      sig.decode_hashes.push_back(s.decode(u, i).hash());
    }
  }
  return sig;
}

TEST(decoder_matrix, banded_equals_generic_on_the_wire_and_costs_less) {
  // Same generation layout, same schedule, same seeds: the two decoder
  // strategies must produce identical draws (hence rounds and decodes);
  // the banded eliminator XORs only g+w+d-bit-wide rows, so its word
  // count is strictly smaller.  Sizes are picked so the full row
  // (k+d = 128 bits) spans two words while the band window
  // (g+w+d = 52 bits) fits in one — a word-granular counter can only
  // see the saving once the widths straddle a word boundary.
  const std::size_t n = 10, k = 96, d = 32;
  for (const std::uint64_t seed : {11ull, 23ull, 37ull}) {
    matrix_spec banded;
    banded.dec = "banded";
    banded.gen_size = 16;
    banded.band_overlap = 4;
    matrix_spec generic = banded;
    generic.dec = "rref";
    const run_signature b =
        run_backend(make_matrix_backend(banded), seed, n, k, d);
    const run_signature g =
        run_backend(make_matrix_backend(generic), seed, n, k, d);
    EXPECT_TRUE(b.same_wire(g)) << "seed " << seed;
    EXPECT_LT(b.xors, g.xors) << "seed " << seed;
  }
}

// --- differential oracle: every layout x dec cell vs batch elimination ----
//
// Seeded row streams (window rows, singletons, duplicates, sums of earlier
// rows, all-zero rows, and rows straddling two generation windows) go into
// one node coder per matrix cell.  After every insert the coder's rank,
// decode_progress, can_decode and decode payloads must agree with an
// oracle that batch-reduces each window's rows with gf2_rref (cross-checked
// against field_decoder<gf2>), and every few inserts make_combination must
// equal the oracle's own coin over those reduced rows at the same rng seed:
// generation windows combine in pivot order, the full span in the order
// the rows claimed their pivots.  Elimination plus emission XOR words must
// equal the batch oracle's count.

struct coding_window {
  std::size_t start = 0;
  std::size_t width = 0;
};

std::vector<coding_window> layout_windows(std::size_t k, std::size_t gen_size,
                                          std::size_t band_overlap) {
  if (gen_size == 0) return {{0, k}};
  std::vector<coding_window> out;
  for (std::size_t start = 0; start < k; start += gen_size) {
    out.push_back({start, std::min(gen_size + band_overlap, k - start)});
  }
  return out;
}

// A row with coefficients lands in every window that covers its support.
bool fits(const bitvec& row, std::size_t k, const coding_window& w) {
  const std::size_t lo = row.first_set();
  if (lo < w.start || lo >= k) return false;
  for (std::size_t c = w.start + w.width; c < k; ++c) {
    if (row.get(c)) return false;
  }
  return true;
}

bitvec coded_row(const bitvec& coeffs, const std::vector<bitvec>& payloads) {
  const std::size_t k = coeffs.size(), d = payloads.front().size();
  bitvec payload(d);
  bitvec row(k + d);
  for (std::size_t i = 0; i < k; ++i) {
    if (!coeffs.get(i)) continue;
    row.set(i);
    payload.xor_with(payloads[i]);
  }
  row.copy_bits_from(payload, 0, d, k);
  return row;
}

std::vector<bitvec> oracle_stream(rng& r, const std::vector<bitvec>& payloads,
                                  const std::vector<coding_window>& wins) {
  const std::size_t k = payloads.size();
  std::vector<bitvec> rows;
  while (rows.size() < 2 * k) {
    const std::size_t kind = r.below(8);
    bitvec coeffs(k);
    if (kind == 1 && !rows.empty()) {  // duplicate: dependent
      rows.push_back(rows[r.below(rows.size())]);
      continue;
    }
    if (kind == 2 && rows.size() >= 2) {  // sum of two earlier rows
      bitvec row = rows[r.below(rows.size())];
      row.xor_with(rows[r.below(rows.size())]);
      rows.push_back(std::move(row));
      continue;
    }
    if (kind == 3) {
      coeffs.set(r.below(k));  // singleton
    } else if (kind == 4 && wins.size() >= 2) {
      // Straddler: starts before window j+1 and ends past window j, so
      // no window covers it.
      const std::size_t j = r.below(wins.size() - 1);
      const coding_window& a = wins[j];
      const coding_window& b = wins[j + 1];
      const std::size_t a_end = a.start + a.width;
      const std::size_t b_end = b.start + b.width;
      if (a_end < b_end) {
        const std::size_t lo = a.start + r.below(b.start - a.start);
        const std::size_t hi = a_end + r.below(b_end - a_end);
        coeffs.set(lo);
        coeffs.set(hi);
        for (std::size_t c = lo + 1; c < hi; ++c) coeffs.set(c, r.coin());
      }
    } else if (kind != 0) {  // kind 0 stays the all-zero row
      const coding_window& w = wins[r.below(wins.size())];
      for (std::size_t c = w.start; c < w.start + w.width; ++c) {
        coeffs.set(c, r.coin());
      }
    }
    rows.push_back(coded_row(coeffs, payloads));
  }
  return rows;
}

std::vector<gf2::value_type> symbols(const bitvec& row) {
  std::vector<gf2::value_type> out(row.size());
  for (std::size_t i = 0; i < row.size(); ++i) out[i] = row.get(i) ? 1 : 0;
  return out;
}

struct oracle_cell {
  std::size_t gen_size;  // 0 = full span
  std::size_t band_overlap;
  const char* dec;
  const char* sched;
};

// Batch-elimination model of one matrix cell: each window keeps the rows
// it accepted and re-reduces them from scratch with gf2_rref after every
// insert.
class cell_oracle {
 public:
  cell_oracle(const oracle_cell& cell, std::size_t k, std::size_t d,
              double rho)
      : k_(k),
        d_(d),
        rho_(rho),
        full_span_(cell.gen_size == 0),
        narrow_(std::string(cell.dec) == "banded"),
        dense_(std::string(cell.sched) == "dense"),
        wins_(layout_windows(k, cell.gen_size, cell.band_overlap)),
        fitted_(wins_.size()),
        fields_(wins_.size(), field_decoder<gf2>(k, d)),
        reduced_(wins_.size()),
        pivots_(wins_.size()) {}

  const std::vector<coding_window>& windows() const { return wins_; }

  void insert(const bitvec& row) {
    elim_xors_ = 0;
    for (std::size_t wi = 0; wi < wins_.size(); ++wi) {
      if (fits(row, k_, wins_[wi])) {
        fitted_[wi].push_back(row);
        fields_[wi].insert(symbols(row));
      }
      reduced_[wi] = fitted_[wi];
      pivots_[wi] = gf2_rref(reduced_[wi]);
      // Elimination cost at the cell's storage width.
      std::vector<bitvec> stored;
      for (const bitvec& r : fitted_[wi]) stored.push_back(stored_row(wi, r));
      (void)gf2_rref(stored, &elim_xors_);
    }
    if (full_span_) {
      // An innovative row claims exactly one new pivot column.
      for (const std::size_t p : pivots_[0]) {
        if (std::find(claim_order_.begin(), claim_order_.end(), p) ==
            claim_order_.end()) {
          claim_order_.push_back(p);
        }
      }
    }
  }

  std::size_t field_rank(std::size_t wi) const { return fields_[wi].rank(); }
  std::size_t rref_rank(std::size_t wi) const { return reduced_[wi].size(); }

  // Token i is decodable iff some covering window's RREF holds e_i.
  bool decodable(std::size_t i) const {
    for (std::size_t wi = 0; wi < wins_.size(); ++wi) {
      for (std::size_t r = 0; r < reduced_[wi].size(); ++r) {
        if (pivots_[wi][r] == i && reduced_[wi][r].popcount_below(k_) == 1) {
          return true;
        }
      }
    }
    return false;
  }

  // The same question asked of field_decoder<gf2>: is [e_i | payload]
  // in some covering window's span?
  bool field_decodable(std::size_t i, const bitvec& unit_row) const {
    const std::vector<gf2::value_type> target = symbols(unit_row);
    for (std::size_t wi = 0; wi < wins_.size(); ++wi) {
      const coding_window& w = wins_[wi];
      if (i < w.start || i >= w.start + w.width) continue;
      if (fields_[wi].in_span(target)) return true;
    }
    return false;
  }

  std::size_t progress() const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < k_; ++i) count += decodable(i) ? 1 : 0;
    return count;
  }

  std::size_t rank() const {
    return full_span_ ? reduced_[0].size() : progress();
  }

  // The schedule's draw over the reduced rows: the full span coins in
  // pivot-claim order; a generation layout picks a live window uniformly,
  // then coins over its rows in pivot order.
  std::optional<bitvec> combination(rng& r) {
    std::size_t wi = 0;
    std::vector<const bitvec*> order;
    if (full_span_) {
      for (const std::size_t p : claim_order_) {
        const auto it = std::find(pivots_[0].begin(), pivots_[0].end(), p);
        const auto at = static_cast<std::size_t>(it - pivots_[0].begin());
        order.push_back(&reduced_[0][at]);
      }
    } else {
      std::vector<std::size_t> live;
      for (std::size_t i = 0; i < wins_.size(); ++i) {
        if (!reduced_[i].empty()) live.push_back(i);
      }
      if (!live.empty()) wi = live[r.below(live.size())];
      for (const bitvec& row : reduced_[wi]) order.push_back(&row);
    }
    if (order.empty()) return std::nullopt;
    const std::size_t words = stored_row(wi, *order.front()).words().size();
    bitvec out(k_ + d_);
    for (const bitvec* row : order) {
      if (dense_ ? r.coin() : r.bernoulli(rho_)) {
        out.xor_with(*row);
        emit_xors_ += words;
      }
    }
    return out;
  }

  std::uint64_t xor_words() const { return elim_xors_ + emit_xors_; }

 private:
  bitvec stored_row(std::size_t wi, const bitvec& row) const {
    if (!narrow_) return row;
    const coding_window& w = wins_[wi];
    bitvec slim(w.width + d_);
    slim.copy_bits_from(row, w.start, w.width, 0);
    slim.copy_bits_from(row, k_, d_, w.width);
    return slim;
  }

  std::size_t k_;
  std::size_t d_;
  double rho_;
  bool full_span_;
  bool narrow_;
  bool dense_;
  std::vector<coding_window> wins_;
  std::vector<std::vector<bitvec>> fitted_;  // accepted rows, arrival order
  std::vector<field_decoder<gf2>> fields_;
  std::vector<std::vector<bitvec>> reduced_;  // gf2_rref(fitted_)
  std::vector<std::vector<std::size_t>> pivots_;
  std::vector<std::size_t> claim_order_;  // full span: pivots by claim time
  std::uint64_t elim_xors_ = 0;
  std::uint64_t emit_xors_ = 0;
};

void check_cell_against_oracle(const oracle_cell& cell, std::uint64_t seed) {
  const std::size_t k = 40, d = 40;
  const double rho = 0.3;
  std::string what = std::string(cell.sched) + "/" + cell.dec;
  what += " g=" + std::to_string(cell.gen_size);
  what += " w=" + std::to_string(cell.band_overlap);
  what += " seed=" + std::to_string(seed);
  matrix_spec spec;
  spec.sched = cell.sched;
  spec.dec = cell.dec;
  spec.rho = rho;
  spec.gen_size = cell.gen_size;
  spec.band_overlap = cell.band_overlap;
  const std::unique_ptr<node_coder> coder =
      make_matrix_backend(spec)->make_node_coder(k, d);
  cell_oracle oracle(cell, k, d, rho);

  rng data(seed);
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    payloads.emplace_back(d);
    payloads.back().randomize(data);
  }
  const std::vector<bitvec> stream =
      oracle_stream(data, payloads, oracle.windows());
  rng coder_rng(seed + 1000);
  rng oracle_rng(seed + 1000);

  for (std::size_t t = 0; t < stream.size(); ++t) {
    const std::string at = what + " t=" + std::to_string(t);
    coder->insert(stream[t]);
    oracle.insert(stream[t]);
    for (std::size_t wi = 0; wi < oracle.windows().size(); ++wi) {
      ASSERT_EQ(oracle.field_rank(wi), oracle.rref_rank(wi)) << at;
    }

    ASSERT_EQ(coder->rank(), oracle.rank()) << at;
    ASSERT_EQ(coder->decode_progress(), oracle.progress()) << at;
    ASSERT_EQ(coder->complete(), oracle.rank() == k) << at;
    for (std::size_t i = 0; i < k; ++i) {
      const bool decodable = oracle.decodable(i);
      ASSERT_EQ(coder->can_decode(i), decodable) << at << " i=" << i;
      if (decodable) {
        ASSERT_EQ(coder->decode(i), payloads[i]) << at << " i=" << i;
      }
      if (t % 8 == 7 || t + 1 == stream.size()) {
        bitvec unit(k);
        unit.set(i);
        const bool in_span =
            oracle.field_decodable(i, coded_row(unit, payloads));
        ASSERT_EQ(in_span, decodable) << at << " i=" << i;
      }
    }

    if (t % 3 == 2) {
      const std::optional<bitvec> got = coder->make_combination(coder_rng);
      const std::optional<bitvec> want = oracle.combination(oracle_rng);
      ASSERT_EQ(got.has_value(), want.has_value()) << at;
      if (got) {
        ASSERT_EQ(*got, *want) << at;
      }
      ASSERT_EQ(coder_rng(), oracle_rng()) << at;
    }
    ASSERT_EQ(coder->xor_word_ops(), oracle.xor_words()) << at;
  }
}

TEST(decoder_matrix, every_cell_matches_the_batch_elimination_oracle) {
  for (const char* sched : {"dense", "sparse"}) {
    const oracle_cell cells[] = {
        {0, 0, "rref", sched},
        {3, 0, "rref", sched},
        {3, 0, "banded", sched},
        {4, 2, "rref", sched},
        {4, 2, "banded", sched},
        {5, 5, "rref", sched},
        {5, 5, "banded", sched},
    };
    for (const oracle_cell& cell : cells) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        check_cell_against_oracle(cell, seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(decoder_matrix, systematic_and_feedback_schedules_complete) {
  matrix_spec sys;
  sys.sched = "systematic";
  (void)run_backend(make_matrix_backend(sys), 13);  // EXPECTs inside

  matrix_spec fb;
  fb.sched = "feedback";
  fb.dec = "banded";
  fb.gen_size = 4;
  fb.band_overlap = 1;
  (void)run_backend(make_matrix_backend(fb), 17);
}

// --- registry: sched=/dec= validation ----------------------------------------

TEST(decoder_matrix, registry_rejects_invalid_combos_listing_recognized) {
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = 32;
  auto expect_reject = [&](const char* alg, param_map params,
                           const char* needle) {
    try {
      session s(prob, protocol_spec{alg, std::move(params)},
                adversary_spec{"permuted-path", {}}, 1);
      FAIL() << alg << " accepted an invalid matrix combo";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
          << err.what();
    }
  };
  // Unknown axis values name the recognized set.
  expect_reject("rlnc-direct", {{"sched", "bogus"}}, "recognized");
  expect_reject("rlnc-direct", {{"dec", "bogus"}}, "recognized");
  // Generation-only axis values on the full-span layout.
  expect_reject("rlnc-direct", {{"dec", "banded"}}, "generation");
  expect_reject("rlnc-direct", {{"sched", "feedback"}}, "generation");
  expect_reject("rlnc-sparse", {{"sched", "feedback"}}, "generation");
  // Valid combos construct.
  session ok(prob, protocol_spec{"rlnc-gen", {{"sched", "feedback"}}},
             adversary_spec{"permuted-path", {}}, 1);
  session ok2(prob, protocol_spec{"rlnc-direct", {{"sched", "systematic"}}},
              adversary_spec{"permuted-path", {}}, 1);
}

// --- decode-delay metrics -----------------------------------------------------

TEST(decoder_matrix, decode_delay_metrics_shape_and_population) {
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = 32;
  session s(prob, protocol_spec{"rlnc-direct", {}},
            adversary_spec{"permuted-path", {}}, 21);
  std::uint64_t observed = 0;
  s.set_observer([&](const round_metrics& m) {
    if (m.decode_delay_active) observed += m.newly_decodable;
  });
  const run_report rep = s.run_to_completion();
  ASSERT_TRUE(rep.complete);
  const session_metrics& m = rep.metrics;
  ASSERT_TRUE(m.decode_delay_active);
  // Every (node, token) pair becomes decodable exactly once.
  EXPECT_EQ(m.decode_delay_events, prob.n * prob.k);
  EXPECT_EQ(observed, m.decode_delay_events);
  std::uint64_t hist_total = 0;
  for (const std::uint64_t c : m.decode_delay_hist) hist_total += c;
  EXPECT_EQ(hist_total, m.decode_delay_events);
  // Percentiles are ordered and within the run.
  EXPECT_LE(m.decode_delay_p50, m.decode_delay_p90);
  EXPECT_LE(m.decode_delay_p90, m.decode_delay_max);
  EXPECT_LT(m.decode_delay_max, m.decode_delay_hist.size());
  EXPECT_LE(m.decode_delay_max, rep.rounds);
  // Seeds land in bucket 0: with one-per-node placement the n seeded
  // singletons are decodable before any communication.
  ASSERT_FALSE(m.decode_delay_hist.empty());
  EXPECT_GE(m.decode_delay_hist[0], prob.n);
}

TEST(decoder_matrix, token_forwarding_reports_no_decode_delay) {
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = 16;
  session s(prob, protocol_spec{"token-forwarding", {}},
            adversary_spec{"permuted-path", {}}, 3);
  const run_report rep = s.run_to_completion();
  ASSERT_TRUE(rep.complete);
  EXPECT_FALSE(rep.metrics.decode_delay_active);
  EXPECT_EQ(rep.metrics.decode_delay_events, 0u);
}

TEST(decoder_matrix, systematic_first_pass_decodes_earlier_than_dense) {
  // A systematic sender puts uncoded tokens on the air from round one, so
  // more (node, token) pairs decode in the early rounds than under the
  // dense coin (which mixes everything immediately).  Compare the
  // head-of-histogram mass at matched seeds.
  problem prob;
  prob.n = 16;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;
  std::uint64_t dense_head = 0, sys_head = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto head_mass = [&](param_map params) {
      session s(prob, protocol_spec{"rlnc-direct", std::move(params)},
                adversary_spec{"permuted-path", {}}, seed);
      const run_report rep = s.run_to_completion();
      EXPECT_TRUE(rep.complete);
      const auto& hist = rep.metrics.decode_delay_hist;
      std::uint64_t head = 0;
      for (std::size_t b = 0; b < hist.size() && b <= 4; ++b) {
        head += hist[b];
      }
      return head;
    };
    dense_head += head_mass({});
    sys_head += head_mass({{"sched", "systematic"}});
  }
  EXPECT_GT(sys_head, dense_head);
}

// --- golden byte-identity ----------------------------------------------------

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

TEST(decoder_matrix, default_sweep_is_byte_identical_to_committed_golden) {
  // The matrix refactor must leave the default-path sweep untouched: the
  // n16 slice minus the link:/content:/sched:/dec: axes dumps bytes equal
  // to the committed golden, for every threads x batch engine shape.
  const std::string golden =
      read_file(std::string(NCDN_SOURCE_DIR) + "/tools/ci/golden_sweep_n16.json");
  ASSERT_FALSE(golden.empty()) << "missing committed golden fixture";

  std::vector<runner::scenario> scens;
  for (const runner::scenario& s : runner::scenarios_matching("n16")) {
    if (s.name.find("link:") != std::string::npos) continue;
    if (s.name.find("content:") != std::string::npos) continue;
    if (s.name.find("sched:") != std::string::npos) continue;
    if (s.name.find("dec:") != std::string::npos) continue;
    scens.push_back(s);
  }
  ASSERT_FALSE(scens.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      runner::sweep_options opts;
      opts.trials = 2;
      opts.threads = threads;
      opts.batch = batch;
      const runner::sweep_result result = runner::run_sweep(scens, opts);
      const std::string text =
          runner::sweep_to_json(result).dump() + "\n";
      EXPECT_EQ(text, golden)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

}  // namespace
}  // namespace ncdn
