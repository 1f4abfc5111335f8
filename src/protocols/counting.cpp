#include "protocols/counting.hpp"

#include <algorithm>
#include <vector>

#include "coding/budget.hpp"
#include "core/bits.hpp"
#include "linalg/decoder.hpp"
#include "protocols/min_flood.hpp"

namespace ncdn {

namespace {

using uid_t = std::uint32_t;

struct max_msg {
  std::size_t count = 0;
  uid_t uid = 0;
  std::size_t wire = 0;
  std::size_t bit_size() const noexcept { return wire; }
};

struct verify_msg {
  std::size_t count = 0;
  std::uint64_t hash = 0;
  std::size_t wire = 0;
  std::size_t bit_size() const noexcept { return wire; }
};

struct coded_msg_c {
  bitvec row;
  std::size_t bit_size() const noexcept { return row.size(); }
};

/// Checksum of the UID set whose UID - 1 indices `seen` holds, folded in
/// ascending UID order.
std::uint64_t set_checksum(const bitvec& seen) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = seen.first_set(); i < seen.size();
       i = seen.first_set_from(i + 1)) {
    h ^= static_cast<uid_t>(i + 1);
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace

counting_result run_counting(network& net, const counting_config& cfg) {
  const std::size_t n = net.node_count();
  const std::size_t ub = cfg.uid_bits;
  NCDN_EXPECTS(cfg.b_bits >= ub);
  opaque_view view(n);

  // Self-generated UIDs (uid 0 is reserved as block padding); the UID
  // flood runs over UID - 1 (see the header).
  auto uid_of = [](node_id u) { return static_cast<uid_t>(u + 1); };
  auto node_of = [](uid_t id) { return static_cast<node_id>(id - 1); };
  const std::size_t batch = std::max<std::size_t>(1, cfg.b_bits / ub);
  min_flood uids(n, n, batch, ub);
  for (node_id u = 0; u < n; ++u) uids.add(u, u);

  counting_result res;
  const round_t start = net.rounds_elapsed();

  std::size_t est = 2;
  for (std::size_t attempt = 0; attempt < cfg.max_attempts; ++attempt) {
    res.attempts = attempt + 1;
    res.final_estimate = est;
    const round_t phase_len = static_cast<round_t>(
        std::max<std::size_t>(2, static_cast<std::size_t>(
                                     cfg.safety * static_cast<double>(est))));

    for (node_id u = 0; u < n; ++u) uids.restart(u);

    if (cfg.engine == counting_engine::flooding) {
      // Batched UID min-flooding with per-phase finalization.  Agreement on
      // finalized batches is only guaranteed once est >= n; earlier
      // attempts may diverge and are caught by verification.
      const std::size_t phases = ceil_div(est, batch);
      for (std::size_t p = 0; p < phases; ++p) {
        for (round_t r = 0; r < phase_len; ++r) uids.round(net, view);
        for (node_id u = 0; u < n; ++u) uids.smallest(u, /*consume=*/true);
      }
    } else {
      // Gather-and-code (greedy-forward structure on UIDs as d-bit tokens).
      const coded_budget budget = block_budget(cfg.b_bits, ub);
      const std::size_t epochs = ceil_div(est, budget.tokens_total) + 1;
      for (std::size_t e = 0; e < epochs; ++e) {
        // Random forwarding of UIDs.
        for (round_t r = 0; r < phase_len; ++r) {
          net.step<min_flood::message>(
              view,
              [&](node_id u, rng& prng) -> std::optional<min_flood::message> {
                const bitvec& own = uids.active(u);
                if (!own.any()) return std::nullopt;
                std::vector<std::size_t> pool;
                for (std::size_t i = own.first_set(); i < n;
                     i = own.first_set_from(i + 1)) {
                  pool.push_back(i);
                }
                const std::size_t take = std::min(batch, pool.size());
                for (std::size_t i = 0; i < take; ++i) {
                  const std::size_t j = i + prng.below(pool.size() - i);
                  std::swap(pool[i], pool[j]);
                }
                pool.resize(take);
                return min_flood::message{
                    .items = std::move(pool),
                    .item_bits = static_cast<std::uint32_t>(ub)};
              },
              [&](node_id u,
                  const std::vector<const min_flood::message*>& inbox) {
                uids.deliver(u, inbox);
              });
        }
        // Max-count identification flood.
        std::vector<max_msg> best(n);
        for (node_id u = 0; u < n; ++u) {
          best[u] = max_msg{uids.active(u).popcount(), uid_of(u), ub + ub};
        }
        for (round_t r = 0; r < phase_len; ++r) {
          net.step<max_msg>(
              view,
              [&](node_id u, rng&) -> std::optional<max_msg> {
                return best[u];
              },
              [&](node_id u, const std::vector<const max_msg*>& inbox) {
                for (const max_msg* m : inbox) {
                  if (m->count > best[u].count ||
                      (m->count == best[u].count && m->uid > best[u].uid)) {
                    best[u].count = m->count;
                    best[u].uid = m->uid;
                  }
                }
              });
        }
        // Coded block broadcast from the identified leader.  Leader and
        // item count are only *locally believed* (floods may not have
        // converged when est < n); nodes that believe differently simply
        // fail to decode this epoch, which verification catches.
        const uid_t leader_uid = best[0].uid;
        const std::size_t leader_cnt = best[0].count;
        bool agree = true;
        for (node_id u = 1; u < n; ++u) {
          agree = agree && best[u].uid == leader_uid &&
                  best[u].count == leader_cnt;
        }
        if (!agree || leader_cnt == 0) continue;  // wasted epoch
        const node_id leader = node_of(leader_uid);
        std::vector<uid_t> chosen;
        const bitvec& pending = uids.active(leader);
        for (std::size_t i = pending.first_set();
             i < n && chosen.size() < budget.tokens_total;
             i = pending.first_set_from(i + 1)) {
          chosen.push_back(uid_of(static_cast<node_id>(i)));
        }
        const std::size_t k_items =
            ceil_div(chosen.size(), budget.tokens_per_item);
        std::vector<bit_decoder> dec(
            n, bit_decoder(k_items, budget.item_bits));
        for (std::size_t i = 0; i < k_items; ++i) {
          bitvec row(k_items + budget.item_bits);
          row.set(i);
          for (std::size_t j = 0; j < budget.tokens_per_item; ++j) {
            const std::size_t idx = i * budget.tokens_per_item + j;
            if (idx >= chosen.size()) break;
            for (std::size_t bit = 0; bit < ub; ++bit) {
              if ((chosen[idx] >> bit) & 1u) {
                row.set(k_items + j * ub + bit);
              }
            }
          }
          dec[leader].insert(row);
        }
        const round_t bc_rounds = 2 * (phase_len + static_cast<round_t>(
                                                       k_items));
        for (round_t r = 0; r < bc_rounds; ++r) {
          net.step<coded_msg_c>(
              view,
              [&](node_id u, rng& prng) -> std::optional<coded_msg_c> {
                auto combo = dec[u].random_combination(prng);
                if (!combo) return std::nullopt;
                return coded_msg_c{std::move(*combo)};
              },
              [&](node_id u, const std::vector<const coded_msg_c*>& inbox) {
                for (const coded_msg_c* m : inbox) dec[u].insert(m->row);
              });
        }
        for (node_id u = 0; u < n; ++u) {
          if (!dec[u].complete()) continue;
          for (std::size_t i = 0; i < k_items; ++i) {
            const bitvec block = dec[u].decode(i);
            for (std::size_t j = 0; j < budget.tokens_per_item; ++j) {
              uid_t id = 0;
              for (std::size_t bit = 0; bit < ub; ++bit) {
                if (block.get(j * ub + bit)) id |= (1u << bit);
              }
              if (id == 0) continue;  // padding
              uids.add(u, id - 1);
              uids.active(u).set(id - 1, false);  // retired
            }
          }
        }
      }
    }

    // Verification: flood (count, checksum); any disagreement or overflow
    // marks the attempt failed at the node that saw it.
    std::vector<bool> bad(n, false);
    std::vector<verify_msg> mine(n);
    for (node_id u = 0; u < n; ++u) {
      const bitvec& heard = uids.seen(u);
      mine[u] = verify_msg{heard.popcount(), set_checksum(heard), ub + 64};
      if (mine[u].count > est) bad[u] = true;
    }
    for (round_t r = 0; r < phase_len; ++r) {
      net.step<verify_msg>(
          view,
          [&](node_id u, rng&) -> std::optional<verify_msg> {
            return mine[u];
          },
          [&](node_id u, const std::vector<const verify_msg*>& inbox) {
            for (const verify_msg* m : inbox) {
              if (m->count != mine[u].count || m->hash != mine[u].hash) {
                bad[u] = true;
              }
            }
          });
    }
    const bool all_ok =
        std::none_of(bad.begin(), bad.end(), [](bool b) { return b; });
    if (all_ok) {
      res.count = uids.seen(0).popcount();
      break;
    }
    est *= 2;
  }

  res.rounds = net.rounds_elapsed() - start;
  res.correct = res.count == n;
  for (node_id u = 0; u < n; ++u) {
    res.correct = res.correct && uids.seen(u).popcount() == n;
  }
  return res;
}

}  // namespace ncdn
