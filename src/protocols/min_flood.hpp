// Kuhn, Lynch and Oshman's batched min-flood, the indexing step under
// token forwarding (Thm 2.1), naive indexing (Cor 7.1), priority indexing
// (Thm 7.5), patch-gather block indexing (§8.3) and the counting engine.
//
// Items are the indices of a dense, totally ordered universe [0, U): payload
// ranks, token indices, node UIDs, or one iteration's sorted announcements.
// Each round every node broadcasts the `batch` smallest items of its active
// set.  The globally smallest `batch` active items flood unobstructed — a
// node knowing one always ranks it within its own top `batch` — so after
// n-1 rounds of a connected dynamic network every node holds them and
// agreed() returns the same prefix everywhere.
//
// State per node: `seen` (every item it ever held) and `active` (seen and
// not yet consumed), both U-bit word masks.  An arriving item is new only
// if its `seen` bit is clear; a consumed item that arrives again stays
// consumed.  With the fail channel on, every message also carries one
// sticky bit that ORs across the network (the Las Vegas veto of §7).
//
// Wire: items * item_bits, plus 1 with the fail channel on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dynnet/network.hpp"
#include "linalg/bitvec.hpp"

namespace ncdn {

class min_flood {
 public:
  /// The default `on_new`: nothing to do per new item.
  struct ignore_new {
    void operator()(node_id, std::size_t) const noexcept {}
  };

  struct message {
    std::vector<std::size_t> items;  // universe indices
    std::uint32_t item_bits = 0;
    bool fail = false;
    bool fail_channel = false;
    std::size_t bit_size() const noexcept {
      return items.size() * item_bits + (fail_channel ? 1 : 0);
    }
  };

  /// `fail` non-null turns the fail channel on and gives each node's
  /// initial sticky bit.
  min_flood(std::size_t nodes, std::size_t universe, std::size_t batch,
            std::size_t item_bits, const std::vector<bool>* fail = nullptr);

  /// Node u holds item i (seen and active).
  void add(node_id u, std::size_t i) {
    seen_[u].set(i);
    active_[u].set(i);
  }
  /// Node u holds exactly the items of `items` (a U-bit mask).
  void seed(node_id u, const bitvec& items) {
    seen_[u] = items;
    active_[u] = items;
  }
  /// Puts every item node u has seen back into its active set.
  void restart(node_id u) { active_[u] = seen_[u]; }

  bitvec& active(node_id u) { return active_[u]; }
  const bitvec& seen(node_id u) const { return seen_[u]; }
  bool any_fail() const;

  /// One communication round over `net` (the caller then awaits the next
  /// round).  `on_new(u, i)` runs for each item new to u.  With `consume`,
  /// a node's sent items leave its active set: the pipelined token stream,
  /// which sends every active item once and then restart()s.
  template <class OnNew = ignore_new>
  void round(network& net, const knowledge_view& view, OnNew&& on_new = {},
             bool consume = false) {
    net.step<message>(
        view,
        [&](node_id u, rng&) -> std::optional<message> {
          message m{smallest(u, consume), item_bits_, fail_[u],
                    fail_channel_};
          if (m.items.empty() && !m.fail) return std::nullopt;
          return m;
        },
        [&](node_id u, const std::vector<const message*>& inbox) {
          deliver(u, inbox, on_new);
        });
  }

  /// Merges an inbox into node u's state (round()'s delivery; also used by
  /// callers that choose which items to send themselves).
  template <class OnNew = ignore_new>
  void deliver(node_id u, const std::vector<const message*>& inbox,
               OnNew&& on_new = {}) {
    for (const message* m : inbox) {
      if (m->fail) fail_[u] = true;
      for (std::size_t i : m->items) {
        if (seen_[u].get(i)) continue;
        seen_[u].set(i);
        active_[u].set(i);
        on_new(u, i);
      }
    }
  }

  /// The `batch` smallest items active at u; `consume` removes them.
  std::vector<std::size_t> smallest(node_id u, bool consume);
  /// smallest() at every node, asserting that all nodes return the same
  /// prefix (the min-flood agreement); returns it.
  std::vector<std::size_t> agreed(bool consume);

 private:
  std::size_t universe_;
  std::size_t batch_;
  std::uint32_t item_bits_;
  bool fail_channel_;
  std::vector<bitvec> seen_;
  std::vector<bitvec> active_;
  std::vector<bool> fail_;
};

}  // namespace ncdn
