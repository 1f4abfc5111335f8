// ncdn_perf — the repository benchmark: four workloads, host-time
// end-to-end metrics, and an outside-in per-layer trace.
//
//   ncdn_perf --workload NAME|all --seed N --seconds S --trace 0|1
//             [--size full|small]
//
// Workloads (why each exists is in BENCHMARK.json):
//   gen-n4096           rlnc-gen g=16 w=4 on t-interval-random t=4
//   direct-lossy-n1024  rlnc-direct over a bernoulli p=0.1 channel
//   forward-n16384      token-forwarding-pipelined, no coding at all
//   matrix-sweep        run_sweep over the `full` tier, 4 threads, batch 8
//
// Every workload runs in a forked child so its peak RSS (VmHWM) is its own.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones
// (wall_s, setup_s, peak_rss_mb); with --trace 1 they are the per-layer
// ones.  wall_s and setup_s are host seconds put at a fixed reference speed
// (see "host speed" below), so that runs on a host whose speed drifts stay
// comparable; host.slowdown in the trace gives the factor back.
// `--workload all` runs every workload and prefixes metric names with the
// workload; `--size small` shrinks every instance for self-checks.
//
// Per-layer numbers are recorded from outside src/: timing decorators are
// registered as twin entries ("perf.<name>") in the open protocol,
// adversary and link registries, and the traced run names the twins.  The
// simulator itself stays clock-free.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "coding/backend.hpp"
#include "core/registry.hpp"
#include "core/rng.hpp"
#include "core/session.hpp"
#include "core/sysinfo.hpp"
#include "linkmodel/linkmodel.hpp"
#include "protocols/rlnc_broadcast.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace {

using ncdn::node_id;
using ncdn::round_t;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// --- host speed -------------------------------------------------------------

// A virtual machine on a shared host can run its cores up to 2x slower for
// seconds to tens of minutes at a time, most likely while another guest is
// busy on the sibling hyperthread: throughput-bound loops slow down, a
// latency-bound ALU loop hardly does.  Raw seconds from two runs are then
// not comparable.  So every timed span is paired with a reference kernel,
// timed right after it on the same core: a fixed GF(2) elimination that
// belongs to the benchmark and that no change to the simulator touches.  A
// span is reported at the reference speed, seconds x kRefSeconds / (the
// kernel's seconds at that moment).  On a 4-vCPU Xeon guest the kernel's
// slow-down followed the step loop's with slope ~1 over whole runs
// (correlation 0.91 on gen-n4096, 0.86 on forward-n16384); pointer chases
// and streaming reads followed it less.
//
// The kernel's seconds on an unslowed core of that guest (g++ 12, -O3).
constexpr double kRefSeconds = 1.2e-4;

// Written by the kernel so that its work is not optimised away.
volatile std::size_t g_ref_sink = 0;

class speed_ref {
 public:
  speed_ref() : source_(kRows * kWords), work_(kRows * kWords) {
    std::uint64_t x = 0x2545f4914f6cdd1dULL;  // fixed: the same every run
    for (std::uint64_t& w : source_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = x;
    }
  }

  // Seconds of one elimination of a fresh copy of the fixed matrix.
  double time_once() {
    const auto t0 = clock_type::now();
    std::copy(source_.begin(), source_.end(), work_.begin());
    std::size_t rank = 0;
    for (std::size_t c = 0; c < kWords * 64 && rank < kRows; ++c) {
      const std::size_t wi = c / 64;
      const std::uint64_t bit = std::uint64_t{1} << (c % 64);
      std::size_t piv = rank;
      while (piv < kRows && (row(piv)[wi] & bit) == 0) ++piv;
      if (piv == kRows) continue;
      if (piv != rank) {
        std::swap_ranges(row(piv), row(piv) + kWords, row(rank));
      }
      for (std::size_t r = 0; r < kRows; ++r) {
        if (r != rank && (row(r)[wi] & bit) != 0) {
          for (std::size_t k = wi; k < kWords; ++k) row(r)[k] ^= row(rank)[k];
        }
      }
      ++rank;
    }
    g_ref_sink = rank;
    return seconds_since(t0);
  }

  // The median of `reps` timings: the kernel's seconds at this moment.
  double time_now(int reps) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) t.push_back(time_once());
    return median(std::move(t));
  }

 private:
  static constexpr std::size_t kRows = 256;
  static constexpr std::size_t kWords = 4;
  std::uint64_t* row(std::size_t r) { return work_.data() + r * kWords; }

  std::vector<std::uint64_t> source_;
  std::vector<std::uint64_t> work_;
};

// `seconds` measured while the reference kernel took `ref_seconds`, at the
// reference speed.
double at_ref_speed(double seconds, double ref_seconds) {
  return ref_seconds > 0 ? seconds * kRefSeconds / ref_seconds : seconds;
}

// The kernel's seconds with `threads` cores busy at once, for spans that
// keep that many busy: the mean over the threads of each one's median.
double ref_seconds_on(std::size_t threads) {
  std::vector<double> each(threads);
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&each, i] { each[i] = speed_ref().time_now(25); });
  }
  for (std::thread& t : pool) t.join();
  double total = 0;
  for (const double x : each) total += x;
  return total / static_cast<double>(threads);
}

// --- per-layer recording ----------------------------------------------------

struct span_total {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  double ms() const { return static_cast<double>(ns) / 1e6; }
};

// Accumulated over the traced runs of one workload.  Only single-threaded
// sessions name the twins, so plain counters suffice.
struct layer_trace {
  span_total topology;  // adversary::topology
  span_total lost;      // the link model's loss predicate
  std::uint64_t drops = 0;
  span_total emit;    // node_coder::make_combination
  span_total insert;  // node_coder::insert
  span_total query;   // rank / complete / can_decode / decode_progress
  span_total step;    // session::step, timed by the benchmark loop
};
layer_trace g_trace;

class scoped_span {
 public:
  explicit scoped_span(span_total& total)
      : total_(total), t0_(clock_type::now()) {}
  ~scoped_span() {
    total_.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() -
                                                             t0_)
            .count());
    ++total_.calls;
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_total& total_;
  clock_type::time_point t0_;
};

class timed_coder final : public ncdn::node_coder {
 public:
  explicit timed_coder(std::unique_ptr<ncdn::node_coder> inner)
      : inner_(std::move(inner)) {}
  using ncdn::node_coder::make_combination;

  void insert(const ncdn::bitvec& row) override {
    const scoped_span span(g_trace.insert);
    inner_->insert(row);
  }
  std::optional<ncdn::bitvec> make_combination(
      ncdn::rng& r, ncdn::word_arena* pool) override {
    const scoped_span span(g_trace.emit);
    return inner_->make_combination(r, pool);
  }
  std::size_t rank() const override {
    const scoped_span span(g_trace.query);
    return inner_->rank();
  }
  bool complete() const override {
    const scoped_span span(g_trace.query);
    return inner_->complete();
  }
  bool can_decode(std::size_t i) const override {
    const scoped_span span(g_trace.query);
    return inner_->can_decode(i);
  }
  ncdn::bitvec decode(std::size_t i) const override {
    return inner_->decode(i);
  }
  std::size_t decode_progress() const override {
    const scoped_span span(g_trace.query);
    return inner_->decode_progress();
  }
  std::uint64_t xor_word_ops() const override { return inner_->xor_word_ops(); }
  const std::vector<std::uint32_t>* deficit_report() override {
    return inner_->deficit_report();
  }
  void observe_feedback(const std::vector<std::uint32_t>& deficits) override {
    inner_->observe_feedback(deficits);
  }

 private:
  std::unique_ptr<ncdn::node_coder> inner_;
};

class timed_backend final : public ncdn::coding_backend {
 public:
  explicit timed_backend(std::unique_ptr<ncdn::coding_backend> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<ncdn::node_coder> make_node_coder(
      std::size_t items, std::size_t item_bits) const override {
    return std::make_unique<timed_coder>(
        inner_->make_node_coder(items, item_bits));
  }

 private:
  std::unique_ptr<ncdn::coding_backend> inner_;
};

class timed_adversary final : public ncdn::adversary {
 public:
  explicit timed_adversary(std::unique_ptr<ncdn::adversary> inner)
      : inner_(std::move(inner)) {}
  const ncdn::graph& topology(round_t r,
                              const ncdn::knowledge_view& view) override {
    const scoped_span span(g_trace.topology);
    return inner_->topology(r, view);
  }
  std::string name() const override { return inner_->name(); }
  bool full_connectivity() const override {
    return inner_->full_connectivity();
  }
  void set_rebuild_mode(bool on) override { inner_->set_rebuild_mode(on); }
  const std::vector<char>* live_mask() const override {
    return inner_->live_mask();
  }

 private:
  std::unique_ptr<ncdn::adversary> inner_;
};

const std::string kTwin = "perf.";

// The coded twin keeps its rlnc_session alive past the run so the payload
// check can decode every node after the timed step loop.
std::shared_ptr<ncdn::rlnc_session> g_twin_coding;

// The rlnc-* standalone broadcast, driven like the registered entry (seed
// every held token, broadcast until all decode or the cap trips) over a
// timing decorator of the plan's backend.
ncdn::round_task<ncdn::protocol_result> coded_twin_run(
    ncdn::session_env& env, ncdn::coded_backend_plan plan) {
  const ncdn::token_distribution& dist = env.dist;
  auto coding = std::make_shared<ncdn::rlnc_session>(
      env.prob.n, dist.k(), env.prob.d,
      std::make_unique<timed_backend>(plan.make_backend()));
  g_twin_coding = coding;
  coding->set_arena(env.arena);
  for (node_id u = 0; u < env.prob.n; ++u) {
    for (std::size_t t : dist.held_by_node[u]) {
      coding->seed(u, t, dist.tokens[t].payload);
    }
  }
  const round_t cap = plan.cap(env.prob.n, dist.k());
  const round_t used =
      co_await coding->run_stepped(env.net, cap, /*stop_early=*/true);
  ncdn::protocol_result res;
  res.rounds = used;
  res.complete = coding->all_complete();
  res.completion_round = res.complete ? used : 0;
  res.max_message_bits = env.net.max_observed_message_bits();
  co_return res;
}

void register_protocol_twin(const std::string& name) {
  auto& reg = ncdn::protocol_registry::instance();
  if (reg.find(kTwin + name) != nullptr) return;
  const ncdn::protocol_entry* entry = reg.find(name);
  if (entry == nullptr || !entry->coded_plan) {
    throw std::invalid_argument("ncdn_perf: no coded protocol '" + name + "'");
  }
  ncdn::protocol_entry twin = *entry;
  twin.name = kTwin + name;
  twin.legacy = std::nullopt;
  twin.make = [plan_of = entry->coded_plan, name](
                  const ncdn::problem& prob, ncdn::param_reader& params) {
    ncdn::coded_backend_plan plan = plan_of(prob, params);
    if (2 * prob.b < prob.k + prob.d) {
      throw std::invalid_argument("ncdn_perf: " + name +
                                  " needs b >= (k + d) / 2");
    }
    return ncdn::make_protocol_machine(
        [plan = std::move(plan)](ncdn::session_env& env) {
          return coded_twin_run(env, plan);
        });
  };
  twin.coded_plan = {};
  reg.add(std::move(twin));
}

void register_adversary_twin(const std::string& name) {
  auto& reg = ncdn::adversary_registry::instance();
  if (reg.find(kTwin + name) != nullptr) return;
  const ncdn::adversary_entry* entry = reg.find(name);
  if (entry == nullptr) {
    throw std::invalid_argument("ncdn_perf: no adversary '" + name + "'");
  }
  ncdn::adversary_entry twin = *entry;
  twin.name = kTwin + name;
  twin.legacy = std::nullopt;
  twin.make = [make = entry->make](const ncdn::problem& prob,
                                   ncdn::param_reader& params,
                                   std::uint64_t seed) {
    return std::unique_ptr<ncdn::adversary>(
        std::make_unique<timed_adversary>(make(prob, params, seed)));
  };
  reg.add(std::move(twin));
}

void register_link_twin(const std::string& name) {
  auto& reg = ncdn::link_registry::instance();
  if (reg.find(kTwin + name) != nullptr) return;
  const ncdn::link_entry* entry = reg.find(name);
  if (entry == nullptr) {
    throw std::invalid_argument("ncdn_perf: no link model '" + name + "'");
  }
  ncdn::link_entry twin = *entry;
  twin.name = kTwin + name;
  twin.make_loss = [make = entry->make_loss](ncdn::param_reader& params,
                                             std::uint64_t seed) {
    return std::function<bool(round_t, node_id, node_id)>(
        [lost = make(params, seed)](round_t r, node_id from, node_id to) {
          bool dropped = false;
          {
            const scoped_span span(g_trace.lost);
            dropped = lost(r, from, to);
          }
          g_trace.drops += dropped ? 1 : 0;
          return dropped;
        });
  };
  reg.add(std::move(twin));
}

// --- workloads --------------------------------------------------------------

struct cell_def {
  ncdn::problem prob;
  ncdn::protocol_spec proto;
  ncdn::adversary_spec adv;
  ncdn::link_spec link;
  bool coded = false;
  std::size_t instances = 1;  // distinct inputs per run
};

enum class size_class { full, small };

std::optional<cell_def> single_cell(const std::string& workload,
                                    size_class size) {
  const bool small = size == size_class::small;
  cell_def c;
  c.prob.place = ncdn::placement::random_spread;
  c.prob.t_stability = 1;
  if (workload == "gen-n4096") {
    c.prob.n = small ? 256 : 4096;
    c.prob.k = 64;
    c.prob.d = 8;
    c.prob.b = 64;
    c.proto = {"rlnc-gen", {{"gen_size", "16"}, {"band_overlap", "4"}}};
    c.adv = {"t-interval-random", {{"t", "4"}}};
    c.coded = true;
    c.instances = 7;
    return c;
  }
  if (workload == "direct-lossy-n1024") {
    c.prob.n = small ? 128 : 1024;
    c.prob.k = small ? 64 : 256;
    c.prob.d = 16;
    c.prob.b = small ? 48 : 160;
    c.proto = {"rlnc-direct", {}};
    c.adv = {"permuted-path", {}};
    c.link = {"bernoulli", {{"p", "0.1"}}};
    c.coded = true;
    c.instances = 8;
    return c;
  }
  if (workload == "forward-n16384") {
    c.prob.n = small ? 1024 : 16384;
    c.prob.k = 64;
    c.prob.d = 8;
    c.prob.b = 64;
    c.proto = {"token-forwarding-pipelined", {}};
    c.adv = {"t-interval-random", {{"t", "4"}}};
    c.instances = 6;
    return c;
  }
  return std::nullopt;
}

// The traced twin of a cell: same specs under the decorated names.
cell_def twin_of(const cell_def& c) {
  cell_def t = c;
  register_adversary_twin(c.adv.name);
  t.adv.name = kTwin + c.adv.name;
  if (c.coded) {
    register_protocol_twin(c.proto.name);
    t.proto.name = kTwin + c.proto.name;
  }
  if (!c.link.empty()) {
    register_link_twin(c.link.name);
    t.link.name = kTwin + c.link.name;
  }
  return t;
}

std::unique_ptr<ncdn::session> make_session(const cell_def& c,
                                            std::uint64_t seed) {
  return std::make_unique<ncdn::session>(c.prob, c.proto, c.adv, c.link,
                                         seed);
}

// The simulated statistics a run must reproduce exactly: across repeats of
// a seed, and between the traced and untraced runs.  elimination_xors is
// recorded but deliberately not compared — eliminating differently is a
// legitimate optimisation.
struct sim_stats {
  std::vector<std::uint64_t> values;
  bool complete = false;
};

sim_stats stats_of(const ncdn::session& s) {
  const ncdn::run_report& rep = s.report();
  const ncdn::session_metrics& m = rep.metrics;
  sim_stats out;
  out.values = {rep.rounds,
                rep.completion_round,
                m.total_message_bits,
                m.decode_delay_p50,
                m.decode_delay_p90,
                m.decode_delay_max,
                m.total_messages_sent,
                m.total_messages_delivered,
                m.total_messages_dropped,
                m.messages_in_flight};
  out.complete = rep.complete;
  return out;
}

// Every node decodes every token to its source payload.
bool payloads_match(const ncdn::rlnc_session& coding,
                    const ncdn::token_distribution& dist) {
  for (node_id u = 0; u < dist.n; ++u) {
    for (std::size_t t = 0; t < dist.k(); ++t) {
      if (!coding.can_decode(u, t) ||
          !(coding.decode(u, t) == dist.tokens[t].payload)) {
        return false;
      }
    }
  }
  return true;
}

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;

  void put(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const char* why) {
    std::fprintf(stderr, "ncdn_perf: check failed: %s\n", why);
    ++failed;
  }
};

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_class size = size_class::full;
};

// Median over `reps` cold set-ups, each in a fresh child process so the
// registries' first-use construction is part of every sample.  The child
// times the reference kernel just before, and sends its seconds back
// through a pipe at the reference speed.
template <class Fn>
double cold_setup_seconds(int reps, Fn setup) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("ncdn_perf: pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("ncdn_perf: fork failed");
    if (pid == 0) {
      close(fds[0]);
      int code = 1;
      try {
        speed_ref ref;
        const double ref_seconds = ref.time_now(5);
        const auto t0 = clock_type::now();
        setup(i);
        const double secs = at_ref_speed(seconds_since(t0), ref_seconds);
        if (write(fds[1], &secs, sizeof secs) ==
            static_cast<ssize_t>(sizeof secs)) {
          code = 0;
        }
      } catch (const std::exception& err) {
        std::fprintf(stderr, "ncdn_perf: set-up: %s\n", err.what());
      }
      _exit(code);
    }
    close(fds[1]);
    double secs = 0;
    const ssize_t got = read(fds[0], &secs, sizeof secs);
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != static_cast<ssize_t>(sizeof secs) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("ncdn_perf: set-up child failed");
    }
    samples.push_back(secs);
  }
  return median(samples);
}

constexpr int kSetupReps = 41;

// The seconds of each round of one run and, for a timed run, the reference
// kernel's seconds right after each round.
struct round_times {
  std::vector<double> step;
  std::vector<double> ref;
};

round_times run_cell(ncdn::session& s, bool traced, speed_ref* ref) {
  round_times out;
  for (;;) {
    const auto t0 = clock_type::now();
    bool more = false;
    if (traced) {
      const scoped_span span(g_trace.step);
      more = s.step();
    } else {
      more = s.step();
    }
    out.step.push_back(seconds_since(t0));
    if (ref != nullptr) out.ref.push_back(ref->time_once());
    if (!more) break;
  }
  return out;
}

double sum_of(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

// A timed run's step-loop seconds at the reference speed.  Each round is
// scaled by the kernel's seconds around it: the median over the five
// nearest rounds, which keeps a single jittery kernel timing out.
double run_at_ref_speed(const round_times& t) {
  const std::size_t n = std::min(t.step.size(), t.ref.size());
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= 2 ? i - 2 : 0;
    const std::size_t hi = std::min(n, i + 3);
    const std::vector<double> near(
        t.ref.begin() + static_cast<std::ptrdiff_t>(lo),
        t.ref.begin() + static_cast<std::ptrdiff_t>(hi));
    total += at_ref_speed(t.step[i], median(near));
  }
  return total;
}

void put_layer_metrics(result& res, int traced_reps, double construct_ms,
                       double untraced_wall, double traced_wall, double xors,
                       double knowledge, double slowdown) {
  const double per = traced_reps > 0 ? 1.0 / traced_reps : 0.0;
  auto per_rep = [per](std::uint64_t v) {
    return static_cast<double>(v) * per;
  };
  const layer_trace& t = g_trace;
  res.put("dynnet.adversary.topology_ms", t.topology.ms() * per, "ms");
  res.put("dynnet.adversary.topology_calls", per_rep(t.topology.calls),
          "count");
  res.put("linkmodel.lost_ms", t.lost.ms() * per, "ms");
  res.put("linkmodel.lost_calls", per_rep(t.lost.calls), "count");
  res.put("linkmodel.drop_ratio",
          t.lost.calls == 0 ? 0.0
                            : static_cast<double>(t.drops) /
                                  static_cast<double>(t.lost.calls),
          "ratio");
  res.put("coding.emit_ms", t.emit.ms() * per, "ms");
  res.put("coding.emit_calls", per_rep(t.emit.calls), "count");
  res.put("coding.insert_ms", t.insert.ms() * per, "ms");
  res.put("coding.insert_calls", per_rep(t.insert.calls), "count");
  res.put("coding.query_ms", t.query.ms() * per, "ms");
  res.put("coding.query_calls", per_rep(t.query.calls), "count");
  res.put("coding.elimination_xors", xors, "count");
  const double insert_calls = per_rep(t.insert.calls);
  res.put("coding.useful_insert_ratio",
          insert_calls == 0 ? 0.0 : knowledge / insert_calls,
          "ratio");
  const double coding_ms = (t.emit.ms() + t.insert.ms() + t.query.ms()) * per;
  res.put("coding.xors_per_ms",
          coding_ms == 0 ? 0.0 : xors / coding_ms,
          "1/ms");
  const double step_ms = t.step.ms() * per;
  const double children_ms =
      (t.topology.ms() + t.lost.ms() + t.emit.ms() + t.insert.ms() +
       t.query.ms()) *
      per;
  res.put("core.session.construct_ms", construct_ms, "ms");
  res.put("core.session.step_ms", step_ms, "ms");
  res.put("core.session.self_ms", step_ms - children_ms, "ms");
  res.put("trace_overhead_ratio",
          untraced_wall > 0 ? traced_wall / untraced_wall : 0.0, "ratio");
  // How much slower than kRefSeconds the reference kernel ran: raw seconds
  // are the reported ones times this.
  res.put("host.slowdown", slowdown, "ratio");
}

// The protocol families of the `full` tier, one runner.cell_ms.<family>
// metric each ('/' in a registry name becomes '.').
const std::vector<std::string> kFamilies = {
    "centralized-rlnc", "greedy-forward",   "naive-indexed",
    "rlnc-direct",      "rlnc-gen",         "rlnc-sparse",
    "token-forwarding", "tstable/patch"};

std::string family_metric(std::string family) {
  std::replace(family.begin(), family.end(), '/', '.');
  return "runner.cell_ms." + family;
}

void put_runner_metrics(result& res, double registry_ms, double serial_s,
                        double efficiency,
                        const std::map<std::string, double>& cell_ms) {
  res.put("runner.scenario_registry_ms", registry_ms, "ms");
  res.put("runner.sweep.serial_s", serial_s, "s");
  res.put("runner.sweep.parallel_efficiency", efficiency, "ratio");
  for (const std::string& f : kFamilies) {
    const auto it = cell_ms.find(f);
    res.put(family_metric(f), it == cell_ms.end() ? 0.0 : it->second, "ms");
  }
  for (const auto& [family, ms] : cell_ms) {
    if (std::find(kFamilies.begin(), kFamilies.end(), family) ==
        kFamilies.end()) {
      res.put(family_metric(family), ms, "ms");
    }
  }
}

// The seed of instance j of a run: every run times the same `instances`
// inputs derived from its --seed, so its figure averages over inputs as
// well as over machine noise.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t j) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + j;
  const std::uint64_t s = ncdn::splitmix64(state);
  return s == 0 ? 1 : s;
}

result run_single_cell(const cell_def& cell, const options& opt) {
  result res;
  const cell_def twin = twin_of(cell);
  const std::size_t m = cell.instances;

  double setup_s = 0;
  if (!opt.trace) {
    setup_s = cold_setup_seconds(kSetupReps, [&](int i) {
      make_session(cell,
                   instance_seed(opt.seed, static_cast<std::size_t>(i) % m));
    });
  }

  // Every run of instance j must reproduce the statistics of its first.
  std::vector<std::optional<sim_stats>> reference(m);
  auto check = [&](const ncdn::session& s, std::size_t j, const char* what) {
    ++res.attempted;
    if (s.failed() || !s.finished()) {
      res.fail(what);
      return;
    }
    const sim_stats st = stats_of(s);
    // Coded protocols decode inside their own rlnc_session; forwarding ones
    // must leave every node holding every token in the shared state.
    if (!st.complete || (!cell.coded && !s.state().all_complete())) {
      res.fail("run ended incomplete");
      return;
    }
    if (!reference[j]) {
      reference[j] = st;
    } else if (st.values != reference[j]->values) {
      res.fail("simulated statistics differ between runs of one seed");
    }
  };

  // One run of instance j on the twins.  Untraced runs use the registered
  // protocol, whose coding state is private, so the twin's run is where
  // every node's decoded payloads are checked against the source tokens.
  double construct_ms = 0;
  std::uint64_t xors = 0;
  std::uint64_t knowledge = 0;
  auto traced_run = [&](std::size_t j) {
    const auto t0 = clock_type::now();
    auto s = make_session(twin, instance_seed(opt.seed, j));
    construct_ms += seconds_since(t0) * 1e3;
    const double wall = sum_of(run_cell(*s, true, nullptr).step);
    check(*s, j, "traced run threw");
    if (s->finished() && !s->failed()) {
      xors += s->metrics().total_elimination_xors;
      knowledge += s->metrics().final_total_knowledge;
    }
    if (cell.coded && !payloads_match(*g_twin_coding, s->distribution())) {
      res.fail("decoded payloads differ from the source tokens");
    }
    g_twin_coding.reset();
    return wall;
  };

  // The first run warms the allocator and is not timed.
  traced_run(0);
  g_trace = layer_trace{};
  construct_ms = 0;
  xors = 0;
  knowledge = 0;

  // Timed phase: untraced runs of the registered protocol, cycling through
  // the instances, until every instance ran and --seconds passed; with
  // tracing, each is followed by the same instance on the twins.
  speed_ref ref;
  std::vector<std::vector<double>> walls(m);  // at the reference speed
  std::vector<double> slowdowns;  // the kernel's median over kRefSeconds
  double untraced_total = 0;
  double traced_total = 0;
  std::size_t runs = 0;
  const auto t_start = clock_type::now();
  do {
    const std::size_t j = runs % m;
    round_times times;
    {
      auto s = make_session(cell, instance_seed(opt.seed, j));
      times = run_cell(*s, false, &ref);
      check(*s, j, "untraced run threw");
    }
    const double wall = sum_of(times.step);
    walls[j].push_back(run_at_ref_speed(times));
    slowdowns.push_back(median(times.ref) / kRefSeconds);
    std::fprintf(stderr,
                 "ncdn_perf: %s instance %zu: %.4f s, %.4f s at the "
                 "reference speed\n",
                 opt.workload.c_str(), j, wall, walls[j].back());
    if (opt.trace) {
      untraced_total += wall;
      traced_total += traced_run(j);
    }
    ++runs;
  } while (runs < m || seconds_since(t_start) < opt.seconds);

  if (opt.trace) {
    const std::uint64_t traced = runs;
    const double per = 1.0 / static_cast<double>(traced);
    put_layer_metrics(res, static_cast<int>(traced), construct_ms * per,
                      untraced_total, traced_total,
                      static_cast<double>(xors) * per,
                      static_cast<double>(knowledge) * per,
                      median(slowdowns));
    put_runner_metrics(res, 0, 0, 0, {});
  } else {
    // Mean over the instances of each instance's median run.
    double sum = 0;
    for (const std::vector<double>& w : walls) sum += median(w);
    res.put("wall_s", sum / static_cast<double>(m), "s");
    res.put("setup_s", setup_s, "s");
  }
  return res;
}

constexpr std::size_t kSweepThreads = 4;

ncdn::runner::sweep_options sweep_opts(const options& opt,
                                       std::size_t threads) {
  ncdn::runner::sweep_options so;
  so.trials = opt.size == size_class::small ? 1 : 6;
  so.base_seed = opt.seed;
  so.threads = threads;
  so.batch = 8;
  return so;
}

std::vector<ncdn::runner::scenario> sweep_scenarios() {
  return ncdn::runner::scenarios_in_tier("full");
}

result run_matrix_sweep(const options& opt) {
  result res;
  double setup_s = 0;
  if (!opt.trace) {
    setup_s = cold_setup_seconds(kSetupReps, [](int) { sweep_scenarios(); });
  }
  const auto t_reg = clock_type::now();
  const std::vector<ncdn::runner::scenario> scens = sweep_scenarios();
  const double registry_ms = seconds_since(t_reg) * 1e3;

  std::optional<std::string> reference;
  // One sweep: its wall seconds, and its cells checked for completion and
  // against the reference JSON.
  auto sweep_once = [&](std::size_t threads) {
    const auto t0 = clock_type::now();
    std::optional<ncdn::runner::sweep_result> out;
    try {
      out = ncdn::runner::run_sweep(scens, sweep_opts(opt, threads));
    } catch (const std::exception& err) {
      std::fprintf(stderr, "ncdn_perf: %s\n", err.what());
    }
    const double wall = seconds_since(t0);
    const std::size_t cells = scens.size() * sweep_opts(opt, threads).trials;
    res.attempted += cells;
    if (!out) {
      res.failed += cells;
      return wall;
    }
    for (const auto& c : out->cells) {
      if (!c.report.complete) res.fail("sweep cell ended incomplete");
    }
    std::string json = ncdn::runner::sweep_to_json(*out).dump();
    if (!reference) {
      reference = std::move(json);
    } else if (json != *reference) {
      std::fprintf(stderr, "ncdn_perf: sweep JSON differs (%zu threads)\n",
                   threads);
      res.failed += cells;
    }
    return wall;
  };

  // The one-thread sweep runs first: it warms the allocator and sets the
  // reference JSON every timed 4-thread sweep must match byte for byte.
  // Each timed sweep is put at the reference speed by the kernel's seconds
  // on as many cores, taken just before and just after it.
  const double serial_s = sweep_once(1);
  std::vector<double> walls;
  std::vector<double> ref_walls;
  std::vector<double> slowdowns;
  double ref_before = ref_seconds_on(kSweepThreads);
  const auto t_start = clock_type::now();
  do {
    walls.push_back(sweep_once(kSweepThreads));
    const double ref_after = ref_seconds_on(kSweepThreads);
    const double ref_seconds = 0.5 * (ref_before + ref_after);
    ref_walls.push_back(at_ref_speed(walls.back(), ref_seconds));
    slowdowns.push_back(ref_seconds / kRefSeconds);
    ref_before = ref_after;
    std::fprintf(stderr,
                 "ncdn_perf: matrix-sweep run %zu: %.4f s, %.4f s at the "
                 "reference speed\n",
                 walls.size(), walls.back(), ref_walls.back());
  } while (seconds_since(t_start) < opt.seconds);

  if (!opt.trace) {
    res.put("wall_s", median(ref_walls), "s");
    res.put("setup_s", setup_s, "s");
    return res;
  }

  // Traced: replay every cell serially through a session with the seed
  // run_sweep derives for it, timing each cell into its protocol family,
  // and require the replay to reproduce the sweep's JSON byte for byte.
  ncdn::runner::sweep_result replay;
  replay.scenarios = scens;
  replay.options = sweep_opts(opt, 1);
  std::map<std::string, double> cell_ms;
  const auto t_replay = clock_type::now();
  for (std::size_t si = 0; si < scens.size(); ++si) {
    const ncdn::runner::scenario& sc = scens[si];
    for (std::size_t t = 0; t < replay.options.trials; ++t) {
      ncdn::runner::cell_result cell;
      cell.scenario_index = si;
      cell.trial = t;
      cell.seed = ncdn::runner::cell_seed(opt.seed, sc.name, t);
      const auto t0 = clock_type::now();
      try {
        ncdn::session s(sc.prob, sc.protocol(), sc.adversary(),
                        sc.linkspec(), sc.contentspec(), cell.seed);
        cell.report = s.run_to_completion();
      } catch (const std::exception& err) {
        std::fprintf(stderr, "ncdn_perf: %s: %s\n", sc.name.c_str(),
                     err.what());
      }
      cell_ms[sc.alg] += seconds_since(t0) * 1e3;
      replay.cells.push_back(std::move(cell));
    }
  }
  const double replay_s = seconds_since(t_replay);
  res.attempted += replay.cells.size();
  if (!reference ||
      ncdn::runner::sweep_to_json(replay).dump() != *reference) {
    res.fail("serial replay does not reproduce the sweep JSON");
  }

  // The sweep's traced run is the serial replay, so its overhead is
  // measured against the one-thread sweep; the coding, link and adversary
  // layers are traced on the single-cell workloads only.
  put_layer_metrics(res, 0, 0, serial_s, replay_s, 0, 0, median(slowdowns));
  put_runner_metrics(
      res, registry_ms, serial_s,
      serial_s / (static_cast<double>(kSweepThreads) * median(walls)),
      cell_ms);
  return res;
}

const std::vector<std::string> kWorkloads = {
    "gen-n4096", "direct-lossy-n1024", "forward-n16384", "matrix-sweep"};

result run_workload(const options& opt) {
  result res = opt.workload == "matrix-sweep"
                   ? run_matrix_sweep(opt)
                   : run_single_cell(*single_cell(opt.workload, opt.size), opt);
  if (!opt.trace) {
    res.put("peak_rss_mb",
            static_cast<double>(ncdn::peak_rss_bytes()) / (1024.0 * 1024.0),
            "MB");
  }
  return res;
}

// Every digit a double carries, so repeated runs never print alike.
std::string full_digits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string to_json(const result& res) {
  std::string out = "{\"correct\": ";
  out += res.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const metric& m = res.metrics[i];
    out += i == 0 ? "\"" : ", \"";
    out += m.name + "\": {\"value\": " + full_digits(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

// The child's result, sent to the parent over a pipe as text: a header
// line "attempted failed" and then one "name value unit" line per metric.
std::string serialize(const result& res) {
  std::string out = std::to_string(res.attempted) + " " +
                    std::to_string(res.failed) + "\n";
  for (const metric& m : res.metrics) {
    out += m.name + " " + full_digits(m.value) + " " + m.unit + "\n";
  }
  return out;
}

std::optional<result> deserialize(const std::string& text) {
  result res;
  std::size_t pos = 0;
  auto next_line = [&]() -> std::optional<std::string> {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) return std::nullopt;
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };
  const std::optional<std::string> header = next_line();
  unsigned long long attempted = 0;
  unsigned long long failed = 0;
  if (!header ||
      std::sscanf(header->c_str(), "%llu %llu", &attempted, &failed) != 2) {
    return std::nullopt;
  }
  res.attempted = attempted;
  res.failed = failed;
  while (std::optional<std::string> line = next_line()) {
    const std::size_t a = line->find(' ');
    const std::size_t b = line->rfind(' ');
    if (a == std::string::npos || a == b) return std::nullopt;
    res.metrics.push_back({line->substr(0, a),
                           std::strtod(line->c_str() + a + 1, nullptr),
                           line->substr(b + 1)});
  }
  return res;
}

// Runs one workload in a forked child, so VmHWM is the workload's own, and
// returns its result (nullopt if the child died or sent nothing).
std::optional<result> run_isolated(const options& opt) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      const std::string text = serialize(run_workload(opt));
      const char* p = text.data();
      std::size_t left = text.size();
      while (left > 0) {
        const ssize_t n = write(fds[1], p, left);
        if (n <= 0) break;
        p += n;
        left -= static_cast<std::size_t>(n);
      }
      code = left == 0 ? 0 : 1;
    } catch (const std::exception& err) {
      std::fprintf(stderr, "ncdn_perf: %s: %s\n", opt.workload.c_str(),
                   err.what());
    }
    std::fflush(stderr);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return deserialize(text);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ncdn_perf: %s\nusage: ncdn_perf --workload "
               "gen-n4096|direct-lossy-n1024|forward-n16384|matrix-sweep|all "
               "--seed N --seconds S --trace 0|1 [--size full|small]\n",
               why);
  std::exit(2);
}

options parse_args(int argc, char** argv) {
  options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("--seed needs an integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(opt.seconds >= 0)) {
        usage("--seconds needs a non-negative number");
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace needs 0 or 1");
      opt.trace = val == "1";
    } else if (arg == "--size") {
      if (val != "full" && val != "small") usage("--size needs full|small");
      opt.size = val == "small" ? size_class::small : size_class::full;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (opt.workload != "all" &&
      std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) ==
          kWorkloads.end()) {
    usage(("unknown workload " + opt.workload).c_str());
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse_args(argc, argv);
  if (opt.workload != "all") {
    const std::optional<result> res = run_isolated(opt);
    if (!res) return 1;
    std::printf("%s\n", to_json(*res).c_str());
    return 0;
  }
  // Every workload in its own child, one line each, then one combined
  // object whose metric names carry their workload as a prefix.
  result all;
  for (const std::string& w : kWorkloads) {
    options one = opt;
    one.workload = w;
    const std::optional<result> res = run_isolated(one);
    if (!res) return 1;
    std::printf("%s: %s\n", w.c_str(), to_json(*res).c_str());
    all.attempted += res->attempted;
    all.failed += res->failed;
    for (const metric& m : res->metrics) {
      all.metrics.push_back({w + "." + m.name, m.value, m.unit});
    }
  }
  std::printf("%s\n", to_json(all).c_str());
  return 0;
}
