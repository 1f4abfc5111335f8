// The (encoder schedule × decoder strategy) coding matrix.
//
// What a node sends and how it eliminates are separate concerns (sparsenc
// keeps five decoders and a generation scheduler orthogonal; Costa et al.
// schedule transmissions for minimum decoding delay):
//
//   encoder_schedule — what a node puts on the air each round:
//     dense       coin per basis row (the paper's §5.1 draw)
//     sparse      Bernoulli(rho) per basis row (Firooz & Roy density knob)
//     systematic  first pass emits the node's own seeded tokens uncoded,
//                 then switches to dense coded rows — receivers decode the
//                 head of the stream immediately instead of waiting for
//                 full rank (the classic systematic-code delay win)
//     feedback    generation layouts only: each outgoing row piggybacks the
//                 sender's per-generation rank deficits (a modeled zero-bit
//                 control plane), and senders steer their generation pick
//                 toward the largest deficit their neighbors reported
//                 instead of drawing uniformly
//
//   decoder_strategy — how arrivals are eliminated and queried.  Every
//   strategy is built on the incremental bit_decoder (linalg/decoder.hpp):
//   each arrival is eliminated on insert, one decoder per window.
//     rref        generic gf2 elimination.  Full-span layouts keep one
//                 decoder over all k tokens; generation layouts keep one
//                 decoder per generation whose rows stay full wire width
//                 (every XOR is k+d bits wide — the generic baseline
//                 banded elimination is judged against).
//     banded      generation layouts only: each generation's decoder spans
//                 just its window, so rows are stored narrow
//                 ([g+w window | payload]) and every elimination XOR
//                 touches g+w+d bits instead of k+d.
//
// Emission order is part of the draw stream (the goldens pin it): the
// full-span group combines its basis in storage (arrival) order, a
// generation group combines its rows in pivot order — the canonical RREF
// row order.
//
// A matrix_spec names one cell; make_matrix_backend builds it.  The
// default spec (sched=dense, dec=rref, full span) is the paper's dense
// path.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coding/backend.hpp"

namespace ncdn {

class bit_decoder;  // linalg/decoder.hpp

/// One cell of the coding matrix plus its token layout.  gen_size == 0 is
/// the full-span layout (one window covering all tokens); gen_size >= 1
/// partitions tokens into generations of gen_size with a band_overlap-token
/// shared band (consecutive windows overlap by band_overlap tokens).
struct matrix_spec {
  std::string sched = "dense";  // dense | sparse | systematic | feedback
  std::string dec = "rref";     // rref | banded
  double rho = 0.5;             // sparse inclusion density (sched=sparse)
  std::size_t gen_size = 0;     // 0 = full span
  std::size_t band_overlap = 0;
};

/// How arrivals are stored, eliminated, and queried.  The emission surface
/// (group) exposes the reduced basis as windowed groups so a schedule can
/// draw combinations without knowing the storage layout: full-span
/// strategies report one group spanning all tokens, generation strategies
/// one group per generation.  Groups always reflect every insert so far.
class decoder_strategy {
 public:
  struct group_ref {
    std::size_t start = 0;  // first token of the window
    std::size_t width = 0;  // window width in tokens
    // Decoder columns are the window itself ([width | payload] rows,
    // banded) or all tokens ([items | payload] wire-width rows).
    bool narrow = false;
    const bit_decoder* dec = nullptr;  // the window's decoder
  };

  virtual ~decoder_strategy() = default;

  virtual void insert(const bitvec& row) = 0;
  /// Adversary-visible knowledge: span rank for full-span rref, decodable
  /// token count for generation layouts (monotone; == items iff complete).
  virtual std::size_t rank() const = 0;
  virtual bool complete() const = 0;
  virtual bool can_decode(std::size_t i) const = 0;
  virtual bitvec decode(std::size_t i) const = 0;
  /// Number of tokens currently decodable (monotone).
  virtual std::size_t decode_progress() const = 0;
  virtual std::uint64_t xor_word_ops() const = 0;

  virtual std::size_t items() const = 0;
  virtual std::size_t item_bits() const = 0;

  /// Emission surface.  A schedule combines a generation group's rows in
  /// pivot order (the window's columns walked through
  /// bit_decoder::pivot_row) and the full-span group's in arrival order
  /// (bit_decoder::row_words).
  virtual bool grouped() const = 0;
  virtual std::size_t group_count() const = 0;
  virtual group_ref group(std::size_t gi) const = 0;
};

/// What a node sends.  Schedules are per-node (they may carry state: the
/// systematic queue, accumulated feedback deficits); `emit` draws one wire
/// row from the decoder's groups, charging combination XOR
/// word-ops to *xor_words.
class encoder_schedule {
 public:
  virtual ~encoder_schedule() = default;

  /// True if the schedule wants note_seed for pre-emission singleton
  /// inserts (a node's own seeded tokens).
  virtual bool wants_seed_notes() const { return false; }
  virtual void note_seed(std::size_t /*index*/) {}

  /// Feedback surface (sched=feedback): deficits a neighbor piggybacked on
  /// a received row, folded into the sender-side steering state.
  virtual bool wants_feedback() const { return false; }
  virtual void observe_feedback(const std::vector<std::uint32_t>&) {}

  virtual std::optional<bitvec> emit(const decoder_strategy& dec, rng& r,
                                     word_arena* pool,
                                     std::uint64_t* xor_words) = 0;
};

/// Builds the backend for one matrix cell.  Throws std::invalid_argument
/// (listing the recognized values) for unknown axis names, rho outside
/// (0, 1], band_overlap > gen_size, or a combination that needs a
/// generation layout (dec=banded, sched=feedback) without one.
std::unique_ptr<coding_backend> make_matrix_backend(const matrix_spec& spec);

/// Axis vocabularies for the CLI (`ncdn-run list-schedules`) and error
/// messages.
struct matrix_axis_info {
  const char* name;
  const char* summary;
};
const std::vector<matrix_axis_info>& encoder_schedules();
const std::vector<matrix_axis_info>& decoder_strategies();

}  // namespace ncdn
