// Incremental (online) RLNC decoders.
//
// Every node maintains one decoder.  Each received coded packet is a row
// [coefficients | payload]; insert() performs one step of online Gaussian
// elimination, keeps the store in reduced row echelon form, and reports
// whether the packet was *innovative* (increased the rank).  Decoding is a
// lookup once the coefficient rank reaches k: the RREF rows are then
// [e_i | token_i].
//
// Two implementations:
//   bit_decoder        — q = 2, word-packed rows (the fast path; §5.1 takes
//                        q = 2 throughout most of the paper).
//   field_decoder<F>   — any finite_field F (GF(2^k) for hop-failure-rate
//                        experiments, mersenne61 for §6 derandomization).
//
// bit_decoder storage: the basis lives in one contiguous word buffer,
// rank x words_for_bits(coeff_dim + payload_bits) words, rows back to back
// in arrival order (row_words(i)), next to a pivot column -> row index
// (pivot_row(c)) and a coeff_dim-bit mask of the pivot columns.  insert
// copies the arrival into a reused scratch row, so a non-innovative
// arrival allocates nothing and an innovative one appends its words.
// Forward elimination walks the set bits of row & pivot_mask instead of
// probing one pivot bit per basis row.  The two walks XOR the same rows:
// in RREF no basis row has a 1 in another row's pivot column, so XORing
// one basis row into the arrival never changes the arrival's bit in any
// other pivot column, and the rows XORed are exactly those whose pivot
// bit the arrival carried on arrival.  XOR is commutative, so the reduced
// row, the basis and xor_word_ops() do not depend on the walk order.
//
// Messages in the paper are random linear combinations of *all received
// messages*; combining the decoder's basis rows spans the same subspace and
// the projection analysis (Lemma 5.2) applies verbatim to any random
// combination with independent uniform coefficients over a spanning set.
// Recoding from the basis is also what practical RLNC implementations do.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/arena.hpp"
#include "core/bits.hpp"
#include "core/contracts.hpp"
#include "gf/field.hpp"
#include "linalg/bitvec.hpp"

namespace ncdn {

class bit_decoder {
 public:
  bit_decoder() = default;
  bit_decoder(std::size_t coeff_dim, std::size_t payload_bits) {
    reset(coeff_dim, payload_bits);
  }

  std::size_t coeff_dim() const noexcept { return coeff_dim_; }
  std::size_t payload_bits() const noexcept { return payload_bits_; }
  std::size_t row_bits() const noexcept { return coeff_dim_ + payload_bits_; }
  std::size_t rank() const noexcept { return rank_; }
  bool complete() const noexcept { return rank() == coeff_dim_; }

  /// Inserts a coded row; returns true iff it was innovative.  The row is
  /// eliminated in a reused scratch row, so a non-innovative arrival
  /// allocates nothing.
  /// Precondition: a row whose coefficient part eliminates to zero must
  /// eliminate to the all-zero row (payloads are linear in coefficients);
  /// violating rows indicate corrupted input and trip a contract.
  bool insert(const bitvec& arrival) {
    NCDN_EXPECTS(arrival.size() == row_bits());
    std::uint64_t* row = scratch_.data();
    std::copy(arrival.words().begin(), arrival.words().end(), row);
    xor_words_ += reduce(row) * row_words_;
    const std::size_t p = first_set(row);
    if (p >= coeff_dim_) {
      NCDN_ASSERT(p == row_bits());  // consistency: no pivot inside payload
      return false;
    }
    for (std::size_t i = 0; i < rank_; ++i) {
      std::uint64_t* other = store_.data() + i * row_words_;
      if (bit(other, p)) {
        xor_into(other, row);
        xor_words_ += row_words_;
        // Back-substitution can strip a row down to its pivot alone; a
        // singleton never loses that status (no later row carries its
        // pivot column), so counting the 0 -> 1 transitions here keeps
        // decodable_count() exact in O(coeff words) per touched row.
        if (coeff_popcount(other) == 1) ++decodable_;
      }
    }
    if (coeff_popcount(row) == 1) ++decodable_;
    NCDN_AUDIT(pivot_row_[p] == npos);  // pivot columns are claimed once
    pivot_row_[p] = rank_++;
    pivot_mask_[p >> 6] |= 1ULL << (p & 63);
    store_.insert(store_.end(), row, row + row_words_);
    NCDN_AUDIT(audit_rref());
    NCDN_AUDIT(audit_decodable());
    return true;
  }

  /// Uniformly random combination of the basis (may be the zero vector).
  /// Returns nullopt if nothing has been received yet.  A non-null pool
  /// supplies the output row's storage (identical contents either way).
  std::optional<bitvec> random_combination(rng& r,
                                           word_arena* pool = nullptr) const {
    if (rank_ == 0) return std::nullopt;
    bitvec out = pool != nullptr ? pool->make(row_bits()) : bitvec(row_bits());
    for (std::size_t i = 0; i < rank_; ++i) {
      if (r.coin()) {
        out.xor_words(row_words(i));
        xor_words_ += row_words_;
      }
    }
    return out;
  }

  /// Sparse-RLNC combination: each basis row is included with independent
  /// probability `rho` instead of 1/2 (Firooz & Roy's density/delay
  /// trade-off; sparsenc's `density` knob).  Draws one RNG value per basis
  /// row, like random_combination, but from the Bernoulli stream.
  std::optional<bitvec> sparse_combination(rng& r, double rho,
                                           word_arena* pool = nullptr) const {
    if (rank_ == 0) return std::nullopt;
    bitvec out = pool != nullptr ? pool->make(row_bits()) : bitvec(row_bits());
    for (std::size_t i = 0; i < rank_; ++i) {
      if (r.bernoulli(rho)) {
        out.xor_words(row_words(i));
        xor_words_ += row_words_;
      }
    }
    return out;
  }

  /// True iff some basis row's coefficient part is non-orthogonal to mu
  /// (Definition 5.1 "senses"; equivalent over the received span).
  /// Word-parallel via bitvec::dot_words — mu is coeff_dim bits, so the
  /// dot never touches a row's payload words.
  bool senses(const bitvec& mu) const {
    NCDN_EXPECTS(mu.size() == coeff_dim_);
    for (std::size_t i = 0; i < rank_; ++i) {
      if (mu.dot_words(row_words(i))) return true;
    }
    return false;
  }

  /// True iff token i is decodable right now (e_i in the coefficient span).
  /// O(row words) via the pivot->row index and an in-place coefficient
  /// popcount — no O(rank) scan, no heap-allocating slice.
  bool can_decode(std::size_t i) const {
    NCDN_EXPECTS(i < coeff_dim_);
    // In RREF: e_i is in the span iff the row pivoting on i has no other
    // coefficient entries.
    const std::uint64_t* row = pivot_row(i);
    return row != nullptr && coeff_popcount(row) == 1;
  }

  /// Payload of token i; requires can_decode(i).  (complete() implies every
  /// token is decodable, so the historical decode-after-completion callers
  /// satisfy this unchanged; per-token early decode is now legal too.)
  bitvec decode(std::size_t i) const {
    NCDN_EXPECTS(can_decode(i));
    bitvec out(payload_bits_);
    out.copy_bits_from(pivot_row(i), row_words_, coeff_dim_, payload_bits_,
                       0);
    return out;
  }

  /// True iff `row` is already in the received span (non-mutating).
  bool in_span(const bitvec& row) const {
    NCDN_EXPECTS(row.size() == row_bits());
    std::vector<std::uint64_t> words = row.words();
    reduce(words.data());
    return first_set(words.data()) == row_bits();
  }

  /// Basis row i (0 <= i < rank(), arrival order) as row_bits() bits in
  /// words().size() == words_for_bits(row_bits()) words; bits past
  /// row_bits() are zero.  Valid until the next insert or reset.
  const std::uint64_t* row_words(std::size_t i) const {
    NCDN_EXPECTS(i < rank_);
    return store_.data() + i * row_words_;
  }

  /// The basis row whose pivot is column c (as row_words), or nullptr if c
  /// is not a pivot.  Walking the columns in order visits the basis in
  /// pivot order (the canonical RREF row order); row_words keeps arrival
  /// order.
  const std::uint64_t* pivot_row(std::size_t c) const {
    NCDN_EXPECTS(c < coeff_dim_);
    const std::size_t r = pivot_row_[c];
    return r == npos ? nullptr : store_.data() + r * row_words_;
  }

  /// Copies of the basis rows in arrival order (tests and diagnostics;
  /// hot paths read row_words / pivot_row in place).
  std::vector<bitvec> basis() const {
    std::vector<bitvec> rows(rank_, bitvec(row_bits()));
    for (std::size_t i = 0; i < rank_; ++i) rows[i].xor_words(row_words(i));
    return rows;
  }

  /// Number of tokens currently decodable (singleton RREF rows).
  /// Maintained incrementally by insert — O(1) to read, monotone, and
  /// == coeff_dim iff complete() — so per-round decode-delay accounting
  /// never scans the basis.
  std::size_t decodable_count() const noexcept { return decodable_; }

  /// Cumulative 64-bit XOR word-operations spent in Gaussian elimination
  /// (insert) and combination generation — the decode-cost axis the sparse
  /// and generation backends trade rounds against.
  std::uint64_t xor_word_ops() const noexcept { return xor_words_; }

  void reset(std::size_t coeff_dim, std::size_t payload_bits) {
    coeff_dim_ = coeff_dim;
    payload_bits_ = payload_bits;
    row_words_ = words_for_bits(row_bits());
    rank_ = 0;
    store_.clear();
    pivot_row_.assign(coeff_dim, npos);
    pivot_mask_.assign(words_for_bits(coeff_dim), 0);
    scratch_.assign(row_words_, 0);
    xor_words_ = 0;
    decodable_ = 0;
  }

 private:
  static constexpr std::size_t npos = ~std::size_t{0};

  static bool bit(const std::uint64_t* row, std::size_t i) noexcept {
    return ((row[i >> 6] >> (i & 63)) & 1u) != 0;
  }

  void xor_into(std::uint64_t* dst, const std::uint64_t* src) const noexcept {
    for (std::size_t w = 0; w < row_words_; ++w) dst[w] ^= src[w];
  }

  /// Index of the row's first set bit, or row_bits() if it is zero.
  std::size_t first_set(const std::uint64_t* row) const noexcept {
    for (std::size_t w = 0; w < row_words_; ++w) {
      if (row[w] != 0) {
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(row[w]));
      }
    }
    return row_bits();
  }

  /// Set bits among the row's coefficient columns.
  std::size_t coeff_popcount(const std::uint64_t* row) const noexcept {
    std::size_t c = 0;
    for (std::size_t w = 0; w < pivot_mask_.size(); ++w) {
      std::uint64_t word = row[w];
      if (const std::size_t tail = coeff_dim_ - (w << 6); tail < 64) {
        word &= (1ULL << tail) - 1;
      }
      c += static_cast<std::size_t>(std::popcount(word));
    }
    return c;
  }

  /// Forward elimination: XORs into `row` the basis row of every pivot
  /// column it has set, and returns how many rows that was.  Reading a
  /// word's hits before its XORs is exact because an XOR leaves every
  /// other pivot bit of `row` as it was (see the file comment).
  std::size_t reduce(std::uint64_t* row) const noexcept {
    std::size_t hits = 0;
    for (std::size_t w = 0; w < pivot_mask_.size(); ++w) {
      for (std::uint64_t m = row[w] & pivot_mask_[w]; m != 0; m &= m - 1) {
        const std::size_t c =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(m));
        xor_into(row, store_.data() + pivot_row_[c] * row_words_);
        ++hits;
      }
    }
    return hits;
  }

  /// Full O(rank^2) RREF audit: every claimed pivot column's row leads
  /// with that column, no other row has a 1 there, the pivot mask marks
  /// exactly the claimed columns, and every stored row is claimed once.
  /// insert() maintains this incrementally; the audit build re-derives it
  /// from scratch after every insertion.
  bool audit_rref() const {
    std::size_t claimed = 0;
    for (std::size_t c = 0; c < coeff_dim_; ++c) {
      const std::size_t i = pivot_row_[c];
      if (bit(pivot_mask_.data(), c) != (i != npos)) return false;
      if (i == npos) continue;
      ++claimed;
      if (i >= rank_ || first_set(row_words(i)) != c) return false;
      for (std::size_t j = 0; j < rank_; ++j) {
        if (j != i && bit(row_words(j), c)) return false;
      }
    }
    return claimed == rank_ && store_.size() == rank_ * row_words_;
  }

  /// Audit rebuild of the incremental decodable counter: the per-column
  /// can_decode scan must agree with the transition counting in insert.
  bool audit_decodable() const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < coeff_dim_; ++i) {
      if (can_decode(i)) ++count;
    }
    return count == decodable_;
  }

  std::size_t coeff_dim_ = 0;
  std::size_t payload_bits_ = 0;
  std::size_t row_words_ = 0;  // words per stored row
  std::size_t rank_ = 0;
  // The RREF basis: rank_ rows of row_words_ words each, back to back in
  // arrival order.
  std::vector<std::uint64_t> store_;
  std::vector<std::size_t> pivot_row_;     // pivot column -> row index
  std::vector<std::uint64_t> pivot_mask_;  // bit c set iff c is a pivot
  std::vector<std::uint64_t> scratch_;     // insert's working row
  std::size_t decodable_ = 0;              // singleton rows (decodable)
  mutable std::uint64_t xor_words_ = 0;  // stats only; const combiners count
};

/// Generic-field incremental decoder; rows are symbol vectors
/// [k coefficients | payload symbols].
template <finite_field F>
class field_decoder {
 public:
  using value_type = typename F::value_type;
  using row_type = std::vector<value_type>;

  field_decoder() = default;
  field_decoder(std::size_t coeff_dim, std::size_t payload_symbols)
      : coeff_dim_(coeff_dim), payload_symbols_(payload_symbols) {}

  std::size_t coeff_dim() const noexcept { return coeff_dim_; }
  std::size_t payload_symbols() const noexcept { return payload_symbols_; }
  std::size_t row_symbols() const noexcept {
    return coeff_dim_ + payload_symbols_;
  }
  std::size_t rank() const noexcept { return rows_.size(); }
  bool complete() const noexcept { return rank() == coeff_dim_; }

  bool insert(row_type row) {
    NCDN_EXPECTS(row.size() == row_symbols());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const value_type c = row[pivots_[i]];
      if (c != F::zero()) add_scaled(row, rows_[i], F::neg(c));
    }
    std::size_t p = 0;
    while (p < coeff_dim_ && row[p] == F::zero()) ++p;
    if (p == coeff_dim_) {
      for (std::size_t s = coeff_dim_; s < row.size(); ++s) {
        NCDN_ASSERT(row[s] == F::zero());
      }
      return false;
    }
    scale(row, F::inv(row[p]));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const value_type c = rows_[i][p];
      if (c != F::zero()) add_scaled(rows_[i], row, F::neg(c));
    }
    rows_.push_back(std::move(row));
    pivots_.push_back(p);
    NCDN_AUDIT(audit_rref());
    return true;
  }

  /// Random combination of the basis with uniform coefficients.
  std::optional<row_type> random_combination(rng& r) const {
    if (rows_.empty()) return std::nullopt;
    row_type out(row_symbols(), F::zero());
    for (const row_type& row : rows_) {
      const value_type c = F::uniform(r);
      if (c != F::zero()) add_scaled(out, row, c);
    }
    return out;
  }

  /// Combination with caller-supplied coefficients (advice-matrix path, §6).
  row_type combine(const std::vector<value_type>& coeffs) const {
    NCDN_EXPECTS(coeffs.size() >= rows_.size());
    row_type out(row_symbols(), F::zero());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (coeffs[i] != F::zero()) add_scaled(out, rows_[i], coeffs[i]);
    }
    return out;
  }

  row_type decode(std::size_t i) const {
    NCDN_EXPECTS(complete());
    NCDN_EXPECTS(i < coeff_dim_);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (pivots_[r] == i) {
        return row_type(
            rows_[r].begin() + static_cast<std::ptrdiff_t>(coeff_dim_),
            rows_[r].end());
      }
    }
    NCDN_ASSERT(false);
    return {};
  }

  /// True iff `row` is already in the received span (non-mutating).
  bool in_span(row_type row) const {
    NCDN_EXPECTS(row.size() == row_symbols());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const value_type c = row[pivots_[i]];
      if (c != F::zero()) add_scaled(row, rows_[i], F::neg(c));
    }
    for (const value_type& v : row) {
      if (v != F::zero()) return false;
    }
    return true;
  }

  const std::vector<row_type>& basis() const noexcept { return rows_; }

 private:
  /// Audit-build analogue of bit_decoder::audit_rref over F: unit pivot
  /// entries, distinct pivot columns, zeros elsewhere in each pivot
  /// column.
  bool audit_rref() const {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i][pivots_[i]] != F::one()) return false;
      for (std::size_t j = 0; j < rows_.size(); ++j) {
        if (j != i && rows_[j][pivots_[i]] != F::zero()) return false;
      }
    }
    return true;
  }

  static void add_scaled(row_type& dst, const row_type& src, value_type s) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] = F::add(dst[i], F::mul(s, src[i]));
    }
  }
  static void scale(row_type& row, value_type s) {
    for (auto& v : row) v = F::mul(v, s);
  }

  std::size_t coeff_dim_ = 0;
  std::size_t payload_symbols_ = 0;
  std::vector<row_type> rows_;
  std::vector<std::size_t> pivots_;
};

}  // namespace ncdn
