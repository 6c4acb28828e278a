#ifndef NMINE_CORE_COMPATIBILITY_MATRIX_H_
#define NMINE_CORE_COMPATIBILITY_MATRIX_H_

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "nmine/core/symbol.h"

namespace nmine {

/// Outcome of CompatibilityMatrix::Validate().
struct MatrixValidation {
  bool ok = true;
  std::string message;
};

/// The compatibility matrix of Definition 3.4.
///
/// Entry C(d_i, d_j) = Prob(true_value = d_i | observed_value = d_j): the
/// conditional probability that d_i is the true symbol given that d_j was
/// observed. Columns (fixed observed symbol) are probability distributions
/// and must sum to 1; the matrix need not be symmetric. The eternal symbol
/// is fully compatible with everything: C(*, d_j) = 1 for all j.
///
/// In a noise-free environment the matrix is the identity and the match
/// metric degenerates to classical support (Section 3, observation 3).
class CompatibilityMatrix {
 public:
  /// Creates an m x m zero matrix (not yet column-stochastic; fill with Set).
  explicit CompatibilityMatrix(size_t m);

  /// Creates a matrix from row-major `rows` where rows[i][j] = C(d_i, d_j).
  explicit CompatibilityMatrix(const std::vector<std::vector<double>>& rows);

  /// The identity matrix: the noise-free environment.
  static CompatibilityMatrix Identity(size_t m);

  // Hand-written because the lazy-index guard is an atomic + mutex (see
  // EnsureIndex); copies take the source's entries and rebuild the index
  // lazily on first use.
  CompatibilityMatrix(const CompatibilityMatrix& other);
  CompatibilityMatrix& operator=(const CompatibilityMatrix& other);
  CompatibilityMatrix(CompatibilityMatrix&& other) noexcept;
  CompatibilityMatrix& operator=(CompatibilityMatrix&& other) noexcept;

  /// Number of distinct symbols m.
  size_t size() const { return m_; }

  /// Returns C(true_sym, observed). `true_sym` may be kWildcard (yields 1.0,
  /// per the paper's convention C(*, d) = 1); `observed` must be a valid
  /// symbol id.
  double operator()(SymbolId true_sym, SymbolId observed) const {
    if (IsWildcard(true_sym)) return 1.0;
    return data_[static_cast<size_t>(true_sym) * m_ +
                 static_cast<size_t>(observed)];
  }

  /// Contiguous column for `observed`: Column(d)[t] == C(t, d) for every
  /// non-wildcard true symbol t. Backed by a column-major mirror kept in
  /// sync by Set(), so this is a single pointer add — match kernels hoist
  /// it out of their innermost product (one lookup per sequence position
  /// instead of one indexed load per (position, pattern symbol) pair).
  /// Callers handle the wildcard (factor 1.0) before indexing.
  const double* Column(SymbolId observed) const {
    return col_data_.data() + static_cast<size_t>(observed) * m_;
  }

  /// Sets C(true_sym, observed) = value. Invalidates cached indexes.
  void Set(SymbolId true_sym, SymbolId observed, double value);

  /// Checks that every entry lies in [0, 1] and every column sums to 1
  /// within `tolerance`.
  MatrixValidation Validate(double tolerance = 1e-6) const;

  /// True if this is exactly the identity matrix (noise-free environment).
  bool IsIdentity() const;

  /// Fraction of entries that are zero (matrices are sparse in practice;
  /// see Section 5.7).
  double Sparsity() const;

  /// A (true_sym, probability) pair within one observed-symbol column.
  struct Entry {
    SymbolId symbol;
    double value;
  };

  /// Non-zero entries of the column for `observed`: all true symbols that
  /// `observed` may be a (mis)representation of. The index is built lazily
  /// and cached; Set() invalidates it. The lazy build is thread-safe
  /// (double-checked under a mutex), so concurrent scan workers may race
  /// to the first lookup; Set() itself is NOT safe against concurrent
  /// readers — mutate matrices only before handing them to miners.
  const std::vector<Entry>& ColumnNonZeros(SymbolId observed) const;

  /// Non-zero entries of the row for `true_sym`: all observed symbols that
  /// `true_sym` may show up as.
  const std::vector<Entry>& RowNonZeros(SymbolId true_sym) const;

  /// The largest entry in the column for `observed`.
  double MaxInColumn(SymbolId observed) const;

 private:
  void EnsureIndex() const;

  size_t m_;
  std::vector<double> data_;      // row-major: data_[true * m_ + observed]
  std::vector<double> col_data_;  // column-major mirror for Column()

  // Lazily built sparse indexes (cleared by Set()). The guard is atomic so
  // EnsureIndex can double-check without locking on the hot path.
  mutable std::atomic<bool> index_built_{false};
  mutable std::mutex index_mutex_;
  mutable std::vector<std::vector<Entry>> column_nonzeros_;
  mutable std::vector<std::vector<Entry>> row_nonzeros_;
  mutable std::vector<double> column_max_;
};

}  // namespace nmine

#endif  // NMINE_CORE_COMPATIBILITY_MATRIX_H_
