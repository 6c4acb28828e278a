#include "nmine/core/compatibility_matrix.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "nmine/core/check.h"

namespace nmine {

CompatibilityMatrix::CompatibilityMatrix(size_t m)
    : m_(m), data_(m * m, 0.0), col_data_(m * m, 0.0) {}

CompatibilityMatrix::CompatibilityMatrix(
    const std::vector<std::vector<double>>& rows)
    : m_(rows.size()),
      data_(rows.size() * rows.size(), 0.0),
      col_data_(rows.size() * rows.size(), 0.0) {
  for (size_t i = 0; i < m_; ++i) {
    // Rows often come from parsed user input; a ragged matrix must die
    // loudly even in release builds instead of reading out of bounds.
    NMINE_CHECK(rows[i].size() == m_,
                "CompatibilityMatrix row length differs from the number of "
                "rows (matrix must be square)");
    for (size_t j = 0; j < m_; ++j) {
      data_[i * m_ + j] = rows[i][j];
      col_data_[j * m_ + i] = rows[i][j];
    }
  }
}

CompatibilityMatrix CompatibilityMatrix::Identity(size_t m) {
  CompatibilityMatrix c(m);
  for (size_t i = 0; i < m; ++i) {
    c.data_[i * m + i] = 1.0;
    c.col_data_[i * m + i] = 1.0;
  }
  return c;
}

CompatibilityMatrix::CompatibilityMatrix(const CompatibilityMatrix& other)
    : m_(other.m_), data_(other.data_), col_data_(other.col_data_) {}

CompatibilityMatrix& CompatibilityMatrix::operator=(
    const CompatibilityMatrix& other) {
  if (this == &other) return *this;
  m_ = other.m_;
  data_ = other.data_;
  col_data_ = other.col_data_;
  index_built_.store(false, std::memory_order_release);
  column_nonzeros_.clear();
  row_nonzeros_.clear();
  column_max_.clear();
  return *this;
}

CompatibilityMatrix::CompatibilityMatrix(CompatibilityMatrix&& other) noexcept
    : m_(other.m_),
      data_(std::move(other.data_)),
      col_data_(std::move(other.col_data_)) {}

CompatibilityMatrix& CompatibilityMatrix::operator=(
    CompatibilityMatrix&& other) noexcept {
  if (this == &other) return *this;
  m_ = other.m_;
  data_ = std::move(other.data_);
  col_data_ = std::move(other.col_data_);
  index_built_.store(false, std::memory_order_release);
  column_nonzeros_.clear();
  row_nonzeros_.clear();
  column_max_.clear();
  return *this;
}

void CompatibilityMatrix::Set(SymbolId true_sym, SymbolId observed,
                              double value) {
  NMINE_CHECK(!IsWildcard(true_sym) && !IsWildcard(observed) &&
                  static_cast<size_t>(true_sym) < m_ &&
                  static_cast<size_t>(observed) < m_,
              "CompatibilityMatrix::Set with out-of-range symbol");
  data_[static_cast<size_t>(true_sym) * m_ + static_cast<size_t>(observed)] =
      value;
  col_data_[static_cast<size_t>(observed) * m_ +
            static_cast<size_t>(true_sym)] = value;
  index_built_.store(false, std::memory_order_release);
}

MatrixValidation CompatibilityMatrix::Validate(double tolerance) const {
  for (size_t i = 0; i < m_; ++i) {
    for (size_t j = 0; j < m_; ++j) {
      double v = data_[i * m_ + j];
      if (v < -tolerance || v > 1.0 + tolerance || std::isnan(v)) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "entry C(d%zu, d%zu) = %g outside [0, 1]", i + 1, j + 1,
                      v);
        return {false, buf};
      }
    }
  }
  for (size_t j = 0; j < m_; ++j) {
    double sum = 0.0;
    for (size_t i = 0; i < m_; ++i) {
      sum += data_[i * m_ + j];
    }
    if (std::fabs(sum - 1.0) > tolerance) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "column for observed d%zu sums to %g, expected 1", j + 1,
                    sum);
      return {false, buf};
    }
  }
  return {true, ""};
}

bool CompatibilityMatrix::IsIdentity() const {
  for (size_t i = 0; i < m_; ++i) {
    for (size_t j = 0; j < m_; ++j) {
      double expected = (i == j) ? 1.0 : 0.0;
      if (data_[i * m_ + j] != expected) return false;
    }
  }
  return true;
}

double CompatibilityMatrix::Sparsity() const {
  if (m_ == 0) return 0.0;
  size_t zeros = 0;
  for (double v : data_) {
    if (v == 0.0) ++zeros;
  }
  return static_cast<double>(zeros) / static_cast<double>(data_.size());
}

const std::vector<CompatibilityMatrix::Entry>&
CompatibilityMatrix::ColumnNonZeros(SymbolId observed) const {
  EnsureIndex();
  return column_nonzeros_[static_cast<size_t>(observed)];
}

const std::vector<CompatibilityMatrix::Entry>&
CompatibilityMatrix::RowNonZeros(SymbolId true_sym) const {
  EnsureIndex();
  return row_nonzeros_[static_cast<size_t>(true_sym)];
}

double CompatibilityMatrix::MaxInColumn(SymbolId observed) const {
  EnsureIndex();
  return column_max_[static_cast<size_t>(observed)];
}

void CompatibilityMatrix::EnsureIndex() const {
  // Double-checked: parallel scan workers may race to the first lookup.
  // The acquire load pairs with the release store so a reader that sees
  // index_built_ == true also sees the fully-built index vectors.
  if (index_built_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (index_built_.load(std::memory_order_relaxed)) return;
  column_nonzeros_.assign(m_, {});
  row_nonzeros_.assign(m_, {});
  column_max_.assign(m_, 0.0);
  for (size_t i = 0; i < m_; ++i) {
    for (size_t j = 0; j < m_; ++j) {
      double v = data_[i * m_ + j];
      if (v == 0.0) continue;
      column_nonzeros_[j].push_back({static_cast<SymbolId>(i), v});
      row_nonzeros_[i].push_back({static_cast<SymbolId>(j), v});
      if (v > column_max_[j]) column_max_[j] = v;
    }
  }
  index_built_.store(true, std::memory_order_release);
}

}  // namespace nmine
