#include "nmine/gen/matrix_generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "nmine/core/check.h"

namespace nmine {

CompatibilityMatrix UniformNoiseMatrix(size_t m, double alpha) {
  // A one-symbol alphabet has no off-diagonal mass to spread; the identity
  // is the only column-stochastic matrix.
  if (m < 2) return CompatibilityMatrix::Identity(m);
  NMINE_CHECK(alpha >= 0.0 && alpha <= 1.0,
              "noise level alpha must be within [0, 1]");
  CompatibilityMatrix c(m);
  const double off = alpha / static_cast<double>(m - 1);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      c.Set(static_cast<SymbolId>(i), static_cast<SymbolId>(j),
            i == j ? 1.0 - alpha : off);
    }
  }
  return c;
}

std::optional<CompatibilityMatrix> ResolveCompatibilityMatrix(
    const std::string& matrix_path, double uniform_alpha, size_t m,
    MatrixIoResult* error) {
  *error = MatrixIoResult();
  if (matrix_path.empty()) {
    if (std::isnan(uniform_alpha) || uniform_alpha > 1.0) {
      char message[80];
      std::snprintf(message, sizeof(message),
                    "uniform noise level alpha = %g is outside [0, 1]",
                    uniform_alpha);
      *error = {false, MatrixIoCode::kParseError, message};
      return std::nullopt;
    }
    if (uniform_alpha >= 0.0) return UniformNoiseMatrix(m, uniform_alpha);
    return CompatibilityMatrix::Identity(m);
  }
  std::optional<CompatibilityMatrix> c =
      ReadCompatibilityMatrixFile(matrix_path, error);
  if (c.has_value() && c->size() < m) {
    *error = {false, MatrixIoCode::kTooSmall,
              "matrix is " + std::to_string(c->size()) + "x" +
                  std::to_string(c->size()) + " but the data uses " +
                  std::to_string(m) + " symbols"};
    c.reset();
  }
  return c;
}

CompatibilityMatrix SparseRandomMatrix(size_t m, double compat_fraction,
                                       double diagonal_mass, Rng* rng) {
  if (m < 2) return CompatibilityMatrix::Identity(m);
  NMINE_CHECK(diagonal_mass > 0.0 && diagonal_mass <= 1.0,
              "diagonal_mass must be within (0, 1]");
  CompatibilityMatrix c(m);
  // At most m-1 distinct off-diagonal rows exist per column; clamping keeps
  // the distinct-row selection loop below finite for any compat_fraction.
  const size_t num_compat = std::min<size_t>(
      m - 1,
      std::max<size_t>(
          1, static_cast<size_t>(compat_fraction * static_cast<double>(m))));
  for (size_t j = 0; j < m; ++j) {  // per observed-symbol column
    c.Set(static_cast<SymbolId>(j), static_cast<SymbolId>(j), diagonal_mass);
    double residual = 1.0 - diagonal_mass;
    if (residual <= 0.0) continue;
    // Choose distinct off-diagonal rows and split the residual mass with
    // random proportions.
    std::vector<size_t> rows;
    rows.reserve(num_compat);
    while (rows.size() < num_compat) {
      size_t i = rng->UniformInt(m);
      if (i == j) continue;
      if (std::find(rows.begin(), rows.end(), i) != rows.end()) continue;
      rows.push_back(i);
    }
    std::vector<double> weights(rows.size());
    double total = 0.0;
    for (double& w : weights) {
      w = 0.1 + rng->UniformDouble();
      total += w;
    }
    for (size_t k = 0; k < rows.size(); ++k) {
      c.Set(static_cast<SymbolId>(rows[k]), static_cast<SymbolId>(j),
            residual * weights[k] / total);
    }
  }
  return c;
}

CompatibilityMatrix PerturbDiagonal(const CompatibilityMatrix& c,
                                    double error_fraction, Rng* rng) {
  const size_t m = c.size();
  CompatibilityMatrix out = c;
  for (size_t j = 0; j < m; ++j) {
    SymbolId dj = static_cast<SymbolId>(j);
    double diag = c(dj, dj);
    double off_mass = 1.0 - diag;
    if (off_mass <= 0.0) continue;  // nothing to trade with
    double sign = rng->Bernoulli(0.5) ? 1.0 : -1.0;
    double new_diag = diag * (1.0 + sign * error_fraction);
    new_diag = std::clamp(new_diag, 0.0, 1.0);
    double scale = (1.0 - new_diag) / off_mass;
    out.Set(dj, dj, new_diag);
    for (size_t i = 0; i < m; ++i) {
      if (i == j) continue;
      SymbolId di = static_cast<SymbolId>(i);
      out.Set(di, dj, c(di, dj) * scale);
    }
  }
  return out;
}

CompatibilityMatrix PosteriorFromEmission(
    const std::vector<std::vector<double>>& emission_rows,
    const std::vector<double>& priors) {
  const size_t m = emission_rows.size();
  NMINE_CHECK(priors.size() == m,
              "PosteriorFromEmission: priors length must equal the number "
              "of emission rows");
  for (const std::vector<double>& row : emission_rows) {
    NMINE_CHECK(row.size() == m,
                "PosteriorFromEmission: emission matrix must be square");
  }
  CompatibilityMatrix c(m);
  for (size_t j = 0; j < m; ++j) {  // observed
    double denom = 0.0;
    for (size_t i = 0; i < m; ++i) {
      denom += priors[i] * emission_rows[i][j];
    }
    for (size_t i = 0; i < m; ++i) {
      double post = denom > 0.0 ? priors[i] * emission_rows[i][j] / denom
                                : (i == j ? 1.0 : 0.0);
      c.Set(static_cast<SymbolId>(i), static_cast<SymbolId>(j), post);
    }
  }
  return c;
}

}  // namespace nmine
