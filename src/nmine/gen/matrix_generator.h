#ifndef NMINE_GEN_MATRIX_GENERATOR_H_
#define NMINE_GEN_MATRIX_GENERATOR_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/core/matrix_io.h"
#include "nmine/stats/random.h"

namespace nmine {

/// The compatibility matrix matching the uniform noise channel of
/// Section 5.1: C(d_i, d_j) = 1 - alpha when i == j and alpha / (m - 1)
/// otherwise. (Under a uniform symbol prior this equals the true posterior
/// of the channel, so columns are stochastic by construction.)
CompatibilityMatrix UniformNoiseMatrix(size_t m, double alpha);

/// The compatibility matrix of a job over an m-symbol database: the file
/// at `matrix_path` when it is set, else UniformNoiseMatrix(m,
/// uniform_alpha) when uniform_alpha >= 0, else the identity. A file that
/// does not read is nullopt with `*error` filled as ReadCompatibilityMatrix-
/// File does; one smaller than m x m is nullopt with code kTooSmall.
std::optional<CompatibilityMatrix> ResolveCompatibilityMatrix(
    const std::string& matrix_path, double uniform_alpha, size_t m,
    MatrixIoResult* error);

/// The synthetic matrices of Section 5.7: each observed symbol is
/// compatible with itself (with dominant probability `diagonal_mass`) and
/// with ~`compat_fraction` of the other symbols, the residual mass split
/// among those at random. Columns are stochastic by construction.
CompatibilityMatrix SparseRandomMatrix(size_t m, double compat_fraction,
                                       double diagonal_mass, Rng* rng);

/// The matrix-error model of Figure 8: for each symbol d_i the diagonal
/// entry C(d_i, d_i) is varied by `error_fraction` (e.g. 0.10 for 10%),
/// equally likely up or down, and the remaining entries of the same COLUMN
/// are rescaled so the column still sums to 1. Columns whose diagonal is
/// 1 (no off-diagonal mass to trade with) are left unchanged.
CompatibilityMatrix PerturbDiagonal(const CompatibilityMatrix& c,
                                    double error_fraction, Rng* rng);

/// Bayes inversion: turns a row-stochastic emission model
/// P(observed | true) plus a prior over true symbols into the posterior
/// compatibility matrix C(true, observed) = P(true | observed).
/// `priors` must have one weight per symbol (need not be normalized).
CompatibilityMatrix PosteriorFromEmission(
    const std::vector<std::vector<double>>& emission_rows,
    const std::vector<double>& priors);

}  // namespace nmine

#endif  // NMINE_GEN_MATRIX_GENERATOR_H_
