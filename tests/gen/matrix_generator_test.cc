#include "nmine/gen/matrix_generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace nmine {
namespace {

TEST(UniformNoiseMatrixTest, Section51Construction) {
  // C(d_i, d_j) = 1 - alpha if i == j, alpha / (m - 1) otherwise.
  CompatibilityMatrix c = UniformNoiseMatrix(20, 0.2);
  EXPECT_DOUBLE_EQ(c(0, 0), 0.8);
  EXPECT_DOUBLE_EQ(c(0, 1), 0.2 / 19.0);
  EXPECT_TRUE(c.Validate().ok);
}

TEST(UniformNoiseMatrixTest, AlphaZeroIsIdentity) {
  EXPECT_TRUE(UniformNoiseMatrix(5, 0.0).IsIdentity());
}

TEST(UniformNoiseMatrixTest, TotalNoiseIsUniform) {
  // "all entries ... would have the same value 1/m" in the extreme case:
  // alpha = (m-1)/m makes every entry 1/m.
  const size_t m = 4;
  CompatibilityMatrix c = UniformNoiseMatrix(m, 3.0 / 4.0);
  for (SymbolId i = 0; i < 4; ++i) {
    for (SymbolId j = 0; j < 4; ++j) {
      EXPECT_NEAR(c(i, j), 0.25, 1e-12);
    }
  }
}

TEST(ResolveCompatibilityMatrixTest, AlphaOutsideTheUnitIntervalIsATypedError) {
  // A job's alpha arrives from requests: above 1 or NaN is an error the
  // caller reports, never UniformNoiseMatrix's abort.
  for (double alpha : {1.5, std::nan("")}) {
    MatrixIoResult error;
    EXPECT_FALSE(ResolveCompatibilityMatrix("", alpha, 5, &error).has_value())
        << alpha;
    EXPECT_FALSE(error.ok);
    EXPECT_EQ(error.code, MatrixIoCode::kParseError);
    EXPECT_NE(error.message.find("outside [0, 1]"), std::string::npos)
        << error.message;
  }
  MatrixIoResult error;
  std::optional<CompatibilityMatrix> c =
      ResolveCompatibilityMatrix("", 1.0, 5, &error);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ((*c)(0, 0), 0.0);
  c = ResolveCompatibilityMatrix("", -1.0, 5, &error);  // < 0: identity
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ((*c)(0, 0), 1.0);
}

TEST(SparseRandomMatrixTest, ColumnsAreStochastic) {
  Rng rng(1);
  CompatibilityMatrix c = SparseRandomMatrix(50, 0.1, 0.8, &rng);
  EXPECT_TRUE(c.Validate().ok) << c.Validate().message;
}

TEST(SparseRandomMatrixTest, IsActuallySparse) {
  // Section 5.7: "a symbol is compatible to around 10% of other symbols".
  Rng rng(2);
  CompatibilityMatrix c = SparseRandomMatrix(100, 0.1, 0.8, &rng);
  // Each column: 1 diagonal + 10 compat entries = 11 of 100 non-zero.
  EXPECT_NEAR(c.Sparsity(), 0.89, 0.02);
}

TEST(SparseRandomMatrixTest, DiagonalDominates) {
  Rng rng(3);
  CompatibilityMatrix c = SparseRandomMatrix(30, 0.1, 0.75, &rng);
  for (SymbolId j = 0; j < 30; ++j) {
    EXPECT_DOUBLE_EQ(c(j, j), 0.75);
  }
}

TEST(PerturbDiagonalTest, ColumnsStayStochastic) {
  Rng rng(4);
  CompatibilityMatrix c = UniformNoiseMatrix(20, 0.2);
  CompatibilityMatrix e = PerturbDiagonal(c, 0.10, &rng);
  EXPECT_TRUE(e.Validate().ok) << e.Validate().message;
}

TEST(PerturbDiagonalTest, DiagonalMovesByErrorFraction) {
  Rng rng(5);
  CompatibilityMatrix c = UniformNoiseMatrix(10, 0.3);  // diagonal 0.7
  CompatibilityMatrix e = PerturbDiagonal(c, 0.10, &rng);
  for (SymbolId j = 0; j < 10; ++j) {
    double d = e(j, j);
    EXPECT_TRUE(std::abs(d - 0.63) < 1e-9 || std::abs(d - 0.77) < 1e-9)
        << "column " << j << " diagonal " << d;
  }
}

TEST(PerturbDiagonalTest, ZeroErrorIsIdentityTransform) {
  Rng rng(6);
  CompatibilityMatrix c = UniformNoiseMatrix(8, 0.25);
  CompatibilityMatrix e = PerturbDiagonal(c, 0.0, &rng);
  for (SymbolId i = 0; i < 8; ++i) {
    for (SymbolId j = 0; j < 8; ++j) {
      EXPECT_NEAR(e(i, j), c(i, j), 1e-12);
    }
  }
}

TEST(PerturbDiagonalTest, IdentityMatrixIsUnchanged) {
  // Diagonal 1 has no off-diagonal mass to renormalize against.
  Rng rng(7);
  CompatibilityMatrix e =
      PerturbDiagonal(CompatibilityMatrix::Identity(5), 0.2, &rng);
  EXPECT_TRUE(e.IsIdentity());
}

TEST(PosteriorFromEmissionTest, BayesInversion) {
  // Emission: true 0 -> obs {0: 0.9, 1: 0.1}; true 1 -> {0: 0.2, 1: 0.8}.
  // Uniform priors. P(true=0 | obs=0) = 0.9 / (0.9 + 0.2).
  CompatibilityMatrix c =
      PosteriorFromEmission({{0.9, 0.1}, {0.2, 0.8}}, {1.0, 1.0});
  EXPECT_NEAR(c(0, 0), 0.9 / 1.1, 1e-12);
  EXPECT_NEAR(c(1, 0), 0.2 / 1.1, 1e-12);
  EXPECT_NEAR(c(0, 1), 0.1 / 0.9, 1e-12);
  EXPECT_TRUE(c.Validate().ok);
}

TEST(PosteriorFromEmissionTest, PriorsShiftPosterior) {
  CompatibilityMatrix c =
      PosteriorFromEmission({{0.5, 0.5}, {0.5, 0.5}}, {3.0, 1.0});
  EXPECT_NEAR(c(0, 0), 0.75, 1e-12);
  EXPECT_NEAR(c(1, 0), 0.25, 1e-12);
}

}  // namespace
}  // namespace nmine
