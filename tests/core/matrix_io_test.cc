#include "nmine/core/matrix_io.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "nmine/bio/blosum.h"
#include "test_util.h"

namespace nmine {
namespace {

TEST(MatrixIoTest, FormatParseRoundTrip) {
  CompatibilityMatrix c = testutil::Figure2Matrix();
  std::string text = FormatCompatibilityMatrix(c);
  MatrixIoResult error;
  std::optional<CompatibilityMatrix> parsed =
      ParseCompatibilityMatrix(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  ASSERT_EQ(parsed->size(), c.size());
  for (SymbolId i = 0; i < 5; ++i) {
    for (SymbolId j = 0; j < 5; ++j) {
      EXPECT_NEAR((*parsed)(i, j), c(i, j), 1e-9);
    }
  }
}

TEST(MatrixIoTest, CommentsAndBlankLinesIgnored) {
  MatrixIoResult error;
  std::optional<CompatibilityMatrix> parsed = ParseCompatibilityMatrix(
      "# compatibility matrix\n\n2\n0.9 0.2 # trailing comment\n0.1 0.8\n",
      &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  EXPECT_DOUBLE_EQ((*parsed)(0, 1), 0.2);
}

TEST(MatrixIoTest, RejectsEmptyInput) {
  MatrixIoResult error;
  EXPECT_FALSE(ParseCompatibilityMatrix("# only a comment\n", &error)
                   .has_value());
  EXPECT_FALSE(error.ok);
}

TEST(MatrixIoTest, RejectsBadSize) {
  MatrixIoResult error;
  EXPECT_FALSE(ParseCompatibilityMatrix("x\n1.0\n", &error).has_value());
  EXPECT_NE(error.message.find("alphabet size"), std::string::npos);
}

TEST(MatrixIoTest, RejectsWrongEntryCount) {
  MatrixIoResult error;
  EXPECT_FALSE(
      ParseCompatibilityMatrix("2\n1 0 0\n", &error).has_value());
  EXPECT_NE(error.message.find("expected 4 entries"), std::string::npos);
}

TEST(MatrixIoTest, RejectsBadNumber) {
  MatrixIoResult error;
  EXPECT_FALSE(
      ParseCompatibilityMatrix("2\n1 0 oops 1\n", &error).has_value());
  EXPECT_NE(error.message.find("bad number"), std::string::npos);
}

TEST(MatrixIoTest, RejectsNonStochasticMatrix) {
  MatrixIoResult error;
  EXPECT_FALSE(
      ParseCompatibilityMatrix("2\n0.9 0.9\n0.9 0.9\n", &error).has_value());
  EXPECT_NE(error.message.find("column-stochastic"), std::string::npos);
}

TEST(MatrixIoTest, FileRoundTrip) {
  std::string path = std::string(::testing::TempDir()) + "/matrix.txt";
  CompatibilityMatrix c = testutil::Figure2Matrix();
  ASSERT_TRUE(WriteCompatibilityMatrixFile(path, c).ok);
  MatrixIoResult error;
  std::optional<CompatibilityMatrix> parsed =
      ReadCompatibilityMatrixFile(path, &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  EXPECT_NEAR((*parsed)(1, 3), 0.1, 1e-9);
  std::remove(path.c_str());
}

TEST(MatrixIoTest, BlosumMatrixRoundTripsExactly) {
  // Twenty entries per column: rounded output could miss the column-sum
  // tolerance on load. The written file must load and match bit for bit.
  const CompatibilityMatrix c = BlosumCompatibilityMatrix(1.0);
  MatrixIoResult error;
  std::optional<CompatibilityMatrix> parsed =
      ParseCompatibilityMatrix(FormatCompatibilityMatrix(c), &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  ASSERT_EQ(parsed->size(), c.size());
  for (size_t i = 0; i < c.size(); ++i) {
    for (size_t j = 0; j < c.size(); ++j) {
      EXPECT_EQ((*parsed)(static_cast<SymbolId>(i), static_cast<SymbolId>(j)),
                c(static_cast<SymbolId>(i), static_cast<SymbolId>(j)));
    }
  }
}

TEST(MatrixIoTest, MissingFileFails) {
  MatrixIoResult error;
  EXPECT_FALSE(
      ReadCompatibilityMatrixFile("/nonexistent/matrix.txt", &error)
          .has_value());
  EXPECT_FALSE(error.ok);
}

}  // namespace
}  // namespace nmine
