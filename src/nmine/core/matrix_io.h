#ifndef NMINE_CORE_MATRIX_IO_H_
#define NMINE_CORE_MATRIX_IO_H_

#include <optional>
#include <string>

#include "nmine/core/compatibility_matrix.h"

namespace nmine {

/// Text format for compatibility matrices, used by the CLI and handy for
/// experiments:
///
///   # comment lines and blank lines are ignored
///   m
///   C(d1,d1) C(d1,d2) ... C(d1,dm)     <- row-major: row = true symbol
///   ...
///   C(dm,d1) ...          C(dm,dm)
///
/// Reading validates shape and column-stochasticity.
///
/// Failure class of a matrix I/O operation. Callers branch on the code
/// (e.g. the CLI maps kNotStochastic to a dedicated hint about fixing
/// column sums) while `message` carries the human-readable detail.
enum class MatrixIoCode {
  kOk,
  kIoError,         // file missing / unreadable / short write
  kParseError,      // malformed text: bad size, counts, or numbers
  kNotStochastic,   // well-formed but columns do not sum to 1
};

struct MatrixIoResult {
  bool ok = true;
  MatrixIoCode code = MatrixIoCode::kOk;
  std::string message;
};

/// Parses a matrix from `text`. On failure returns nullopt and fills
/// `*error`.
std::optional<CompatibilityMatrix> ParseCompatibilityMatrix(
    const std::string& text, MatrixIoResult* error);

/// Reads a matrix file.
std::optional<CompatibilityMatrix> ReadCompatibilityMatrixFile(
    const std::string& path, MatrixIoResult* error);

/// Serializes `c` in the text format with 17 significant digits, so every
/// entry reads back bit for bit and a written matrix always passes the
/// column-sum check on load.
std::string FormatCompatibilityMatrix(const CompatibilityMatrix& c);

/// Writes `c` to `path` (overwrites).
MatrixIoResult WriteCompatibilityMatrixFile(const std::string& path,
                                            const CompatibilityMatrix& c);

}  // namespace nmine

#endif  // NMINE_CORE_MATRIX_IO_H_
