#include "nmine/core/matrix_io.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace nmine {
namespace {

/// Strips comments and blank lines, returning whitespace-separated tokens.
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream words(line);
    std::string token;
    while (words >> token) {
      tokens.push_back(token);
    }
  }
  return tokens;
}

}  // namespace

std::optional<CompatibilityMatrix> ParseCompatibilityMatrix(
    const std::string& text, MatrixIoResult* error) {
  std::vector<std::string> tokens = Tokenize(text);
  auto fail = [error](MatrixIoCode code,
                      std::string msg) -> std::optional<CompatibilityMatrix> {
    if (error != nullptr) {
      *error = {false, code, std::move(msg)};
    }
    return std::nullopt;
  };
  if (tokens.empty()) {
    return fail(MatrixIoCode::kParseError, "empty matrix file");
  }
  char* end = nullptr;
  unsigned long parsed_m = std::strtoul(tokens[0].c_str(), &end, 10);
  if (end == tokens[0].c_str() || *end != '\0' || parsed_m < 1) {
    return fail(MatrixIoCode::kParseError,
                "first token must be the alphabet size m, got '" + tokens[0] +
                    "'");
  }
  // The largest symbol, m - 1, must be a SymbolId. That also bounds m * m
  // by 2^62, so the entry count below cannot wrap.
  if (parsed_m - 1 >
      static_cast<unsigned long>(std::numeric_limits<SymbolId>::max())) {
    return fail(MatrixIoCode::kParseError,
                "alphabet size m = " + tokens[0] +
                    " is too large: symbol ids end at " +
                    std::to_string(std::numeric_limits<SymbolId>::max()));
  }
  const size_t m = parsed_m;
  const uint64_t entries = static_cast<uint64_t>(m) * m;
  if (tokens.size() - 1 != entries) {
    return fail(MatrixIoCode::kParseError,
                "expected " + std::to_string(entries) + " entries for m = " +
                    std::to_string(m) + ", found " +
                    std::to_string(tokens.size() - 1));
  }
  CompatibilityMatrix c(m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const std::string& token = tokens[1 + i * m + j];
      char* num_end = nullptr;
      double value = std::strtod(token.c_str(), &num_end);
      if (num_end == token.c_str() || *num_end != '\0') {
        return fail(MatrixIoCode::kParseError,
                    "bad number '" + token + "' at row " +
                        std::to_string(i + 1) + ", column " +
                        std::to_string(j + 1));
      }
      c.Set(static_cast<SymbolId>(i), static_cast<SymbolId>(j), value);
    }
  }
  MatrixValidation v = c.Validate();
  if (!v.ok) {
    return fail(MatrixIoCode::kNotStochastic,
                "matrix is not column-stochastic: " + v.message);
  }
  if (error != nullptr) {
    *error = {true, MatrixIoCode::kOk, ""};
  }
  return c;
}

std::optional<CompatibilityMatrix> ReadCompatibilityMatrixFile(
    const std::string& path, MatrixIoResult* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = {false, MatrixIoCode::kIoError,
                "cannot open for reading: " + path};
    }
    return std::nullopt;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return ParseCompatibilityMatrix(text, error);
}

std::string FormatCompatibilityMatrix(const CompatibilityMatrix& c) {
  std::string out = std::to_string(c.size()) + "\n";
  char buf[32];
  for (size_t i = 0; i < c.size(); ++i) {
    for (size_t j = 0; j < c.size(); ++j) {
      std::snprintf(buf, sizeof(buf), "%.17g",
                    c(static_cast<SymbolId>(i), static_cast<SymbolId>(j)));
      if (j > 0) out += ' ';
      out += buf;
    }
    out += '\n';
  }
  return out;
}

MatrixIoResult WriteCompatibilityMatrixFile(const std::string& path,
                                            const CompatibilityMatrix& c) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return {false, MatrixIoCode::kIoError, "cannot open for writing: " + path};
  }
  out << FormatCompatibilityMatrix(c);
  if (!out) {
    return {false, MatrixIoCode::kIoError, "write failed: " + path};
  }
  return {true, MatrixIoCode::kOk, ""};
}

}  // namespace nmine
