#ifndef NMINE_CORE_MATCH_KERNEL_H_
#define NMINE_CORE_MATCH_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/core/pattern.h"
#include "nmine/core/sequence.h"
#include "nmine/core/symbol.h"

namespace nmine {

/// The instruction-set tiers a match kernel can be built for. kScalar is
/// always available and is the semantics reference: every wider kernel
/// must produce bit-identical match values (single-pattern screens work in
/// log space and re-derive survivors with the exact scalar product).
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// "scalar", "avx2", "neon" — static storage (safe for RunStatusBoard).
const char* SimdLevelName(SimdLevel level);

/// Vector features of a host, as probed (DetectCpuFeatures) or mocked
/// (dispatch unit tests).
struct CpuFeatures {
  bool avx2 = false;
  bool neon = false;
};

/// Probes the running CPU: CPUID-backed __builtin_cpu_supports on x86,
/// HWCAP on AArch64 Linux.
CpuFeatures DetectCpuFeatures();

/// True if this build contains a kernel for `level` (per-ISA translation
/// units are only compiled on matching architectures).
bool KernelCompiled(SimdLevel level);

/// Resolves a --simd flag value ("auto", "scalar", "avx2", "neon")
/// against `features`: "auto" picks the widest kernel that is both
/// compiled in and supported by `features` (never an ISA the host lacks);
/// an explicit ISA request fails with a diagnostic when unavailable.
/// Returns false and sets *error on an unknown value or an unsatisfiable
/// request.
bool ResolveSimdLevel(const std::string& flag, const CpuFeatures& features,
                      SimdLevel* out, std::string* error);

/// One pattern prepared for single-pattern kernel evaluation
/// (SequenceMatch) against one compatibility matrix: its non-wildcard
/// positions as (offset, symbol) terms plus a screening guard band derived
/// from the matrix's largest |log| entry. Preparation does no logarithm
/// math — the float log table is cached inside the matrix.
///
/// The prepared pattern borrows the matrix; it must outlive the pattern
/// and must not be Set() while kernels are running.
class PreparedPattern {
 public:
  PreparedPattern() = default;

  /// Rebuilds in place (buffers are reused across calls).
  void Prepare(const CompatibilityMatrix& c, const Pattern& pattern);

  const CompatibilityMatrix& matrix() const { return *matrix_; }
  CompatibilityMatrix::LogView log_view() const { return log_; }
  /// Full pattern length incl. wildcards.
  size_t length() const { return length_; }
  /// Log-space screening guard band (DESIGN.md section 16).
  float guard() const { return guard_; }
  /// Window offset and true symbol of each non-wildcard position, in
  /// ascending offset order (the exact product's factor order).
  const std::vector<int32_t>& term_offsets() const { return term_offsets_; }
  const std::vector<SymbolId>& term_syms() const { return term_syms_; }

 private:
  const CompatibilityMatrix* matrix_ = nullptr;
  CompatibilityMatrix::LogView log_;
  size_t length_ = 0;
  float guard_ = 0.0f;
  std::vector<int32_t> term_offsets_;
  std::vector<SymbolId> term_syms_;
};

/// A match-evaluation strategy selected once per process (runtime ISA
/// dispatch). All kernels compute Definition 3.6 exactly: mined pattern
/// sets and match values are bit-identical across kernels at any thread
/// count.
class MatchKernel {
 public:
  virtual ~MatchKernel() = default;

  virtual SimdLevel level() const = 0;
  const char* name() const { return SimdLevelName(level()); }

  /// Match of the prepared pattern in `seq`: max over sliding windows,
  /// 0 when the sequence is shorter than the pattern.
  virtual double BestMatch(const PreparedPattern& prep,
                           const Sequence& seq) const = 0;

  /// The window-trie step (lattice/pattern_counter.h): out[i] = a[i] *
  /// b[i] for i < n, returning the max of 0 and every out[i]. One IEEE
  /// multiply per element, so every kernel writes bit-identical rows.
  virtual double ProductMax(const double* a, const double* b, size_t n,
                            double* out) const = 0;
};

/// The kernel for `level`, or nullptr when this build lacks it.
const MatchKernel* GetMatchKernel(SimdLevel level);

/// Installs the process-wide kernel used by SequenceMatch and the batch
/// counters. Verifies the level is compiled in AND supported by the real
/// host (mock features never reach this); returns false with *error
/// otherwise. Call once at startup, before mining threads exist.
bool SetActiveMatchKernel(SimdLevel level, std::string* error);

/// The process-wide kernel: the widest supported one until
/// SetActiveMatchKernel overrides it.
const MatchKernel& ActiveMatchKernel();
const char* ActiveMatchKernelName();

}  // namespace nmine

#endif  // NMINE_CORE_MATCH_KERNEL_H_
