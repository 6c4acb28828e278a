#ifndef NMINE_CORE_MATCH_KERNEL_H_
#define NMINE_CORE_MATCH_KERNEL_H_

#include <cstddef>
#include <string>

namespace nmine {

/// The instruction-set tiers a match kernel can be built for. kScalar is
/// always available; every wider kernel must write bit-identical window
/// trie rows, so mined results never depend on the level.
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

/// The per-ISA step of the window trie (lattice/pattern_counter.h),
/// selected once per process (runtime ISA dispatch). The trie computes
/// Definition 3.6 in SegmentMatch's factor order on every kernel, so mined
/// pattern sets and match values are bit-identical across kernels at any
/// thread count. SegmentMatch/SequenceMatch (core/match.h) are the scalar
/// reference the trie is tested against; they do not dispatch.
class MatchKernel {
 public:
  virtual ~MatchKernel() = default;

  virtual SimdLevel level() const = 0;
  const char* name() const { return SimdLevelName(level()); }

  /// The window-trie step (lattice/pattern_counter.h): out[i] = a[i] *
  /// b[i] for i < n, returning the max of 0 and every out[i]. One IEEE
  /// multiply per element, so every kernel writes bit-identical rows.
  virtual double ProductMax(const double* a, const double* b, size_t n,
                            double* out) const = 0;
};

/// The kernel for `level`, or nullptr when this build lacks it.
const MatchKernel* GetMatchKernel(SimdLevel level);

/// Installs the process-wide kernel used by the batch counters. Verifies
/// the level is compiled in AND supported by the real host (mock features
/// never reach this); returns false with *error otherwise. Call once at
/// startup, before mining threads exist.
bool SetActiveMatchKernel(SimdLevel level, std::string* error);

/// The process-wide kernel: the widest supported one until
/// SetActiveMatchKernel overrides it.
const MatchKernel& ActiveMatchKernel();
const char* ActiveMatchKernelName();

}  // namespace nmine

#endif  // NMINE_CORE_MATCH_KERNEL_H_
