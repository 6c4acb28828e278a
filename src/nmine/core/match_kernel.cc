#include "nmine/core/match_kernel.h"

#include <atomic>
#include <cmath>
#include <limits>

#include "nmine/core/match_kernel_detail.h"

#if defined(__x86_64__) || defined(__i386__)
// __builtin_cpu_supports reads CPUID; nothing to include.
#elif defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace nmine {
namespace detail {

double ExactWindowProduct(const WindowPlan& p, size_t w) {
  // Terms list the non-wildcard positions in ascending window offset, so
  // the factor order (and the zero short-circuit) is exactly
  // SegmentMatch's — wildcards contribute no factor there either.
  double match = 1.0;
  for (size_t t = 0; t < p.num_terms; ++t) {
    const double* col =
        p.cols_base +
        static_cast<size_t>(p.seq[w + static_cast<size_t>(
                                          p.term_offsets[t])]) *
            p.m;
    match *= col[static_cast<size_t>(p.term_syms[t])];
    if (match == 0.0) return 0.0;
  }
  return match;
}

float ScreenThreshold(double best, float guard) {
  // The guard-band argument (DESIGN.md section 16) needs every partial of
  // a winning exact product to be a normal double; entries are <= 1, so
  // partials only shrink, and requiring best itself to sit above 1e-290
  // keeps any product that could beat it out of the subnormal range.
  // Below that, screen nothing with a finite score (-inf still prunes
  // windows containing a zero factor, whose exact product is exactly 0).
  if (!(best >= 1e-290)) return -std::numeric_limits<float>::infinity();
  return static_cast<float>(std::log(best)) - guard;
}

double BestWindowsScalar(const WindowPlan& p, size_t windows) {
  // Two windows per iteration: each window's product is a dependent
  // multiply chain, so pairing two independent chains keeps the FPU fed.
  // Factor order per window is unchanged, and a lane that hits zero stays
  // zero through the remaining multiplies — same value, so results are
  // bit-identical to the one-window loop.
  double best = 0.0;
  size_t w = 0;
  for (; w + 2 <= windows; w += 2) {
    double m0 = 1.0;
    double m1 = 1.0;
    for (size_t t = 0; t < p.num_terms; ++t) {
      const size_t off = static_cast<size_t>(p.term_offsets[t]);
      const size_t sym = static_cast<size_t>(p.term_syms[t]);
      m0 *= (p.cols_base + static_cast<size_t>(p.seq[w + off]) * p.m)[sym];
      m1 *= (p.cols_base +
             static_cast<size_t>(p.seq[w + 1 + off]) * p.m)[sym];
      if (m0 == 0.0 && m1 == 0.0) break;
    }
    if (m0 > best) best = m0;
    if (m1 > best) best = m1;
  }
  for (; w < windows; ++w) {
    double match = ExactWindowProduct(p, w);
    if (match > best) best = match;
  }
  return best;
}

}  // namespace detail

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "scalar";
}

CpuFeatures DetectCpuFeatures() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
#elif defined(__aarch64__) && defined(__linux__)
  f.neon = (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#elif defined(__aarch64__)
  f.neon = true;  // AdvSIMD is architecturally mandatory on AArch64.
#endif
  return f;
}

void PreparedPattern::Prepare(const CompatibilityMatrix& c,
                              const Pattern& pattern) {
  matrix_ = &c;
  log_ = c.LogRows();
  length_ = pattern.length();
  term_offsets_.clear();
  term_syms_.clear();
  for (size_t i = 0; i < pattern.length(); ++i) {
    if (IsWildcard(pattern[i])) continue;
    term_offsets_.push_back(static_cast<int32_t>(i));
    term_syms_.push_back(pattern[i]);
  }
  // Guard band: |float screen - log(exact double product)| is bounded by
  // k(k+1) * max|log| * 2^-24 (per-term conversion + summation + the
  // log(best) conversion); (k+2)^2 at 2^-23 leaves a 2x margin. See
  // DESIGN.md section 16 for the derivation.
  float k = static_cast<float>(term_syms_.size()) + 2.0f;
  guard_ = k * k * log_.max_abs_log * 0x1p-23f + 1e-12f;
}

namespace {

using BestWindowsFn = double (*)(const detail::WindowPlan&, size_t);

/// Shared body of every kernel's BestMatch: wire the prepared pattern and
/// the sequence into a WindowPlan and run the kernel's window loop.
double RunBestMatch(const PreparedPattern& prep, const Sequence& seq,
                    BestWindowsFn best_windows) {
  if (seq.size() < prep.length()) return 0.0;
  const CompatibilityMatrix::LogView log = prep.log_view();
  detail::WindowPlan p;
  p.term_offsets = prep.term_offsets().data();
  p.term_syms = prep.term_syms().data();
  p.num_terms = prep.term_syms().size();
  p.guard = prep.guard();
  p.seq = seq.data();
  p.cols_base = prep.matrix().Column(0);
  p.log_rows = log.rows;
  p.m = log.m;
  return best_windows(p, seq.size() - prep.length() + 1);
}

class ScalarMatchKernel final : public MatchKernel {
 public:
  SimdLevel level() const override { return SimdLevel::kScalar; }

  double BestMatch(const PreparedPattern& prep,
                   const Sequence& seq) const override {
    return RunBestMatch(prep, seq, &detail::BestWindowsScalar);
  }

  double ProductMax(const double* a, const double* b, size_t n,
                    double* out) const override {
    // Two independent max chains, pairable by the compiler; a max of the
    // same values is the same in any order.
    double best0 = 0.0;
    double best1 = 0.0;
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const double v0 = a[i] * b[i];
      const double v1 = a[i + 1] * b[i + 1];
      out[i] = v0;
      out[i + 1] = v1;
      best0 = v0 > best0 ? v0 : best0;
      best1 = v1 > best1 ? v1 : best1;
    }
    double best = best1 > best0 ? best1 : best0;
    if (i < n) {
      out[i] = a[i] * b[i];
      if (out[i] > best) best = out[i];
    }
    return best;
  }
};

#if defined(NMINE_HAVE_AVX2)
class Avx2MatchKernel final : public MatchKernel {
 public:
  SimdLevel level() const override { return SimdLevel::kAvx2; }

  double BestMatch(const PreparedPattern& prep,
                   const Sequence& seq) const override {
    return RunBestMatch(prep, seq, &detail::BestWindowsFusedAvx2);
  }

  double ProductMax(const double* a, const double* b, size_t n,
                    double* out) const override {
    return detail::ProductMaxAvx2(a, b, n, out);
  }
};
#endif  // NMINE_HAVE_AVX2

#if defined(NMINE_HAVE_NEON)
class NeonMatchKernel final : public MatchKernel {
 public:
  SimdLevel level() const override { return SimdLevel::kNeon; }

  double BestMatch(const PreparedPattern& prep,
                   const Sequence& seq) const override {
    return RunBestMatch(prep, seq, &detail::BestWindowsNeon);
  }

  double ProductMax(const double* a, const double* b, size_t n,
                    double* out) const override {
    return detail::ProductMaxNeon(a, b, n, out);
  }
};
#endif  // NMINE_HAVE_NEON

std::atomic<const MatchKernel*>& ActiveKernelSlot() {
  static std::atomic<const MatchKernel*> slot{nullptr};
  return slot;
}

}  // namespace

const MatchKernel* GetMatchKernel(SimdLevel level) {
  static const ScalarMatchKernel scalar;
  switch (level) {
    case SimdLevel::kScalar:
      return &scalar;
    case SimdLevel::kAvx2: {
#if defined(NMINE_HAVE_AVX2)
      static const Avx2MatchKernel avx2;
      return &avx2;
#else
      return nullptr;
#endif
    }
    case SimdLevel::kNeon: {
#if defined(NMINE_HAVE_NEON)
      static const NeonMatchKernel neon;
      return &neon;
#else
      return nullptr;
#endif
    }
  }
  return nullptr;
}

bool KernelCompiled(SimdLevel level) {
  return GetMatchKernel(level) != nullptr;
}

namespace {

bool LevelUsable(SimdLevel level, const CpuFeatures& features) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
      return features.avx2 && KernelCompiled(SimdLevel::kAvx2);
    case SimdLevel::kNeon:
      return features.neon && KernelCompiled(SimdLevel::kNeon);
  }
  return false;
}

}  // namespace

bool ResolveSimdLevel(const std::string& flag, const CpuFeatures& features,
                      SimdLevel* out, std::string* error) {
  if (flag.empty() || flag == "auto") {
    // Widest first; never an ISA the host lacks or the build omitted.
    if (LevelUsable(SimdLevel::kAvx2, features)) {
      *out = SimdLevel::kAvx2;
    } else if (LevelUsable(SimdLevel::kNeon, features)) {
      *out = SimdLevel::kNeon;
    } else {
      *out = SimdLevel::kScalar;
    }
    return true;
  }
  SimdLevel requested;
  if (flag == "scalar") {
    requested = SimdLevel::kScalar;
  } else if (flag == "avx2") {
    requested = SimdLevel::kAvx2;
  } else if (flag == "neon") {
    requested = SimdLevel::kNeon;
  } else {
    if (error != nullptr) {
      *error = "bad --simd '" + flag + "' (want auto|avx2|neon|scalar)";
    }
    return false;
  }
  if (!KernelCompiled(requested)) {
    if (error != nullptr) {
      *error = "--simd=" + flag + ": this build has no " + flag + " kernel";
    }
    return false;
  }
  if (!LevelUsable(requested, features)) {
    if (error != nullptr) {
      *error = "--simd=" + flag + ": the host CPU does not support " + flag;
    }
    return false;
  }
  *out = requested;
  return true;
}

bool SetActiveMatchKernel(SimdLevel level, std::string* error) {
  // Re-verify against the REAL host here: mocked CpuFeatures flow through
  // ResolveSimdLevel only, so an unsupported kernel can never be armed.
  if (!KernelCompiled(level) || !LevelUsable(level, DetectCpuFeatures())) {
    if (error != nullptr) {
      *error = std::string("match kernel '") + SimdLevelName(level) +
               "' is unavailable on this host";
    }
    return false;
  }
  ActiveKernelSlot().store(GetMatchKernel(level), std::memory_order_release);
  return true;
}

const MatchKernel& ActiveMatchKernel() {
  const MatchKernel* kernel =
      ActiveKernelSlot().load(std::memory_order_acquire);
  if (kernel == nullptr) {
    // First use without an explicit --simd: arm the widest supported
    // kernel ("auto"). Bit-identity across kernels makes this safe.
    SimdLevel level = SimdLevel::kScalar;
    ResolveSimdLevel("auto", DetectCpuFeatures(), &level, nullptr);
    kernel = GetMatchKernel(level);
    const MatchKernel* expected = nullptr;
    ActiveKernelSlot().compare_exchange_strong(expected, kernel,
                                               std::memory_order_acq_rel);
    kernel = ActiveKernelSlot().load(std::memory_order_acquire);
  }
  return *kernel;
}

const char* ActiveMatchKernelName() { return ActiveMatchKernel().name(); }

}  // namespace nmine
