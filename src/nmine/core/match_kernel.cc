#include "nmine/core/match_kernel.h"

#include <atomic>

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

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "scalar";
}

CpuFeatures DetectCpuFeatures() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.avx512 = __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#elif defined(__aarch64__) && defined(__linux__)
  f.neon = (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#elif defined(__aarch64__)
  f.neon = true;  // AdvSIMD is architecturally mandatory on AArch64.
#endif
  return f;
}

namespace {

struct ScalarSteps {
  __attribute__((always_inline)) static void GatherRow(const double* row,
                                                       const SymbolId* seq,
                                                       size_t n, double* out) {
    for (size_t j = 0; j < n; ++j) out[j] = row[seq[j]];
  }

  // Two independent max chains, pairable by the compiler; a max of the
  // same values is the same in any order.
  __attribute__((always_inline)) static double ProductMax(const double* a,
                                                          const double* b,
                                                          size_t n,
                                                          double* out) {
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

NMINE_WALK_ALIGNED void WalkTrieScalar(const WindowTrie& trie,
                                       const SymbolId* seq, size_t n,
                                       const WindowTrieBuffers& buffers,
                                       double* best) {
  detail::WalkTrie<ScalarSteps>(trie, seq, n, buffers, best);
}

void GatherRowScalar(const double* row, const SymbolId* seq, size_t n,
                     double* out) {
  ScalarSteps::GatherRow(row, seq, n, out);
}

double ProductMaxScalar(const double* a, const double* b, size_t n,
                        double* out) {
  return ScalarSteps::ProductMax(a, b, n, out);
}

/// A kernel is its level and the three functions of its translation unit.
template <SimdLevel kLevel,
          void (*kWalkTrie)(const WindowTrie&, const SymbolId*, size_t,
                            const WindowTrieBuffers&, double*),
          void (*kGatherRow)(const double*, const SymbolId*, size_t, double*),
          double (*kProductMax)(const double*, const double*, size_t,
                                double*)>
class IsaKernel final : public MatchKernel {
 public:
  SimdLevel level() const override { return kLevel; }

  void WalkTrie(const WindowTrie& trie, const SymbolId* seq, size_t n,
                const WindowTrieBuffers& buffers,
                double* best) const override {
    kWalkTrie(trie, seq, n, buffers, best);
  }

  void GatherRow(const double* row, const SymbolId* seq, size_t n,
                 double* out) const override {
    kGatherRow(row, seq, n, out);
  }

  double ProductMax(const double* a, const double* b, size_t n,
                    double* out) const override {
    return kProductMax(a, b, n, out);
  }
};

std::atomic<const MatchKernel*>& ActiveKernelSlot() {
  static std::atomic<const MatchKernel*> slot{nullptr};
  return slot;
}

}  // namespace

const MatchKernel* GetMatchKernel(SimdLevel level) {
  static const IsaKernel<SimdLevel::kScalar, WalkTrieScalar, GatherRowScalar,
                         ProductMaxScalar>
      scalar;
  switch (level) {
    case SimdLevel::kScalar:
      return &scalar;
    case SimdLevel::kAvx2: {
#if defined(NMINE_HAVE_AVX2)
      static const IsaKernel<SimdLevel::kAvx2, detail::WalkTrieAvx2,
                             detail::GatherRowAvx2, detail::ProductMaxAvx2>
          avx2;
      return &avx2;
#else
      return nullptr;
#endif
    }
    case SimdLevel::kAvx512: {
#if defined(NMINE_HAVE_AVX512)
      static const IsaKernel<SimdLevel::kAvx512, detail::WalkTrieAvx512,
                             detail::GatherRowAvx512,
                             detail::ProductMaxAvx512>
          avx512;
      return &avx512;
#else
      return nullptr;
#endif
    }
    case SimdLevel::kNeon: {
#if defined(NMINE_HAVE_NEON)
      static const IsaKernel<SimdLevel::kNeon, detail::WalkTrieNeon,
                             detail::GatherRowNeon, detail::ProductMaxNeon>
          neon;
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
    case SimdLevel::kAvx512:
      return features.avx512 && KernelCompiled(SimdLevel::kAvx512);
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
    if (LevelUsable(SimdLevel::kAvx512, features)) {
      *out = SimdLevel::kAvx512;
    } else if (LevelUsable(SimdLevel::kAvx2, features)) {
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
  } else if (flag == "avx512") {
    requested = SimdLevel::kAvx512;
  } else if (flag == "neon") {
    requested = SimdLevel::kNeon;
  } else {
    if (error != nullptr) {
      *error =
          "bad --simd '" + flag + "' (want auto|avx512|avx2|neon|scalar)";
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
