#ifndef NMINE_OBS_CLOCK_H_
#define NMINE_OBS_CLOCK_H_

#include <cstdint>

namespace nmine {
namespace obs {

/// The single monotonic clock base shared by every timestamped
/// observability surface: Chrome-trace spans, profiler scope timings, the
/// telemetry sampler's time-series rows, and flight-recorder events all
/// read this clock, so their timestamps can be correlated directly and a
/// wall-clock (NTP) step can never produce a negative duration anywhere.

/// Monotonic nanoseconds since an arbitrary but fixed origin
/// (std::chrono::steady_clock).
int64_t MonotonicNowNs();

/// The process-wide epoch: the value of MonotonicNowNs() the first time
/// any caller asked for it. Stable for the life of the process.
int64_t ProcessEpochNs();

/// Monotonic nanoseconds elapsed since the process epoch (>= 0). The
/// epoch is fixed before the clock is read: on the very first call the
/// other order would subtract a later epoch and go negative.
inline int64_t SinceEpochNs() {
  const int64_t epoch = ProcessEpochNs();
  return MonotonicNowNs() - epoch;
}

/// Microsecond rendering of SinceEpochNs() — the unit trace events and
/// telemetry rows carry.
inline int64_t SinceEpochUs() { return SinceEpochNs() / 1000; }

}  // namespace obs
}  // namespace nmine

#endif  // NMINE_OBS_CLOCK_H_
