// The library's one stage timer. obs::ScopedTimer records its lifetime
// into the histogram "<name>.seconds" and, when its caller asks, the
// process CPU time spent meanwhile into "<name>.cpu_seconds". Stage
// names are the layer names perfbench reports (trace.index,
// analysis.rates, synth.generate, ...), so a bench regression and a
// production slowdown read the same way.
//
// The timer always measures: `hpcfail profile` reads its numbers back
// even in an HPCFAIL_OBS_DISABLE build. It records into the registry
// only while obs is enabled.
#pragma once

#include <chrono>
#include <string_view>

#include "obs/metrics.hpp"

namespace hpcfail::obs {

/// Records its lifetime (seconds) into histogram "<name>.seconds"; with
/// `cpu`, also the process CPU seconds into "<name>.cpu_seconds".
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name, bool cpu = false,
                       Registry& reg = registry());
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Measures and records now instead of at destruction; later stops
  /// are no-ops.
  void stop() noexcept;

  /// Wall seconds since construction (or until stop() when stopped).
  double elapsed_seconds() const noexcept;

  /// Process CPU seconds over the same interval; 0 unless `cpu` was
  /// asked for.
  double cpu_seconds() const noexcept;

 private:
  Histogram* seconds_ = nullptr;      ///< null when obs is disabled
  Histogram* cpu_seconds_ = nullptr;  ///< null unless cpu and obs is on
  std::chrono::steady_clock::time_point start_;
  double cpu_start_ = -1.0;  ///< negative when CPU time is not measured
  double stopped_elapsed_ = -1.0;
  double stopped_cpu_ = 0.0;
};

/// CLOCK_PROCESS_CPUTIME_ID (all threads) in seconds; falls back to
/// std::clock where unavailable.
double process_cpu_seconds() noexcept;

}  // namespace hpcfail::obs
