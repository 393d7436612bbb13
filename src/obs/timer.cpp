#include "obs/timer.hpp"

#include <ctime>
#include <string>

namespace hpcfail::obs {

namespace {

double seconds_since(std::chrono::steady_clock::time_point from) noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       from)
      .count();
}

}  // namespace

double process_cpu_seconds() noexcept {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

ScopedTimer::ScopedTimer(std::string_view name, bool cpu, Registry& reg) {
  if (enabled()) {
    const std::string base(name);
    seconds_ = &reg.histogram(base + ".seconds");
    if (cpu) cpu_seconds_ = &reg.histogram(base + ".cpu_seconds");
  }
  if (cpu) cpu_start_ = process_cpu_seconds();
  start_ = std::chrono::steady_clock::now();
}

void ScopedTimer::stop() noexcept {
  if (stopped_elapsed_ >= 0.0) return;
  stopped_elapsed_ = seconds_since(start_);
  if (cpu_start_ >= 0.0) stopped_cpu_ = process_cpu_seconds() - cpu_start_;
  if (seconds_ != nullptr) seconds_->record(stopped_elapsed_);
  if (cpu_seconds_ != nullptr) cpu_seconds_->record(stopped_cpu_);
}

double ScopedTimer::elapsed_seconds() const noexcept {
  return stopped_elapsed_ >= 0.0 ? stopped_elapsed_ : seconds_since(start_);
}

double ScopedTimer::cpu_seconds() const noexcept {
  if (stopped_elapsed_ >= 0.0 || cpu_start_ < 0.0) return stopped_cpu_;
  return process_cpu_seconds() - cpu_start_;
}

}  // namespace hpcfail::obs
