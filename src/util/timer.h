// Wall-clock timing helpers used by trainers and experiment harnesses.
//
// Everything here reads std::chrono::steady_clock — never the wall clock —
// so measured durations are immune to NTP steps and DST shifts.

#ifndef LAYERGCN_UTIL_TIMER_H_
#define LAYERGCN_UTIL_TIMER_H_

#include <chrono>
#include <string>

namespace layergcn::util {

/// Simple monotonic stopwatch.
class Timer {
 public:
  Timer() { Reset(); }

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Formats a duration like "1m23.4s" / "456ms" for log lines.
std::string FormatDuration(double seconds);

}  // namespace layergcn::util

#endif  // LAYERGCN_UTIL_TIMER_H_
