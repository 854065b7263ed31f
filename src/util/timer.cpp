#include "util/timer.h"

#include <cstdio>
#include <string>

namespace layergcn::util {

std::string FormatDuration(double seconds) {
  char buf[64];
  if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.0fms", seconds * 1e3);
  } else if (seconds < 60.0) {
    std::snprintf(buf, sizeof(buf), "%.1fs", seconds);
  } else {
    int minutes = static_cast<int>(seconds / 60.0);
    std::snprintf(buf, sizeof(buf), "%dm%.1fs", minutes,
                  seconds - 60.0 * minutes);
  }
  return buf;
}

}  // namespace layergcn::util
