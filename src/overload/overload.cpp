#include "overload/overload.hpp"

#include <algorithm>
#include <cmath>

namespace mot::overload {

const char* priority_name(Priority cls) {
  switch (cls) {
    case Priority::kRecovery: return "recovery";
    case Priority::kTransport: return "transport";
    case Priority::kMaintenance: return "maintenance";
    case Priority::kQuery: return "query";
  }
  return "unknown";
}

namespace {

// floor(fraction * capacity) clamped to [1, max(capacity, 1)]. The guards
// run before the cast: a negative or NaN product (or one past the range
// of size_t) cast to unsigned would be undefined behavior, so it lands
// on the clamp instead.
std::size_t capacity_share(double fraction, std::size_t capacity) {
  const double raw = fraction * static_cast<double>(capacity);
  if (!(raw >= 1.0)) return 1;
  if (raw >= static_cast<double>(capacity)) {
    return std::max<std::size_t>(1, capacity);
  }
  return static_cast<std::size_t>(std::floor(raw));
}

}  // namespace

std::size_t OverloadConfig::admit_limit(Priority cls) const {
  return capacity_share(admit_fraction[static_cast<std::size_t>(cls)],
                        queue_capacity);
}

std::size_t OverloadConfig::high_watermark() const {
  return capacity_share(degrade_fraction, queue_capacity);
}

std::size_t OverloadConfig::red_threshold() const {
  // The ramp is only a valid probability when the onset sits at or below
  // the query admit limit; a threshold exactly at the limit disables RED
  // (the queue requires onset < limit to ramp). Misconfigs must land in
  // that range too: red_fraction > 1 clamps to the limit (ramp off, like
  // red_fraction == 1), and a negative or NaN fraction — which would be
  // undefined behavior if the raw product were cast to unsigned — also
  // disables the ramp instead of wrapping to a huge threshold.
  const std::size_t limit = admit_limit(Priority::kQuery);
  const double raw = red_fraction * static_cast<double>(queue_capacity);
  if (!(raw >= 0.0)) return limit;
  if (raw >= static_cast<double>(limit)) return limit;
  return static_cast<std::size_t>(std::floor(raw));
}

}  // namespace mot::overload
