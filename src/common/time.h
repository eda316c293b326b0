// Logical time for RFID event processing.
//
// The paper treats reader observation timestamps as the only clock; the
// engine's logical clock is the timestamp of the event currently being
// processed. We represent instants (TimePoint) and spans (Duration) as
// int64 microseconds, which covers ±292k years and makes arithmetic on
// temporal constraints exact. Duration literals in the rule language
// ("0.1sec", "10min") are parsed by ParseDuration in duration.h.

#ifndef RFIDCEP_COMMON_TIME_H_
#define RFIDCEP_COMMON_TIME_H_

#include <cstdint>
#include <limits>
#include <string>

namespace rfidcep {

// Instant in microseconds since an arbitrary epoch (the simulator starts
// at 0). Comparable, totally ordered.
using TimePoint = int64_t;

// Span in microseconds. Negative spans are representable (dist() between
// out-of-order events) but never valid as constraints.
using Duration = int64_t;

inline constexpr Duration kMicrosecond = 1;
inline constexpr Duration kMillisecond = 1000 * kMicrosecond;
inline constexpr Duration kSecond = 1000 * kMillisecond;
inline constexpr Duration kMinute = 60 * kSecond;
inline constexpr Duration kHour = 60 * kMinute;

// Sentinel for "no upper bound" (SEQ+ distance, unconstrained WITHIN).
inline constexpr Duration kDurationInfinity =
    std::numeric_limits<Duration>::max();

// Sentinel for "no timestamp yet" / "until changed" end time.
inline constexpr TimePoint kTimeInfinity =
    std::numeric_limits<TimePoint>::max();

// Formats a TimePoint as seconds with microsecond precision, e.g. "12.300s".
std::string FormatTimePoint(TimePoint t);

// Formats a Duration compactly, e.g. "5sec", "0.1sec", "10min", "inf".
std::string FormatDuration(Duration d);

// Saturating addition: t + d clamped to kTimeInfinity. Used when computing
// expiry deadlines from possibly-infinite constraints. `t` may be
// negative (a window reaching back before the stream start).
inline TimePoint AddSaturating(TimePoint t, Duration d) {
  if (d == kDurationInfinity) return kTimeInfinity;
  // A finite d added to t <= 0 cannot overflow, and the bound below would
  // itself overflow for negative t.
  if (t > 0 && d >= kTimeInfinity - t) return kTimeInfinity;
  return t + d;
}

}  // namespace rfidcep

#endif  // RFIDCEP_COMMON_TIME_H_
