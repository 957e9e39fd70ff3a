// Bounded per-node inbox with class-based admission control.
//
// Admission runs at arrival time, before the reliable link layer acks the
// frame: a shed message was never acknowledged, so the sender's
// retransmission timer recovers it later — shedding is backpressure, not
// loss. Once admitted a message is never evicted (it has been acked; the
// sender forgot it), so the queue only ever sheds at the front door.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>

#include "overload/overload.hpp"
#include "util/rng.hpp"

namespace mot::overload {

// Outcome of offering a message to a node's inbox.
enum class Admit : std::uint8_t {
  kAdmit,         // queued (or taken straight into service)
  kShedCapacity,  // class admission limit reached
  kShedDeadline,  // projected queueing delay exceeds the class budget
  kShedEarly,     // RED-style probabilistic early drop (query class only)
};

const char* admit_name(Admit outcome);

struct QueueItem {
  double arrival = 0.0;              // simulator time the message arrived
  Priority cls = Priority::kQuery;   // admission class
  std::function<void()> run;         // deferred handler
  std::uint64_t order = 0;           // global arrival order (FIFO tiebreak)
};

// One node's inbox. Not thread-safe; the simulator is single-threaded.
class BoundedNodeQueue {
 public:
  explicit BoundedNodeQueue(const OverloadConfig* config) : config_(config) {
    refresh_limits();
  }

  // Re-derives the cached thresholds from the config. Admission reads
  // only the cached values, so call this whenever *config changes.
  void refresh_limits();

  // Admission decision for a class-`cls` message arriving at `now`. On
  // kAdmit the item is queued; any other outcome leaves the queue
  // untouched. `red` is the shared deterministic stream for the RED ramp
  // (consumed only when the ramp is actually consulted, so the draw order
  // is a pure function of the admission sequence).
  Admit offer(double now, Priority cls, std::function<void()> run, Rng& red);

  // Pops the next item to service: highest class first (FIFO within a
  // class) under kPriority, strict arrival order under kFifo. Requires
  // depth() > 0.
  QueueItem take();

  // The config's derived thresholds as of the last refresh_limits().
  std::size_t admit_limit(Priority cls) const {
    return admit_limit_[static_cast<std::size_t>(cls)];
  }
  std::size_t high_watermark() const { return high_watermark_; }

  std::size_t depth() const { return depth_; }
  std::size_t depth_of(Priority cls) const {
    return lanes_[static_cast<std::size_t>(cls)].size();
  }
  std::size_t max_depth() const { return max_depth_; }
  bool empty() const { return depth_ == 0; }

 private:
  const OverloadConfig* config_;
  std::size_t admit_limit_[kNumClasses] = {};
  std::size_t red_onset_ = 0;
  std::size_t high_watermark_ = 0;
  std::deque<QueueItem> lanes_[kNumClasses];
  std::size_t depth_ = 0;
  std::size_t max_depth_ = 0;
  std::uint64_t next_order_ = 0;
};

}  // namespace mot::overload
