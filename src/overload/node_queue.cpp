#include "overload/node_queue.hpp"

#include <utility>

#include "util/check.hpp"

namespace mot::overload {

const char* admit_name(Admit outcome) {
  switch (outcome) {
    case Admit::kAdmit: return "admit";
    case Admit::kShedCapacity: return "shed_capacity";
    case Admit::kShedDeadline: return "shed_deadline";
    case Admit::kShedEarly: return "shed_early";
  }
  return "unknown";
}

void BoundedNodeQueue::refresh_limits() {
  for (std::size_t idx = 0; idx < kNumClasses; ++idx) {
    admit_limit_[idx] = config_->admit_limit(static_cast<Priority>(idx));
  }
  red_onset_ = config_->red_threshold();
  high_watermark_ = config_->high_watermark();
}

Admit BoundedNodeQueue::offer(double now, Priority cls,
                              std::function<void()> run, Rng& red) {
  const auto idx = static_cast<std::size_t>(cls);
  // Class admission limit: depth (including the in-service slot) must be
  // strictly below the class threshold for the message to enter.
  if (depth_ >= admit_limit_[idx]) return Admit::kShedCapacity;
  // Deadline-aware admission: projected wait is everything already queued
  // divided by the service rate; a message that would blow its class
  // budget is shed now rather than aged to death in the queue.
  const double budget = config_->delay_budget[idx];
  if (budget > 0.0 && config_->service_rate > 0.0) {
    const double projected = static_cast<double>(depth_) / config_->service_rate;
    if (projected > budget) return Admit::kShedDeadline;
  }
  // RED-style early drop for fresh queries: shed probability ramps 0 -> 1
  // between red_threshold() and the query admit limit. The draw happens
  // only when the ramp region is actually entered, keeping the stream a
  // deterministic function of the admission sequence.
  if (cls == Priority::kQuery) {
    const std::size_t lo = red_onset_;
    const std::size_t hi = admit_limit(Priority::kQuery);
    if (depth_ >= lo && hi > lo) {
      const double ramp = static_cast<double>(depth_ - lo) /
                          static_cast<double>(hi - lo);
      if (red.uniform01() < ramp) return Admit::kShedEarly;
    }
  }
  lanes_[idx].push_back(
      QueueItem{now, cls, std::move(run), next_order_++});
  ++depth_;
  max_depth_ = std::max(max_depth_, depth_);
  return Admit::kAdmit;
}

QueueItem BoundedNodeQueue::take() {
  MOT_EXPECTS(depth_ > 0);
  std::size_t pick = kNumClasses;
  if (config_->discipline == QueueDiscipline::kPriority) {
    for (std::size_t idx = 0; idx < kNumClasses; ++idx) {
      if (!lanes_[idx].empty()) {
        pick = idx;
        break;
      }
    }
  } else {
    std::uint64_t best = 0;
    for (std::size_t idx = 0; idx < kNumClasses; ++idx) {
      if (lanes_[idx].empty()) continue;
      if (pick == kNumClasses || lanes_[idx].front().order < best) {
        pick = idx;
        best = lanes_[idx].front().order;
      }
    }
  }
  MOT_CHECK(pick < kNumClasses);
  QueueItem item = std::move(lanes_[pick].front());
  lanes_[pick].pop_front();
  --depth_;
  return item;
}

}  // namespace mot::overload
