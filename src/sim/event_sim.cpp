#include "sim/event_sim.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace mot {

void Simulator::schedule(SimTime delay, std::function<void()> action) {
  MOT_EXPECTS(delay >= 0.0);
  MOT_EXPECTS(action != nullptr);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  heap_.push_back({now_ + delay, next_id_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulator::pop_and_run() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event top = heap_.back();
  heap_.pop_back();
  MOT_CHECK(top.time >= now_);
  now_ = top.time;
  // Move the action out before running it: it may schedule, which can
  // reuse this slot or grow the table under it.
  std::function<void()> action = std::move(actions_[top.slot]);
  free_slots_.push_back(top.slot);
  action();
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (processed < max_events && pop_and_run()) ++processed;
  return processed;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t processed = 0;
  while (!heap_.empty() && heap_.front().time <= deadline && pop_and_run()) {
    ++processed;
  }
  return processed;
}

}  // namespace mot
