#include "sim/event_sim.hpp"

#include "util/check.hpp"

namespace mot {

void Simulator::schedule(SimTime delay, std::function<void()> action) {
  MOT_EXPECTS(delay >= 0.0);
  MOT_EXPECTS(action != nullptr);
  queue_.push({now_ + delay, next_id_++, std::move(action)});
}

bool Simulator::pop_and_run() {
  if (queue_.empty()) return false;
  // priority_queue::top is const; we need to move the action out, so
  // const_cast on a value we immediately pop. The queue never reads the
  // moved-from action again.
  Event& top = const_cast<Event&>(queue_.top());
  MOT_CHECK(top.time >= now_);
  now_ = top.time;
  auto action = std::move(top.action);
  queue_.pop();
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
  while (!queue_.empty() && queue_.top().time <= deadline && pop_and_run()) {
    ++processed;
  }
  return processed;
}

}  // namespace mot
