// Deterministic discrete-event simulator driving the concurrent execution
// mode (Sections 4.1.2 / 4.2.2). Message latency between two nodes is
// their shortest-path distance — the paper's "time unit is the duration a
// message needs to travel unit distance".
//
// Determinism: events at equal times fire in schedule order (a strictly
// increasing sequence number breaks ties), so a seeded run replays
// identically.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "graph/graph.hpp"

namespace mot {

using SimTime = double;

class Simulator {
 public:
  SimTime now() const { return now_; }

  // Schedules `action` to run at now() + delay.
  void schedule(SimTime delay, std::function<void()> action);

  // Runs events until the queue drains. Returns the number processed.
  // `max_events` guards against runaway feedback loops in tests.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  // Runs events with time <= deadline.
  std::size_t run_until(SimTime deadline);

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t id;
    std::function<void()> action;

    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;  // FIFO among simultaneous events
    }
  };

  bool pop_and_run();

  SimTime now_ = 0.0;
  std::uint64_t next_id_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
};

}  // namespace mot
