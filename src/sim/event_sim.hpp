// Deterministic discrete-event simulator driving the concurrent execution
// mode (Sections 4.1.2 / 4.2.2). Message latency between two nodes is
// their shortest-path distance — the paper's "time unit is the duration a
// message needs to travel unit distance".
//
// Determinism: events at equal times fire in schedule order (a strictly
// increasing sequence number breaks ties), so a seeded run replays
// identically.
//
// Layout: the binary heap orders trivially copyable (time, id, slot)
// records, so a sift moves 24 bytes per level instead of a
// std::function. The actions wait in a slot table whose freed slots are
// reused through a free list; an action is moved once on schedule and
// once when it fires.
#pragma once

#include <cstdint>
#include <functional>
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

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t id;
    std::uint32_t slot;  // index of the action in actions_
  };
  // Heap order for std::push_heap / std::pop_heap: the earliest event on
  // top, FIFO among simultaneous events.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  bool pop_and_run();

  SimTime now_ = 0.0;
  std::uint64_t next_id_ = 0;
  std::vector<Event> heap_;
  std::vector<std::function<void()>> actions_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace mot
