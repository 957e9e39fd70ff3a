#include "sim/event_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/cost_meter.hpp"
#include "util/rng.hpp"

namespace mot {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule(2.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(1.0, [&] { times.push_back(sim.now()); });
  sim.schedule(5.0, [&] { times.push_back(sim.now()); });
  EXPECT_EQ(sim.run_until(2.0), 1u);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(times.size(), 2u);
}

TEST(Simulator, MaxEventsGuard) {
  Simulator sim;
  int count = 0;
  // Self-perpetuating event chain.
  std::function<void()> tick = [&] {
    ++count;
    sim.schedule(1.0, tick);
  };
  sim.schedule(0.0, tick);
  sim.run(10);
  EXPECT_EQ(count, 10);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  double when = -1.0;
  sim.schedule(2.0, [&] {
    sim.schedule(0.0, [&] { when = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(when, 2.0);
}

// Differential fuzz of the event heap against a reference that keeps
// pending events in a plain list and fires the least (time, schedule
// order) each step. Zero and repeated delays make ties common; fired
// events schedule follow-ups; partial drains through run(max_events) and
// run_until leave events pending while others fire, so action slots are
// freed and reused under them.
constexpr int kFuzzEventCap = 300;
constexpr SimTime kFuzzDelays[] = {0.0, 0.0, 1.0, 1.0, 0.5, 3.0, 7.25};

SimTime fuzz_delay(Rng& rng) {
  return kFuzzDelays[rng.below(std::size(kFuzzDelays))];
}

// The delays of the follow-ups event `tag` schedules when it fires: a
// pure function of (seed, tag), so both models agree on them.
std::vector<SimTime> follow_ups(std::uint64_t seed, int tag) {
  Rng rng(seed * 1000003 + static_cast<std::uint64_t>(tag));
  std::vector<SimTime> delays(rng.below(3));
  for (SimTime& delay : delays) delay = fuzz_delay(rng);
  return delays;
}

using Firing = std::pair<int, SimTime>;  // (tag, time fired)

struct RealModel {
  explicit RealModel(std::uint64_t s) : seed(s) {}
  void add(SimTime delay) {
    const int tag = next_tag++;
    sim.schedule(delay, [this, tag] {
      fired.emplace_back(tag, sim.now());
      for (const SimTime d : follow_ups(seed, tag)) {
        if (next_tag < kFuzzEventCap) add(d);
      }
    });
  }

  std::uint64_t seed;
  Simulator sim;
  int next_tag = 0;
  std::vector<Firing> fired;
};

struct ReferenceModel {
  struct Event {
    SimTime time;
    std::uint64_t order;
    int tag;
  };
  explicit ReferenceModel(std::uint64_t s) : seed(s) {}
  void add(SimTime delay) {
    pending.push_back({now + delay, next_order++, next_tag++});
  }
  bool fire_next(SimTime deadline) {
    const auto it = std::min_element(
        pending.begin(), pending.end(), [](const Event& a, const Event& b) {
          return std::tie(a.time, a.order) < std::tie(b.time, b.order);
        });
    if (it == pending.end() || it->time > deadline) return false;
    const Event event = *it;
    pending.erase(it);
    now = event.time;
    fired.emplace_back(event.tag, now);
    for (const SimTime d : follow_ups(seed, event.tag)) {
      if (next_tag < kFuzzEventCap) add(d);
    }
    return true;
  }
  std::size_t run(std::size_t max_events, SimTime deadline) {
    std::size_t processed = 0;
    while (processed < max_events && fire_next(deadline)) ++processed;
    return processed;
  }

  std::uint64_t seed;
  SimTime now = 0.0;
  std::uint64_t next_order = 0;
  int next_tag = 0;
  std::vector<Event> pending;
  std::vector<Firing> fired;
};

TEST(Simulator, MatchesASortedReferenceAcrossPartialDrains) {
  constexpr SimTime kNoDeadline = 1e300;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RealModel real(seed);
    ReferenceModel ref(seed);
    Rng driver(seed);
    for (int round = 0; round < 40; ++round) {
      const std::uint64_t injected = driver.below(4);
      for (std::uint64_t i = 0; i < injected; ++i) {
        const SimTime delay = fuzz_delay(driver);
        real.add(delay);
        ref.add(delay);
      }
      switch (driver.below(3)) {
        case 0: {
          const std::size_t max_events = driver.below(6);
          EXPECT_EQ(real.sim.run(max_events),
                    ref.run(max_events, kNoDeadline));
          break;
        }
        case 1: {
          const SimTime deadline = real.sim.now() + fuzz_delay(driver);
          EXPECT_EQ(real.sim.run_until(deadline),
                    ref.run(SIZE_MAX, deadline));
          break;
        }
        default:
          break;  // let the queue build up
      }
      ASSERT_EQ(real.fired, ref.fired) << "seed " << seed << " round "
                                       << round;
      EXPECT_EQ(real.sim.now(), ref.now);
      EXPECT_EQ(real.sim.pending(), ref.pending.size());
    }
    EXPECT_EQ(real.sim.run(), ref.run(SIZE_MAX, kNoDeadline));
    ASSERT_EQ(real.fired, ref.fired) << "seed " << seed;
    EXPECT_EQ(real.sim.now(), ref.now);
    EXPECT_TRUE(real.sim.empty());
  }
}

TEST(CostMeter, AccumulatesAndResets) {
  CostMeter meter;
  meter.charge(2.5);
  meter.charge(1.5, 3);
  EXPECT_DOUBLE_EQ(meter.total_distance(), 4.0);
  EXPECT_EQ(meter.total_messages(), 4u);
  meter.reset();
  EXPECT_DOUBLE_EQ(meter.total_distance(), 0.0);
  EXPECT_EQ(meter.total_messages(), 0u);
}

TEST(CostWindow, MeasuresDelta) {
  CostMeter meter;
  meter.charge(10.0);
  const CostWindow window(meter);
  meter.charge(3.0);
  meter.charge(4.0);
  EXPECT_DOUBLE_EQ(window.cost(), 7.0);
  EXPECT_EQ(window.messages(), 2u);
}

}  // namespace
}  // namespace mot
