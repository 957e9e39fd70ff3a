#include "sim/event_sim.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/cost_meter.hpp"

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
