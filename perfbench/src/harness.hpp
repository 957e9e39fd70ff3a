// The contract between main.cpp's repetition loop and the four workloads.
//
// A run is a warm-up repetition followed by timed repetitions until the
// run's seconds are spent. Every repetition rebuilds its world from
// scratch and replays the same seeded inputs, so deterministic outputs
// (cost ratios, loads, the answer digest) must agree across repetitions
// and every repetition is one sample of each timing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"
#include "proto/distributed_mot.hpp"
#include "sim/event_sim.hpp"
#include "util/stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// The engine workloads run on a 32 x 32 grid, the paper's largest
// evaluation size, with one fixed hierarchy: a seed changes the inputs
// (placements, steps, query origins), never the world.
inline constexpr std::size_t kGridSide = 32;
inline constexpr std::uint64_t kHierarchySeed = 7;

// FNV-1a over everything a repetition answered.
struct Digest {
  std::uint64_t value = 1469598103934665603ULL;
  void mix(std::uint64_t x) { value = (value ^ x) * 1099511628211ULL; }
  void mix_double(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    mix(bits);
  }
};

// What the engine callbacks report, captured by pointer so that every
// callback fits std::function's inline buffer.
struct Tally {
  std::uint64_t moved = 0;
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;
  double move_cost = 0.0;
  double query_cost = 0.0;
  Digest digest;

  void record_move(double cost, int peak_level) {
    ++moved;
    move_cost += cost;
    digest.mix_double(cost);
    digest.mix(static_cast<std::uint64_t>(peak_level));
  }
  // A query fails unless it found the object, undegraded, at the
  // benchmark's own record of the object's position.
  void record_query(bool found, bool degraded, mot::NodeId proxy,
                    double cost, mot::NodeId expected) {
    ++answered;
    query_cost += cost;
    if (!found || degraded || proxy != expected) ++wrong;
    digest.mix(proxy);
    digest.mix_double(cost);
  }
};

struct RepResult {
  // Wall clock.
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::uint64_t ops = 0;        // tracking ops completed in the timed phase
  std::uint64_t attempted = 0;  // ops the repetition issued and checked
  std::uint64_t failed = 0;
  // Every repetition replays the same ops in the same order. Latency
  // samples in issue order, one per query (window) and one per move
  // (window), and the timed phase cut into parts (ops, windows, figures)
  // whose times add up to it.
  mot::SampleSet query_us;
  mot::SampleSet move_us;
  mot::SampleSet parts_us;

  // Deterministic for a given seed.
  double maint_ratio = 0.0;  // sum of move costs / sum of dist(old, new)
  double query_ratio = 0.0;  // sum of query costs / sum of dist(origin, proxy)
  double load_max = 0.0;
  double load_mean = 0.0;
  Digest digest;

  // End-of-repetition audit findings; any entry fails the run.
  std::vector<std::string> audit;

  // Per-layer metrics. Decorator-based ones are filled by traced
  // repetitions only; plain clock readings (see main.cpp) by every one.
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One repetition; `traced` builds the world over the counting
  // decorators and brackets every layer call.
  virtual RepResult run_rep(bool traced) = 0;
};

std::unique_ptr<Workload> make_fleet(const Options& options);
std::unique_ptr<Workload> make_locate(const Options& options);
std::unique_ptr<Workload> make_cluster(const Options& options);
std::unique_ptr<Workload> make_sweep(const Options& options);

// Simulator::run() inside the probe's run bracket; counts events.
inline std::size_t run_sim(mot::Simulator& sim, EngineProbe* probe) {
  if (probe == nullptr) return sim.run();
  std::size_t events = 0;
  {
    Span span(&probe->run);
    events = sim.run();
  }
  probe->events += events;
  return events;
}

// Storage load at the end of a repetition: max and mean entries per node.
template <typename Loads>
void record_loads(const Loads& loads, RepResult& out) {
  double total = 0.0;
  double max = 0.0;
  for (const auto load : loads) {
    total += static_cast<double>(load);
    max = std::max(max, static_cast<double>(load));
  }
  out.load_max = max;
  out.load_mean =
      loads.empty() ? 0.0 : total / static_cast<double>(loads.size());
}

// Ends a fleet or locate repetition: op counts, the end-of-run audits,
// loads, cost ratios and, when traced, the engine's per-layer metrics
// (the probe's brackets plus ProtocolStats deltas over the timed phase,
// per timed op).
void finish_engine_rep(const mot::proto::DistributedMot& engine,
                       const Tally& tally, std::uint64_t issued,
                       double move_optimal, double query_optimal,
                       const EngineProbe* probe,
                       const mot::proto::ProtocolStats& before,
                       RepResult& out);

}  // namespace perfbench
