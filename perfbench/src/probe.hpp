// Instruments of the traced run. Everything here wraps the library's
// public surfaces from the outside: spans bracket the calls the
// benchmark makes into a layer, and counting decorators stand in for the
// DistanceOracle, PathProvider and Channel the engine is built on. The
// untraced run builds the same world without any of them.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/mot.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/graph.hpp"
#include "hier/doubling_hierarchy.hpp"
#include "sim/channel.hpp"
#include "tracking/chain_tracker.hpp"
#include "tracking/path_provider.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

inline double us_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-3;
}

// --- allocation counting (alloc_hook.cpp replaces operator new) ---------

struct AllocCount {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

// True in the traced binary, whose operator new counts.
bool counts_allocations();
// Allocations made so far by the calling thread; 0 when not counting.
AllocCount thread_allocs();

// --- spans --------------------------------------------------------------

// The calls into one layer, each bracketed by a Span. `wall_ns` sums the
// bracket durations. Brackets that ran inside them (a provider call that
// asks the oracle) are counted apart so self time can be separated out:
// `child_ns` / `child_calls` for the directly nested ones,
// `descendant_calls` for all of them. `allocs` counts allocations inside
// the brackets, nested ones included.
struct LayerStats {
  std::uint64_t calls = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t child_ns = 0;
  std::uint64_t child_calls = 0;
  std::uint64_t descendant_calls = 0;
  AllocCount allocs;

  void add(const LayerStats& other);
};

// What the clock reads of one bracket cost, calibrated once per process:
// `inner_ns` lands inside the bracket's own duration, `outer_ns` is what
// an enclosing bracket sees for an empty nested one.
struct TimerCost {
  double inner_ns = 0.0;
  double outer_ns = 0.0;
};
const TimerCost& timer_cost();

// Time spent inside a layer's brackets, less every bracket's timer cost.
double total_ns(const LayerStats& stats);
// The layer's own work: its bracket time less the timer's cost and less
// everything the nested brackets covered.
double self_ns(const LayerStats& stats);

class Span {
 public:
  explicit Span(LayerStats* stats);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerStats* stats_;
  Span* parent_;
  std::uint64_t child_ns_ = 0;
  std::uint64_t child_calls_ = 0;
  std::uint64_t descendant_calls_ = 0;
  AllocCount allocs_at_start_;
  std::uint64_t start_ns_ = 0;
};

// Runs `fn` inside a span over `stats`, or bare when `stats` is null
// (the untraced run takes this branch and nothing else).
template <typename Fn>
decltype(auto) bracket(LayerStats* stats, Fn&& fn) {
  if (stats == nullptr) return fn();
  Span span(stats);
  return fn();
}

// --- counting decorators -----------------------------------------------

class CountingOracle final : public mot::DistanceOracle {
 public:
  CountingOracle(const mot::DistanceOracle& inner, LayerStats* stats)
      : inner_(&inner), stats_(stats) {}

  mot::Weight distance(mot::NodeId u, mot::NodeId v) const override {
    Span span(stats_);
    return inner_->distance(u, v);
  }
  std::size_t num_nodes() const override { return inner_->num_nodes(); }

 private:
  const mot::DistanceOracle* inner_;
  LayerStats* stats_;
};

class CountingProvider final : public mot::PathProvider {
 public:
  CountingProvider(const mot::PathProvider& inner, LayerStats* stats)
      : inner_(&inner), stats_(stats) {}

  std::span<const mot::PathStop> upward_sequence(
      mot::NodeId u) const override {
    Span span(stats_);
    return inner_->upward_sequence(u);
  }
  std::optional<mot::OverlayNode> special_parent(
      mot::NodeId u, std::size_t index) const override {
    Span span(stats_);
    return inner_->special_parent(u, index);
  }
  DelegateAccess delegate(mot::OverlayNode owner,
                          mot::ObjectId object) const override {
    Span span(stats_);
    return inner_->delegate(owner, object);
  }
  mot::OverlayNode root_stop() const override {
    Span span(stats_);
    return inner_->root_stop();
  }
  const mot::DistanceOracle& oracle() const override {
    return inner_->oracle();
  }
  std::size_t num_nodes() const override { return inner_->num_nodes(); }

 private:
  const mot::PathProvider* inner_;
  LayerStats* stats_;
};

class CountingChannel final : public mot::Channel {
 public:
  CountingChannel(mot::Channel& inner, LayerStats* stats)
      : inner_(&inner), stats_(stats) {}

  void transmit(mot::Simulator& sim, mot::NodeId from, mot::NodeId to,
                mot::Weight distance,
                std::function<void()> deliver) override {
    Span span(stats_);
    inner_->transmit(sim, from, to, distance, std::move(deliver));
  }
  bool is_dead(mot::NodeId node) const override {
    return inner_->is_dead(node);
  }
  void subscribe_crashes(std::function<void(mot::NodeId)> cb) override {
    inner_->subscribe_crashes(std::move(cb));
  }
  bool link_blocked(mot::SimTime now, mot::NodeId from,
                    mot::NodeId to) const override {
    return inner_->link_blocked(now, from, to);
  }

 private:
  mot::Channel* inner_;
  LayerStats* stats_;
};

// --- the world every engine workload runs on ----------------------------

// The layer brackets of one engine instance. A workload owns one per
// engine (one per shard thread in `cluster`), so a thread only ever
// writes its own.
struct EngineProbe {
  LayerStats oracle;
  LayerStats provider;
  LayerStats channel;
  LayerStats inject;  // DistributedMot::publish/move/query
  LayerStats run;     // Simulator::run
  std::uint64_t events = 0;
};

// A side x side grid with its oracle, doubling hierarchy and MOT provider
// in the configuration of micro_throughput / cluster_runner: default
// parents only, special parents on. With a probe, the hierarchy and the
// provider are built over counting decorators.
struct World {
  World(std::size_t side, std::uint64_t hierarchy_seed, EngineProbe* probe);

  const mot::PathProvider& provider() const {
    if (counted_provider) return *counted_provider;
    return *mot_provider;
  }

  mot::Graph graph;
  std::unique_ptr<mot::DistanceOracle> base_oracle;
  std::unique_ptr<CountingOracle> counted_oracle;
  std::unique_ptr<mot::DoublingHierarchy> hierarchy;
  std::unique_ptr<mot::MotPathProvider> mot_provider;
  std::unique_ptr<CountingProvider> counted_provider;
  mot::ChainOptions chain_options;
  double hierarchy_build_s = 0.0;
};

// --- process and thread clocks -------------------------------------------

double thread_cpu_s();
// CPU time of another thread of this process (pthread_getcpuclockid).
double thread_cpu_s(std::thread::native_handle_type thread);
struct ProcessUsage {
  double cpu_s = 0.0;
  std::uint64_t voluntary_switches = 0;
};
ProcessUsage process_usage();
// The process's own peak resident set (VmHWM), in MB.
double peak_rss_mb();

// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus();
// Pins the calling thread to one CPU; false when the kernel rejects it.
bool pin_current_thread(int cpu);

}  // namespace perfbench
