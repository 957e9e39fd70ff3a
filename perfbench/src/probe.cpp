#include "probe.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>

#include "graph/generators.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

thread_local Span* t_current_span = nullptr;

double clock_s(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Times empty brackets: their own recorded duration is the inner cost,
// the wall time per bracket seen from outside is the outer cost. Median
// of several batches, so one preemption does not skew the correction.
TimerCost calibrate() {
  constexpr int kBatches = 9;
  constexpr int kPerBatch = 20000;
  mot::SampleSet inner;
  mot::SampleSet outer;
  for (int b = 0; b < kBatches; ++b) {
    LayerStats stats;
    const std::uint64_t start = now_ns();
    for (int i = 0; i < kPerBatch; ++i) {
      Span span(&stats);
    }
    const std::uint64_t wall = now_ns() - start;
    inner.add(static_cast<double>(stats.wall_ns) / kPerBatch);
    outer.add(static_cast<double>(wall) / kPerBatch);
  }
  TimerCost cost;
  cost.inner_ns = inner.quantile(0.5);
  cost.outer_ns = std::max(outer.quantile(0.5), cost.inner_ns);
  return cost;
}

}  // namespace

void LayerStats::add(const LayerStats& other) {
  calls += other.calls;
  wall_ns += other.wall_ns;
  child_ns += other.child_ns;
  child_calls += other.child_calls;
  descendant_calls += other.descendant_calls;
  allocs.count += other.allocs.count;
  allocs.bytes += other.allocs.bytes;
}

const TimerCost& timer_cost() {
  static const TimerCost cost = calibrate();
  return cost;
}

double total_ns(const LayerStats& stats) {
  const TimerCost& cost = timer_cost();
  const double total =
      static_cast<double>(stats.wall_ns) -
      static_cast<double>(stats.calls) * cost.inner_ns -
      static_cast<double>(stats.descendant_calls) * cost.outer_ns;
  return std::max(total, 0.0);
}

double self_ns(const LayerStats& stats) {
  const TimerCost& cost = timer_cost();
  const double self =
      static_cast<double>(stats.wall_ns) -
      static_cast<double>(stats.calls) * cost.inner_ns -
      static_cast<double>(stats.child_ns) -
      static_cast<double>(stats.child_calls) *
          (cost.outer_ns - cost.inner_ns);
  return std::max(self, 0.0);
}

Span::Span(LayerStats* stats) : stats_(stats), parent_(t_current_span) {
  t_current_span = this;
  allocs_at_start_ = thread_allocs();
  start_ns_ = now_ns();
}

Span::~Span() {
  const std::uint64_t elapsed = now_ns() - start_ns_;
  const AllocCount allocs = thread_allocs();
  t_current_span = parent_;
  stats_->calls += 1;
  stats_->wall_ns += elapsed;
  stats_->child_ns += child_ns_;
  stats_->child_calls += child_calls_;
  stats_->descendant_calls += descendant_calls_;
  stats_->allocs.count += allocs.count - allocs_at_start_.count;
  stats_->allocs.bytes += allocs.bytes - allocs_at_start_.bytes;
  if (parent_ != nullptr) {
    parent_->child_ns_ += elapsed;
    parent_->child_calls_ += 1;
    parent_->descendant_calls_ += 1 + descendant_calls_;
  }
}

World::World(std::size_t side, std::uint64_t hierarchy_seed,
             EngineProbe* probe)
    : graph(mot::make_grid(side, side)),
      base_oracle(mot::make_distance_oracle(graph)) {
  const mot::DistanceOracle* oracle = base_oracle.get();
  if (probe != nullptr) {
    counted_oracle =
        std::make_unique<CountingOracle>(*base_oracle, &probe->oracle);
    oracle = counted_oracle.get();
  }
  mot::DoublingHierarchy::Params params;
  params.seed = hierarchy_seed;
  const std::uint64_t start = now_ns();
  hierarchy = mot::DoublingHierarchy::build(graph, *oracle, params);
  hierarchy_build_s = seconds_since(start);
  mot::MotOptions options;
  options.use_parent_sets = false;
  options.use_special_parents = true;
  mot_provider = std::make_unique<mot::MotPathProvider>(*hierarchy, options);
  if (probe != nullptr) {
    counted_provider =
        std::make_unique<CountingProvider>(*mot_provider, &probe->provider);
  }
  chain_options = mot::make_mot_chain_options(options);
}

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double thread_cpu_s(std::thread::native_handle_type thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0.0;
  return clock_s(clock);
}

ProcessUsage process_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcessUsage out;
  out.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
              static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 +
              static_cast<double>(usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  out.voluntary_switches = static_cast<std::uint64_t>(usage.ru_nvcsw);
  return out;
}

// VmHWM belongs to this process's own address space, which starts afresh
// at exec. getrusage's ru_maxrss does not: Linux folds into it the peak of
// the address space exec replaced, which for a child spawned by vfork
// (as Python's subprocess does) is the parent interpreter's.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

bool pin_current_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

}  // namespace perfbench
