// The measuring binaries behind perfbench/run.py.
//
//   mot_perfbench        --workload W --seed N --seconds S --trace 0
//   mot_perfbench_traced --workload W --seed N --seconds S --trace 1
//
// W is fleet, locate, cluster or sweep. The two are built from the same
// sources; only mot_perfbench_traced counts allocations (alloc_hook.cpp),
// so the end-to-end timings never pay for the counter.
//
// Runs one warm-up repetition, then timed repetitions until S seconds
// are spent and at least kMinReps of each kind have run. With --trace 1
// the repetitions alternate untraced and traced, so the per-layer
// numbers and the tracing overhead come from one run. Prints one line per
// metric (name, value, unit) and, as the last line, one JSON object with
// the result. Exits 1 when any correctness check failed.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "probe.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json declares; run.py checks that they agree.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "ops/s"},
    {"setup_s", "s"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"move_p50_us", "us"},
    {"move_p99_us", "us"},
    {"maint_cost_ratio", "ratio"},
    {"query_cost_ratio", "ratio"},
    {"node_load_max", "entries"},
    {"node_load_mean", "entries"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.distance_calls_per_op", "calls/op"},
    {"graph.distance_ns_per_op", "ns/op"},
    {"hier.build_s", "s"},
    {"core.provider_calls_per_op", "calls/op"},
    {"core.provider_ns_per_op", "ns/op"},
    {"tracking.publish_s", "s"},
    {"tracking.op_loop_s", "s"},
    {"sim.events_per_op", "events/op"},
    {"sim.run_ns_per_op", "ns/op"},
    {"sim.transmits_per_op", "calls/op"},
    {"sim.transmit_ns_per_op", "ns/op"},
    {"proto.inject_ns_per_op", "ns/op"},
    {"proto.self_ns_per_op", "ns/op"},
    {"proto.msgs_per_op", "msgs/op"},
    {"proto.allocs_per_op", "allocs/op"},
    {"proto.alloc_bytes_per_op", "B/op"},
    {"proto.coalesced_per_op", "msgs/op"},
    {"proto.flushes_per_op", "flushes/op"},
    {"proto.data_frames_per_op", "frames/op"},
    {"proto.acks_per_op", "frames/op"},
    {"proto.retransmits_per_op", "frames/op"},
    {"overload.arrivals_per_op", "msgs/op"},
    {"overload.shed_per_op", "msgs/op"},
    {"overload.max_queue_depth", "msgs"},
    {"overload.queue_delay_p99", "simtime"},
    {"wire.encode_ns_per_msg", "ns/msg"},
    {"wire.decode_ns_per_msg", "ns/msg"},
    {"wire.bytes_per_msg", "B/msg"},
    {"netio.mesh_frames_per_op", "frames/op"},
    {"netio.mesh_bytes_per_op", "B/op"},
    {"netio.flushes_per_op", "flushes/op"},
    {"netio.coord_cpu_us_per_op", "us/op"},
    {"netio.shard_cpu_us_per_op", "us/op"},
    {"netio.wait_us_per_op", "us/op"},
    {"netio.ctx_switches_per_op", "switches/op"},
    {"par.busy_frac", "fraction"},
    {"bench.trace_overhead_frac", "fraction"},
};

// Per-layer metrics read from plain clocks and counters that cost the
// untraced run nothing. The decorators would only inflate them, so they
// come from the untraced repetitions.
bool from_untraced(const std::string& name) {
  return name == "hier.build_s" || name == "par.busy_frac" ||
         name.rfind("tracking.", 0) == 0 || name.rfind("netio.", 0) == 0;
}

constexpr std::size_t kMinReps = 3;

// On a shared machine, interference only ever slows a timing down. Each
// timing is therefore taken once per repetition and reported at the
// run's fast decile, the 10th percentile.
double fast_time(const mot::SampleSet& per_rep) {
  return per_rep.quantile(0.1);
}

mot::SampleSet ops_rates(const std::vector<RepResult>& reps) {
  mot::SampleSet rates;
  for (const RepResult& rep : reps) {
    rates.add(static_cast<double>(rep.ops) / rep.timed_s);
  }
  return rates;
}

// Every repetition replays the same ops in the same order, so each op
// (or part of the timed phase) has one time per repetition; its fast
// decile over them is what it costs at the run's quiet moments.
// Interrupts and preemptions land on different ops in each repetition and
// drop out, so a tail percentile over ops reports the ops' own spread.
mot::SampleSet fast_per_op(const std::vector<RepResult>& reps,
                           mot::SampleSet RepResult::*samples) {
  std::size_t ops = (reps.front().*samples).count();
  for (const RepResult& rep : reps) {
    ops = std::min(ops, (rep.*samples).count());
  }
  mot::SampleSet per_op;
  for (std::size_t i = 0; i < ops; ++i) {
    mot::SampleSet per_rep;
    for (const RepResult& rep : reps) {
      per_rep.add((rep.*samples).samples()[i]);
    }
    per_op.add(fast_time(per_rep));
  }
  return per_op;
}

// Ops of one repetition over its timed phase, taken as the sum of the
// parts' fast deciles.
double ops_per_s(const std::vector<RepResult>& reps) {
  const mot::SampleSet parts = fast_per_op(reps, &RepResult::parts_us);
  double timed_us = 0.0;
  for (const double part : parts.samples()) timed_us += part;
  return static_cast<double>(reps.front().ops) / (timed_us * 1e-6);
}

double median_layer(const std::vector<RepResult>& reps,
                    const std::string& name) {
  mot::SampleSet values;
  for (const RepResult& rep : reps) {
    const auto it = rep.layers.find(name);
    values.add(it == rep.layers.end() ? 0.0 : it->second);
  }
  return values.quantile(0.5);
}

bool same_answers(const RepResult& a, const RepResult& b) {
  return a.digest.value == b.digest.value &&
         a.maint_ratio == b.maint_ratio && a.query_ratio == b.query_ratio &&
         a.load_max == b.load_max && a.load_mean == b.load_mean;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

bool parse_args(int argc, char** argv, Options* options) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      continue;
    }
    if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options->trace = value[0] == '1';
      continue;
    }
    if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return !options->workload.empty() && options->seconds > 0.0 &&
         options->seconds <= 600.0;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "fleet") return make_fleet(options);
  if (options.workload == "locate") return make_locate(options);
  if (options.workload == "cluster") return make_cluster(options);
  if (options.workload == "sweep") return make_sweep(options);
  return nullptr;
}

int run(const Options& options) {
  if (options.trace && !counts_allocations()) {
    std::fprintf(stderr,
                 "--trace 1 needs the allocation-counting build, "
                 "mot_perfbench_traced\n");
    return 2;
  }
  const std::unique_ptr<Workload> workload = make_workload(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  timer_cost();  // calibrate before anything is timed

  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const RepResult warmup = workload->run_rep(false);
  // Peak RSS at a fixed op count: the process after one repetition.
  // Later repetitions only add allocator fragmentation, which grows with
  // how many of them fit in the run.
  const double warmup_rss_mb = peak_rss_mb();
  if (!(warmup_rss_mb > 0.0)) {
    problems.push_back("cannot read the peak RSS (VmHWM)");
  }
  const auto check = [&](const RepResult& rep, std::size_t index) {
    attempted += rep.attempted;
    failed += rep.failed;
    const std::string label = "repetition " + std::to_string(index);
    for (const std::string& finding : rep.audit) {
      problems.push_back(label + ": " + finding);
    }
    if (!same_answers(warmup, rep)) {
      problems.push_back(label + " answered differently from the warm-up");
    }
  };
  check(warmup, 0);

  // Interference on a shared machine differs between CPUs and drifts
  // over seconds. Each repetition runs on the next CPU in turn, every
  // thread it starts included, so a run samples all of them and the fast
  // decile reports the quiet ones.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 1;; ++i) {
    const bool enough = untraced.size() >= kMinReps &&
                        (!options.trace || traced.size() >= kMinReps);
    if (enough && seconds_since(start) >= options.seconds) break;
    if (!cpus.empty()) pin_current_thread(cpus[i % cpus.size()]);
    const bool trace_rep = options.trace && i % 2 == 0;
    RepResult rep = workload->run_rep(trace_rep);
    check(rep, i);
    (trace_rep ? traced : untraced).push_back(std::move(rep));
  }

  std::size_t query_samples = 0;
  std::size_t move_samples = 0;
  mot::SampleSet setup_s;
  for (const RepResult& rep : untraced) {
    query_samples += rep.query_us.count();
    move_samples += rep.move_us.count();
    setup_s.add(rep.setup_s);
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    const std::map<std::string, double> values = {
        {"ops_per_s", ops_per_s(untraced)},
        {"setup_s", fast_time(setup_s)},
        {"query_p50_us",
         fast_per_op(untraced, &RepResult::query_us).quantile(0.5)},
        {"query_p99_us",
         fast_per_op(untraced, &RepResult::query_us).quantile(0.99)},
        {"move_p50_us",
         fast_per_op(untraced, &RepResult::move_us).quantile(0.5)},
        {"move_p99_us",
         fast_per_op(untraced, &RepResult::move_us).quantile(0.99)},
        {"maint_cost_ratio", warmup.maint_ratio},
        {"query_cost_ratio", warmup.query_ratio},
        {"node_load_max", warmup.load_max},
        {"node_load_mean", warmup.load_mean},
        {"peak_rss_mb", warmup_rss_mb},
    };
    for (const MetricDef& def : kEndToEnd) {
      metrics.push_back({def.name, def.unit, values.at(def.name)});
    }
  } else {
    for (const MetricDef& def : kPerLayer) {
      const std::string name = def.name;
      const double value =
          name == "bench.trace_overhead_frac"
              ? 1.0 - ops_rates(traced).quantile(0.5) /
                          ops_rates(untraced).quantile(0.5)
              : median_layer(from_untraced(name) ? untraced : traced, name);
      metrics.push_back({name, def.unit, value});
    }
  }
  for (Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      problems.push_back("metric " + metric.name + " is not finite");
      metric.value = 0.0;
    }
  }

  for (const Metric& metric : metrics) {
    std::printf("%-30s %18.6f %s", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    if (metric.name == "query_p99_us") {
      std::printf("   (%zu samples)", query_samples);
    } else if (metric.name == "move_p99_us") {
      std::printf("   (%zu samples)", move_samples);
    }
    std::printf("\n");
  }
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  if (failed != 0) {
    std::fprintf(stderr, "%" PRIu64 " of %" PRIu64 " ops failed\n", failed,
                 attempted);
  }
  const bool correct = problems.empty() && failed == 0;

  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ",";
    json += json_string(metrics[i].name) +
            ":{\"value\":" + json_number(metrics[i].value) +
            ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, warmup.digest.value);
  json += "},\"detail\":{\"digest\":" + json_string(digest);
  json += ",\"repetitions\":" + std::to_string(untraced.size());
  json += ",\"traced_repetitions\":" + std::to_string(traced.size());
  json += ",\"query_samples\":" + std::to_string(query_samples);
  json += ",\"move_samples\":" + std::to_string(move_samples);
  json += ",\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i != 0) json += ",";
    json += json_string(problems[i]);
  }
  json += "]}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse_args(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload fleet|locate|cluster|sweep --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mot_perfbench: %s\n", error.what());
    return 2;
  }
}
