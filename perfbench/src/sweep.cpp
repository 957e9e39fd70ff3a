// sweep: the paper's Section 8 in miniature, checked against the par pool.
//
// run_maintenance_sweep (Fig. 4), run_query_sweep (Fig. 6) and
// run_load_figure (Fig. 9, MOT-LB vs STUN) on grids up to 1024 nodes.
// Hierarchy builds, ChainTracker, the STUN and Z-DAT baselines and
// MOT-LB's de Bruijn delegates do the work; DistributedMot does none.
// ops_per_s counts every publish, move and query the sweeps replay, with
// the hierarchy builds inside the timed region.
//
// The timed repetitions run the figures serially, on the one CPU that
// main.cpp gives each repetition: at one pool worker per CPU, the sweep's
// throughput spread past any bound between runs on a shared host, where
// the slowest virtual CPU sets the pace. The pool runs once, untimed,
// when the workload is built: the figures at one worker per allowed CPU
// are the reference every serial repetition must reproduce byte for
// byte, and that pass gives par.busy_frac. Its grids reach 1024 nodes:
// at micro_par's default sizes (16..144) the cells are too small for the
// pool to show any speedup.
//
// The sweeps have no per-op clock, so set-up and the latency metrics
// come from the algorithm alone: a MOT ChainTracker on the 1024-node
// grid is built and published before the sweep (setup_s), then replays a
// random-walk trace with one random query after each move, every call
// timed and every answer checked against the trace's positions. Like the
// engine workloads it runs on one fixed hierarchy, so the seed changes
// its trace, never its world.
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/spanning_tree.hpp"
#include "expt/fig_runners.hpp"
#include "harness.hpp"
#include "obs/phase_timer.hpp"
#include "par/thread_pool.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kLargest = 1024;
constexpr std::size_t kObjects = 100;
constexpr std::size_t kProbeMoves = 200;  // per object
// run_load_figure replays each seed through MOT-LB, MOT and the baseline.
constexpr std::uint64_t kLoadFigureAlgos = 3;

// The numeric cell of `table` at `row` in `column`; NaN when absent.
double cell(const mot::Table& table, std::size_t row,
            const std::string& column) {
  const std::vector<std::string>& names = table.column_names();
  const auto it = std::find(names.begin(), names.end(), column);
  if (it == names.end() || row >= table.num_rows()) return NAN;
  const std::string& text =
      table.at(row, static_cast<std::size_t>(it - names.begin()));
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  return end == text.c_str() ? NAN : value;
}

std::size_t row_of(const mot::Table& table, const std::string& algo) {
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    if (table.at(row, 0) == algo) return row;
  }
  return table.num_rows();
}

void mix_text(Digest& digest, const std::string& text) {
  for (const char c : text) digest.mix(static_cast<unsigned char>(c));
}

// The algorithm alone, one timed call at a time.
void probe_latencies(mot::Tracker& tracker, const mot::MovementTrace& trace,
                     const std::vector<mot::QueryOp>& queries,
                     RepResult& out) {
  std::vector<mot::NodeId> at = trace.initial_proxy;
  for (std::size_t i = 0; i < trace.moves.size(); ++i) {
    const mot::MoveOp& move = trace.moves[i];
    std::uint64_t start = now_ns();
    const mot::MoveResult moved = tracker.move(move.object, move.to);
    out.move_us.add(us_since(start));
    at[move.object] = move.to;
    out.digest.mix_double(moved.cost);

    const mot::QueryOp& query = queries[i];
    start = now_ns();
    const mot::QueryResult found = tracker.query(query.from, query.object);
    out.query_us.add(us_since(start));
    if (!found.found || found.proxy != at[query.object]) ++out.failed;
    out.digest.mix(found.proxy);
  }
  out.attempted += 2 * trace.moves.size();
}

struct Figures {
  mot::Table maintenance;
  mot::Table query;
  mot::Table load;
};

std::uint64_t tables_digest(const Figures& figures) {
  Digest digest;
  mix_text(digest, figures.maintenance.to_string());
  mix_text(digest, figures.query.to_string());
  mix_text(digest, figures.load.to_string());
  return digest.value;
}

class Sweep final : public Workload {
 public:
  explicit Sweep(const Options& options) : seed_(options.seed) {
    sweep_.sizes = {64, 256, kLargest};
    sweep_.num_objects = kObjects;
    sweep_.moves_per_object = 100;
    sweep_.num_seeds = 6;
    sweep_.base_seed = seed_;
    load_.num_nodes = kLargest;
    load_.num_objects = kObjects;
    load_.moves_per_object = 10;  // Fig. 9: the load after maintenance
    load_.num_seeds = 8;
    load_.baseline = mot::Algo::kStun;
    load_.base_seed = seed_;

    const std::size_t workers =
        std::max<std::size_t>(allowed_cpus().size(), 1);
    mot::par::set_default_workers(workers);
    const ProcessUsage usage_before = process_usage();
    const std::uint64_t start = now_ns();
    reference_tables_ = tables_digest(run_figures(nullptr));
    const double wall_s = seconds_since(start);
    busy_frac_ = (process_usage().cpu_s - usage_before.cpu_s) /
                 (static_cast<double>(workers) * wall_s);
    mot::par::set_default_workers(1);  // the timed figures run inline
  }

  RepResult run_rep(bool) override {
    RepResult out;
    const std::uint64_t setup_start = now_ns();
    const mot::Network network =
        mot::build_grid_network(kLargest, kHierarchySeed);
    mot::Rng rng(mot::SeedTree(seed_).seed_for("sweep-probe"));
    mot::TraceParams params;
    params.num_objects = kObjects;
    params.moves_per_object = kProbeMoves;
    const mot::MovementTrace trace =
        mot::generate_trace(network.graph(), params, rng);
    const std::vector<mot::QueryOp> queries = mot::generate_queries(
        network.num_nodes(), kObjects, trace.moves.size(), rng);
    const mot::AlgoInstance algo = mot::make_algo(
        mot::Algo::kMot, network, mot::EdgeRates{}, kHierarchySeed);
    mot::publish_all(*algo.tracker, trace);
    out.setup_s = seconds_since(setup_start);
    probe_latencies(*algo.tracker, trace, queries, out);

    mot::obs::PhaseTimers::global().clear();
    const std::uint64_t start = now_ns();
    const Figures figures = run_figures(&out.parts_us);
    out.timed_s = seconds_since(start);
    const mot::Table& maintenance = figures.maintenance;
    const mot::Table& query = figures.query;
    const mot::Table& load = figures.load;
    out.ops = sweep_ops();
    out.attempted += out.ops;

    // The paper's figures at the largest grid: MOT's cost ratios (last
    // row) and MOT-LB's storage load.
    out.maint_ratio =
        cell(maintenance, maintenance.num_rows() - 1, algo_name(mot::Algo::kMot));
    out.query_ratio =
        cell(query, query.num_rows() - 1, algo_name(mot::Algo::kMot));
    const std::size_t balanced =
        row_of(load, algo_name(mot::Algo::kMotLoadBalanced));
    out.load_mean = cell(load, balanced, "mean_load");
    out.load_max = cell(load, balanced, "max_load");
    // Every algorithm pays at least the optimal distance.
    for (const mot::Table* table : {&maintenance, &query}) {
      for (std::size_t row = 0; row < table->num_rows(); ++row) {
        for (const mot::Algo a : sweep_.algos) {
          const double ratio = cell(*table, row, algo_name(a));
          if (!(ratio >= 1.0)) {
            out.audit.push_back(std::string(algo_name(a)) +
                                " cost ratio below 1 or missing");
          }
        }
      }
    }
    if (!std::isfinite(out.load_mean) || !std::isfinite(out.load_max)) {
      out.audit.push_back("MOT-LB row missing from the load figure");
    }
    const std::uint64_t tables = tables_digest(figures);
    if (tables != reference_tables_) {
      out.audit.push_back("serial figure tables differ from the pool's");
    }
    out.digest.mix(tables);

    for (const auto& phase : mot::obs::PhaseTimers::global().phases()) {
      if (phase.name == "hierarchy_build") {
        out.layers["hier.build_s"] = phase.seconds;
      } else if (phase.name == "publish") {
        out.layers["tracking.publish_s"] = phase.seconds;
      } else if (phase.name == "op_loop") {
        out.layers["tracking.op_loop_s"] = phase.seconds;
      }
    }
    out.layers["par.busy_frac"] = busy_frac_;
    return out;
  }

 private:
  // The three figures in order; with `parts_us`, the time of each.
  Figures run_figures(mot::SampleSet* parts_us) const {
    const auto timed = [parts_us](auto&& figure) {
      const std::uint64_t start = now_ns();
      mot::Table table = figure();
      if (parts_us != nullptr) parts_us->add(us_since(start));
      return table;
    };
    // A braced list is evaluated left to right.
    return {timed([this] { return mot::run_maintenance_sweep(sweep_); }),
            timed([this] { return mot::run_query_sweep(sweep_); }),
            timed([this] { return mot::run_load_figure(load_); })};
  }

  // Every op the three figures replay: each cell publishes every object
  // and replays its moves, and the query sweep adds one query per object.
  std::uint64_t sweep_ops() const {
    const std::uint64_t cells =
        sweep_.sizes.size() * sweep_.num_seeds * sweep_.algos.size();
    const std::uint64_t replay =
        sweep_.num_objects * (1 + sweep_.moves_per_object);
    const std::uint64_t load = load_.num_seeds * kLoadFigureAlgos *
                               load_.num_objects *
                               (1 + load_.moves_per_object);
    return cells * replay + cells * (replay + sweep_.num_objects) + load;
  }

  std::uint64_t seed_;
  mot::SweepParams sweep_;
  mot::LoadFigureParams load_;
  std::uint64_t reference_tables_ = 0;  // the figures at the pool's width
  double busy_frac_ = 0.0;  // pool CPU / (workers x wall), reference pass
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const Options& options) {
  return std::make_unique<Sweep>(options);
}

}  // namespace perfbench
