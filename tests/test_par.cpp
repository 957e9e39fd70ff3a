#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "expt/fig_runners.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_path.hpp"
#include "util/rng.hpp"

namespace mot {
namespace {

// ---------------------------------------------------------------- ThreadPool

// The core determinism contract: a slot-writing parallel_for_each fills
// exactly the same vector for any worker count, repeatedly.
TEST(ThreadPool, DeterministicAcrossWorkerCounts) {
  constexpr std::size_t kCount = 257;  // odd, not a multiple of any pool
  auto run = [](std::size_t workers) {
    par::ThreadPool pool(workers);
    std::vector<std::uint64_t> out(kCount, 0);
    pool.for_each(kCount, [&](std::size_t i) {
      // Index-derived work only — the contract every sweep cell follows.
      Rng rng(SeedTree(99).seed_for("task", static_cast<std::uint64_t>(i)));
      out[i] = rng();
    });
    return out;
  };
  const std::vector<std::uint64_t> serial = run(1);
  for (int repeat = 0; repeat < 5; ++repeat) {
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(8), serial);
  }
}

TEST(ThreadPool, MapReturnsResultsInIndexOrder) {
  par::ThreadPool pool(4);
  const std::vector<std::size_t> out =
      pool.map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

// Heavily unbalanced task costs: stealing must still complete every index
// exactly once.
TEST(ThreadPool, UnbalancedTasksAllRunOnce) {
  par::ThreadPool pool(4);
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  pool.for_each(kCount, [&](std::size_t i) {
    if (i == 0) {  // one task dwarfs the rest
      volatile std::uint64_t sink = 0;
      for (std::uint64_t k = 0; k < 2'000'000; ++k) sink = sink + k;
    }
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

// A for_each issued from inside a pool task must run inline (serially)
// rather than deadlock waiting for the busy workers.
TEST(ThreadPool, NestedForEachRunsInline) {
  par::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.for_each(4, [&](std::size_t) {
    EXPECT_GE(par::ThreadPool::current_worker(), 0);
    par::parallel_for_each(8, [&](std::size_t) {
      // Inline execution stays on the same pool worker.
      EXPECT_GE(par::ThreadPool::current_worker(), 0);
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
  EXPECT_EQ(par::ThreadPool::current_worker(), -1);
}

TEST(ThreadPool, PropagatesFirstException) {
  par::ThreadPool pool(4);
  EXPECT_THROW(pool.for_each(32,
                             [](std::size_t i) {
                               if (i % 7 == 3) {
                                 throw std::runtime_error("task failed");
                               }
                             }),
               std::runtime_error);
  // The pool must remain usable after a failed job.
  std::atomic<int> ran{0};
  pool.for_each(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, DefaultWorkersResolveHardware) {
  const std::size_t saved = par::default_workers();
  par::set_default_workers(0);
  EXPECT_GE(par::default_workers(), 1u);
  par::set_default_workers(3);
  EXPECT_EQ(par::default_workers(), 3u);
  par::set_default_workers(saved);
}

// ------------------------------------------------------------ ShardedOracle

// Many threads hammer the same cached oracle; distances must match a
// single-threaded reference oracle exactly. Run under TSan by the ci.sh
// thread-sanitizer stage to certify the lock-striped cache.
TEST(ShardedOracle, ConcurrentDistancesMatchSerial) {
  const Graph graph = make_grid(12, 12);
  CachedDistanceOracle reference(graph);
  CachedDistanceOracle shared(graph);
  const std::size_t n = graph.num_nodes();

  constexpr int kThreads = 8;
  std::vector<std::vector<Weight>> got(kThreads);
  std::vector<std::vector<std::pair<NodeId, NodeId>>> queries(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(SeedTree(7).seed_for("queries", static_cast<std::uint64_t>(t)));
    for (int q = 0; q < 400; ++q) {
      queries[t].push_back({static_cast<NodeId>(rng.below(n)),
                            static_cast<NodeId>(rng.below(n))});
    }
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].reserve(queries[t].size());
      for (const auto& [u, v] : queries[t]) {
        got[t].push_back(shared.distance(u, v));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t q = 0; q < queries[t].size(); ++q) {
      const auto& [u, v] = queries[t][q];
      EXPECT_EQ(got[t][q], reference.distance(u, v))
          << "thread " << t << " query " << q;
    }
  }
  EXPECT_GT(shared.cached_sources(), 0u);
  EXPECT_LE(shared.cached_sources(), n);
}

TEST(ShardedOracle, ExactDiameterParallelMatchesKnownValue) {
  const Graph diam_graph = make_grid(9, 9);
  // Grid diameter is the Manhattan corner-to-corner distance.
  EXPECT_EQ(exact_diameter(diam_graph), 16.0);
}

// ------------------------------------------------------------ ParallelSweep

// The headline guarantee: sweep tables are byte-for-byte identical no
// matter how many workers run the cells.
TEST(ParallelSweep, MaintenanceTableBitIdentical) {
  SweepParams params;
  params.num_objects = 8;
  params.moves_per_object = 12;
  params.num_seeds = 2;
  params.sizes = {16, 36};

  const std::size_t saved = par::default_workers();
  par::set_default_workers(1);
  const std::string serial = run_maintenance_sweep(params).to_string();
  par::set_default_workers(4);
  const std::string parallel = run_maintenance_sweep(params).to_string();
  par::set_default_workers(saved);
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelSweep, QueryTableBitIdentical) {
  SweepParams params;
  params.num_objects = 8;
  params.moves_per_object = 12;
  params.num_seeds = 2;
  params.sizes = {16, 36};
  params.algos = {Algo::kMot, Algo::kStun};

  const std::size_t saved = par::default_workers();
  par::set_default_workers(1);
  const std::string serial = run_query_sweep(params).to_string();
  par::set_default_workers(4);
  const std::string parallel = run_query_sweep(params).to_string();
  par::set_default_workers(saved);
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelSweep, ConcurrentModeBitIdentical) {
  SweepParams params;
  params.num_objects = 6;
  params.moves_per_object = 10;
  params.num_seeds = 2;
  params.sizes = {16};
  params.concurrent = true;
  params.algos = {Algo::kMot, Algo::kZdat};

  const std::size_t saved = par::default_workers();
  par::set_default_workers(1);
  const std::string serial = run_maintenance_sweep(params).to_string();
  par::set_default_workers(4);
  const std::string parallel = run_maintenance_sweep(params).to_string();
  par::set_default_workers(saved);
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelSweep, LoadFigureBitIdentical) {
  LoadFigureParams params;
  params.num_nodes = 64;
  params.num_objects = 10;
  params.moves_per_object = 5;
  params.num_seeds = 2;

  const std::size_t saved = par::default_workers();
  par::set_default_workers(1);
  const std::string serial = run_load_figure(params).to_string();
  par::set_default_workers(4);
  const std::string parallel = run_load_figure(params).to_string();
  par::set_default_workers(saved);
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace mot
