// Golden pins for what the centralized engines make observable: the
// figure tables, and for each chain-engine algorithm its canonical
// durable image, meter and per-node load after a seeded run and after
// node repair. The expected values were computed before the detection
// lists moved into tracking::DetectionStore; any storage layout must
// reproduce them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "expt/experiment.hpp"
#include "expt/fig_runners.hpp"
#include "graph/generators.hpp"

namespace mot {
namespace {

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t table_digest(const Table& table) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : table.to_string()) {
    hash = fnv1a(hash, static_cast<unsigned char>(c));
  }
  return hash;
}

std::uint64_t load_digest(const std::vector<std::size_t>& load) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::size_t entries : load) hash = fnv1a(hash, entries);
  return hash;
}

SweepParams small_sweep(bool concurrent) {
  SweepParams params;
  params.sizes = {16, 64};
  params.num_seeds = 2;
  params.moves_per_object = 20;
  params.concurrent = concurrent;
  return params;
}

TEST(StoreGolden, FigureTablesUnchanged) {
  EXPECT_EQ(table_digest(run_maintenance_sweep(small_sweep(false))),
            0x27a7e189507814f6ULL);  // Fig. 4
  EXPECT_EQ(table_digest(run_query_sweep(small_sweep(false))),
            0x1015b9a2ff48b6a4ULL);  // Fig. 6
  EXPECT_EQ(table_digest(run_maintenance_sweep(small_sweep(true))),
            0x5392c91a849eb29eULL);  // Fig. 12
  const std::map<std::size_t, std::uint64_t> fig9 = {
      {16, 0x4e4242c0e3cd315fULL}, {64, 0xb909e640f25e16ffULL}};
  for (const auto& [nodes, expected] : fig9) {
    LoadFigureParams params;
    params.num_nodes = nodes;
    params.num_seeds = 2;
    params.moves_per_object = 10;
    params.baseline = Algo::kStun;
    EXPECT_EQ(table_digest(run_load_figure(params)), expected)
        << "Fig. 9 at " << nodes << " nodes";
  }
}

struct Pin {
  std::uint64_t image = 0;
  double meter = 0.0;
  std::uint64_t load = 0;
};

Pin pin_of(const ChainTracker& tracker) {
  return {tracker.export_durable_image().digest(),
          tracker.meter().total_distance(),
          load_digest(tracker.load_per_node())};
}

std::string describe(const Pin& pin) {
  char text[96];
  std::snprintf(text, sizeof text, "{0x%016llxULL, %.17g, 0x%016llxULL}",
                static_cast<unsigned long long>(pin.image), pin.meter,
                static_cast<unsigned long long>(pin.load));
  return text;
}

// The sensor holding the most chain entries (lowest id on ties) among
// those that are neither the root sensor nor any object's proxy and keep
// all their records at one overlay role. With two roles of one sensor on
// a chain, the repair cost depends on the order the roles are visited,
// which Crash.SurvivingParentSendsEverySplice pins separately.
NodeId busiest_victim(const ChainTracker& tracker, const PathProvider& provider,
                      std::size_t objects) {
  const durable::StateImage image = tracker.export_durable_image();
  std::vector<std::size_t> entries(provider.num_nodes(), 0);
  std::vector<std::size_t> roles(provider.num_nodes(), 0);
  for (const durable::RoleImage& role : image.roles) {
    entries[role.role.node] += role.dl.size();
    ++roles[role.role.node];
  }
  entries[provider.root_stop().node] = 0;
  for (ObjectId o = 0; o < objects; ++o) entries[tracker.proxy_of(o)] = 0;
  for (NodeId v = 0; v < provider.num_nodes(); ++v) {
    if (roles[v] > 1) entries[v] = 0;
  }
  return static_cast<NodeId>(
      std::max_element(entries.begin(), entries.end()) - entries.begin());
}

struct Golden {
  Algo algo;
  Pin after_ops;
  Pin after_evacuate;
  Pin after_crash;
};

// Publishes, moves and queries a seeded trace, then evacuates one
// victim and crashes another, pinning the state after each stage.
void check_run(const Network& network, const Golden& golden,
               bool exact_meter) {
  constexpr std::size_t kObjects = 12;
  Rng rng(2024);
  TraceParams params;
  params.num_objects = kObjects;
  params.moves_per_object = 15;
  const MovementTrace trace = generate_trace(network.graph(), params, rng);
  const auto queries = generate_queries(network.num_nodes(), kObjects,
                                        trace.moves.size(), rng);
  const AlgoInstance algo = make_algo(golden.algo, network, EdgeRates{}, 9);
  ChainTracker& tracker = *algo.tracker;
  publish_all(tracker, trace);
  for (std::size_t i = 0; i < trace.moves.size(); ++i) {
    tracker.move(trace.moves[i].object, trace.moves[i].to);
    const QueryOp& query = queries[i];
    EXPECT_EQ(tracker.query(query.from, query.object).proxy,
              tracker.proxy_of(query.object));
  }

  const auto expect_pin = [&](const Pin& want, const char* stage) {
    const Pin got = pin_of(tracker);
    SCOPED_TRACE(std::string(algo.name) + " " + stage + ": got " +
                 describe(got));
    EXPECT_EQ(got.image, want.image);
    EXPECT_EQ(got.load, want.load);
    if (exact_meter) {
      EXPECT_EQ(got.meter, want.meter);
    } else {
      EXPECT_NEAR(got.meter, want.meter, 1e-9 * std::abs(want.meter));
    }
  };
  expect_pin(golden.after_ops, "after ops");

  EXPECT_GE(tracker.evacuate_node(
                busiest_victim(tracker, *algo.provider, kObjects)),
            1u);
  expect_pin(golden.after_evacuate, "after evacuate");
  EXPECT_GE(
      tracker.crash_node(busiest_victim(tracker, *algo.provider, kObjects)),
      1u);
  expect_pin(golden.after_crash, "after crash");
  tracker.validate_all();
  for (ObjectId o = 0; o < kObjects; ++o) {
    EXPECT_EQ(tracker.query(0, o).proxy, tracker.proxy_of(o));
  }
}

TEST(StoreGolden, GridEnginesUnchanged) {
  const Network network = build_network(make_grid(12, 12), 5);
  const Golden goldens[] = {
      {Algo::kMot,
       {0xa1b4a8313b90de15ULL, 5363, 0x914a39858ddadc81ULL},
       {0xdcb6119791c0c7adULL, 5399, 0x92d3c05bb11f7b48ULL},
       {0xbce28b422a01f2a8ULL, 5411, 0x1b400b6e37fdf248ULL}},
      {Algo::kMotLoadBalanced,
       {0xa1b4a8313b90de15ULL, 36836, 0xe7b1b886ec695605ULL},
       {0xdcb6119791c0c7adULL, 36872, 0x9bf31fb8e8b7dc62ULL},
       {0xbce28b422a01f2a8ULL, 36884, 0x106d18ce9edfb326ULL}},
      {Algo::kStun,
       {0xfa238b9c89bfe797ULL, 10283, 0xc5648d9e97096092ULL},
       {0x057da5a9c3d2379fULL, 10415, 0xc18299186f29fd9eULL},
       {0x71d035d9e11025abULL, 10475, 0x0d9993b78a2cda92ULL}},
      {Algo::kZdat,
       {0x717a956b3334ce16ULL, 2663, 0x62cac5466c1d2a49ULL},
       {0x78b9c9c02a431e6eULL, 2675, 0x066b5294c5a8854fULL},
       {0x34c39bca457b1e95ULL, 2690, 0x4a00aff98c86508aULL}},
  };
  for (const Golden& golden : goldens) check_run(network, golden, true);
}

TEST(StoreGolden, WeightedEnginesUnchanged) {
  Rng rng(77);
  const Network network =
      build_network(make_random_geometric(80, 10.0, 2.6, rng, 64, 0.5), 5);
  const Golden goldens[] = {
      {Algo::kMot,
       {0x498e6668b40ae921ULL, 9112.5018214578868, 0xe0f7d9303a0aa2e9ULL},
       {0x5d7dea8dba8ab5f0ULL, 9151.5064621032107, 0x69179b4d4cc5dc92ULL},
       {0x0efbf3ae64df7edbULL, 9160.9220072262779, 0x1be0c0d400e5bc08ULL}},
      {Algo::kMotLoadBalanced,
       {0x498e6668b40ae921ULL, 50900.79969976173, 0x233f7776b98e9d63ULL},
       {0x5d7dea8dba8ab5f0ULL, 50939.804340407056, 0x2b029c0d6826b884ULL},
       {0x0efbf3ae64df7edbULL, 50949.219885530125, 0x1b1da9d2bc1a5ca0ULL}},
      {Algo::kStun,
       {0x049b8b8eb20bff63ULL, 21947.267969295441, 0xa0667dd337592125ULL},
       {0x0c74e251f341aa17ULL, 21950.761233052446, 0x238ab3705961f6a6ULL},
       {0x8f6647ef871e861eULL, 21955.601817711238, 0xb446c46c1c43df27ULL}},
      {Algo::kZdat,
       {0x68feb490948131b0ULL, 4275.3528107698294, 0xff900289a4b0d5cbULL},
       {0x7a5bafff2610b99fULL, 4287.5819994640169, 0xfabcdb4386b8e589ULL},
       {0x122c0befc00b7333ULL, 4296.5368597087518, 0xe3f1670ab6e116c8ULL}},
  };
  // Repair hops sum in the store's (node, level) role order, so the
  // weighted meter may differ from the pin in its last bits.
  for (const Golden& golden : goldens) check_run(network, golden, false);
}

}  // namespace
}  // namespace mot
