// Per-node finite-capacity service model.
//
// Without this layer every delivered message executes its handler the
// instant it arrives — nodes have infinite processing capacity and the
// paper's load-balancing machinery is never stressed. A ServiceModel
// gives each node a bounded inbox (overload::BoundedNodeQueue) drained at
// a fixed service rate on the simulator clock: delivered messages queue
// and age, admission control sheds the excess before it is acknowledged
// (so the sender's retransmission layer retries it — backpressure, not
// loss), and queueing delay becomes measurable.
//
// Conservation ledger: arrivals == admitted + shed_total, and admitted ==
// serviced + (still queued). At quiescence the queues must be empty, so
// arrivals == serviced + shed_total.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "overload/node_queue.hpp"
#include "overload/overload.hpp"
#include "sim/event_sim.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mot {

namespace obs {
class MetricsRegistry;
}

struct ServiceStats {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t serviced = 0;
  std::uint64_t shed_capacity = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_early = 0;
  std::uint64_t shed_by_class[overload::kNumClasses] = {0, 0, 0, 0};
  std::size_t max_depth = 0;

  std::uint64_t shed_total() const {
    return shed_capacity + shed_deadline + shed_early;
  }
  bool operator==(const ServiceStats&) const = default;
};

// Per-node load accumulators feeding the adaptive control plane. The
// epoch fields reset at every controller step; the *_total ledgers never
// reset, so the chaos oracle can reconcile their sums against the global
// ServiceStats at any quiescence point.
struct NodeLoad {
  // Epoch accumulators (cleared by reset_load_epoch()).
  double delay_sum = 0.0;
  std::uint64_t delay_count = 0;
  std::uint64_t sheds = 0;
  // Cumulative ledgers (never cleared).
  std::uint64_t admitted_total = 0;
  std::uint64_t serviced_total = 0;
  std::uint64_t sheds_total = 0;
  // Exponentially weighted queue depth sampled at every admission.
  double depth_ewma = 0.0;
};

class ServiceModel {
 public:
  ServiceModel(Simulator& sim, std::size_t num_nodes,
               const overload::OverloadConfig& config);

  // Offers a class-`cls` message to `node`'s inbox. On admission the
  // handler runs later, from a service-completion event; the return value
  // tells the caller (the link layer) whether to acknowledge the frame.
  overload::Admit offer(std::size_t node, overload::Priority cls,
                        std::function<void()> run);

  // Depth including the in-service slot, i.e. what admission sees.
  std::size_t depth(std::size_t node) const;
  bool overloaded(std::size_t node) const {
    return depth(node) >= queues_[node].high_watermark();
  }
  // Remaining admission headroom for the lowest class — what an ack
  // advertises to the sender as credit.
  std::size_t headroom(std::size_t node) const;

  std::size_t total_queued() const;
  bool conserved() const;
  // Per-node ledgers must sum to the global ServiceStats at all times.
  bool node_ledgers_conserved() const;

  const overload::OverloadConfig& config() const { return config_; }
  // The node's current operating point. Identical to config() until an
  // adaptive controller moves it.
  const overload::OverloadConfig& node_config(std::size_t node) const {
    return node_configs_[node];
  }
  std::size_t num_nodes() const { return queues_.size(); }
  const NodeLoad& load(std::size_t node) const { return loads_[node]; }
  void reset_load_epoch();

  // Adaptive control-plane hooks: retune one node's RED onset or
  // query-class admit fraction. The node's derived thresholds are
  // recomputed here, so admission, headroom() and overloaded() see them
  // at once; nothing already queued is touched, so calling this at a
  // quiescence point cannot unbalance the ledger.
  void set_red_fraction(std::size_t node, double fraction);
  void set_query_admit_fraction(std::size_t node, double fraction);

  const ServiceStats& stats() const { return stats_; }
  const SampleSet& queue_delays() const { return queue_delays_; }

  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  void pump(std::size_t node);
  void complete(std::size_t node);

  Simulator& sim_;
  overload::OverloadConfig config_;  // the static base operating point
  // One config per node so the controller can move a single hotspot.
  // Sized once in the constructor and never resized: the queues hold
  // pointers into this vector and cache the thresholds derived from it.
  std::vector<overload::OverloadConfig> node_configs_;
  std::vector<overload::BoundedNodeQueue> queues_;
  // The handler in service at each node, run by its completion event;
  // empty while the node is idle.
  std::vector<std::function<void()>> in_service_;
  std::vector<NodeLoad> loads_;
  Rng red_;                 // shared deterministic RED stream
  ServiceStats stats_;
  SampleSet queue_delays_;  // time from arrival to service start
};

}  // namespace mot
