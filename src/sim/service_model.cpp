#include "sim/service_model.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics_registry.hpp"
#include "util/check.hpp"

namespace mot {

ServiceModel::ServiceModel(Simulator& sim, std::size_t num_nodes,
                           const overload::OverloadConfig& config)
    : sim_(sim), config_(config), node_configs_(num_nodes, config),
      in_service_(num_nodes), loads_(num_nodes), red_(config.seed) {
  MOT_EXPECTS(config_.service_rate > 0.0);
  MOT_EXPECTS(config_.queue_capacity > 0);
  queues_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    queues_.emplace_back(&node_configs_[i]);
  }
}

overload::Admit ServiceModel::offer(std::size_t node, overload::Priority cls,
                                    std::function<void()> run) {
  MOT_EXPECTS(node < queues_.size());
  MOT_EXPECTS(run != nullptr);  // an empty slot means the node is idle
  ++stats_.arrivals;
  const overload::Admit outcome =
      queues_[node].offer(sim_.now(), cls, std::move(run), red_);
  NodeLoad& load = loads_[node];
  switch (outcome) {
    case overload::Admit::kAdmit:
      ++stats_.admitted;
      ++load.admitted_total;
      stats_.max_depth = std::max(stats_.max_depth, queues_[node].depth());
      if (!in_service_[node]) pump(node);
      break;
    case overload::Admit::kShedCapacity:
      ++stats_.shed_capacity;
      ++stats_.shed_by_class[static_cast<std::size_t>(cls)];
      ++load.sheds;
      ++load.sheds_total;
      break;
    case overload::Admit::kShedDeadline:
      ++stats_.shed_deadline;
      ++stats_.shed_by_class[static_cast<std::size_t>(cls)];
      ++load.sheds;
      ++load.sheds_total;
      break;
    case overload::Admit::kShedEarly:
      ++stats_.shed_early;
      ++stats_.shed_by_class[static_cast<std::size_t>(cls)];
      ++load.sheds;
      ++load.sheds_total;
      break;
  }
  load.depth_ewma += 0.125 * (static_cast<double>(depth(node)) -
                              load.depth_ewma);
  return outcome;
}

void ServiceModel::pump(std::size_t node) {
  MOT_CHECK(!in_service_[node]);
  if (queues_[node].empty()) return;
  // The next item is picked at service *start* so the measured delay is
  // exactly its wait in the queue; the handler runs inside the
  // service-completion event, one service interval later.
  overload::QueueItem item = queues_[node].take();
  const double waited = sim_.now() - item.arrival;
  queue_delays_.add(waited);
  loads_[node].delay_sum += waited;
  ++loads_[node].delay_count;
  in_service_[node] = std::move(item.run);
  const double interval = 1.0 / config_.service_rate;
  sim_.schedule(interval, [this, node] { complete(node); });
}

void ServiceModel::complete(std::size_t node) {
  ++stats_.serviced;
  ++loads_[node].serviced_total;
  std::function<void()> run = std::move(in_service_[node]);
  in_service_[node] = nullptr;
  run();
  // The handler may have enqueued locally or crashed the node's work
  // away; either way, keep draining whatever remains.
  if (!in_service_[node]) pump(node);
}

std::size_t ServiceModel::depth(std::size_t node) const {
  MOT_EXPECTS(node < queues_.size());
  // The in-service message still occupies capacity until it completes.
  return queues_[node].depth() + (in_service_[node] ? 1 : 0);
}

std::size_t ServiceModel::headroom(std::size_t node) const {
  const std::size_t limit =
      queues_[node].admit_limit(overload::Priority::kQuery);
  const std::size_t d = depth(node);
  return d >= limit ? 0 : limit - d;
}

bool ServiceModel::node_ledgers_conserved() const {
  std::uint64_t admitted = 0;
  std::uint64_t serviced = 0;
  std::uint64_t shed = 0;
  for (const NodeLoad& load : loads_) {
    admitted += load.admitted_total;
    serviced += load.serviced_total;
    shed += load.sheds_total;
  }
  return admitted == stats_.admitted && serviced == stats_.serviced &&
         shed == stats_.shed_total();
}

void ServiceModel::reset_load_epoch() {
  for (NodeLoad& load : loads_) {
    load.delay_sum = 0.0;
    load.delay_count = 0;
    load.sheds = 0;
  }
}

void ServiceModel::set_red_fraction(std::size_t node, double fraction) {
  MOT_EXPECTS(node < node_configs_.size());
  MOT_EXPECTS(fraction > 0.0);
  node_configs_[node].red_fraction = fraction;
  queues_[node].refresh_limits();
}

void ServiceModel::set_query_admit_fraction(std::size_t node,
                                            double fraction) {
  MOT_EXPECTS(node < node_configs_.size());
  MOT_EXPECTS(fraction > 0.0 && fraction <= 1.0);
  // The class ladder must stay monotone: the query fraction may not
  // exceed the maintenance fraction of the same node.
  MOT_EXPECTS(fraction <=
              node_configs_[node].admit_fraction[static_cast<std::size_t>(
                  overload::Priority::kMaintenance)]);
  node_configs_[node].admit_fraction[static_cast<std::size_t>(
      overload::Priority::kQuery)] = fraction;
  queues_[node].refresh_limits();
}

std::size_t ServiceModel::total_queued() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    total += depth(i);
  }
  return total;
}

bool ServiceModel::conserved() const {
  if (stats_.arrivals != stats_.admitted + stats_.shed_total()) return false;
  return stats_.admitted == stats_.serviced + total_queued();
}

void ServiceModel::export_metrics(obs::MetricsRegistry& registry) const {
  auto set_counter = [&registry](const std::string& name,
                                 const obs::Labels& labels,
                                 std::uint64_t value) {
    auto& counter = registry.counter(name, labels);
    counter.reset();
    counter.increment(value);
  };
  set_counter("mot_service_arrivals_total", {}, stats_.arrivals);
  set_counter("mot_service_admitted_total", {}, stats_.admitted);
  set_counter("mot_service_serviced_total", {}, stats_.serviced);
  set_counter("mot_service_shed_total", {{"reason", "capacity"}},
              stats_.shed_capacity);
  set_counter("mot_service_shed_total", {{"reason", "deadline"}},
              stats_.shed_deadline);
  set_counter("mot_service_shed_total", {{"reason", "early"}},
              stats_.shed_early);
  for (std::size_t cls = 0; cls < overload::kNumClasses; ++cls) {
    set_counter(
        "mot_service_shed_by_class_total",
        {{"class", overload::priority_name(
                       static_cast<overload::Priority>(cls))}},
        stats_.shed_by_class[cls]);
  }
  registry.gauge("mot_service_queued").set(
      static_cast<double>(total_queued()));
  registry.gauge("mot_service_max_depth").set(
      static_cast<double>(stats_.max_depth));
  auto& delays = registry.histogram(
      "mot_service_queue_delay", {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
  for (double sample : queue_delays_.samples()) delays.observe(sample);
}

}  // namespace mot
