#include "harness.hpp"

namespace perfbench {

namespace {

void engine_layers(const EngineProbe& probe,
                   const mot::proto::ProtocolStats& before,
                   const mot::proto::ProtocolStats& after, double ops,
                   std::map<std::string, double>& out) {
  const auto per_op = [ops](double value) { return value / ops; };
  const auto delta = [](std::uint64_t from, std::uint64_t to) {
    return static_cast<double>(to - from);
  };
  out["graph.distance_calls_per_op"] = per_op(probe.oracle.calls);
  out["graph.distance_ns_per_op"] = per_op(self_ns(probe.oracle));
  out["core.provider_calls_per_op"] = per_op(probe.provider.calls);
  out["core.provider_ns_per_op"] = per_op(self_ns(probe.provider));
  out["sim.events_per_op"] = per_op(probe.events);
  out["sim.run_ns_per_op"] = per_op(total_ns(probe.run));
  out["sim.transmits_per_op"] = per_op(probe.channel.calls);
  out["sim.transmit_ns_per_op"] = per_op(self_ns(probe.channel));
  out["proto.inject_ns_per_op"] = per_op(self_ns(probe.inject));
  // Simulator::run() minus the oracle, provider and channel brackets
  // that fell inside it: the engine's handlers and event loop.
  out["proto.self_ns_per_op"] = per_op(self_ns(probe.run));
  out["proto.msgs_per_op"] =
      per_op(delta(before.messages_sent, after.messages_sent));
  out["proto.allocs_per_op"] =
      per_op(probe.inject.allocs.count + probe.run.allocs.count);
  out["proto.alloc_bytes_per_op"] =
      per_op(probe.inject.allocs.bytes + probe.run.allocs.bytes);
  out["proto.coalesced_per_op"] =
      per_op(delta(before.messages_coalesced, after.messages_coalesced));
  out["proto.flushes_per_op"] =
      per_op(delta(before.batch_flushes, after.batch_flushes));
  out["proto.data_frames_per_op"] =
      per_op(delta(before.data_sent, after.data_sent));
  out["proto.acks_per_op"] = per_op(delta(before.acks_sent, after.acks_sent));
  out["proto.retransmits_per_op"] =
      per_op(delta(before.retransmissions, after.retransmissions));
}

}  // namespace

void finish_engine_rep(const mot::proto::DistributedMot& engine,
                       const Tally& tally, std::uint64_t issued,
                       double move_optimal, double query_optimal,
                       const EngineProbe* probe,
                       const mot::proto::ProtocolStats& before,
                       RepResult& out) {
  out.attempted = issued;
  out.ops = tally.moved + tally.answered;
  out.failed = (issued > out.ops ? issued - out.ops : 0) + tally.wrong;
  engine.validate_quiescent();  // aborts on a broken chain
  out.audit = engine.invariant_violations();
  record_loads(engine.load_per_node(), out);
  out.maint_ratio = tally.move_cost / move_optimal;
  out.query_ratio = tally.query_cost / query_optimal;
  out.digest = tally.digest;
  if (probe != nullptr) {
    const double ops = static_cast<double>(std::max<std::uint64_t>(out.ops, 1));
    engine_layers(*probe, before, engine.stats(), ops, out.layers);
  }
}

}  // namespace perfbench
