// Concurrent execution engine (Sections 4.1.2 and 4.2.2 of the paper).
//
// Operations run as message walkers over the discrete-event simulator:
// every overlay hop takes time equal to its distance, and operations for
// the same object genuinely overlap (the paper's experiments allow up to
// 10 in-flight operations per object).
//
// Correctness under overlap. The paper orders crossing operations with
// level periods Phi(i); an equivalent, simulation-friendly discipline is
// used here:
//   * a move's climb probes the structure live (charging real message
//     costs, possibly over stale state, which is where the concurrent
//     cost increase comes from), but
//   * its structure mutation — install the new fragment, splice at the
//     meet node, spawn the delete — commits only when every earlier move
//     of the same object has fully completed. If the candidate meet entry
//     vanished by then (it was on a fragment an earlier delete tore), the
//     climb resumes from that node.
// This keeps the root -> proxy chain invariant intact under any
// interleaving, which validate_quiescent() checks.
//
// Queries follow Section 3: a query that descends onto a stale proxy
// waits for the delete message, which carries the object's new location,
// and is forwarded there; a query whose descent hits a torn entry resumes
// climbing from where it stands.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/event_sim.hpp"
#include "tracking/chain_tracker.hpp"
#include "tracking/detection_store.hpp"
#include "tracking/path_provider.hpp"

namespace mot {

struct ConcurrentStats {
  std::uint64_t moves_completed = 0;
  std::uint64_t queries_completed = 0;
  std::uint64_t query_restarts = 0;   // descent hit a torn entry
  std::uint64_t query_waits = 0;      // waited at a stale proxy
  std::uint64_t query_forwards = 0;   // forwarded by a delete notification
  std::uint64_t query_pointer_redirects = 0;  // Section 3 improved path
  std::uint64_t meet_rechecks_failed = 0;  // candidate meet vanished
};

class ConcurrentEngine {
 public:
  using MoveCallback = std::function<void(const MoveResult&)>;
  using QueryCallback = std::function<void(const QueryResult&)>;

  // `provider` and `sim` must outlive the engine.
  ConcurrentEngine(const PathProvider& provider, Simulator& sim,
                   const ChainOptions& options);

  ConcurrentEngine(const ConcurrentEngine&) = delete;
  ConcurrentEngine& operator=(const ConcurrentEngine&) = delete;

  // Instantaneous initialization (the paper's one-time publish phase).
  void publish(ObjectId object, NodeId proxy);

  // Issues operations at sim.now(). Callbacks fire when the operation
  // completes (for a move: its delete has fully executed).
  void start_move(ObjectId object, NodeId new_proxy, MoveCallback done = {});
  void start_query(NodeId from, ObjectId object, QueryCallback done = {});

  // Where the object physically is right now (moves take effect at issue
  // time; the data structure catches up asynchronously).
  NodeId physical_position(ObjectId object) const;

  const CostMeter& meter() const { return meter_; }
  const ConcurrentStats& stats() const { return stats_; }
  std::vector<std::size_t> load_per_node() const {
    return store_.load_per_node(*provider_);
  }
  std::size_t inflight_operations() const { return inflight_; }

  // After the simulator drains: every object's chain must run root ->
  // physical position, with consistent DL/SDL cross references.
  void validate_quiescent() const;

  // Diagnostic: human-readable description of operations that have not
  // completed (parked queries, pending move queues). Empty when idle.
  std::string debug_stuck_report() const;

 private:
  using Entry = tracking::DlEntry;
  struct MoveCtx;
  struct QueryCtx;

  Weight distance(NodeId a, NodeId b) const;
  // Charges `amount` to the meter (and `op_cost`, when given) and, with
  // a trace sink installed, emits an event of kind `kind` attributed to
  // `object` at the current simulation time.
  void charge(Weight amount, Weight* op_cost, ObjectId object, obs::Ev kind,
              NodeId from = kInvalidNode, NodeId to = kInvalidNode);
  void charge_access(OverlayNode owner, ObjectId object, Weight* op_cost);

  const Entry* find_entry(OverlayNode owner, ObjectId object) const;
  void install_entry(OverlayNode owner, ObjectId object, OverlayNode child,
                     std::optional<OverlayNode> sp, Weight* op_cost);

  // -- move machinery --
  void move_step(const std::shared_ptr<MoveCtx>& ctx);
  // Charges and schedules the climb hop up to sequence[index].
  void move_climb(const std::shared_ptr<MoveCtx>& ctx, std::size_t index);
  void move_candidate_meet(const std::shared_ptr<MoveCtx>& ctx);
  void move_commit(const std::shared_ptr<MoveCtx>& ctx);
  void move_finish(const std::shared_ptr<MoveCtx>& ctx);
  bool holds_token(const MoveCtx& ctx) const;
  void wake_token_waiter(ObjectId object);
  void delete_step(const std::shared_ptr<MoveCtx>& ctx, OverlayNode current);

  // -- query machinery --
  void query_step(const std::shared_ptr<QueryCtx>& ctx);
  void query_descend(const std::shared_ptr<QueryCtx>& ctx, OverlayNode at);
  void query_at_bottom(const std::shared_ptr<QueryCtx>& ctx,
                       OverlayNode bottom);
  void query_finish(const std::shared_ptr<QueryCtx>& ctx, NodeId proxy);
  void query_restart_from(const std::shared_ptr<QueryCtx>& ctx, NodeId node);
  // Chases the forwarding pointer a delete left at `at` (Section 3's
  // improved algorithm); false when there is none.
  bool follow_forward(const std::shared_ptr<QueryCtx>& ctx, OverlayNode at);
  void notify_waiters(NodeId stale_proxy, ObjectId object, NodeId new_proxy);

  const PathProvider* provider_;
  Simulator* sim_;
  ChainOptions options_;
  CostMeter meter_;
  ConcurrentStats stats_;

  // DL/SDL records, plus the forwarding pointers deletes leave (Section
  // 3's improved queries) when options.forwarding_pointers is on.
  tracking::DetectionStore store_;
  std::unordered_map<ObjectId, NodeId> physical_;
  std::size_t inflight_ = 0;

  // Per-object issue-ordered queue of incomplete moves; the front holds
  // the mutation token.
  std::unordered_map<ObjectId, std::deque<std::shared_ptr<MoveCtx>>>
      move_queues_;

  // Queries waiting at a stale proxy for the delete that names the new
  // location, keyed by (stale proxy, object).
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<QueryCtx>>>
      waiters_;
};

}  // namespace mot
