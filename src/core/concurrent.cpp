#include "core/concurrent.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/log.hpp"

namespace mot {

namespace {

std::uint64_t waiter_key(NodeId node, ObjectId object) {
  return (static_cast<std::uint64_t>(node) << 32) | object;
}

// Generous bound on climb restarts per query: each restart is caused by a
// concurrently torn fragment, and per-object concurrency is bounded.
constexpr int kMaxQueryRestarts = 1000;

}  // namespace

struct ConcurrentEngine::MoveCtx {
  ObjectId object = 0;
  NodeId to = kInvalidNode;
  std::span<const PathStop> sequence;
  std::size_t index = 0;       // stop currently being probed
  std::size_t meet_index = 0;  // candidate meet stop
  bool waiting_token = false;
  Weight cost = 0.0;
  int peak_level = 0;
  MoveCallback done;
};

struct ConcurrentEngine::QueryCtx {
  ObjectId object = 0;
  std::span<const PathStop> sequence;
  std::size_t index = 0;
  Weight cost = 0.0;
  int found_level = 0;
  int restarts = 0;
  QueryCallback done;
};

ConcurrentEngine::ConcurrentEngine(const PathProvider& provider,
                                   Simulator& sim,
                                   const ChainOptions& options)
    : provider_(&provider), sim_(&sim), options_(options) {}

Weight ConcurrentEngine::distance(NodeId a, NodeId b) const {
  return a == b ? 0.0 : provider_->oracle().distance(a, b);
}

void ConcurrentEngine::charge(Weight amount, Weight* op_cost, ObjectId object,
                              obs::Ev kind, NodeId from, NodeId to) {
  if (amount <= 0.0) return;
  meter_.charge(amount);
  if (op_cost != nullptr) *op_cost += amount;
  if (obs::tracing()) {
    obs::emit({.type = kind,
               .t = sim_->now(),
               .object = object,
               .from = from,
               .to = to,
               .dist = amount,
               .charged = amount});
  }
}

void ConcurrentEngine::charge_access(OverlayNode owner, ObjectId object,
                                     Weight* op_cost) {
  if (!options_.charge_delegate_routing) return;
  const auto access = provider_->delegate(owner, object);
  charge(access.route_cost, op_cost, object, obs::Ev::kAccessRoute, owner.node,
         access.storage);
}

const ConcurrentEngine::Entry* ConcurrentEngine::find_entry(
    OverlayNode owner, ObjectId object) const {
  const tracking::ObjectChain* chain = store_.find(object);
  return chain == nullptr ? nullptr : chain->find(owner);
}

void ConcurrentEngine::install_entry(OverlayNode owner, ObjectId object,
                                     OverlayNode child,
                                     std::optional<OverlayNode> sp,
                                     Weight* op_cost) {
  if (!options_.use_special_lists) sp.reset();
  tracking::ObjectChain& chain = store_.chain(object);
  chain.insert(owner, {child, sp});
  if (sp) {
    if (options_.charge_special_updates) {
      charge(distance(owner.node, sp->node), op_cost, object, obs::Ev::kSpHop,
             owner.node, sp->node);
      charge_access(*sp, object, op_cost);
    }
    chain.add_sdl(*sp, owner);
  }
}

void ConcurrentEngine::publish(ObjectId object, NodeId proxy) {
  MOT_EXPECTS(physical_.count(object) == 0);
  const auto sequence = provider_->upward_sequence(proxy);
  // The bottom entry is the proxy sentinel: its child points to itself.
  OverlayNode previous = sequence.front().node;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const OverlayNode stop = sequence[i].node;
    charge(distance(previous.node, stop.node), nullptr, object,
           obs::Ev::kClimbHop, previous.node, stop.node);
    charge_access(stop, object, nullptr);
    install_entry(stop, object, previous,
                  provider_->special_parent(proxy, i), nullptr);
    previous = stop;
  }
  physical_[object] = proxy;
}

NodeId ConcurrentEngine::physical_position(ObjectId object) const {
  const auto it = physical_.find(object);
  MOT_EXPECTS(it != physical_.end());
  return it->second;
}

// ---------------------------------------------------------------------------
// Moves
// ---------------------------------------------------------------------------

bool ConcurrentEngine::holds_token(const MoveCtx& ctx) const {
  const auto it = move_queues_.find(ctx.object);
  MOT_CHECK(it != move_queues_.end() && !it->second.empty());
  return it->second.front().get() == &ctx;
}

void ConcurrentEngine::start_move(ObjectId object, NodeId new_proxy,
                                  MoveCallback done) {
  MOT_EXPECTS(physical_.count(object) != 0);
  MOT_EXPECTS(new_proxy < provider_->num_nodes());
  if (physical_[object] == new_proxy) {
    if (done) {
      sim_->schedule(0.0, [done = std::move(done)] { done(MoveResult{}); });
    }
    return;
  }
  physical_[object] = new_proxy;

  auto ctx = std::make_shared<MoveCtx>();
  ctx->object = object;
  ctx->to = new_proxy;
  ctx->sequence = provider_->upward_sequence(new_proxy);
  ctx->done = std::move(done);
  move_queues_[object].push_back(ctx);
  ++inflight_;
  // The insert message originates at the new proxy: probe stop 0 now.
  sim_->schedule(0.0, [this, ctx] { move_step(ctx); });
}

void ConcurrentEngine::move_step(const std::shared_ptr<MoveCtx>& ctx) {
  // Arrival at sequence[index]: look for the chain.
  const OverlayNode stop = ctx->sequence[ctx->index].node;
  charge_access(stop, ctx->object, &ctx->cost);
  if (find_entry(stop, ctx->object) != nullptr) {
    ctx->meet_index = ctx->index;
    move_candidate_meet(ctx);
    return;
  }
  move_climb(ctx, ctx->index + 1);
}

void ConcurrentEngine::move_climb(const std::shared_ptr<MoveCtx>& ctx,
                                  std::size_t index) {
  // The root stop always holds every published object.
  MOT_CHECK(index < ctx->sequence.size());
  const OverlayNode from = ctx->sequence[index - 1].node;
  const OverlayNode next = ctx->sequence[index].node;
  const Weight hop = distance(from.node, next.node);
  charge(hop, &ctx->cost, ctx->object, obs::Ev::kClimbHop, from.node,
         next.node);
  ctx->index = index;
  sim_->schedule(hop, [this, ctx] { move_step(ctx); });
}

void ConcurrentEngine::move_candidate_meet(
    const std::shared_ptr<MoveCtx>& ctx) {
  if (!holds_token(*ctx)) {
    // An earlier move of this object is still in flight; its delete might
    // tear the entry we just found. Park until we hold the token.
    ctx->waiting_token = true;
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kTokenWait,
                 .t = sim_->now(),
                 .object = ctx->object,
                 .from = ctx->sequence[ctx->meet_index].node.node,
                 .level = ctx->sequence[ctx->meet_index].node.level});
    }
    return;
  }
  // Token held: state for this object is now stable (earlier moves are
  // fully done, later ones cannot mutate). Re-verify the meet.
  if (find_entry(ctx->sequence[ctx->meet_index].node, ctx->object) ==
      nullptr) {
    ++stats_.meet_rechecks_failed;
    move_climb(ctx, ctx->meet_index + 1);  // resume from the vanished meet
    return;
  }
  move_commit(ctx);
}

void ConcurrentEngine::move_commit(const std::shared_ptr<MoveCtx>& ctx) {
  const ObjectId object = ctx->object;
  // An earlier move may have committed entries onto lower stops of our
  // sequence after we probed them; under the token the state is stable,
  // so splice at the lowest chained stop (re-scan is local, no messages).
  for (std::size_t i = 0; i < ctx->meet_index; ++i) {
    if (find_entry(ctx->sequence[i].node, object) != nullptr) {
      ctx->meet_index = i;
      break;
    }
  }
  const OverlayNode meet = ctx->sequence[ctx->meet_index].node;
  ctx->peak_level = meet.level;
  if (obs::tracing()) {
    obs::emit({.type = obs::Ev::kSplice,
               .t = sim_->now(),
               .object = object,
               .from = meet.node,
               .level = meet.level});
  }

  const Entry* meet_entry = find_entry(meet, object);
  MOT_CHECK(meet_entry != nullptr);
  const OverlayNode first_victim = meet_entry->child;
  const bool meet_was_sentinel = first_victim == meet;
  if (meet_was_sentinel && meet.node == ctx->to) {
    // The chain already ends at our destination (the object bounced back
    // before the structure ever saw it leave): nothing to splice or tear.
    // Queries parked here while the object was elsewhere can now succeed.
    notify_waiters(meet.node, object, ctx->to);
    move_finish(ctx);
    return;
  }

  // Install the new fragment: entries for every stop probed below the
  // meet (message distances were charged while climbing; only the
  // special-parent bookkeeping is charged here). A meet at index 0 means
  // the new proxy is an ancestor of the old one: the meet entry itself
  // becomes the proxy sentinel and the fragment is empty.
  OverlayNode previous = ctx->sequence[0].node;
  for (std::size_t i = 0; i < ctx->meet_index; ++i) {
    const OverlayNode stop = ctx->sequence[i].node;
    install_entry(stop, object, previous,
                  provider_->special_parent(ctx->to, i), &ctx->cost);
    previous = stop;
  }
  // Found again: installing may have moved the object's entries.
  store_.find(object)->find(meet)->child = previous;

  if (meet_was_sentinel) {
    // The meet was the old proxy itself (the new proxy sits below it in
    // the structure): there is no detached fragment to tear, but queries
    // parked at the old proxy must be redirected.
    notify_waiters(meet.node, object, ctx->to);
    move_finish(ctx);
    return;
  }

  // Tear the detached fragment; the move completes when the delete does.
  const Weight hop = distance(meet.node, first_victim.node);
  charge(hop, &ctx->cost, object, obs::Ev::kDeleteHop, meet.node,
         first_victim.node);
  sim_->schedule(hop,
                 [this, ctx, first_victim] { delete_step(ctx, first_victim); });
}

void ConcurrentEngine::delete_step(const std::shared_ptr<MoveCtx>& ctx,
                                   OverlayNode current) {
  const ObjectId object = ctx->object;
  charge_access(current, object, &ctx->cost);
  // Under the token discipline the fragment is untouchable by anyone
  // else, so the entry must still be there.
  tracking::ObjectChain& chain = *store_.find(object);
  const Entry entry = chain.erase(current);
  // Section 3's improvement: the delete leaves the object's new location
  // behind, so a torn-descent query redirects on the spot.
  if (options_.forwarding_pointers) chain.set_forward(current, ctx->to);
  if (entry.sp) {
    if (options_.charge_special_updates) {
      charge(distance(current.node, entry.sp->node), &ctx->cost, object,
             obs::Ev::kSpHop, current.node, entry.sp->node);
      charge_access(*entry.sp, object, &ctx->cost);
    }
    chain.remove_sdl(*entry.sp, current);
  }
  if (entry.child == current) {
    // Old proxy sentinel reached: wake queries parked here with the new
    // location (the delete message carries it — Section 3).
    notify_waiters(current.node, object, ctx->to);
    move_finish(ctx);
    return;
  }
  const OverlayNode next = entry.child;
  const Weight hop = distance(current.node, next.node);
  charge(hop, &ctx->cost, object, obs::Ev::kDeleteHop, current.node,
         next.node);
  sim_->schedule(hop, [this, ctx, next] { delete_step(ctx, next); });
}

void ConcurrentEngine::move_finish(const std::shared_ptr<MoveCtx>& ctx) {
  auto queue_it = move_queues_.find(ctx->object);
  MOT_CHECK(queue_it != move_queues_.end() && !queue_it->second.empty());
  MOT_CHECK(queue_it->second.front() == ctx);
  queue_it->second.pop_front();
  const ObjectId object = ctx->object;
  if (queue_it->second.empty()) move_queues_.erase(queue_it);

  --inflight_;
  ++stats_.moves_completed;
  if (ctx->done) {
    MoveResult result;
    result.cost = ctx->cost;
    result.peak_level = ctx->peak_level;
    ctx->done(result);
  }
  wake_token_waiter(object);
}

void ConcurrentEngine::wake_token_waiter(ObjectId object) {
  const auto it = move_queues_.find(object);
  if (it == move_queues_.end() || it->second.empty()) return;
  const std::shared_ptr<MoveCtx> next = it->second.front();
  if (next->waiting_token) {
    next->waiting_token = false;
    sim_->schedule(0.0, [this, next] { move_candidate_meet(next); });
  }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

void ConcurrentEngine::start_query(NodeId from, ObjectId object,
                                   QueryCallback done) {
  MOT_EXPECTS(physical_.count(object) != 0);
  MOT_EXPECTS(from < provider_->num_nodes());
  auto ctx = std::make_shared<QueryCtx>();
  ctx->object = object;
  ctx->sequence = provider_->upward_sequence(from);
  ctx->done = std::move(done);
  ++inflight_;
  sim_->schedule(0.0, [this, ctx] { query_step(ctx); });
}

void ConcurrentEngine::query_step(const std::shared_ptr<QueryCtx>& ctx) {
  const OverlayNode stop = ctx->sequence[ctx->index].node;
  charge_access(stop, ctx->object, &ctx->cost);

  if (find_entry(stop, ctx->object) != nullptr) {
    ctx->found_level = std::max(ctx->found_level, stop.level);
    query_descend(ctx, stop);
    return;
  }
  if (options_.use_special_lists) {
    if (const auto best = store_.find(ctx->object)->lowest_sdl_child(stop)) {
      ctx->found_level = std::max(ctx->found_level, stop.level);
      const OverlayNode child = *best;
      const Weight hop = distance(stop.node, child.node);
      charge(hop, &ctx->cost, ctx->object, obs::Ev::kSdlJump, stop.node,
             child.node);
      sim_->schedule(hop, [this, ctx, child] { query_descend(ctx, child); });
      return;
    }
  }
  // Climb on; the root stop always holds the object.
  MOT_CHECK(ctx->index + 1 < ctx->sequence.size());
  const OverlayNode next = ctx->sequence[ctx->index + 1].node;
  const Weight hop = distance(stop.node, next.node);
  charge(hop, &ctx->cost, ctx->object, obs::Ev::kClimbHop, stop.node,
         next.node);
  ++ctx->index;
  sim_->schedule(hop, [this, ctx] { query_step(ctx); });
}

void ConcurrentEngine::query_descend(const std::shared_ptr<QueryCtx>& ctx,
                                     OverlayNode at) {
  charge_access(at, ctx->object, &ctx->cost);
  const Entry* entry = find_entry(at, ctx->object);
  if (entry == nullptr) {
    // The delete that tore this entry may have left the new location
    // behind: redirect without ever visiting the stale proxy.
    if (follow_forward(ctx, at)) {
      ctx->restarts += 2;  // chases count double against the budget
      MOT_CHECK(ctx->restarts < kMaxQueryRestarts);
      return;
    }
    // The fragment we were descending was torn underneath us.
    ++stats_.query_restarts;
    query_restart_from(ctx, at.node);
    return;
  }
  if (entry->child == at) {  // proxy sentinel
    query_at_bottom(ctx, at);
    return;
  }
  if (options_.shortcut_descent) {
    // Shortcut pointers give the discovering node the proxy's address: we
    // read the chain locally and route directly.
    const auto sentinel = store_.find(ctx->object)->walk_down(at);
    MOT_CHECK(sentinel.has_value());
    const OverlayNode target = *sentinel;
    const Weight hop = distance(at.node, target.node);
    charge(hop, &ctx->cost, ctx->object, obs::Ev::kDescendHop, at.node,
           target.node);
    sim_->schedule(hop, [this, ctx, target] { query_at_bottom(ctx, target); });
    return;
  }
  const OverlayNode next = entry->child;
  const Weight hop = distance(at.node, next.node);
  charge(hop, &ctx->cost, ctx->object, obs::Ev::kDescendHop, at.node,
         next.node);
  sim_->schedule(hop, [this, ctx, next] { query_descend(ctx, next); });
}

void ConcurrentEngine::query_at_bottom(const std::shared_ptr<QueryCtx>& ctx,
                                       OverlayNode bottom) {
  if (physical_position(ctx->object) == bottom.node) {
    query_finish(ctx, bottom.node);
    return;
  }
  const Entry* entry = find_entry(bottom, ctx->object);
  if (entry != nullptr && entry->child == bottom) {
    // Stale proxy whose delete is still on its way: wait for it — it
    // carries the new location (Section 3).
    ++stats_.query_waits;
    waiters_[waiter_key(bottom.node, ctx->object)].push_back(ctx);
    return;
  }
  if (entry != nullptr) {
    // The stop holds a live non-sentinel entry: it is back on the chain
    // (possible when the stop doubles as an ancestor, e.g. a tree sink).
    // Follow the chain instead of waiting for a delete that never comes.
    query_descend(ctx, bottom);
    return;
  }
  // The delete that cleared this proxy may have left the new location
  // behind: chase it directly.
  if (follow_forward(ctx, bottom)) return;
  // The delete already passed: climb again from here.
  ++stats_.query_restarts;
  query_restart_from(ctx, bottom.node);
}

bool ConcurrentEngine::follow_forward(const std::shared_ptr<QueryCtx>& ctx,
                                      OverlayNode at) {
  if (!options_.forwarding_pointers) return false;
  const NodeId target = store_.find(ctx->object)->forward(at);
  if (target == kInvalidNode) return false;
  ++stats_.query_pointer_redirects;
  const OverlayNode bottom = provider_->upward_sequence(target).front().node;
  const Weight hop = distance(at.node, target);
  charge(hop, &ctx->cost, ctx->object, obs::Ev::kQueryForward, at.node,
         target);
  sim_->schedule(hop, [this, ctx, bottom] { query_at_bottom(ctx, bottom); });
  return true;
}

void ConcurrentEngine::query_restart_from(const std::shared_ptr<QueryCtx>& ctx,
                                          NodeId node) {
  ++ctx->restarts;
  MOT_CHECK(ctx->restarts < kMaxQueryRestarts);
  if (obs::tracing()) {
    obs::emit({.type = obs::Ev::kQueryRestart,
               .t = sim_->now(),
               .object = ctx->object,
               .from = node,
               .aux = static_cast<std::uint64_t>(ctx->restarts)});
  }
  ctx->sequence = provider_->upward_sequence(node);
  ctx->index = 0;
  sim_->schedule(0.0, [this, ctx] { query_step(ctx); });
}

void ConcurrentEngine::notify_waiters(NodeId stale_proxy, ObjectId object,
                                      NodeId new_proxy) {
  const auto it = waiters_.find(waiter_key(stale_proxy, object));
  if (it == waiters_.end()) return;
  std::vector<std::shared_ptr<QueryCtx>> parked = std::move(it->second);
  waiters_.erase(it);
  const OverlayNode target_bottom =
      provider_->upward_sequence(new_proxy).front().node;
  for (const auto& ctx : parked) {
    ++stats_.query_forwards;
    const Weight hop = distance(stale_proxy, new_proxy);
    charge(hop, &ctx->cost, ctx->object, obs::Ev::kQueryForward, stale_proxy,
           new_proxy);
    sim_->schedule(hop, [this, ctx, target_bottom] {
      query_at_bottom(ctx, target_bottom);
    });
  }
}

void ConcurrentEngine::query_finish(const std::shared_ptr<QueryCtx>& ctx,
                                    NodeId proxy) {
  --inflight_;
  ++stats_.queries_completed;
  if (ctx->done) {
    QueryResult result;
    result.found = true;
    result.proxy = proxy;
    result.cost = ctx->cost;
    result.found_level = ctx->found_level;
    ctx->done(result);
  }
}

// ---------------------------------------------------------------------------

std::string ConcurrentEngine::debug_stuck_report() const {
  std::string report;
  for (const auto& [object, queue] : move_queues_) {
    if (queue.empty()) continue;
    report += "object " + std::to_string(object) + ": " +
              std::to_string(queue.size()) + " moves pending";
    const auto& front = queue.front();
    report += " front{to=" + std::to_string(front->to) +
              " index=" + std::to_string(front->index) +
              " waiting_token=" + std::to_string(front->waiting_token) +
              "}\n";
  }
  for (const auto& [key, parked] : waiters_) {
    if (parked.empty()) continue;
    const auto node = static_cast<NodeId>(key >> 32);
    const auto object = static_cast<ObjectId>(key);
    report += "waiters at node " + std::to_string(node) + " for object " +
              std::to_string(object) + ": " + std::to_string(parked.size()) +
              " (physical=" + std::to_string(physical_position(object));
    const Entry* entry = find_entry({0, node}, object);
    report += ", level0_entry=" + std::string(entry ? "yes" : "no");
    const auto end = store_.find(object)->walk_down(provider_->root_stop());
    report += end ? ", chain_end=" + std::to_string(end->node) + "@L" +
                        std::to_string(end->level)
                  : std::string(", chain=BROKEN");
    report += ")\n";
  }
  return report;
}

void ConcurrentEngine::validate_quiescent() const {
  MOT_CHECK(inflight_ == 0);
  for (const auto& [object, proxy] : physical_) {
    MOT_CHECK(store_.find(object)->valid(provider_->root_stop(), proxy));
  }
}

}  // namespace mot
