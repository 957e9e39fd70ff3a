#include "tracking/chain_tracker.hpp"

#include "util/check.hpp"

namespace mot {

ChainTracker::ChainTracker(std::string name, const PathProvider& provider,
                           const ChainOptions& options)
    : name_(std::move(name)), provider_(&provider), options_(options) {}

void ChainTracker::charge_hop(NodeId from, NodeId to, ObjectId object,
                              obs::Ev kind, std::int32_t level) {
  if (from == to) return;
  const Weight d = provider_->oracle().distance(from, to);
  meter_.charge(d);
  if (obs::tracing()) {
    obs::emit({.type = kind,
               .object = object,
               .from = from,
               .to = to,
               .level = level,
               .dist = d,
               .charged = d});
  }
}

void ChainTracker::charge_access(OverlayNode owner, ObjectId object) {
  if (!options_.charge_delegate_routing) return;
  const auto access = provider_->delegate(owner, object);
  if (access.route_cost > 0.0) {
    meter_.charge(access.route_cost);
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kAccessRoute,
                 .object = object,
                 .from = owner.node,
                 .to = access.storage,
                 .level = owner.level,
                 .dist = access.route_cost,
                 .charged = access.route_cost});
    }
  }
}

void ChainTracker::add_entry(tracking::ObjectChain& chain, OverlayNode owner,
                             ObjectId object, OverlayNode child,
                             std::optional<OverlayNode> sp) {
  if (!options_.use_special_lists) sp.reset();
  chain.insert(owner, {child, sp});
  journal(durable::JournalRecord::make_insert(owner, object, child, sp));
  if (sp) {
    if (options_.charge_special_updates) {
      charge_hop(owner.node, sp->node, object, obs::Ev::kSpHop, sp->level);
      charge_access(*sp, object);
    }
    chain.add_sdl(*sp, owner);
    journal(durable::JournalRecord::make_sdl_add(*sp, object, owner));
  }
}

void ChainTracker::publish(ObjectId object, NodeId proxy) {
  MOT_EXPECTS(proxy < provider_->num_nodes());
  MOT_EXPECTS(!is_published(object));
  MOT_SPAN("publish", object);
  const auto sequence = provider_->upward_sequence(proxy);
  MOT_CHECK(!sequence.empty() && sequence.front().node.node == proxy);

  // The bottom entry is the proxy sentinel, its own child (a free hop).
  tracking::ObjectChain& chain = store_.chain(object);
  OverlayNode previous = sequence.front().node;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const OverlayNode stop = sequence[i].node;
    charge_hop(previous.node, stop.node, object, obs::Ev::kClimbHop,
               stop.level);
    charge_access(stop, object);
    add_entry(chain, stop, object, previous,
              provider_->special_parent(proxy, i));
    previous = stop;
  }
  chain.proxy = proxy;
  journal(durable::JournalRecord::make_publish(object, proxy));
}

MoveResult ChainTracker::move(ObjectId object, NodeId new_proxy) {
  MOT_EXPECTS(new_proxy < provider_->num_nodes());
  MOT_EXPECTS(is_published(object));
  tracking::ObjectChain& chain = *store_.find(object);
  if (new_proxy == chain.proxy) return {};
  MOT_SPAN("move", object);

  const CostWindow window(meter_);
  const auto sequence = provider_->upward_sequence(new_proxy);

  // Climb to the chain, installing the new fragment (bottom: sentinel).
  MoveResult result;
  OverlayNode previous = sequence.front().node;
  for (std::size_t i = 0;; ++i) {
    // The root always holds every published object, so the walk must meet.
    MOT_CHECK(i < sequence.size());
    const OverlayNode stop = sequence[i].node;
    charge_hop(previous.node, stop.node, object, obs::Ev::kClimbHop,
               stop.level);
    charge_access(stop, object);
    tracking::DlEntry* entry = chain.find(stop);
    if (entry == nullptr) {
      add_entry(chain, stop, object, previous,
                provider_->special_parent(new_proxy, i));
      previous = stop;
      continue;
    }
    // Meet node w: splice the chain onto the new fragment and erase the
    // detached old fragment below. At the bottom stop (the new proxy is
    // an ancestor of the old one, as in trees) the entry becomes the
    // sentinel; at the old proxy's sentinel there is nothing to tear.
    const OverlayNode first_victim = entry->child;
    entry->child = previous;
    journal(durable::JournalRecord::make_splice(stop, object, previous));
    result.peak_level = stop.level;
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kSplice,
                 .object = object,
                 .from = stop.node,
                 .level = stop.level});
    }
    if (first_victim != stop) {
      delete_fragment(chain, stop, first_victim, object);
    }
    break;
  }
  chain.proxy = new_proxy;
  // kPublish rather than kProxy: in this engine the proxy map is also
  // the physical position map, and kPublish updates both on replay.
  journal(durable::JournalRecord::make_publish(object, new_proxy));
  result.cost = window.cost();
  return result;
}

void ChainTracker::delete_fragment(tracking::ObjectChain& chain,
                                   OverlayNode meet, OverlayNode first_victim,
                                   ObjectId object) {
  NodeId previous_physical = meet.node;
  OverlayNode current = first_victim;
  while (true) {
    charge_hop(previous_physical, current.node, object, obs::Ev::kDeleteHop,
               current.level);
    charge_access(current, object);
    const tracking::DlEntry entry = chain.erase(current);
    journal(durable::JournalRecord::make_delete(current, object));
    if (entry.sp) {
      if (options_.charge_special_updates) {
        charge_hop(current.node, entry.sp->node, object, obs::Ev::kSpHop,
                   entry.sp->level);
        charge_access(*entry.sp, object);
      }
      chain.remove_sdl(*entry.sp, current);
      journal(durable::JournalRecord::make_sdl_remove(*entry.sp, object,
                                                      current));
    }
    if (entry.child == current) break;  // reached the old proxy sentinel
    previous_physical = current.node;
    current = entry.child;
  }
}

NodeId ChainTracker::descend(const tracking::ObjectChain& chain,
                             OverlayNode start, ObjectId object) {
  // A shortcut pointer gives the discovering node the proxy's address:
  // the result message then travels the direct distance only.
  OverlayNode current = start;
  while (true) {
    const tracking::DlEntry* entry = chain.find(current);
    MOT_CHECK(entry != nullptr);
    if (entry->child == current) break;  // proxy sentinel
    if (!options_.shortcut_descent) {
      charge_hop(current.node, entry->child.node, object,
                 obs::Ev::kDescendHop, entry->child.level);
      charge_access(entry->child, object);
    }
    current = entry->child;
  }
  if (options_.shortcut_descent) {
    charge_hop(start.node, current.node, object, obs::Ev::kDescendHop,
               start.level);
  }
  return current.node;
}

QueryResult ChainTracker::query(NodeId from, ObjectId object) {
  MOT_EXPECTS(from < provider_->num_nodes());
  MOT_EXPECTS(is_published(object));
  MOT_SPAN("query", object);
  const CostWindow window(meter_);
  const auto sequence = provider_->upward_sequence(from);
  const tracking::ObjectChain& chain = *store_.find(object);

  QueryResult result;
  NodeId previous_physical = from;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const OverlayNode stop = sequence[i].node;
    if (i > 0) {
      charge_hop(previous_physical, stop.node, object, obs::Ev::kClimbHop,
                 stop.level);
      previous_physical = stop.node;
    }
    charge_access(stop, object);
    // The chain itself, or else the lowest-level special child: the chain
    // node closest to the object.
    std::optional<OverlayNode> found;
    if (chain.find(stop) != nullptr) {
      found = stop;
      ++query_stats_.dl_hits;
    } else if (options_.use_special_lists &&
               (found = chain.lowest_sdl_child(stop))) {
      ++query_stats_.sdl_hits;
      charge_hop(stop.node, found->node, object, obs::Ev::kSdlJump,
                 found->level);
      charge_access(*found, object);
    }
    if (found) {
      result.found = true;
      result.found_level = stop.level;
      result.proxy = descend(chain, *found, object);
      break;
    }
  }
  // The root stop ends every sequence and holds every object.
  MOT_CHECK(result.found);
  MOT_CHECK(result.proxy == chain.proxy);
  result.cost = window.cost();
  return result;
}

NodeId ChainTracker::proxy_of(ObjectId object) const {
  MOT_EXPECTS(is_published(object));
  return store_.find(object)->proxy;
}

std::size_t ChainTracker::repair_node(NodeId node, bool graceful) {
  MOT_EXPECTS(node < provider_->num_nodes());
  MOT_EXPECTS(provider_->root_stop().node != node);
  const std::vector<ObjectId> objects = store_.objects();
  for (const ObjectId object : objects) {
    // Objects must sit on surviving sensors: move them off first.
    MOT_EXPECTS(store_.find(object)->proxy != node);
  }

  // Top down: every splice is then sent by the surviving parent above
  // the node's highest role on the chain, never by the node itself.
  constexpr obs::Ev kRepair = obs::Ev::kRepairHop;
  std::size_t repaired = 0;
  for (const OverlayNode role : store_.roles_of(node)) {
    for (const ObjectId object : objects) {
      // What the node itself would send; after a crash the receivers
      // clear their state locally instead, unpaid.
      const auto own_message = [&](OverlayNode to) {
        if (graceful) charge_hop(role.node, to.node, object, kRepair, to.level);
      };
      tracking::ObjectChain& chain = *store_.find(object);
      if (const tracking::DlEntry* held = chain.find(role)) {
        const tracking::DlEntry entry = *held;
        // 1. Bypass the entry: its chain parent (the unique entry pointing
        //    at this role) splices straight to our child, and the parent's
        //    repair message travels to that child.
        const std::optional<OverlayNode> parent = chain.parent_of(role);
        MOT_CHECK(parent.has_value());  // a non-root chain entry has one
        chain.find(*parent)->child = entry.child;
        journal(durable::JournalRecord::make_splice(*parent, object,
                                                    entry.child));
        charge_hop(parent->node, entry.child.node, object, kRepair,
                   entry.child.level);
        // 2. Drop our SDL registration at our special parent.
        if (entry.sp) {
          own_message(*entry.sp);
          chain.remove_sdl(*entry.sp, role);
          journal(durable::JournalRecord::make_sdl_remove(*entry.sp, object,
                                                          role));
        }
        ++repaired;
      }
      // 3. Special-list records hosted here would dangle: clear the back
      //    pointers of the children that registered with us.
      for (const OverlayNode child : chain.sdl_children(role)) {
        tracking::DlEntry* registered = chain.find(child);
        MOT_CHECK(registered != nullptr && registered->sp == role);
        registered->sp.reset();
        journal(durable::JournalRecord::make_sp_clear(child, object));
        own_message(child);
      }
      chain.wipe(role);
    }
    journal(durable::JournalRecord::make_wipe_role(role));
  }
  return repaired;
}

durable::StateImage ChainTracker::export_durable_image() const {
  durable::StateImage image = store_.export_image();
  image.physical = image.proxies;  // sequential engine: no in-flight moves
  return image;
}

void ChainTracker::validate(ObjectId object) const {
  MOT_EXPECTS(is_published(object));
  const tracking::ObjectChain& chain = *store_.find(object);
  MOT_CHECK(chain.valid(provider_->root_stop(), chain.proxy));
}

void ChainTracker::validate_all() const {
  for (const ObjectId object : store_.objects()) {
    if (is_published(object)) validate(object);
  }
}

}  // namespace mot
