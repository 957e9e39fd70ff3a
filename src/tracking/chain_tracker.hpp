// The sequential (one-by-one execution) tracking engine: Algorithm 1 of
// the paper, generalized over a PathProvider so the same verified engine
// serves MOT (doubling or general hierarchy, with or without load
// balancing) and the spanning-tree baselines.
//
// Invariant maintained for every published object o (checked by
// validate()): the overlay nodes holding a detection-list entry for o
// form exactly one chain of child pointers from the root stop down to
// o's current proxy. move() splices the chain at the meet node (the
// lowest stop of the new proxy's sequence already on the chain) and
// deletes the detached old fragment; query() climbs until it sees the
// chain (directly via DL or via a special-parent SDL record) and then
// descends it.
#pragma once

#include <string>
#include <vector>

#include "durable/journal.hpp"
#include "durable/snapshot.hpp"
#include "obs/trace.hpp"
#include "tracking/detection_store.hpp"
#include "tracking/path_provider.hpp"
#include "tracking/tracker.hpp"

namespace mot {

struct ChainOptions {
  // Maintain special detection lists (MOT's SDL, Definition 3) so queries
  // escape detection-path fragmentation. Requires the provider to define
  // special parents.
  bool use_special_lists = false;
  // Query descent jumps straight from the discovering node to the proxy
  // (the Z-DAT + shortcuts behaviour) instead of walking the chain.
  bool shortcut_descent = false;
  // Charge the provider's delegate routing cost on every entry access
  // (MOT-LB's de Bruijn hops). Off models free local storage.
  bool charge_delegate_routing = true;
  // Charge the hops that keep special-parent SDL records up to date. The
  // paper's analysis excludes them (constant factor); measurements are
  // more honest with them included.
  bool charge_special_updates = true;
  // Section 3's "improved algorithm": delete messages leave a forwarding
  // pointer (the object's new location) at every node they clear, so an
  // overlapping query that finds its descent torn redirects immediately
  // instead of re-climbing — and never needs to reach the incorrect proxy.
  // Only meaningful for the concurrent engine; the sequential engine has
  // no overlap.
  bool forwarding_pointers = false;
};

class ChainTracker final : public Tracker {
 public:
  // `provider` must outlive the tracker.
  ChainTracker(std::string name, const PathProvider& provider,
               const ChainOptions& options);

  std::string name() const override { return name_; }
  void publish(ObjectId object, NodeId proxy) override;
  MoveResult move(ObjectId object, NodeId new_proxy) override;
  QueryResult query(NodeId from, ObjectId object) override;
  NodeId proxy_of(ObjectId object) const override;
  std::vector<std::size_t> load_per_node() const override {
    return store_.load_per_node(*provider_);
  }
  const CostMeter& meter() const override { return meter_; }

  bool is_published(ObjectId object) const {
    const tracking::ObjectChain* chain = store_.find(object);
    return chain != nullptr && chain->proxy != kInvalidNode;
  }

  // Gracefully retires a sensor (Section 7: nodes announce departures).
  // Every chain entry hosted at any of the node's overlay roles is
  // bypassed — its chain parent is spliced straight to its child — and
  // its special-list records are dropped (the pointers would dangle).
  // Preconditions: no object is proxied at the node, and the node does
  // not host the root stop (re-rooting is a hierarchy rebuild, which the
  // paper defers past a threshold). The node's roles are repaired from
  // the highest level down, objects by id. Returns the number of entries
  // evacuated; repair messages are charged to the meter.
  std::size_t evacuate_node(NodeId node) { return repair_node(node, true); }

  // Crash-stop variant of evacuate_node: the sensor dies without sending
  // anything, so survivors do all the repair. Chain parents splice around
  // the dead roles (paying the repair hop); dangling SDL cross-references
  // are cleared locally by their owners once the failure is announced, at
  // no message cost from the dead node. Same preconditions as
  // evacuate_node. Returns the number of chain entries repaired.
  std::size_t crash_node(NodeId node) { return repair_node(node, false); }

  // Structural self-check of the per-object chain invariant and the
  // DL <-> SDL cross-references. Aborts (contract failure) on violation.
  void validate(ObjectId object) const;
  void validate_all() const;

  // Introspection for tests.
  std::size_t dl_entries(ObjectId object) const {
    return store_.find(object) ? store_.find(object)->dl_entries() : 0;
  }
  std::size_t sdl_entries(ObjectId object) const {
    return store_.find(object) ? store_.find(object)->sdl_entries() : 0;
  }
  bool node_has_dl(OverlayNode owner, ObjectId object) const {
    return store_.find(object) && store_.find(object)->find(owner);
  }

  // Opt-in durability: every effective DL/SDL/chain mutation is handed
  // to `sink` as a semantic journal record. Off by default; a null sink
  // switches it off again. The journaling path does no work besides the
  // sink call, so disabled runs are bit-identical to pre-durability
  // builds. `sink` must outlive the tracker (or be detached first).
  void use_durability(durable::Sink* sink) { durable_ = sink; }

  // Canonical image of the DL/SDL/proxy state (durable/snapshot.hpp).
  // physical == proxies for this engine: the sequential tracker has no
  // in-flight moves, so the proxy map *is* the physical position map.
  durable::StateImage export_durable_image() const;

  // Replaces all tracking state with `image` (restore path). Meter and
  // query stats are not part of durable state and are left untouched.
  void restore_durable_image(const durable::StateImage& image) {
    store_.restore(image);
  }

  // How queries discovered their objects (ablation A2 reporting).
  struct QueryStats {
    std::uint64_t dl_hits = 0;   // found via a detection list
    std::uint64_t sdl_hits = 0;  // found via a special detection list
  };
  const QueryStats& query_stats() const { return query_stats_; }

 private:
  // Charges one message hop and, when a trace sink is installed, emits
  // an event of kind `kind` attributed to `object` (level optional).
  void charge_hop(NodeId from, NodeId to, ObjectId object, obs::Ev kind,
                  std::int32_t level = -1);
  // Charges the delegate route for touching `owner`'s entry store.
  void charge_access(OverlayNode owner, ObjectId object);

  void add_entry(tracking::ObjectChain& chain, OverlayNode owner,
                 ObjectId object, OverlayNode child,
                 std::optional<OverlayNode> sp);

  // Removes the chain fragment hanging below `meet` whose top is
  // `first_victim`, charging message hops from meet downwards.
  void delete_fragment(tracking::ObjectChain& chain, OverlayNode meet,
                       OverlayNode first_victim, ObjectId object);

  // Follows chain pointers from `start` (which must hold a DL entry for
  // `object`) down to the proxy. Charges per-hop unless shortcutting.
  NodeId descend(const tracking::ObjectChain& chain, OverlayNode start,
                 ObjectId object);

  // evacuate_node / crash_node; `graceful` charges the departing node's
  // own messages.
  std::size_t repair_node(NodeId node, bool graceful);

  // Forwards one semantic op to the durability sink, if attached.
  void journal(const durable::JournalRecord& record) {
    if (durable_ != nullptr) durable_->record(record);
  }

  std::string name_;
  const PathProvider* provider_;
  ChainOptions options_;
  CostMeter meter_;
  durable::Sink* durable_ = nullptr;

  tracking::DetectionStore store_;
  QueryStats query_stats_;
};

}  // namespace mot
