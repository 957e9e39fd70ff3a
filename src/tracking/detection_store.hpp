// Object-major detection-list store of ChainTracker and ConcurrentEngine
// (DESIGN.md, "Detection store"). Each operation walks one object's
// chain, so each object keeps its records in one small open-addressed
// table keyed by role, plus its SDL records in registration order. Slot
// order depends on history, so everything observable is sorted: images
// and role enumeration by (node, level), objects by id.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "durable/snapshot.hpp"
#include "tracking/path_provider.hpp"
#include "util/flat_map.hpp"

namespace mot::tracking {

// A detection-list entry: the next chain node toward the proxy, and the
// special parent that holds this entry's SDL record.
struct DlEntry {
  OverlayNode child;
  std::optional<OverlayNode> sp;
};

// One object's records. Pointers from find() stay valid until the next
// record is added to or removed from the object.
class ObjectChain {
 public:
  NodeId proxy = kInvalidNode;  // ChainTracker's proxy; unused elsewhere

  const DlEntry* find(OverlayNode role) const;
  DlEntry* find(OverlayNode role);
  // Adds the entry at `role`, which must hold none; it supersedes the
  // role's forwarding pointer.
  void insert(OverlayNode role, const DlEntry& entry);
  // Removes and returns the entry at `role`, which must hold one.
  DlEntry erase(OverlayNode role);
  // The role whose entry points at `role`: its chain parent.
  std::optional<OverlayNode> parent_of(OverlayNode role) const;
  // The proxy sentinel below `role`, following child pointers; none when
  // an entry is missing or the walk loops.
  std::optional<OverlayNode> walk_down(OverlayNode role) const;
  // One chain runs from `root` to a sentinel at `proxy` through every
  // entry, and each SDL record matches its child's special parent.
  bool valid(OverlayNode root, NodeId proxy) const;

  void add_sdl(OverlayNode sp, OverlayNode child);
  void remove_sdl(OverlayNode sp, OverlayNode child);  // must exist
  // The children registered at `sp`, in registration order.
  std::vector<OverlayNode> sdl_children(OverlayNode sp) const;
  // The first lowest-level child registered at `sp`, if any.
  std::optional<OverlayNode> lowest_sdl_child(OverlayNode sp) const;

  void set_forward(OverlayNode role, NodeId to);
  NodeId forward(OverlayNode role) const;  // kInvalidNode when none
  // Drops the entry at `role`, the SDL records it hosts and its pointer.
  void wipe(OverlayNode role);

  std::size_t dl_entries() const { return dl_entries_; }
  std::size_t sdl_entries() const { return sdl_.size(); }

 private:
  friend class DetectionStore;
  struct Slot {
    std::uint64_t key = ~std::uint64_t{0};  // packed role; free: kInvalidNode
    DlEntry entry;
    NodeId forward = kInvalidNode;
    std::uint32_t sdl = 0;  // SDL records hosted at this role
    bool has_entry = false;
  };
  struct SdlRecord {
    OverlayNode sp;
    OverlayNode child;
    bool operator==(const SdlRecord&) const = default;
  };

  const Slot* lookup(OverlayNode role) const;
  Slot* lookup(OverlayNode role);
  Slot& claim(OverlayNode role);  // lookup, adding the slot when absent
  void release(Slot& slot);       // frees the slot once it holds nothing

  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::size_t used_ = 0;
  std::size_t dl_entries_ = 0;
  std::vector<SdlRecord> sdl_;  // registration order
};

class DetectionStore {
 public:
  // The object's chain, created empty when absent. References stay valid
  // until the next object is added.
  ObjectChain& chain(ObjectId object);
  const ObjectChain* find(ObjectId object) const;
  ObjectChain* find(ObjectId object);

  std::vector<ObjectId> objects() const;  // ascending
  // The roles of `node` that hold any record, from the top level down.
  std::vector<OverlayNode> roles_of(NodeId node) const;
  // DL entries plus SDL records per physical node, each counted where
  // the provider's delegate stores it.
  std::vector<std::size_t> load_per_node(const PathProvider& provider) const;

  // Canonical image (durable/snapshot.hpp) of the records and proxies;
  // `physical` is left to the engine. restore() replaces everything.
  durable::StateImage export_image() const;
  void restore(const durable::StateImage& image);

 private:
  FlatMap<ObjectId, std::uint32_t> index_;  // object -> chains_ position
  std::vector<ObjectChain> chains_;
};

}  // namespace mot::tracking
