#include "tracking/detection_store.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/check.hpp"

namespace mot::tracking {

namespace {

constexpr std::uint64_t kFree = ~std::uint64_t{0};

std::uint64_t pack(OverlayNode role) {
  return std::uint64_t{static_cast<std::uint32_t>(role.level)} << 32 |
         role.node;
}

OverlayNode unpack(std::uint64_t key) {
  return {static_cast<int>(key >> 32), static_cast<NodeId>(key)};
}

// Fibonacci hashing: the product's middle bits mix level and node.
std::size_t home(std::uint64_t key, std::size_t mask) {
  return static_cast<std::size_t>(key * 0x9e3779b97f4a7c15ULL >> 32) & mask;
}

}  // namespace

const ObjectChain::Slot* ObjectChain::lookup(OverlayNode role) const {
  const std::uint64_t key = pack(role);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key, mask); !slots_.empty(); i = (i + 1) & mask) {
    if (slots_[i].key == key) return &slots_[i];
    if (slots_[i].key == kFree) break;
  }
  return nullptr;
}

ObjectChain::Slot* ObjectChain::lookup(OverlayNode role) {
  return const_cast<Slot*>(std::as_const(*this).lookup(role));
}

ObjectChain::Slot& ObjectChain::claim(OverlayNode role) {
  if (Slot* slot = lookup(role)) return *slot;
  if ((used_ + 1) * 2 > slots_.size()) {  // grow, placing every slot again
    const std::size_t size = std::max<std::size_t>(16, slots_.size() * 2);
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(size));
    used_ = 0;
    for (const Slot& slot : old) {
      if (slot.key != kFree) claim(unpack(slot.key)) = slot;
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(pack(role), mask);
  while (slots_[i].key != kFree) i = (i + 1) & mask;
  ++used_;
  slots_[i].key = pack(role);
  return slots_[i];
}

void ObjectChain::release(Slot& slot) {
  if (slot.has_entry || slot.sdl != 0 || slot.forward != kInvalidNode) return;
  // No tombstones: the rest of the probe run is placed again.
  const std::size_t mask = slots_.size() - 1;
  auto i = static_cast<std::size_t>(&slot - slots_.data());
  slot = Slot{};
  --used_;
  for (i = (i + 1) & mask; slots_[i].key != kFree; i = (i + 1) & mask) {
    const Slot moved = std::exchange(slots_[i], Slot{});
    --used_;
    claim(unpack(moved.key)) = moved;
  }
}

const DlEntry* ObjectChain::find(OverlayNode role) const {
  const Slot* slot = lookup(role);
  return slot != nullptr && slot->has_entry ? &slot->entry : nullptr;
}

DlEntry* ObjectChain::find(OverlayNode role) {
  return const_cast<DlEntry*>(std::as_const(*this).find(role));
}

void ObjectChain::insert(OverlayNode role, const DlEntry& entry) {
  Slot& slot = claim(role);
  MOT_CHECK(!slot.has_entry);
  slot = {slot.key, entry, kInvalidNode, slot.sdl, true};
  ++dl_entries_;
}

DlEntry ObjectChain::erase(OverlayNode role) {
  Slot* slot = lookup(role);
  MOT_CHECK(slot != nullptr && slot->has_entry);
  const DlEntry entry = slot->entry;
  slot->has_entry = false;
  --dl_entries_;
  release(*slot);
  return entry;
}

std::optional<OverlayNode> ObjectChain::parent_of(OverlayNode role) const {
  for (const Slot& slot : slots_) {
    if (slot.has_entry && slot.entry.child == role && slot.key != pack(role)) {
      return unpack(slot.key);
    }
  }
  return std::nullopt;
}

std::optional<OverlayNode> ObjectChain::walk_down(OverlayNode role) const {
  for (std::size_t walked = 0; walked < dl_entries_; ++walked) {
    const DlEntry* entry = find(role);
    if (entry == nullptr) break;
    if (entry->child == role) return role;
    role = entry->child;
  }
  return std::nullopt;
}

bool ObjectChain::valid(OverlayNode root, NodeId proxy) const {
  std::size_t links = 0;
  OverlayNode role = root;
  for (std::size_t length = 1; length <= dl_entries_; ++length) {
    const DlEntry* entry = find(role);
    if (entry == nullptr) return false;
    if (entry->sp) {
      ++links;
      const SdlRecord record{*entry->sp, role};
      if (std::find(sdl_.begin(), sdl_.end(), record) == sdl_.end()) {
        return false;
      }
    }
    if (entry->child == role) {
      return role.node == proxy && length == dl_entries_ &&
             links == sdl_.size();
    }
    role = entry->child;
  }
  return false;
}

void ObjectChain::add_sdl(OverlayNode sp, OverlayNode child) {
  ++claim(sp).sdl;
  sdl_.push_back({sp, child});
}

void ObjectChain::remove_sdl(OverlayNode sp, OverlayNode child) {
  const auto it = std::find(sdl_.begin(), sdl_.end(), SdlRecord{sp, child});
  MOT_CHECK(it != sdl_.end());
  sdl_.erase(it);
  Slot* slot = lookup(sp);
  --slot->sdl;
  release(*slot);
}

std::vector<OverlayNode> ObjectChain::sdl_children(OverlayNode sp) const {
  std::vector<OverlayNode> children;
  for (const SdlRecord& record : sdl_) {
    if (record.sp == sp) children.push_back(record.child);
  }
  return children;
}

std::optional<OverlayNode> ObjectChain::lowest_sdl_child(
    OverlayNode sp) const {
  const Slot* slot = lookup(sp);
  if (slot == nullptr || slot->sdl == 0) return std::nullopt;
  const SdlRecord* best = nullptr;
  for (const SdlRecord& record : sdl_) {
    if (record.sp == sp &&
        (best == nullptr || record.child.level < best->child.level)) {
      best = &record;
    }
  }
  return best->child;
}

void ObjectChain::set_forward(OverlayNode role, NodeId to) {
  claim(role).forward = to;
}

NodeId ObjectChain::forward(OverlayNode role) const {
  const Slot* slot = lookup(role);
  return slot == nullptr ? kInvalidNode : slot->forward;
}

void ObjectChain::wipe(OverlayNode role) {
  Slot* slot = lookup(role);
  if (slot == nullptr) return;
  std::erase_if(sdl_, [role](const SdlRecord& r) { return r.sp == role; });
  dl_entries_ -= slot->has_entry ? 1 : 0;
  const std::uint64_t key = slot->key;
  *slot = Slot{};
  slot->key = key;
  release(*slot);
}

ObjectChain& DetectionStore::chain(ObjectId object) {
  const auto [it, added] =
      index_.emplace(object, static_cast<std::uint32_t>(chains_.size()));
  if (added) chains_.emplace_back();
  return chains_[it->second];
}

const ObjectChain* DetectionStore::find(ObjectId object) const {
  const auto it = index_.find(object);
  return it == index_.end() ? nullptr : &chains_[it->second];
}

ObjectChain* DetectionStore::find(ObjectId object) {
  return const_cast<ObjectChain*>(std::as_const(*this).find(object));
}

std::vector<ObjectId> DetectionStore::objects() const {
  std::vector<ObjectId> objects;
  for (const auto& [object, position] : index_) objects.push_back(object);
  std::sort(objects.begin(), objects.end());
  return objects;
}

std::vector<OverlayNode> DetectionStore::roles_of(NodeId node) const {
  std::vector<OverlayNode> roles;
  for (const ObjectChain& chain : chains_) {
    for (const ObjectChain::Slot& slot : chain.slots_) {
      if (unpack(slot.key).node == node) roles.push_back(unpack(slot.key));
    }
  }
  std::sort(roles.begin(), roles.end(),
            [](OverlayNode a, OverlayNode b) { return a.level > b.level; });
  roles.erase(std::unique(roles.begin(), roles.end()), roles.end());
  return roles;
}

std::vector<std::size_t> DetectionStore::load_per_node(
    const PathProvider& provider) const {
  std::vector<std::size_t> load(provider.num_nodes(), 0);
  for (const auto& [object, position] : index_) {
    for (const ObjectChain::Slot& slot : chains_[position].slots_) {
      const std::size_t entries = (slot.has_entry ? 1 : 0) + slot.sdl;
      if (entries == 0) continue;
      load[provider.delegate(unpack(slot.key), object).storage] += entries;
    }
  }
  return load;
}

durable::StateImage DetectionStore::export_image() const {
  // Objects ascending, so each role's dl and sdl lists come out sorted.
  std::map<std::pair<NodeId, int>, durable::RoleImage> roles;
  durable::StateImage image;
  for (const ObjectId object : objects()) {
    const ObjectChain& chain = *find(object);
    if (chain.proxy != kInvalidNode) {
      image.proxies.emplace_back(object, chain.proxy);
    }
    for (const ObjectChain::Slot& slot : chain.slots_) {
      if (!slot.has_entry && slot.sdl == 0) continue;
      const OverlayNode role = unpack(slot.key);
      durable::RoleImage& out = roles[{role.node, role.level}];
      out.role = role;
      if (slot.has_entry) {
        out.dl.push_back({object, slot.entry.child, slot.entry.sp});
      }
      if (slot.sdl != 0) out.sdl.push_back({object, chain.sdl_children(role)});
    }
  }
  for (auto& [key, role] : roles) image.roles.push_back(std::move(role));
  return image;
}

void DetectionStore::restore(const durable::StateImage& image) {
  index_.clear();
  chains_.clear();
  for (const durable::RoleImage& role : image.roles) {
    for (const auto& entry : role.dl) {
      chain(entry.object).insert(role.role, {entry.child, entry.sp});
    }
    for (const auto& entry : role.sdl) {
      for (const OverlayNode child : entry.children) {
        chain(entry.object).add_sdl(role.role, child);
      }
    }
  }
  for (const auto& [object, proxy] : image.proxies) chain(object).proxy = proxy;
}

}  // namespace mot::tracking
