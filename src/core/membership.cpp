#include "core/membership.hpp"

#include <algorithm>

namespace emon::core {

std::optional<MemberEntry*> MembershipTable::add_home(const DeviceId& id,
                                                      std::size_t slot,
                                                      sim::SimTime now) {
  return add(id, MembershipKind::kHome, "", slot, now);
}

std::optional<MemberEntry*> MembershipTable::add_temporary(
    const DeviceId& id, const std::string& master_addr, std::size_t slot,
    sim::SimTime now) {
  return add(id, MembershipKind::kTemporary, master_addr, slot, now);
}

std::optional<MemberEntry*> MembershipTable::add(
    const DeviceId& id, MembershipKind kind, const std::string& master_addr,
    std::size_t slot, sim::SimTime now) {
  const auto [it, inserted] = by_device_.try_emplace(id);
  if (!inserted) {
    return std::nullopt;
  }
  MemberEntry& entry = it->second;
  entry.device_id = id;
  entry.kind = kind;
  entry.master_addr = master_addr;
  entry.slot = slot;
  entry.last_seen = now;
  return &entry;
}

std::optional<MemberEntry> MembershipTable::remove(const DeviceId& id) {
  const auto it = by_device_.find(id);
  if (it == by_device_.end()) {
    return std::nullopt;
  }
  MemberEntry entry = std::move(it->second);
  by_device_.erase(it);
  return entry;
}

const MemberEntry* MembershipTable::find(const DeviceId& id) const {
  const auto it = by_device_.find(id);
  return it == by_device_.end() ? nullptr : &it->second;
}

MemberEntry* MembershipTable::find(const DeviceId& id) {
  const auto it = by_device_.find(id);
  return it == by_device_.end() ? nullptr : &it->second;
}

std::vector<const MemberEntry*> MembershipTable::all() const {
  std::vector<const MemberEntry*> out;
  out.reserve(by_device_.size());
  for (const auto& [_, entry] : by_device_) {
    out.push_back(&entry);
  }
  std::sort(out.begin(), out.end(),
            [](const MemberEntry* a, const MemberEntry* b) {
              return a->device_id < b->device_id;
            });
  return out;
}

std::vector<const MemberEntry*> MembershipTable::temporaries() const {
  std::vector<const MemberEntry*> out = all();
  std::erase_if(out, [](const MemberEntry* entry) {
    return entry->kind != MembershipKind::kTemporary;
  });
  return out;
}

std::vector<DeviceId> MembershipTable::stale_temporaries(
    sim::SimTime cutoff) const {
  std::vector<DeviceId> out;
  for (const MemberEntry* entry : temporaries()) {
    if (entry->last_seen < cutoff) {
      out.push_back(entry->device_id);
    }
  }
  return out;
}

}  // namespace emon::core
