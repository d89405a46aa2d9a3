#include "core/billing.hpp"

#include <algorithm>

#include "util/bytes.hpp"

namespace emon::core {

BillingService::BillingService(NetworkId home_network, Tariff tariff)
    : home_(std::move(home_network)), tariff_(tariff) {}

void BillingService::mark_billable(const DeviceId& id, std::int64_t from_ns) {
  if (billable_.try_emplace(id, from_ns).second) {
    billable_ids_.insert(
        std::lower_bound(billable_ids_.begin(), billable_ids_.end(), id), id);
  }
}

void BillingService::ingest(const ConsumptionRecord& record) {
  // Duplicate suppression on (device, sequence): retransmitted or doubly
  // forwarded records must not double-bill.
  auto& seen = seen_sequences_[record.device_id];
  const auto [it, inserted] = seen.emplace(record.sequence, true);
  (void)it;
  if (!inserted) {
    ++duplicates_;
    return;
  }
  auto& bucket = buckets_[record.device_id][record.network];
  bucket.energy_mwh += record.energy_mwh;
  bucket.records += 1;
  total_mwh_ += record.energy_mwh;
  ++ingested_;
}

void BillingService::ingest_ledger(const chain::Ledger& ledger) {
  for (const auto& block : ledger.blocks()) {
    for (const auto& raw : block.records) {
      try {
        ingest(deserialize_record(raw));
      } catch (const util::DecodeError&) {
        ++foreign_;
      }
    }
  }
}

Invoice BillingService::price(const DeviceId& id,
                              const std::map<NetworkId, Bucket>& usage) const {
  Invoice invoice;
  invoice.device_id = id;
  for (const auto& [network, bucket] : usage) {
    InvoiceLine line;
    line.network = network;
    line.energy_mwh = bucket.energy_mwh;
    line.records = bucket.records;
    line.roamed = network != home_;
    const double kwh = bucket.energy_mwh / 1e6;  // mWh -> kWh
    const double multiplier = line.roamed ? tariff_.roaming_multiplier : 1.0;
    line.cost = kwh * tariff_.home_price_per_kwh * multiplier;
    invoice.total_energy_mwh += line.energy_mwh;
    invoice.total_cost += line.cost;
    invoice.lines.push_back(std::move(line));
  }
  return invoice;
}

Invoice BillingService::invoice_for(const DeviceId& id) const {
  if (engine_ != nullptr) {
    const auto mark = billable_.find(id);
    const std::int64_t from_ns =
        mark == billable_.end() ? INT64_MIN : mark->second;
    std::map<NetworkId, Bucket> usage;
    for (const auto& [network, use] :
         engine_->tsdb().network_breakdown(id, from_ns)) {
      usage[network] = Bucket{use.energy_mwh, use.records};
    }
    return price(id, usage);
  }
  const auto it = buckets_.find(id);
  if (it == buckets_.end()) {
    return price(id, {});
  }
  return price(id, it->second);
}

store::QuerySpec BillingService::billable_spec() const {
  store::QuerySpec spec;
  // The billable set is queried every invoicing read: lend the maintained
  // sorted id vector instead of copying it, and vouch for its order so the
  // engine skips its per-query sort+unique.
  spec.borrowed_devices = &billable_ids_;
  spec.devices_presorted = true;
  for (const auto& [id, from_ns] : billable_) {
    spec.t0_overrides.emplace(id, from_ns);
  }
  return spec;
}

std::vector<Invoice> BillingService::invoice_all() const {
  std::vector<Invoice> out;
  if (engine_ == nullptr) {
    for (const auto& id : billed_devices()) {
      out.push_back(invoice_for(id));
    }
    return out;
  }
  // An empty billable set must not fall into the engine's "empty device
  // list = every device" convention.
  if (billable_.empty()) {
    return out;
  }
  // One shard-parallel fleet query answers every device's breakdown.
  // Merge-join against the billed set (both sorted) so a billable device
  // whose history is entirely out of scope still gets its zero invoice,
  // exactly as invoice_for() prices it.
  const store::FleetBreakdown fleet =
      engine_->network_breakdown(billable_spec());
  const auto billed = billed_devices();
  out.reserve(billed.size());
  std::size_t i = 0;
  for (const auto& id : billed) {
    while (i < fleet.per_device.size() && fleet.per_device[i].first < id) {
      ++i;
    }
    std::map<NetworkId, Bucket> buckets;
    if (i < fleet.per_device.size() && fleet.per_device[i].first == id) {
      for (const auto& [network, use] : fleet.per_device[i].second) {
        buckets[network] = Bucket{use.energy_mwh, use.records};
      }
    }
    out.push_back(price(id, buckets));
  }
  return out;
}

std::vector<DeviceId> BillingService::billed_devices() const {
  std::vector<DeviceId> out;
  if (engine_ != nullptr) {
    out.reserve(billable_.size());
    for (const auto& [id, _] : billable_) {
      if (engine_->tsdb().has_device(id)) {
        out.push_back(id);
      }
    }
    return out;
  }
  out.reserve(buckets_.size());
  for (const auto& [id, _] : buckets_) {
    out.push_back(id);
  }
  return out;
}

double BillingService::total_energy_mwh() const {
  if (engine_ == nullptr) {
    return total_mwh_;
  }
  // One fleet query across all billable devices (per-device scope marks
  // ride along as t0 overrides).  The empty set short-circuits: an empty
  // device list means "every device" to the engine.
  if (billable_.empty()) {
    return 0.0;
  }
  return engine_->network_breakdown(billable_spec()).total_energy_mwh();
}

}  // namespace emon::core
