#include "core/subscription.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/protocol.hpp"

namespace emon::core {

SubscriptionService::SubscriptionService(net::MqttBroker& broker,
                                         store::RollupEngine& engine,
                                         std::int64_t anchor_ns,
                                         std::int64_t default_lateness_ns,
                                         const store::QueryPool* pool,
                                         obs::MetricsRegistry* metrics)
    : broker_(broker),
      engine_(engine),
      anchor_ns_(anchor_ns),
      default_lateness_ns_(default_lateness_ns),
      pool_(pool) {
  if (metrics != nullptr) {
    pump_ns_ = metrics->histogram("sub_pump_ns");
    e2e_report_to_push_ns_ = metrics->histogram("e2e_report_to_push_ns");
    watermark_lag_ns_ = metrics->gauge("rollup_watermark_lag_ns");
  }
}

SubscriptionService::~SubscriptionService() = default;

void SubscriptionService::attach() {
  broker_.subscribe_local(
      std::string(protocol::kTopicSubscribe),
      [this](const net::MqttMessage& msg) { handle_frame(msg); });
}

void SubscriptionService::handle_frame(const net::MqttMessage& msg) {
  auto decoded = protocol::decode_any(msg.payload);
  if (!decoded) {
    ++stats_.malformed_frames;
    return;
  }
  std::visit(protocol::Overload{
                 [this](const SubscribeRequest& req) { handle_subscribe(req); },
                 [this](const Unsubscribe& req) { handle_unsubscribe(req); },
                 [this](const auto&) { ++stats_.unexpected_frames; },
             },
             decoded.value());
}

void SubscriptionService::handle_subscribe(const SubscribeRequest& req) {
  SubscribeAck ack;
  ack.subscription_id = req.subscription_id;
  ack.anchor_ns = anchor_ns_;

  if (req.client_id.empty()) {
    // No push topic to answer on; nothing useful to publish either, but a
    // reject on the (empty-suffix) topic keeps the path observable.
    ++stats_.subscriptions_rejected;
    ack.reason = "empty client id";
    publish(req.client_id, protocol::seal(ack));
    return;
  }

  store::RollupSpec spec;
  spec.window_ns = req.window_ns;
  // slide 0 = tumbling windows (slide == width), the common dashboard case.
  spec.slide_ns = req.slide_ns == 0 ? req.window_ns : req.slide_ns;
  spec.lateness_ns =
      req.lateness_ns < 0 ? default_lateness_ns_ : req.lateness_ns;
  spec.anchor_ns = anchor_ns_;
  spec.devices = req.devices;
  std::sort(spec.devices.begin(), spec.devices.end());
  spec.devices.erase(std::unique(spec.devices.begin(), spec.devices.end()),
                     spec.devices.end());
  if (req.network) {
    spec.filter.network = *req.network;
  }
  if (req.stored_offline) {
    spec.filter.stored_offline = *req.stored_offline;
  }

  if (!spec.valid()) {
    ++stats_.subscriptions_rejected;
    ack.reason = "invalid window geometry";
    publish(req.client_id, protocol::seal(ack));
    return;
  }
  const std::uint64_t rollup_id = acquire_rollup(std::move(spec));
  if (rollup_id == 0) {
    ++stats_.subscriptions_rejected;
    ack.reason = "rollup registration failed";
    publish(req.client_id, protocol::seal(ack));
    return;
  }

  const auto key = std::make_pair(req.client_id, req.subscription_id);
  if (const auto it = remote_.find(key); it != remote_.end()) {
    // Re-subscribe with the same handle replaces the old window shape.
    release_rollup(it->second.rollup_id);
    remote_.erase(it);
  }
  RemoteSub sub;
  sub.client_id = req.client_id;
  sub.subscription_id = req.subscription_id;
  sub.rollup_id = rollup_id;
  sub.include_per_device = req.include_per_device;
  remote_.emplace(key, std::move(sub));
  ++stats_.subscriptions_accepted;
  ack.accepted = true;
  publish(req.client_id, protocol::seal(ack));
}

void SubscriptionService::handle_unsubscribe(const Unsubscribe& req) {
  const auto it =
      remote_.find(std::make_pair(req.client_id, req.subscription_id));
  if (it == remote_.end()) {
    return;  // unknown handle: idempotent no-op
  }
  release_rollup(it->second.rollup_id);
  remote_.erase(it);
  ++stats_.unsubscribes;
}

std::uint64_t SubscriptionService::acquire_rollup(store::RollupSpec spec) {
  for (auto& backing : rollups_) {
    if (backing.spec == spec) {
      ++backing.refs;
      return backing.rollup_id;
    }
  }
  BackingRollup backing;
  backing.spec = spec;
  try {
    backing.rollup_id = engine_.register_rollup(std::move(spec));
  } catch (const std::invalid_argument&) {
    return 0;
  }
  backing.refs = 1;
  const std::uint64_t id = backing.rollup_id;
  rollups_.push_back(std::move(backing));
  return id;
}

void SubscriptionService::release_rollup(std::uint64_t rollup_id) {
  for (auto it = rollups_.begin(); it != rollups_.end(); ++it) {
    if (it->rollup_id == rollup_id) {
      if (--it->refs == 0) {
        engine_.unregister(rollup_id);
        rollups_.erase(it);
      }
      return;
    }
  }
}

void SubscriptionService::publish(const std::string& client_id,
                                  std::vector<std::uint8_t> frame) {
  broker_.send(net::Frame{broker_.id(), protocol::topic_push(client_id),
                          std::move(frame)});
}

void SubscriptionService::pump() {
  const obs::ScopedTimer pump_timer(pump_ns_);
  const std::int64_t now_ns = broker_.kernel().now().ns();
  // Index snapshot: publish() dispatches synchronously, so a broker-local
  // handler may (un)subscribe re-entrantly; iterate by rollup id, not by
  // iterator into rollups_.
  std::vector<std::uint64_t> ids;
  ids.reserve(rollups_.size());
  for (const auto& backing : rollups_) {
    ids.push_back(backing.rollup_id);
  }
  std::int64_t max_lag_ns = 0;
  for (const std::uint64_t rollup_id : ids) {
    if (const auto mark = engine_.watermark(rollup_id);
        mark && now_ns >= *mark) {
      max_lag_ns = std::max(max_lag_ns, now_ns - *mark);
    }
    const auto windows = engine_.drain(rollup_id, pool_);
    for (const auto& window : windows) {
      ++stats_.windows_pushed;
      // Report-to-push latency in sim time: fan-out happens `now`, the
      // window's newest record carries t_max_ns.  Recorded once per window.
      if (window.merged.count > 0 && now_ns >= window.merged.t_max_ns) {
        e2e_report_to_push_ns_.record(
            static_cast<std::uint64_t>(now_ns - window.merged.t_max_ns));
      }
      for (const auto& [key, sub] : remote_) {
        (void)key;
        if (sub.rollup_id != rollup_id) {
          continue;
        }
        publish(sub.client_id,
                protocol::seal(to_push(window, sub.subscription_id,
                                       sub.include_per_device)));
        ++stats_.pushes_sent;
      }
    }
  }
  // Owner-thread update path: pump() runs wherever the rollup engine's
  // owner thread runs (the sim event loop here; the serving pipeline's
  // ingest worker there), and this gauge is only written from pump.  The
  // store itself is an atomic (obs::Gauge), so concurrent *scrapes* from
  // query threads read it safely — the single-writer discipline is about
  // the rollup drain above, not the gauge.
  watermark_lag_ns_.set(max_lag_ns);
}

RollupPush to_push(const store::ClosedWindow& window,
                   std::uint64_t subscription_id, bool include_per_device) {
  const auto wire = [](const store::DeviceAggregate& a) {
    WireAggregate w;
    w.count = a.count;
    w.t_min_ns = a.t_min_ns;
    w.t_max_ns = a.t_max_ns;
    w.min_current_ma = a.min_current_ma;
    w.max_current_ma = a.max_current_ma;
    w.avg_current_ma = a.avg_current_ma;
    w.sum_energy_mwh = a.sum_energy_mwh;
    return w;
  };
  RollupPush push;
  push.subscription_id = subscription_id;
  push.t0_ns = window.t0_ns;
  push.t1_ns = window.t1_ns;
  push.device_count = window.per_device.size();
  push.merged = wire(window.merged);
  push.breakdown.reserve(window.breakdown.size());
  for (const auto& [network, usage] : window.breakdown) {
    push.breakdown.push_back(
        WireNetworkUsage{network, usage.records, usage.energy_mwh});
  }
  if (include_per_device) {
    push.per_device.reserve(window.per_device.size());
    for (const auto& [device, aggregate] : window.per_device) {
      push.per_device.push_back(RollupPush::DeviceRow{device, wire(aggregate)});
    }
  }
  return push;
}

}  // namespace emon::core
