#include "net/mqtt.hpp"

#include <algorithm>
#include <stdexcept>

namespace emon::net {

bool topic_matches(std::string_view filter, std::string_view topic) {
  std::size_t fi = 0;
  std::size_t ti = 0;
  while (fi < filter.size()) {
    // Extract the next filter level.
    const std::size_t fend = filter.find('/', fi);
    const std::string_view flevel =
        filter.substr(fi, fend == std::string_view::npos ? filter.size() - fi
                                                         : fend - fi);
    if (flevel == "#") {
      // '#' must be the last level; matches everything remaining (including
      // an empty remainder).
      return fend == std::string_view::npos;
    }
    if (ti > topic.size()) {
      return false;  // topic exhausted but filter expects another level
    }
    const std::size_t tend = topic.find('/', ti);
    const std::string_view tlevel =
        topic.substr(ti, tend == std::string_view::npos ? topic.size() - ti
                                                        : tend - ti);
    if (flevel != "+" && flevel != tlevel) {
      return false;
    }
    // Advance; if one side has more levels and the other doesn't, fail below.
    const bool f_more = fend != std::string_view::npos;
    const bool t_more = tend != std::string_view::npos;
    if (f_more != t_more) {
      // Filter continues but topic ended (or vice versa).  One exception:
      // filter continues with exactly "#".
      if (f_more && filter.substr(fend + 1) == "#") {
        return true;
      }
      return false;
    }
    if (!f_more) {
      return true;  // both exhausted and all levels matched
    }
    fi = fend + 1;
    ti = tend + 1;
  }
  return topic.empty();
}

std::uint64_t publish_wire_size(const MqttMessage& m) noexcept {
  // Fixed header (2) + topic length prefix (2) + topic + packet id (2) +
  // payload.
  return 6 + m.topic.size() + m.payload.size();
}

MqttBroker::MqttBroker(sim::Kernel& kernel, std::string broker_id)
    : kernel_(kernel), broker_id_(std::move(broker_id)) {}

bool MqttBroker::send(Frame frame, AckFn on_ack) {
  // Byte accounting happens per matched subscriber inside dispatch();
  // counting here as well would double-book broker-originated frames.
  MqttMessage message{std::move(frame.to), std::move(frame.bytes), frame.qos,
                      broker_id_};
  const std::size_t recipients = dispatch(message);
  if (on_ack) {
    on_ack(recipients > 0);
  }
  return recipients > 0;
}

void MqttBroker::subscribe_local(std::string filter, LocalHandler handler) {
  if (!handler) {
    throw std::invalid_argument("subscribe_local requires a handler");
  }
  local_subs_.emplace_back(std::move(filter), std::move(handler));
}

bool MqttBroker::accept(const std::shared_ptr<MqttSession>& session) {
  if (!session || session->client_id.empty()) {
    return false;
  }
  std::weak_ptr<MqttSession>& slot = sessions_[session->client_id];
  if (const auto previous = slot.lock()) {
    // MQTT 3.1.1 would take over the old session; we evict it, matching the
    // reconnect-after-roam behaviour the device firmware relies on.
    previous->current = false;
  }
  slot = session;
  session->current = true;
  return true;
}

void MqttBroker::evict(const std::string& client_id) {
  const auto it = sessions_.find(client_id);
  if (it == sessions_.end()) {
    return;
  }
  if (const auto session = it->second.lock()) {
    session->current = false;
  }
  sessions_.erase(it);
}

std::size_t MqttBroker::live_sessions() const {
  std::size_t n = 0;
  for (const auto& [_, weak] : sessions_) {
    if (!weak.expired()) {
      ++n;
    }
  }
  return n;
}

void MqttBroker::handle_publish(const std::shared_ptr<MqttSession>& session,
                                MqttMessage message) {
  message.sender = session ? session->client_id : broker_id_;
  // Frame arrived at the broker host (post-uplink-delay).
  note_delivered(kernel_.now(), message.payload.size());
  dispatch(message);
}

void MqttBroker::publish_from_host(MqttMessage message) {
  message.sender = broker_id_;
  dispatch(message);
}

void MqttBroker::handle_subscribe(const std::shared_ptr<MqttSession>& session,
                                  std::string filter) {
  if (!session) {
    return;
  }
  // Idempotent per session: a repeated SUBSCRIBE for the same filter must
  // not produce duplicate deliveries (the index holds one entry per
  // (session, filter) pair).
  for (const auto& existing : session->filters) {
    if (existing == filter) {
      return;
    }
  }
  if (filter.find_first_of("+#") == std::string::npos) {
    exact_subs_[filter].push_back(session);
  } else {
    wildcard_subs_.emplace_back(filter, session);
  }
  session->filters.push_back(std::move(filter));
}

bool MqttBroker::deliver_to(const std::shared_ptr<MqttSession>& session,
                            const MqttMessage& message, bool coalesced) {
  // Don't echo a message back to its publisher.
  if (session->client_id == message.sender || !session->downlink) {
    return false;
  }
  // Only the live session for a client id receives (a stale index entry
  // from before an eviction/reconnect must stay silent).
  if (!session->current) {
    return false;
  }
  const std::uint64_t size = publish_wire_size(message);
  if (coalesced) {
    note_coalesced(message.payload.size());
  } else {
    note_sent(kernel_.now(), message.payload.size());
  }
  std::weak_ptr<MqttSession> weak = session;
  session->downlink->send(size, [weak, message](std::uint64_t) {
    if (const auto live = weak.lock(); live && live->on_message) {
      live->on_message(message);
    }
  });
  return true;
}

std::size_t MqttBroker::dispatch(const MqttMessage& message) {
  const obs::ScopedTimer timer(dispatch_ns_);
  ++routed_;
  routed_counter_.inc();
  std::size_t recipients = 0;
  for (const auto& [filter, handler] : local_subs_) {
    if (topic_matches(filter, message.topic)) {
      handler(message);
      ++recipients;
    }
  }
  // Remote subscribers, via the index: one hash lookup for the exact-topic
  // bucket is the fleet-scale hot path.  Wildcard filters ('+'/'#', a
  // handful of dashboards at most) need match/dedup scratch vectors, so
  // that whole route lives in the cold helper below and the common publish
  // never materializes them — dispatch() is EMON_HOT and allocation-free.
  // (Note for reentrancy: a local handler may publish from inside its
  // callback, nesting dispatch(); all scratch stays on the stack of
  // whichever activation owns it.)
  if (!wildcard_subs_.empty()) {
    return dispatch_with_wildcards(message, recipients);
  }
  // Fan-out batching: the broker serializes a publish once and every
  // matched session's copy rides that one wire frame.  Only the first
  // scheduled downlink send is accounted as a wire frame.
  std::size_t downlink_sends = 0;
  if (const auto bucket = exact_subs_.find(message.topic);
      bucket != exact_subs_.end()) {
    auto& subs = bucket->second;
    std::erase_if(subs, [](const std::weak_ptr<MqttSession>& weak) {
      return weak.expired();
    });
    for (const auto& weak : subs) {
      if (const auto session = weak.lock()) {
        if (deliver_to(session, message, downlink_sends > 0)) {
          ++downlink_sends;
          ++recipients;
        }
      }
    }
    if (subs.empty()) {
      exact_subs_.erase(bucket);
    }
  }
  return recipients;
}

std::size_t MqttBroker::dispatch_with_wildcards(const MqttMessage& message,
                                                std::size_t recipients) {
  // Recipients are deduped per publish: a session subscribed to the same
  // topic through both an exact and a matching wildcard filter (or two
  // overlapping wildcards) receives exactly one copy.  Expired wildcard
  // entries are pruned here — the only route that scans the list.
  std::erase_if(wildcard_subs_, [](const auto& entry) {
    return entry.second.expired();
  });
  std::vector<std::shared_ptr<MqttSession>> wildcard_hits;
  for (const auto& [filter, weak] : wildcard_subs_) {
    if (!topic_matches(filter, message.topic)) {
      continue;
    }
    if (auto session = weak.lock()) {
      wildcard_hits.push_back(std::move(session));
    }
  }
  // Fan-out batching as in dispatch(): a broadcast beacon or dashboard
  // push reaches N sessions as 1 sent frame + N-1 coalesced copies.
  std::size_t downlink_sends = 0;
  std::vector<const MqttSession*> served;
  if (const auto bucket = exact_subs_.find(message.topic);
      bucket != exact_subs_.end()) {
    auto& subs = bucket->second;
    std::erase_if(subs, [](const std::weak_ptr<MqttSession>& weak) {
      return weak.expired();
    });
    for (const auto& weak : subs) {
      if (const auto session = weak.lock()) {
        if (deliver_to(session, message, downlink_sends > 0)) {
          ++downlink_sends;
          ++recipients;
        }
        if (!wildcard_hits.empty()) {
          served.push_back(session.get());
        }
      }
    }
    if (subs.empty()) {
      exact_subs_.erase(bucket);
    }
  }
  for (const auto& session : wildcard_hits) {
    if (std::find(served.begin(), served.end(), session.get()) !=
        served.end()) {
      continue;  // already served through an exact or earlier wildcard match
    }
    served.push_back(session.get());
    if (deliver_to(session, message, downlink_sends > 0)) {
      ++downlink_sends;
      ++recipients;
    }
  }
  return recipients;
}

MqttClient::MqttClient(sim::Kernel& kernel, std::string client_id,
                       MqttClientParams params)
    : kernel_(&kernel), client_id_(std::move(client_id)), params_(params) {
  if (params_.max_attempts < 1) {
    throw std::invalid_argument("max_attempts must be >= 1");
  }
}

MqttClient::~MqttClient() { drop(); }

void MqttClient::connect(MqttBroker& broker, std::shared_ptr<Channel> uplink,
                         std::shared_ptr<Channel> downlink,
                         ConnectCallback on_done) {
  if (!uplink || !downlink) {
    if (on_done) {
      on_done(false);
    }
    return;
  }
  drop();  // reset any previous session
  broker_ = &broker;
  session_ = std::make_shared<MqttSession>();
  session_->client_id = client_id_;
  session_->uplink = std::move(uplink);
  session_->downlink = std::move(downlink);
  session_->on_message = [this](const MqttMessage& m) { handle_incoming(m); };
  session_->on_puback = [this](std::uint16_t id) { handle_puback(id); };

  // CONNECT over the uplink, CONNACK back over the downlink.  The callback
  // is shared between the success path (inside the lambda) and the
  // immediate-failure path (send() refusing a closed channel).
  auto cb = std::make_shared<ConnectCallback>(std::move(on_done));
  auto fail = [cb] {
    if (*cb) {
      (*cb)(false);
    }
  };
  std::weak_ptr<MqttSession> weak = session_;
  const bool sent = session_->uplink->send_reliable(
      14 /*CONNECT*/, [this, weak, cb, fail](std::uint64_t) {
        const auto session = weak.lock();
        if (!session || broker_ == nullptr) {
          fail();
          return;
        }
        if (!broker_->accept(session)) {
          fail();
          return;
        }
        session->downlink->send_reliable(4 /*CONNACK*/,
                                [this, weak, cb, fail](std::uint64_t) {
                                  const auto live = weak.lock();
                                  if (!live) {
                                    fail();
                                    return;
                                  }
                                  connected_ = true;
                                  resubscribe_all();
                                  if (*cb) {
                                    (*cb)(true);
                                  }
                                });
      });
  if (!sent) {
    session_.reset();
    broker_ = nullptr;
    fail();
  }
}

bool MqttClient::send(Frame frame, AckFn on_ack) {
  if (!connected_ || !session_ || !session_->uplink) {
    note_dropped();
    if (on_ack) {
      on_ack(false);
    }
    return false;
  }
  note_sent(kernel_->now(), frame.bytes.size());
  publish(std::move(frame.to), std::move(frame.bytes), frame.qos,
          std::move(on_ack));
  return true;
}

void MqttClient::publish(std::string topic, std::vector<std::uint8_t> payload,
                         std::uint8_t qos, AckCallback on_ack) {
  MqttMessage message{std::move(topic), std::move(payload), qos, client_id_};
  if (!connected_ || !session_ || !session_->uplink) {
    if (on_ack) {
      on_ack(false);
    }
    return;
  }
  ++publishes_;
  if (qos == 0) {
    const std::uint64_t size = publish_wire_size(message);
    std::weak_ptr<MqttSession> weak = session_;
    MqttBroker* broker = broker_;
    const bool sent = session_->uplink->send(
        size, [weak, broker, m = std::move(message)](std::uint64_t) mutable {
          if (const auto live = weak.lock(); live && broker) {
            broker->handle_publish(live, std::move(m));
          }
        });
    if (on_ack) {
      on_ack(sent);
    }
    return;
  }
  // QoS 1: track, send, arm retransmission.
  const std::uint16_t packet_id = next_packet_id_++;
  if (next_packet_id_ == 0) {
    next_packet_id_ = 1;
  }
  pending_[packet_id] =
      PendingPublish{std::move(message), std::move(on_ack), 0, {}};
  send_publish(packet_id);
}

void MqttClient::send_publish(std::uint16_t packet_id) {
  auto it = pending_.find(packet_id);
  if (it == pending_.end()) {
    return;
  }
  PendingPublish& pub = it->second;
  if (!connected_ || !session_ || !session_->uplink) {
    // Channel gone: fail fast so the caller can buffer locally.
    AckCallback cb = std::move(pub.on_ack);
    pending_.erase(it);
    if (cb) {
      cb(false);
    }
    return;
  }
  ++pub.attempts;
  if (pub.attempts > 1) {
    ++retransmissions_;
  }
  const std::uint64_t size = publish_wire_size(pub.message);
  std::weak_ptr<MqttSession> weak = session_;
  MqttBroker* broker = broker_;
  MqttMessage copy = pub.message;
  copy.sender = client_id_;
  // Attach the packet id so the broker can PUBACK it (modelled out of band).
  session_->uplink->send(
      size,
      [weak, broker, packet_id, m = std::move(copy)](std::uint64_t) mutable {
        const auto live = weak.lock();
        if (!live || !broker) {
          return;
        }
        broker->handle_publish(live, std::move(m));
        // PUBACK back over the downlink.
        if (live->downlink) {
          std::weak_ptr<MqttSession> weak2 = live;
          live->downlink->send(4 /*PUBACK*/, [weak2, packet_id](std::uint64_t) {
            if (const auto l2 = weak2.lock(); l2 && l2->on_puback) {
              l2->on_puback(packet_id);
            }
          });
        }
      });
  arm_timeout(packet_id);
}

void MqttClient::arm_timeout(std::uint16_t packet_id) {
  auto it = pending_.find(packet_id);
  if (it == pending_.end()) {
    return;
  }
  kernel_->cancel(it->second.timeout);
  it->second.timeout = kernel_->schedule_in(params_.ack_timeout, [this,
                                                                 packet_id] {
    auto pit = pending_.find(packet_id);
    if (pit == pending_.end()) {
      return;  // already acked
    }
    if (pit->second.attempts >= params_.max_attempts) {
      AckCallback cb = std::move(pit->second.on_ack);
      pending_.erase(pit);
      if (cb) {
        cb(false);
      }
      return;
    }
    send_publish(packet_id);
  });
}

void MqttClient::handle_incoming(const MqttMessage& message) {
  note_delivered(kernel_->now(), message.payload.size());
  for (const auto& [filter, handler] : handlers_) {
    if (topic_matches(filter, message.topic)) {
      handler(message);
    }
  }
}

void MqttClient::handle_puback(std::uint16_t packet_id) {
  const auto it = pending_.find(packet_id);
  if (it == pending_.end()) {
    return;  // duplicate ack
  }
  kernel_->cancel(it->second.timeout);
  AckCallback cb = std::move(it->second.on_ack);
  pending_.erase(it);
  if (cb) {
    cb(true);
  }
}

void MqttClient::resubscribe_all() {
  // MQTT 3.1.1 clients re-issue SUBSCRIBE after every (re)connect; the
  // firmware registers its handlers once and the session catches up here.
  if (!connected_ || !session_ || !session_->uplink || broker_ == nullptr) {
    return;
  }
  for (const auto& [filter, _] : handlers_) {
    std::weak_ptr<MqttSession> weak = session_;
    MqttBroker* broker = broker_;
    session_->uplink->send_reliable(
        5 + filter.size(), [weak, broker, filter = filter](std::uint64_t) {
          if (const auto live = weak.lock(); live && broker) {
            broker->handle_subscribe(live, filter);
          }
        });
  }
}

void MqttClient::subscribe(std::string filter, MessageHandler handler) {
  if (!handler) {
    throw std::invalid_argument("subscribe requires a handler");
  }
  handlers_.emplace_back(filter, std::move(handler));
  if (connected_ && session_ && session_->uplink && broker_ != nullptr) {
    std::weak_ptr<MqttSession> weak = session_;
    MqttBroker* broker = broker_;
    session_->uplink->send_reliable(
        5 + filter.size(), [weak, broker, filter](std::uint64_t) {
          if (const auto live = weak.lock(); live && broker) {
            broker->handle_subscribe(live, filter);
          }
        });
  }
}

void MqttClient::disconnect() {
  if (connected_ && session_ && session_->uplink && broker_ != nullptr) {
    MqttBroker* broker = broker_;
    const std::string id = client_id_;
    session_->uplink->send_reliable(2 /*DISCONNECT*/, [broker, id](std::uint64_t) {
      broker->evict(id);
    });
  }
  drop();
}

void MqttClient::rebind_kernel(sim::Kernel& kernel) {
  if (session_ || !pending_.empty()) {
    throw std::logic_error("MqttClient::rebind_kernel with a live session");
  }
  kernel_ = &kernel;
}

void MqttClient::drop() {
  connected_ = false;
  session_.reset();
  broker_ = nullptr;
  // Fail all in-flight QoS 1 publishes so the caller can buffer locally.
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [id, pub] : pending) {
    kernel_->cancel(pub.timeout);
    if (pub.on_ack) {
      pub.on_ack(false);
    }
  }
}

}  // namespace emon::net

