#pragma once
// MQTT-style publish/subscribe (the paper's reporting protocol, §III-A).
//
// Message-level model of MQTT 3.1.1: CONNECT/CONNACK, PUBLISH with QoS 0/1
// (PUBACK + retransmission), SUBSCRIBE with '+'/'#' wildcard filters, and
// DISCONNECT.  Transport is a pair of `Channel`s (the Wi-Fi association);
// the broker lives on the aggregator host, whose own consumers subscribe
// locally with zero transport delay — exactly like a process colocated with
// Mosquitto on the RPi.
//
// Lifetime: a client owns its session object (shared_ptr); the broker holds
// weak_ptrs, so a client that roams away (dropping its channels) simply
// expires from the broker's session table.
//
// Threading: a broker (and each client) belongs to exactly one kernel
// shard; every method that touches the session/subscription maps runs on
// that shard's event thread.  The map-mutating surface carries
// EMON_OWNER_THREAD and the client entry points that reach it are
// EMON_OWNER_THREAD_CONTEXT (they ARE that event thread) — enforced by
// tools/emon_lint.py, see util/thread_annotations.hpp.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/channel.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "sim/timer.hpp"
#include "util/contracts.hpp"
#include "util/thread_annotations.hpp"

namespace emon::net {

struct MqttMessage {
  std::string topic;
  std::vector<std::uint8_t> payload;
  std::uint8_t qos = 0;
  /// Client id of the publisher (filled in by the broker on dispatch).
  std::string sender;
};

/// MQTT topic filter matching: '+' matches one level, a trailing '#'
/// matches any remainder.  Exposed for tests.
[[nodiscard]] bool topic_matches(std::string_view filter,
                                 std::string_view topic);

/// Approximate wire size of a publish (fixed header + topic + payload).
[[nodiscard]] std::uint64_t publish_wire_size(const MqttMessage& m) noexcept;

class MqttBroker;

/// Connection state shared between one client and the broker.
/// Created by MqttClient::connect(); not used directly by applications.
struct MqttSession {
  std::string client_id;
  std::shared_ptr<Channel> uplink;    // client -> broker
  std::shared_ptr<Channel> downlink;  // broker -> client
  /// Invoked on the client side when a dispatched message arrives.
  std::function<void(const MqttMessage&)> on_message;
  /// Invoked on the client side when a PUBACK arrives.
  std::function<void(std::uint16_t packet_id)> on_puback;
  std::vector<std::string> filters;
  /// True while this is the broker's live session for `client_id`: set by
  /// accept(), cleared when a newer session for the same id replaces it
  /// and by evict().  Downlink delivery checks it instead of looking the
  /// client id up per message.
  bool current = false;
};

/// The broker (one per aggregator host).  As a Transport, `send()`
/// publishes a sealed envelope from the broker host onto a topic (Frame.to)
/// — the aggregator's downlink path for ctrl messages and beacons.  The ack
/// reports whether the publish matched at least one subscriber at dispatch
/// time; per-subscriber fan-out delivery is not individually confirmed.
class MqttBroker : public Transport {
 public:
  using LocalHandler = std::function<void(const MqttMessage&)>;

  MqttBroker(sim::Kernel& kernel, std::string broker_id);

  bool send(Frame frame, AckFn on_ack) override EMON_OWNER_THREAD;
  using Transport::send;
  [[nodiscard]] std::string transport_name() const override {
    return "mqtt-broker:" + broker_id_;
  }

  /// Subscribes a colocated consumer (the aggregator process): no
  /// transport delay, no session.
  void subscribe_local(std::string filter, LocalHandler handler)
      EMON_OWNER_THREAD;

  /// Accepts a session (called by MqttClient with CONNECT semantics).
  /// Returns false if a live session with the same client id exists.
  bool accept(const std::shared_ptr<MqttSession>& session) EMON_OWNER_THREAD;

  /// Removes a session (DISCONNECT or broker-side eviction).
  void evict(const std::string& client_id) EMON_OWNER_THREAD;

  /// Ingress: a PUBLISH arrived from `session` (post-uplink-delay).
  /// Dispatches to local handlers and matching remote sessions, and sends
  /// PUBACK for QoS 1.
  void handle_publish(const std::shared_ptr<MqttSession>& session,
                      MqttMessage message) EMON_OWNER_THREAD;

  /// Publishes from the broker host itself (aggregator pushing control
  /// messages down to devices).
  void publish_from_host(MqttMessage message) EMON_OWNER_THREAD;

  /// Registers a subscription filter on a session (SUBSCRIBE).
  void handle_subscribe(const std::shared_ptr<MqttSession>& session,
                        std::string filter) EMON_OWNER_THREAD;

  [[nodiscard]] const std::string& id() const noexcept { return broker_id_; }
  /// The kernel this broker schedules on — lets colocated consumers
  /// (SubscriptionService, the metrics endpoint) read sim time without
  /// extra plumbing.
  [[nodiscard]] sim::Kernel& kernel() const noexcept { return kernel_; }
  [[nodiscard]] std::size_t live_sessions() const;
  [[nodiscard]] std::uint64_t messages_routed() const noexcept {
    return routed_;
  }

  /// Wires the broker's registry mirrors: mqtt_messages_routed and the
  /// mqtt_dispatch_ns fan-out timer.  The broker stays usable unbound.
  void bind_metrics(obs::MetricsRegistry& reg) {
    routed_counter_ = reg.counter("mqtt_messages_routed");
    dispatch_ns_ = reg.histogram("mqtt_dispatch_ns");
  }

 private:
  /// Routes to local handlers and matching sessions; returns how many
  /// recipients the message reached (handlers + scheduled downlink sends).
  /// Fan-out publishes are batched at the wire-accounting level: one sent
  /// frame per publish, recipients 2..N counted as coalesced copies
  /// (TransportStats::frames_coalesced) — the beacon broadcast path.
  /// EMON_HOT: the fleet-scale route (local handlers + the exact-topic
  /// bucket) allocates nothing; the moment any wildcard subscriber exists
  /// the publish detours to dispatch_with_wildcards().
  std::size_t dispatch(const MqttMessage& message) EMON_OWNER_THREAD EMON_HOT;
  /// Cold continuation of dispatch() for the rare wildcard-subscriber case
  /// (dashboards): owns the match/dedup scratch vectors, so the hot path
  /// above never materializes them.  `recipients` is the local-handler
  /// count accumulated so far; returns the final recipient total.
  std::size_t dispatch_with_wildcards(const MqttMessage& message,
                                      std::size_t recipients)
      EMON_OWNER_THREAD;
  /// Downlink delivery to one session if it is still the live session for
  /// its client id (its `current` flag).  Returns true if a send was scheduled; `coalesced`
  /// marks a copy riding an earlier recipient's wire frame.
  bool deliver_to(const std::shared_ptr<MqttSession>& session,
                  const MqttMessage& message, bool coalesced)
      EMON_OWNER_THREAD;

  sim::Kernel& kernel_;
  std::string broker_id_;
  // Owner-thread state (see the header comment): mutated only through the
  // EMON_OWNER_THREAD surface above, on the owning shard's event thread.
  std::vector<std::pair<std::string, LocalHandler>> local_subs_;
  std::map<std::string, std::weak_ptr<MqttSession>> sessions_;
  // Subscription index: exact filters (the overwhelming majority — every
  // device's ctrl topic and the beacon topic) dispatch with one hash
  // lookup; '+'/'#' filters fall back to a scan of this short list.
  // Expired sessions are pruned lazily as their buckets are touched.
  std::unordered_map<std::string, std::vector<std::weak_ptr<MqttSession>>>
      exact_subs_;
  std::vector<std::pair<std::string, std::weak_ptr<MqttSession>>>
      wildcard_subs_;
  std::uint64_t routed_ = 0;
  obs::Counter routed_counter_;
  obs::Histogram dispatch_ns_;
};

struct MqttClientParams {
  /// QoS 1 retransmission timeout.
  sim::Duration ack_timeout = sim::milliseconds(500);
  /// Max transmission attempts before reporting failure.
  int max_attempts = 3;
};

/// A device-side MQTT client.  As a Transport, `send()` publishes a sealed
/// envelope onto a topic (Frame.to) with the frame's QoS; the ack callback
/// maps to PUBACK for QoS 1.
class MqttClient : public Transport {
 public:
  using ConnectCallback = std::function<void(bool)>;
  using AckCallback = std::function<void(bool acked)>;
  using MessageHandler = std::function<void(const MqttMessage&)>;

  MqttClient(sim::Kernel& kernel, std::string client_id,
             MqttClientParams params = {});
  ~MqttClient();

  MqttClient(const MqttClient&) = delete;
  MqttClient& operator=(const MqttClient&) = delete;

  /// Transport entry point: publishes `frame.bytes` on topic `frame.to`
  /// with `frame.qos`.  Returns false (acking false) when not connected.
  /// Client methods are EMON_OWNER_THREAD_CONTEXT: a device app runs on its
  /// shard's event thread, which *is* the broker's owner thread, so these
  /// bodies may call the broker's EMON_OWNER_THREAD surface directly.
  bool send(Frame frame, AckFn on_ack) override EMON_OWNER_THREAD_CONTEXT;
  using Transport::send;
  [[nodiscard]] std::string transport_name() const override {
    return "mqtt:" + client_id_;
  }

  /// Connects to `broker` through the given channels (the current Wi-Fi
  /// association).  CONNECT/CONNACK round trip; `on_done(true)` on success.
  void connect(MqttBroker& broker, std::shared_ptr<Channel> uplink,
               std::shared_ptr<Channel> downlink, ConnectCallback on_done)
      EMON_OWNER_THREAD_CONTEXT;

  /// Publishes. QoS 0: fire-and-forget, `on_ack` fires immediately with
  /// true once handed to the channel (false if the channel is gone).
  /// QoS 1: `on_ack(true)` on PUBACK, `on_ack(false)` after max_attempts.
  void publish(std::string topic, std::vector<std::uint8_t> payload,
               std::uint8_t qos, AckCallback on_ack = nullptr)
      EMON_OWNER_THREAD_CONTEXT;

  /// Subscribes to a filter; `handler` runs for each matching message.
  void subscribe(std::string filter, MessageHandler handler)
      EMON_OWNER_THREAD_CONTEXT;

  /// Graceful disconnect (best-effort DISCONNECT, then drop session).
  void disconnect() EMON_OWNER_THREAD_CONTEXT;

  /// Hard drop (Wi-Fi loss): session dies without notice to the broker.
  void drop() EMON_OWNER_THREAD_CONTEXT;

  /// Migration support: re-homes the client's timers onto another shard's
  /// kernel.  Must be called with no live session (drop() first).
  void rebind_kernel(sim::Kernel& kernel);

  [[nodiscard]] bool connected() const noexcept { return connected_; }
  [[nodiscard]] const std::string& client_id() const noexcept {
    return client_id_;
  }
  [[nodiscard]] std::uint64_t publishes() const noexcept { return publishes_; }
  [[nodiscard]] std::uint64_t retransmissions() const noexcept {
    return retransmissions_;
  }

 private:
  struct PendingPublish {
    MqttMessage message;
    AckCallback on_ack;
    int attempts = 0;
    sim::EventId timeout{};
  };

  void send_publish(std::uint16_t packet_id) EMON_OWNER_THREAD_CONTEXT;
  void resubscribe_all() EMON_OWNER_THREAD_CONTEXT;
  void handle_incoming(const MqttMessage& message) EMON_OWNER_THREAD_CONTEXT;
  void handle_puback(std::uint16_t packet_id) EMON_OWNER_THREAD_CONTEXT;
  void arm_timeout(std::uint16_t packet_id) EMON_OWNER_THREAD_CONTEXT;

  sim::Kernel* kernel_;  // rebindable: a migrating device changes shards
  std::string client_id_;
  MqttClientParams params_;
  MqttBroker* broker_ = nullptr;
  std::shared_ptr<MqttSession> session_;
  bool connected_ = false;
  std::uint16_t next_packet_id_ = 1;
  std::map<std::uint16_t, PendingPublish> pending_;
  std::vector<std::pair<std::string, MessageHandler>> handlers_;
  std::uint64_t publishes_ = 0;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace emon::net
