#pragma once
// DC distribution network for one grid-location (one WAN in Figure 1).
//
// Physical layout mirrored from the paper's testbed (Figure 4): a 5 V
// supply feeds a distribution board through a feeder run where the
// aggregator's INA219 sits; each socket then connects one device through
// its own line resistance, with the device's INA219 on the device side.
//
//      supply --[R_feeder | feeder INA219]--+--[R_line]-- device 1 INA219
//                                           +--[R_line]-- device 2 INA219
//                                           +-- board overhead load
//
// Because the feeder meter sits *upstream* of the distribution board, it
// additionally sees consumption the device meters never see:
//   * board overhead (regulator quiescent current, indicator LEDs, the
//     sensors' own supply current) — `overhead_quiescent`;
//   * loss current proportional to the delivered load (regulator
//     inefficiency and connector/ohmic losses) — `loss_fraction`.
// These two terms plus the sensors' error model produce the 0.9-8.2 %
// centralized-vs-decentralized gap of Figure 5.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hw/ina219.hpp"
#include "sim/time.hpp"
#include "util/units.hpp"

namespace emon::grid {

/// Demand function: the plugged device's current draw at time t.
using DemandFn = std::function<util::Amperes(sim::SimTime)>;

struct DistributionParams {
  util::Volts supply = util::volts(5.0);
  /// Feeder run resistance (supply to board).
  util::Ohms feeder_resistance = util::ohms(0.05);
  /// Per-socket line resistance (board to device).
  util::Ohms line_resistance = util::ohms(0.08);
  /// Board overhead drawn regardless of load (regulators, LEDs, sensors).
  util::Amperes overhead_quiescent = util::milliamps(2.0);
  /// Extra supply current per amp of delivered load (losses, inefficiency).
  double loss_fraction = 0.03;
  /// Board-voltage cache window for device-side operating-point queries:
  /// the shared board voltage (which needs a full O(devices) feeder solve)
  /// is reused while it is at most this old.  The device's own current is
  /// always evaluated exactly at the query instant.  0 (default) re-solves
  /// on every query — bit-exact with the uncached model; fleet scenarios
  /// set a window so a superframe costs O(devices), not O(devices^2).
  sim::Duration solve_cache_window{0};
};

/// One socket's electrical state at an instant.
struct SocketState {
  std::string device_id;
  util::Amperes current;
  util::Volts bus_voltage;
};

/// Snapshot of the whole network at an instant.
struct NetworkState {
  sim::SimTime time;
  std::vector<SocketState> sockets;
  /// True current through the feeder measurement point.
  util::Amperes feeder_current;
  /// True bus voltage at the feeder measurement point.
  util::Volts feeder_voltage;
};

/// The distribution network.  Devices plug in and out at runtime (the
/// paper's mobility experiments are plug/unplug sequences across two
/// networks).
class DistributionNetwork {
 public:
  DistributionNetwork(std::string name, DistributionParams params,
                      std::function<sim::SimTime()> now);

  /// Plugs a device into a free socket.  Returns false if the id is
  /// already plugged in here.
  bool plug(const std::string& device_id, DemandFn demand);

  /// Unplugs the device.  Returns false if it was not plugged in here.
  bool unplug(const std::string& device_id);

  [[nodiscard]] bool is_plugged(const std::string& device_id) const;
  [[nodiscard]] std::size_t device_count() const noexcept {
    return sockets_.size();
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const DistributionParams& params() const noexcept {
    return params_;
  }

  /// Solves the circuit at time `t`.
  [[nodiscard]] NetworkState solve(sim::SimTime t) const;

  /// Handle to one plugged device's socket: resolve it once per plug with
  /// socket(), then read the operating point without a by-id lookup.  Valid
  /// until that device unplugs from this network; null (falsy) reads as
  /// unplugged.
  class Socket {
   public:
    Socket() = default;
    explicit operator bool() const noexcept { return demand_ != nullptr; }

   private:
    friend class DistributionNetwork;
    explicit Socket(const DemandFn* demand) noexcept : demand_(demand) {}
    const DemandFn* demand_ = nullptr;
  };

  /// The socket `device_id` is plugged into here (null if it is not).
  [[nodiscard]] Socket socket(const std::string& device_id) const;

  /// True device-side operating point (current through its line, voltage
  /// at its input).  Zero if not plugged.
  [[nodiscard]] hw::OperatingPoint device_operating_point(
      const std::string& device_id, sim::SimTime t) const;
  [[nodiscard]] hw::OperatingPoint device_operating_point(
      Socket socket, sim::SimTime t) const;

  /// True feeder-side operating point (what a centralized meter sees).
  [[nodiscard]] hw::OperatingPoint feeder_operating_point(sim::SimTime t) const;

  /// Probe factories for wiring INA219 sensors (they capture `this`; the
  /// network must outlive the sensors).
  [[nodiscard]] hw::ElectricalProbe probe_for_device(std::string device_id);
  [[nodiscard]] hw::ElectricalProbe feeder_probe();

 private:
  /// Sum of all socket demands at `t`, as seen at the feeder (with losses
  /// and overhead) and the resulting board voltage.  Refreshes the cache.
  [[nodiscard]] std::pair<util::Amperes, util::Volts> solve_feeder(
      sim::SimTime t) const;
  /// Board voltage for a device-side query: cached within
  /// `solve_cache_window`, exact otherwise.
  [[nodiscard]] util::Volts board_voltage_at(sim::SimTime t) const;

  std::string name_;
  DistributionParams params_;
  std::function<sim::SimTime()> now_;
  std::map<std::string, DemandFn> sockets_;
  // Last full feeder solve (device-side queries reuse it within the
  // configured window; plug/unplug invalidates it).
  mutable bool cache_valid_ = false;
  mutable sim::SimTime cache_time_{};
  mutable util::Volts cached_board_voltage_{0.0};
};

}  // namespace emon::grid
