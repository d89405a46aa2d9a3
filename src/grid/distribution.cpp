#include "grid/distribution.hpp"

#include <stdexcept>
#include <utility>

namespace emon::grid {

DistributionNetwork::DistributionNetwork(std::string name,
                                         DistributionParams params,
                                         std::function<sim::SimTime()> now)
    : name_(std::move(name)), params_(params), now_(std::move(now)) {
  if (!now_) {
    throw std::invalid_argument("DistributionNetwork requires a time source");
  }
  if (params_.supply.value() <= 0.0) {
    throw std::invalid_argument("supply voltage must be positive");
  }
  if (params_.loss_fraction < 0.0) {
    throw std::invalid_argument("loss_fraction must be non-negative");
  }
}

bool DistributionNetwork::plug(const std::string& device_id, DemandFn demand) {
  if (!demand) {
    throw std::invalid_argument("plug requires a demand function");
  }
  cache_valid_ = false;  // the socket set changed
  return sockets_.emplace(device_id, std::move(demand)).second;
}

bool DistributionNetwork::unplug(const std::string& device_id) {
  cache_valid_ = false;
  return sockets_.erase(device_id) > 0;
}

bool DistributionNetwork::is_plugged(const std::string& device_id) const {
  return sockets_.find(device_id) != sockets_.end();
}

NetworkState DistributionNetwork::solve(sim::SimTime t) const {
  NetworkState state;
  state.time = t;
  state.sockets.reserve(sockets_.size());

  util::Amperes delivered{0.0};
  for (const auto& [id, demand] : sockets_) {
    const util::Amperes draw = demand(t);
    state.sockets.push_back(SocketState{id, draw, util::Volts{0.0}});
    delivered += draw;
  }

  // Feeder current: delivered load, plus proportional losses, plus board
  // overhead.  (Loads are modelled as current sources, so one pass solves
  // the network; voltage drops below are reporting-only.)
  state.feeder_current = util::Amperes{delivered.value() *
                                       (1.0 + params_.loss_fraction)} +
                         params_.overhead_quiescent;

  // Voltage at the board after the feeder drop; at each device after its
  // line drop.
  const util::Volts board_voltage =
      params_.supply - state.feeder_current * params_.feeder_resistance;
  state.feeder_voltage = board_voltage;  // meter senses bus at the board side
  for (auto& socket : state.sockets) {
    socket.bus_voltage = board_voltage - socket.current * params_.line_resistance;
  }
  return state;
}

std::pair<util::Amperes, util::Volts> DistributionNetwork::solve_feeder(
    sim::SimTime t) const {
  util::Amperes delivered{0.0};
  for (const auto& [id, demand] : sockets_) {
    delivered += demand(t);
  }
  const util::Amperes feeder =
      util::Amperes{delivered.value() * (1.0 + params_.loss_fraction)} +
      params_.overhead_quiescent;
  const util::Volts board =
      params_.supply - feeder * params_.feeder_resistance;
  cache_valid_ = true;
  cache_time_ = t;
  cached_board_voltage_ = board;
  return {feeder, board};
}

util::Volts DistributionNetwork::board_voltage_at(sim::SimTime t) const {
  if (cache_valid_ && params_.solve_cache_window > sim::Duration{0} &&
      t >= cache_time_ && t - cache_time_ <= params_.solve_cache_window) {
    return cached_board_voltage_;
  }
  return solve_feeder(t).second;
}

DistributionNetwork::Socket DistributionNetwork::socket(
    const std::string& device_id) const {
  const auto it = sockets_.find(device_id);
  return it == sockets_.end() ? Socket{} : Socket{&it->second};
}

hw::OperatingPoint DistributionNetwork::device_operating_point(
    const std::string& device_id, sim::SimTime t) const {
  return device_operating_point(socket(device_id), t);
}

hw::OperatingPoint DistributionNetwork::device_operating_point(
    Socket socket, sim::SimTime t) const {
  if (!socket) {
    // Unplugged: the sensor travels with the device and sees a dead bus.
    return hw::OperatingPoint{util::Amperes{0.0}, util::Volts{0.0}};
  }
  // O(1) per query: only this device's demand is evaluated; the shared
  // board voltage comes from the (possibly cached) feeder solve.
  const util::Amperes draw = (*socket.demand_)(t);
  const util::Volts board = board_voltage_at(t);
  return hw::OperatingPoint{draw,
                            board - draw * params_.line_resistance};
}

hw::OperatingPoint DistributionNetwork::feeder_operating_point(
    sim::SimTime t) const {
  // The centralized meter is always exact (it is the verification ground
  // truth); its solve also refreshes the board-voltage cache.
  const auto [feeder, board] = solve_feeder(t);
  return hw::OperatingPoint{feeder, board};
}

hw::ElectricalProbe DistributionNetwork::probe_for_device(
    std::string device_id) {
  return [this, id = std::move(device_id)]() {
    return device_operating_point(id, now_());
  };
}

hw::ElectricalProbe DistributionNetwork::feeder_probe() {
  return [this]() { return feeder_operating_point(now_()); };
}

}  // namespace emon::grid
