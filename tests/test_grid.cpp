// Unit tests for emon::grid — the DC distribution model that produces the
// centralized-vs-decentralized measurement gap of Figure 5.

#include <gtest/gtest.h>

#include <string>

#include "grid/distribution.hpp"
#include "sim/kernel.hpp"

namespace emon::grid {
namespace {

using sim::SimTime;
using util::as_milliamps;
using util::as_millivolts;
using util::milliamps;

DistributionNetwork make_net(DistributionParams params = {}) {
  static sim::Kernel kernel;  // time source only; tests solve at t=0
  return DistributionNetwork{"wan-t", params, [] { return SimTime{0}; }};
}

DemandFn constant_ma(double ma) {
  return [ma](SimTime) { return milliamps(ma); };
}

TEST(Grid, EmptyNetworkDrawsOnlyOverhead) {
  auto net = make_net();
  const auto state = net.solve(SimTime{0});
  EXPECT_TRUE(state.sockets.empty());
  EXPECT_NEAR(as_milliamps(state.feeder_current), 2.0, 1e-9);  // quiescent
}

TEST(Grid, PlugUnplugLifecycle) {
  auto net = make_net();
  EXPECT_TRUE(net.plug("d1", constant_ma(100.0)));
  EXPECT_FALSE(net.plug("d1", constant_ma(50.0)));  // duplicate
  EXPECT_TRUE(net.is_plugged("d1"));
  EXPECT_EQ(net.device_count(), 1u);
  EXPECT_TRUE(net.unplug("d1"));
  EXPECT_FALSE(net.unplug("d1"));
  EXPECT_FALSE(net.is_plugged("d1"));
}

TEST(Grid, PlugRequiresDemandFn) {
  auto net = make_net();
  EXPECT_THROW(net.plug("d1", nullptr), std::invalid_argument);
}

TEST(Grid, FeederSeesLoadPlusLossesPlusOverhead) {
  DistributionParams params;
  params.overhead_quiescent = milliamps(2.0);
  params.loss_fraction = 0.03;
  auto net = make_net(params);
  net.plug("d1", constant_ma(100.0));
  net.plug("d2", constant_ma(50.0));
  const auto state = net.solve(SimTime{0});
  // 150 * 1.03 + 2 = 156.5 mA.
  EXPECT_NEAR(as_milliamps(state.feeder_current), 156.5, 1e-9);
}

TEST(Grid, FeederAlwaysExceedsDeviceSum) {
  // The architectural property behind Figure 5: the centralized measurement
  // point reads more than the sum of the device-side ones.
  auto net = make_net();
  net.plug("d1", constant_ma(30.0));
  net.plug("d2", constant_ma(75.0));
  const auto state = net.solve(SimTime{0});
  double device_sum = 0.0;
  for (const auto& socket : state.sockets) {
    device_sum += as_milliamps(socket.current);
  }
  EXPECT_GT(as_milliamps(state.feeder_current), device_sum);
}

TEST(Grid, VoltageDropsDownstream) {
  DistributionParams params;
  params.supply = util::volts(5.0);
  params.feeder_resistance = util::ohms(0.05);
  params.line_resistance = util::ohms(0.08);
  auto net = make_net(params);
  net.plug("d1", constant_ma(1000.0));
  const auto state = net.solve(SimTime{0});
  // Feeder current = 1000*1.03 + 2 = 1032 mA; board V = 5 - 1.032*0.05.
  EXPECT_NEAR(as_millivolts(state.feeder_voltage), 5000.0 - 1.032 * 0.05 * 1000,
              1e-6);
  // Device bus voltage additionally drops across its line.
  EXPECT_NEAR(as_millivolts(state.sockets[0].bus_voltage),
              as_millivolts(state.feeder_voltage) - 1.0 * 0.08 * 1000, 1e-6);
  EXPECT_LT(as_millivolts(state.sockets[0].bus_voltage),
            as_millivolts(state.feeder_voltage));
}

TEST(Grid, DeviceOperatingPointMatchesDemand) {
  auto net = make_net();
  net.plug("d1", constant_ma(123.0));
  const auto point = net.device_operating_point("d1", SimTime{0});
  EXPECT_NEAR(as_milliamps(point.current), 123.0, 1e-9);
  EXPECT_GT(as_millivolts(point.bus_voltage), 4900.0);
}

TEST(Grid, UnpluggedDeviceSeesDeadBus) {
  auto net = make_net();
  const auto point = net.device_operating_point("ghost", SimTime{0});
  EXPECT_DOUBLE_EQ(point.current.value(), 0.0);
  EXPECT_DOUBLE_EQ(point.bus_voltage.value(), 0.0);
}

TEST(Grid, SocketHandleReadsLikeTheByIdLookup) {
  auto net = make_net();
  EXPECT_FALSE(static_cast<bool>(net.socket("d1")));
  net.plug("d1", constant_ma(123.0));
  const DistributionNetwork::Socket socket = net.socket("d1");
  ASSERT_TRUE(static_cast<bool>(socket));
  // Other devices plugging in (map inserts) leave the handle valid.
  for (int i = 0; i < 100; ++i) {
    net.plug("other-" + std::to_string(i), constant_ma(10.0));
  }
  const auto by_id = net.device_operating_point("d1", SimTime{0});
  const auto by_socket = net.device_operating_point(socket, SimTime{0});
  EXPECT_EQ(by_socket.current.value(), by_id.current.value());
  EXPECT_EQ(by_socket.bus_voltage.value(), by_id.bus_voltage.value());
  EXPECT_NEAR(as_milliamps(by_socket.current), 123.0, 1e-9);
  // A null handle reads as unplugged.
  const auto dead = net.device_operating_point(DistributionNetwork::Socket{},
                                               SimTime{0});
  EXPECT_DOUBLE_EQ(dead.current.value(), 0.0);
  EXPECT_DOUBLE_EQ(dead.bus_voltage.value(), 0.0);
}

TEST(Grid, ProbesTrackLiveState) {
  auto net = make_net();
  auto feeder_probe = net.feeder_probe();
  auto device_probe = net.probe_for_device("d1");
  // Before plug: only overhead at the feeder, dead bus at the device.
  EXPECT_NEAR(as_milliamps(feeder_probe().current), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(device_probe().current.value(), 0.0);
  net.plug("d1", constant_ma(200.0));
  EXPECT_NEAR(as_milliamps(feeder_probe().current), 208.0, 1e-9);
  EXPECT_NEAR(as_milliamps(device_probe().current), 200.0, 1e-9);
  net.unplug("d1");
  EXPECT_NEAR(as_milliamps(feeder_probe().current), 2.0, 1e-9);
}

TEST(Grid, TimeVaryingDemandFollowed) {
  sim::Kernel kernel;
  DistributionNetwork net{"wan-t", {}, [&kernel] { return kernel.now(); }};
  net.plug("d1", [](SimTime t) {
    return milliamps(t.ns() < sim::seconds(1).ns() ? 10.0 : 90.0);
  });
  EXPECT_NEAR(as_milliamps(net.solve(SimTime{0}).feeder_current),
              10.0 * 1.03 + 2.0, 1e-9);
  EXPECT_NEAR(
      as_milliamps(net.solve(SimTime{sim::seconds(2).ns()}).feeder_current),
      90.0 * 1.03 + 2.0, 1e-9);
}

TEST(Grid, GapFractionInPaperBandAcrossLoads) {
  // With default parameters the relative feeder-vs-sum gap must stay inside
  // the paper's observed 0.9-8.2 % across realistic load levels.
  for (double load_ma : {40.0, 80.0, 150.0, 250.0, 400.0}) {
    auto net = make_net();
    net.plug("d1", constant_ma(load_ma * 0.6));
    net.plug("d2", constant_ma(load_ma * 0.4));
    const auto state = net.solve(SimTime{0});
    double device_sum = 0.0;
    for (const auto& socket : state.sockets) {
      device_sum += as_milliamps(socket.current);
    }
    const double gap =
        (as_milliamps(state.feeder_current) - device_sum) / device_sum;
    EXPECT_GT(gap, 0.009) << load_ma;
    EXPECT_LT(gap, 0.082) << load_ma;
  }
}

TEST(Grid, ValidatesParameters) {
  DistributionParams bad_supply;
  bad_supply.supply = util::volts(0.0);
  EXPECT_THROW(DistributionNetwork("x", bad_supply, [] { return SimTime{0}; }),
               std::invalid_argument);
  DistributionParams bad_loss;
  bad_loss.loss_fraction = -0.1;
  EXPECT_THROW(DistributionNetwork("x", bad_loss, [] { return SimTime{0}; }),
               std::invalid_argument);
  EXPECT_THROW(DistributionNetwork("x", {}, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace emon::grid
