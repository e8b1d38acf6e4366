// Tests for the levelled-network simulator: validation, single-queue
// sanity against M/D/1 / PS closed forms, a single PS server against the
// independent ps_departure_times oracle, and the Lemma 9 dominance on the
// three-server network G.

#include "queueing/levelled_network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "core/equivalence.hpp"
#include "queueing/analytic.hpp"
#include "queueing/ps_server.hpp"
#include "stats/little.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace routesim {
namespace {

LevelledNetworkConfig single_server(double rate, Discipline discipline,
                                    std::uint64_t seed) {
  LevelledNetworkConfig config;
  config.discipline = discipline;
  config.seed = seed;
  config.servers.resize(1);
  config.servers[0].external_rate = rate;
  return config;
}

TEST(LevelledNetwork, RejectsEmptyNetwork) {
  LevelledNetworkConfig config;
  EXPECT_THROW(LevelledNetwork net(config), ContractViolation);
}

TEST(LevelledNetwork, RejectsNonLevelledRouting) {
  LevelledNetworkConfig config;
  config.servers.resize(2);
  config.servers[1].routing = {RoutingChoice{0.5, 0}};  // backwards edge
  EXPECT_THROW(LevelledNetwork net(config), ContractViolation);
}

TEST(LevelledNetwork, RejectsSelfLoop) {
  LevelledNetworkConfig config;
  config.servers.resize(1);
  config.servers[0].routing = {RoutingChoice{0.5, 0}};
  EXPECT_THROW(LevelledNetwork net(config), ContractViolation);
}

TEST(LevelledNetwork, RejectsProbabilitiesAboveOne) {
  LevelledNetworkConfig config;
  config.servers.resize(2);
  config.servers[0].routing = {RoutingChoice{0.7, 1}, RoutingChoice{0.5, 1}};
  EXPECT_THROW(LevelledNetwork net(config), ContractViolation);
}

TEST(LevelledNetwork, SingleFifoQueueMatchesMD1) {
  const double rho = 0.6;
  LevelledNetwork net(single_server(rho, Discipline::kFifo, 42));
  net.run(2000.0, 600000.0);
  // Kleinrock: sojourn 1 + rho/(2(1-rho)) = 1.75 at rho = 0.6.
  EXPECT_NEAR(net.delay().mean(), md1_sojourn_time(rho), 0.03);
  EXPECT_NEAR(net.time_avg_population(), md1_mean_number(rho), 0.03);
}

TEST(LevelledNetwork, SinglePsQueueMatchesGeometricPopulation) {
  // M/D/1-PS is product-form insensitive: N = rho/(1-rho), T = 1/(1-rho).
  const double rho = 0.6;
  LevelledNetwork net(single_server(rho, Discipline::kPs, 43));
  net.run(2000.0, 600000.0);
  EXPECT_NEAR(net.time_avg_population(), mm1_mean_number(rho), 0.05);
  EXPECT_NEAR(net.delay().mean(), mm1_sojourn_time(rho), 0.05);
}

TEST(LevelledNetwork, LittleLawHolds) {
  LevelledNetwork net(single_server(0.7, Discipline::kFifo, 44));
  net.run(1000.0, 200000.0);
  LittleCheck check;
  check.time_avg_population = net.time_avg_population();
  check.arrival_rate = static_cast<double>(net.arrivals_in_window()) / 199000.0;
  check.mean_sojourn = net.delay().mean();
  EXPECT_TRUE(check.consistent(0.03)) << "error " << check.relative_error();
}

TEST(LevelledNetwork, ThroughputEqualsArrivalRateWhenStable) {
  LevelledNetwork net(single_server(0.5, Discipline::kFifo, 45));
  net.run(1000.0, 101000.0);
  EXPECT_NEAR(net.throughput(), 0.5, 0.02);
}

TEST(LevelledNetwork, TandemRoutingForwardsCustomers) {
  // Two servers in series: all customers traverse both.
  LevelledNetworkConfig config;
  config.seed = 46;
  config.servers.resize(2);
  config.servers[0].external_rate = 0.5;
  config.servers[0].routing = {RoutingChoice{1.0, 1}};
  LevelledNetwork net(config);
  net.run(500.0, 50500.0);
  const auto& stats = net.server_stats();
  EXPECT_NEAR(static_cast<double>(stats[1].total_arrivals) /
                  static_cast<double>(stats[0].departures),
              1.0, 0.01);
  // Sojourn of a tandem with deterministic unit servers is at least 2.
  EXPECT_GE(net.delay().mean(), 2.0);
}

TEST(LevelledNetwork, RoutingSplitMatchesProbabilities) {
  LevelledNetworkConfig config;
  config.seed = 47;
  config.servers.resize(3);
  config.servers[0].external_rate = 0.5;
  config.servers[0].routing = {RoutingChoice{0.25, 1}, RoutingChoice{0.5, 2}};
  LevelledNetwork net(config);
  net.run(0.0, 200000.0);
  const auto& stats = net.server_stats();
  const double total = static_cast<double>(stats[0].departures);
  EXPECT_NEAR(static_cast<double>(stats[1].total_arrivals) / total, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(stats[2].total_arrivals) / total, 0.5, 0.01);
}

// The simulator's PS path (indexed event set, sorted ring, virtual-time
// updates at every event) must reproduce the sample path of the oracle in
// queueing/ps_server.cpp, which keeps its own std::multimap.  Server 0's
// external arrivals are rebuilt from its dedicated stream
// derive_stream(seed, 0), exactly as the simulator draws them.
TEST(LevelledNetwork, SinglePsServerMatchesDepartureOracle) {
  struct Case {
    double service_rate, arrival_rate;
    std::uint64_t seed;
  };
  const double warmup = 200.0;
  const double horizon = 20200.0;
  for (const Case& c : {Case{1.0, 0.8, 61}, Case{2.5, 2.0, 62}, Case{1.0, 0.95, 63}}) {
    auto config = single_server(c.arrival_rate, Discipline::kPs, c.seed);
    config.servers[0].service_rate = c.service_rate;
    LevelledNetwork net(config);
    net.run(warmup, horizon);

    Rng rng(derive_stream(c.seed, 0));
    std::vector<double> arrivals;
    for (double t = sample_exponential(rng, c.arrival_rate); t <= horizon;
         t += sample_exponential(rng, c.arrival_rate)) {
      arrivals.push_back(t);
    }
    const std::vector<double> departures = ps_departure_times(arrivals, c.service_rate);
    double sum = 0.0;
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i] >= warmup && departures[i] <= horizon) {
        sum += departures[i] - arrivals[i];
        ++count;
      }
    }
    ASSERT_GT(count, 1000u);
    EXPECT_EQ(net.delay().count(), count) << "seed " << c.seed;
    const double oracle_mean = sum / static_cast<double>(count);
    EXPECT_NEAR(net.delay().mean(), oracle_mean, 1e-9 * oracle_mean) << "seed " << c.seed;
  }
}

// The PS queue is a Ring kept sorted by finish tag with insert_sorted and
// the simulator's finish-tag comparator.  Customers that enter at an equal
// virtual time must leave in the order they entered, and a tag that
// rounding drift puts below its predecessor must move past strictly larger
// tags only — both exactly as the oracle's std::multimap orders them.
TEST(LevelledNetwork, PsQueueOrdersEqualTagsByEntry) {
  struct Tagged {
    double finish_vt = 0.0;
    std::uint32_t customer = 0;
  };
  const auto less = [](const Tagged& a, const Tagged& b) {
    return a.finish_vt < b.finish_vt;
  };
  Ring<Tagged> ring;
  std::multimap<double, std::uint32_t> reference;
  Rng rng(64);
  double virtual_time = 0.0;
  std::uint32_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    if (reference.empty() || rng.bernoulli(0.55)) {
      // Mostly in-order tags, with runs of equal tags and rare inversions.
      double tag = virtual_time + 1.0;
      const double u = rng.uniform();
      if (u < 0.3) {
        virtual_time += 0.25;
      } else if (u < 0.35) {
        tag = std::nextafter(tag, 0.0);
      }
      ring.insert_sorted(Tagged{tag, next}, less);
      reference.emplace(tag, next);
      ++next;
    } else {
      const Tagged front = ring.pop_front();
      const auto it = reference.begin();
      ASSERT_EQ(front.finish_vt, it->first) << "step " << step;
      ASSERT_EQ(front.customer, it->second) << "step " << step;
      reference.erase(it);
    }
    ASSERT_EQ(ring.size(), reference.size());
  }

  // Three customers entering at one virtual time leave in entry order.
  Ring<Tagged> tie;
  for (std::uint32_t customer : {7u, 3u, 5u}) tie.insert_sorted(Tagged{2.0, customer}, less);
  tie.insert_sorted(Tagged{1.5, 9u}, less);
  EXPECT_EQ(tie.pop_front().customer, 9u);
  EXPECT_EQ(tie.pop_front().customer, 7u);
  EXPECT_EQ(tie.pop_front().customer, 3u);
  EXPECT_EQ(tie.pop_front().customer, 5u);
}

TEST(LevelledNetwork, CoupledUniformIsStateless) {
  const double u1 = LevelledNetwork::coupled_uniform(9, 3, 17);
  const double u2 = LevelledNetwork::coupled_uniform(9, 3, 17);
  EXPECT_DOUBLE_EQ(u1, u2);
  EXPECT_NE(LevelledNetwork::coupled_uniform(9, 3, 18), u1);
  EXPECT_NE(LevelledNetwork::coupled_uniform(9, 4, 17), u1);
  EXPECT_NE(LevelledNetwork::coupled_uniform(10, 3, 17), u1);
}

TEST(LevelledNetwork, IdenticalSeedsGiveIdenticalArrivals) {
  // Coupling prerequisite: FIFO and PS runs with one seed see the same
  // external arrival counts (they consume per-server dedicated streams).
  auto fifo_cfg = make_lemma9_network(0.4, 0.5, 0.2, 0.6, 0.7, Discipline::kFifo, 99);
  auto ps_cfg = make_lemma9_network(0.4, 0.5, 0.2, 0.6, 0.7, Discipline::kPs, 99);
  LevelledNetwork fifo(fifo_cfg), ps(ps_cfg);
  fifo.run(0.0, 20000.0);
  ps.run(0.0, 20000.0);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(fifo.server_stats()[s].external_arrivals,
              ps.server_stats()[s].external_arrivals);
  }
}

// Lemma 9: on the coupled sample path, the FIFO network G has departed at
// least as many customers as the PS network G~ at every time.
class Lemma9Dominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma9Dominance, FifoDepartureCountsDominate) {
  std::vector<double> checkpoints;
  for (int i = 1; i <= 200; ++i) checkpoints.push_back(50.0 * i);

  auto fifo_cfg =
      make_lemma9_network(0.45, 0.55, 0.15, 0.5, 0.6, Discipline::kFifo, GetParam());
  auto ps_cfg =
      make_lemma9_network(0.45, 0.55, 0.15, 0.5, 0.6, Discipline::kPs, GetParam());
  LevelledNetwork fifo(fifo_cfg), ps(ps_cfg);
  fifo.set_checkpoints(checkpoints);
  ps.set_checkpoints(checkpoints);
  fifo.run(0.0, 10001.0);
  ps.run(0.0, 10001.0);

  const auto& b_fifo = fifo.checkpoint_departures();
  const auto& b_ps = ps.checkpoint_departures();
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    EXPECT_GE(b_fifo[i], b_ps[i]) << "t = " << checkpoints[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma9Dominance,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(LevelledNetwork, PerServerOccupancyTracking) {
  auto config = single_server(0.6, Discipline::kFifo, 48);
  config.track_per_server = true;
  LevelledNetwork net(config);
  net.run(1000.0, 101000.0);
  EXPECT_NEAR(net.server_stats()[0].mean_occupancy, md1_mean_number(0.6), 0.05);
}

}  // namespace
}  // namespace routesim
