// Golden bytes for every text format the library persists or serves: store
// records, serve query replies, campaign JSONL lines, scenario text (the
// store key) and trace files with their fingerprints (which enter cache
// keys).  Existing stores and traces were written in exactly these bytes,
// so a change that moves one byte of them fails here.

#include <cfloat>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "serve/service.hpp"
#include "store/result_store.hpp"
#include "workload/trace.hpp"

namespace routesim {
namespace {

Scenario golden_scenario() {
  return Scenario::parse({"hypercube_greedy", "d=5", "rho=0.7", "p=0.3", "tau=0.25",
                          "fault_rate=0.02", "fault_policy=adaptive", "ttl=40",
                          "measure=1234.5", "reps=3", "seed=12345678901234"});
}

/// Every number shape the formatter distinguishes: a rung-1 integer that
/// prints in exponent form (30 -> 3e+01), a %.17g fallback, extremes,
/// negative zero and the non-finite spellings.
RunResult golden_result() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RunResult result;
  result.rho = 0.7;
  result.delay = {1.0 / 3.0, 30.0};
  result.population = {1e-300, 5e-324};
  result.throughput = {DBL_MAX, -0.0};
  result.mean_hops = 2.5;
  result.max_little_error = std::numeric_limits<double>::quiet_NaN();
  result.mean_final_backlog = kInf;
  result.has_bounds = true;
  result.lower_bound = 0.1;
  result.upper_bound = 123456789.0;
  result.extras = {{"deflect\"ion", {0.125, 1e21}}, {"round\nlen", {-kInf, 7e-5}}};
  return result;
}

const std::string kResolvedText =
    "hypercube_greedy d=5 topology=native torus_dims=4x4 lambda=2.3333333333333335 "
    "p=0.3 tau=0.25 discipline=fifo workload=bit_flip permutation=bit_reversal "
    "hotspot_frac=0.1 fanout=4 unicast_baseline=0 buffers=0 fault_rate=0.02 "
    "node_fault_rate=0 fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
    "storm_duration=0 fault_policy=adaptive ttl=40 warmup=0 horizon=0 "
    "measure=1234.5 reps=3 seed=12345678901234 threads=0 backend=scalar";

const std::string kResultJson =
    R"({"rho":0.7,"delay_mean":0.33333333333333331,"delay_half_width":3e+01,)"
    R"("population_mean":1e-300,"population_half_width":5e-324,)"
    R"("throughput_mean":1.7976931348623157e+308,"throughput_half_width":-0,)"
    R"("mean_hops":2.5,"max_little_error":"nan","mean_final_backlog":"inf",)"
    R"("has_bounds":true,"lower_bound":0.1,"upper_bound":123456789,)"
    R"("extras":{"deflect\"ion":{"mean":0.125,"half_width":1e+21},)"
    R"("round\nlen":{"mean":"-inf","half_width":7e-05}}})";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(TextGolden, ScenarioText) {
  EXPECT_EQ(golden_scenario().resolved().to_string(), kResolvedText);
  EXPECT_EQ(ResultCache::key(golden_scenario()), kResolvedText);
  EXPECT_EQ(golden_scenario().to_string(),
            "hypercube_greedy d=5 topology=native torus_dims=4x4 lambda=0.1 rho=0.7 "
            "p=0.3 tau=0.25 discipline=fifo workload=bit_flip permutation=bit_reversal "
            "hotspot_frac=0.1 fanout=4 unicast_baseline=0 buffers=0 fault_rate=0.02 "
            "node_fault_rate=0 fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
            "storm_duration=0 fault_policy=adaptive ttl=40 warmup=0 horizon=0 "
            "measure=1234.5 reps=3 seed=12345678901234 threads=0 backend=scalar");
  EXPECT_EQ(Scenario::parse({"hypercube_greedy", "d=2", "workload=general",
                             "mask_pmf=0.1,0.2,0.3,0.4", "topology=ring",
                             "ring_chords=papillon", "rho=0.35", "warmup=10",
                             "horizon=1e6"})
                .to_string(),
            "hypercube_greedy d=2 topology=ring ring_chords=papillon torus_dims=4x4 "
            "lambda=0.1 rho=0.35 p=0.5 tau=0 discipline=fifo workload=general "
            "mask_pmf=0.1,0.2,0.3,0.4 permutation=bit_reversal hotspot_frac=0.1 "
            "fanout=4 unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 "
            "fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 storm_duration=0 "
            "fault_policy=drop ttl=0 warmup=1e+01 horizon=1e+06 measure=4e+03 reps=8 "
            "seed=1 threads=0 backend=scalar");
  EXPECT_EQ(Scenario::parse({"hypercube_greedy", "d=3", "workload=trace",
                             "trace_file=recorded.jsonl", "lambda=0.015625", "tau=1e-9"})
                .to_string(),
            "hypercube_greedy d=3 topology=native torus_dims=4x4 lambda=0.015625 p=0.5 "
            "tau=1e-09 discipline=fifo workload=trace trace_file=recorded.jsonl "
            "permutation=bit_reversal hotspot_frac=0.1 fanout=4 unicast_baseline=0 "
            "buffers=0 fault_rate=0 node_fault_rate=0 fault_mtbf=0 fault_mttr=0 "
            "storm_rate=0 storm_radius=1 storm_duration=0 fault_policy=drop ttl=0 "
            "warmup=0 horizon=0 measure=4e+03 reps=8 seed=1 threads=0 backend=scalar");
}

TEST(TextGolden, StoreRecord) {
  const Scenario scenario = golden_scenario().resolved();
  EXPECT_EQ(store_record_json(ResultCache::key(scenario), scenario, golden_result()),
            R"({"v":1,"key":")" + kResolvedText + R"(","scenario":")" + kResolvedText +
                R"(","result":)" + kResultJson + "}");
  EXPECT_EQ(result_to_json(golden_result()), kResultJson);
}

TEST(TextGolden, ServeQueryReply) {
  const std::string path = ::testing::TempDir() + "golden_reply_store.jsonl";
  std::remove(path.c_str());
  ResultStore store(path);
  store.put(golden_scenario(), golden_result());
  serve::QueryService service({1, &store});
  const std::string line = R"({"op":"query","id":12.5,"scenario":")" +
                           golden_scenario().to_string() + R"("})";
  std::vector<std::string> replies;
  serve::handle_request(service, line,
                        [&](const std::string& reply) { replies.push_back(reply); });
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0], R"({"op":"query","id":12.5,"ok":true,"source":"store","key":")" +
                            kResolvedText + R"(","scenario":")" + kResolvedText +
                            R"(","result":)" + kResultJson + "}");
  std::remove(path.c_str());
}

TEST(TextGolden, CampaignJsonlLine) {
  CellResult cell;
  cell.index = 17;
  cell.label = "rho=0.7 \"x\"";
  cell.scenario = golden_scenario().resolved();
  cell.result = golden_result();
  cell.from_cache = true;
  cell.wall_time_s = 0.015625;
  const std::string metrics =
      R"("rho":0.7,"delay_mean":0.33333333333333331,"delay_half_width":3e+01,)"
      R"("population_mean":1e-300,"population_half_width":5e-324,)"
      R"("throughput_mean":1.7976931348623157e+308,"throughput_half_width":-0,)"
      R"("mean_hops":2.5,"max_little_error":null,"mean_final_backlog":null,)";
  const std::string extras =
      R"("extras":{"deflect\"ion":{"mean":0.125,"half_width":1e+21},)"
      R"("round\nlen":{"mean":null,"half_width":7e-05}}})";
  EXPECT_EQ(JsonlSink::to_json("camp\tA", cell),
            R"({"campaign":"camp\tA","cell":17,"label":"rho=0.7 \"x\"","scenario":")" +
                kResolvedText +
                R"(","from_cache":true,"from_store":false,"tier":"cache",)"
                R"("wall_time_s":0.015625,)" +
                metrics + R"("has_bounds":true,"lower_bound":0.1,"upper_bound":123456789,)" +
                extras);
  cell.result.has_bounds = false;
  cell.from_store = true;
  EXPECT_EQ(JsonlSink::to_json("c", cell),
            R"({"campaign":"c","cell":17,"label":"rho=0.7 \"x\"","scenario":")" +
                kResolvedText +
                R"(","from_cache":true,"from_store":true,"tier":"store",)"
                R"("wall_time_s":0.015625,)" +
                metrics + R"("has_bounds":false,)" + extras);
}

TEST(TextGolden, TraceFileAndFingerprint) {
  PacketTrace shapes;
  shapes.dimension = 3;
  shapes.rate_per_node = 0.5;
  for (const double time : {0.0, 1e-7, 0.1, 1.0 / 3.0, 2.5, 30.0, 123456789.125, 6.02e23}) {
    shapes.packets.push_back({time, 5, 2});
  }
  const std::string shapes_path = ::testing::TempDir() + "golden_shapes.jsonl";
  save_trace_jsonl(shapes, shapes_path);
  EXPECT_EQ(read_file(shapes_path),
            R"({"t":0,"src":5,"dst":2}
{"t":1e-07,"src":5,"dst":2}
{"t":0.1,"src":5,"dst":2}
{"t":0.33333333333333331,"src":5,"dst":2}
{"t":2.5,"src":5,"dst":2}
{"t":3e+01,"src":5,"dst":2}
{"t":123456789.125,"src":5,"dst":2}
{"t":6.02e+23,"src":5,"dst":2}
)");
  EXPECT_EQ(trace_file_fingerprint(shapes_path), 0x4e4849ed5660b5aaull);

  const PacketTrace generated = generate_hypercube_trace(
      3, 0.5, DestinationDistribution::bit_flip(3, 0.3), 6.0, 99);
  const std::string generated_path = ::testing::TempDir() + "golden_generated.jsonl";
  save_trace_jsonl(generated, generated_path);
  EXPECT_EQ(read_file(generated_path),
            R"({"t":0.35672783226641525,"src":1,"dst":4}
{"t":0.94884605638391872,"src":0,"dst":2}
{"t":1.1376029018537483,"src":3,"dst":3}
{"t":1.6202089836275908,"src":6,"dst":6}
{"t":1.6264839381045191,"src":7,"dst":3}
{"t":1.8752721132186791,"src":1,"dst":3}
{"t":1.9260584618542993,"src":1,"dst":7}
{"t":2.4667965018203888,"src":0,"dst":0}
{"t":3.0309479048520278,"src":7,"dst":7}
{"t":3.7697194141666825,"src":0,"dst":4}
{"t":4.1404126553384417,"src":4,"dst":6}
{"t":4.4888838420155865,"src":0,"dst":0}
{"t":4.89619410167107,"src":3,"dst":2}
{"t":5.1461765181393089,"src":1,"dst":3}
{"t":5.4711113942387861,"src":2,"dst":2}
{"t":5.6424068689514346,"src":2,"dst":3}
{"t":5.8243738101906048,"src":6,"dst":6}
{"t":5.8832783783180993,"src":4,"dst":1}
{"t":5.931414039817632,"src":0,"dst":5}
{"t":5.9540598707864332,"src":3,"dst":2}
{"t":5.9939919023284123,"src":6,"dst":2}
)");
  EXPECT_EQ(trace_file_fingerprint(generated_path), 0xf668bd30b5523e53ull);
  std::remove(shapes_path.c_str());
  std::remove(generated_path.c_str());
}

}  // namespace
}  // namespace routesim
