// The benchmark's own tests: the percentile helper, metric naming, the
// transparency of the layer decorators, span self time, and a tiny-size
// smoke run of every workload, untraced and traced.
#include <gtest/gtest.h>

#include <filesystem>
#include <regex>
#include <string>
#include <vector>

#include "exp/builders.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "fault/plan.hpp"
#include "layers.hpp"
#include "percentile.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

namespace exp = epi::exp;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

// --- percentile helper ---------------------------------------------------------

TEST(Percentile, PicksHighestPercentileWithTenSamplesBeyond) {
  struct Case {
    std::size_t n;
    double percentile;
    double value;
    std::size_t beyond;
  };
  for (const Case c : {Case{10000, 99.9, 9990, 10}, Case{1000, 99.0, 990, 10},
                       Case{999, 95.0, 950, 49}, Case{200, 95.0, 190, 10},
                       Case{100, 90.0, 90, 10}, Case{20, 50.0, 10, 10}}) {
    // Shuffled input: the helper sorts.
    std::vector<double> v = one_to(c.n);
    std::reverse(v.begin(), v.end());
    const perfbench::PercentileValue p = perfbench::highest_supported(v);
    EXPECT_EQ(p.percentile, c.percentile) << c.n;
    EXPECT_EQ(p.value, c.value) << c.n;
    EXPECT_EQ(p.samples, c.n);
    EXPECT_EQ(p.beyond, c.beyond) << c.n;
    EXPECT_GE(p.beyond, perfbench::kMinBeyond);
  }
}

TEST(Percentile, ReportsNothingBelowTwentySamples) {
  const perfbench::PercentileValue p = perfbench::highest_supported(one_to(19));
  EXPECT_EQ(p.samples, 19u);
  EXPECT_EQ(p.percentile, 0.0);
}

TEST(Percentile, MedianAndNames) {
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(perfbench::median({}), 0.0);
  EXPECT_EQ(perfbench::percentile_name("run_ms", 99.0), "run_ms_p99");
  EXPECT_EQ(perfbench::percentile_name("run_ms", 99.9), "run_ms_p99.9");
}

// --- metric names ------------------------------------------------------------------

TEST(MetricNames, MatchTheReportedCharacterSet) {
  const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
  std::vector<std::string> seen;
  for (const perfbench::MetricSpec& m : perfbench::per_layer_metrics()) {
    EXPECT_TRUE(std::regex_match(m.name, name)) << m.name;
    EXPECT_TRUE(std::regex_match(m.unit, unit)) << m.unit;
    EXPECT_EQ(std::count(seen.begin(), seen.end(), m.name), 0) << m.name;
    seen.emplace_back(m.name);
  }
}

// --- decorator transparency ---------------------------------------------------------

exp::RunSpec spec_for(const exp::ScenarioSpec& scenario, const char* protocol,
                      std::uint32_t load, std::uint32_t rep,
                      const epi::fault::FaultPlan& fault = {},
                      const epi::SummaryCodecParams& codec = {}) {
  epi::ProtocolParams params;
  params.kind = epi::protocol_from_string(protocol);
  return exp::RunSpecBuilder()
      .protocol(params)
      .scenario(scenario)
      .load(load)
      .replication(rep)
      .master_seed(7)
      .fault(fault)
      .summary(codec)
      .build();
}

constexpr const char* kProtocols[] = {
    "pure_epidemic", "pq_epidemic", "fixed_ttl",   "dynamic_ttl",
    "encounter_count", "ec_ttl",    "immunity",    "cumulative_immunity",
    "spray_and_wait",  "direct_delivery",
};

TEST(Decorators, ProfiledRunsEqualPlainRunsOnTraces) {
  const exp::ScenarioSpec scenario = exp::trace_scenario();
  const auto trace = exp::build_contact_trace(scenario, 7);
  const epi::fault::FaultPlan fault = epi::fault::FaultPlanBuilder()
                                          .slot_loss(0.2)
                                          .truncation(0.1)
                                          .duty_cycle(0.25, 7'200.0)
                                          .control_loss(0.2)
                                          .build();
  epi::SummaryCodecParams bloom;
  bloom.mode = epi::SummaryMode::kBloom;
  bloom.filter_bits = 8;
  for (const char* protocol : kProtocols) {
    for (const std::uint32_t load : {5u, 25u}) {
      for (const auto& [plan, codec] :
           {std::pair{epi::fault::FaultPlan{}, epi::SummaryCodecParams{}},
            std::pair{fault, bloom}}) {
        const exp::RunSpec spec =
            spec_for(scenario, protocol, load, 3, plan, codec);
        const epi::metrics::RunSummary plain = exp::run_single(spec, trace);
        const perfbench::RunProfile profiled =
            perfbench::run_profiled(spec, trace);
        EXPECT_TRUE(epi::metrics::deterministic_equal(plain, profiled.summary))
            << protocol << " load " << load;
        EXPECT_EQ(perfbench::reconcile(profiled), "") << protocol;
        EXPECT_GT(profiled.protocol_calls, 0u) << protocol;
        EXPECT_EQ(profiled.sink.events > 0, true) << protocol;
      }
    }
  }
}

TEST(Decorators, ProfiledRunsEqualPlainRunsOnStreams) {
  const exp::ScenarioSpec scenario = exp::large_scenario(128);
  const std::vector<epi::FlowSpec> flows = exp::large_flows(128, 4, 4);
  for (const char* protocol : {"pure_epidemic", "immunity", "pq_epidemic"}) {
    epi::ProtocolParams params;
    params.kind = epi::protocol_from_string(protocol);
    const exp::RunSpec spec = exp::RunSpecBuilder()
                                  .protocol(params)
                                  .scenario(scenario)
                                  .load(16)
                                  .flows(flows)
                                  .build();
    const auto plain_source = exp::build_contact_source(scenario, 9);
    const auto plain = exp::run_single(spec, *plain_source);
    const auto profiled_source = exp::build_contact_source(scenario, 9);
    const perfbench::RunProfile profiled =
        perfbench::run_profiled(spec, *profiled_source);
    EXPECT_TRUE(epi::metrics::deterministic_equal(plain, profiled.summary))
        << protocol;
    EXPECT_EQ(perfbench::reconcile(profiled), "") << protocol;
    EXPECT_GT(profiled.source_calls, 1u);
    EXPECT_GE(profiled.source_contacts, profiled.summary.perf.contacts);
  }
}

TEST(Decorators, LayerTimesAddUpToTheRun) {
  const exp::ScenarioSpec scenario = exp::trace_scenario();
  const auto trace = exp::build_contact_trace(scenario, 7);
  const perfbench::RunProfile p =
      perfbench::run_profiled(spec_for(scenario, "pure_epidemic", 25, 1), trace);
  std::uint64_t sum = 0;
  for (const std::uint64_t ns : p.layer_ns) sum += ns;
  EXPECT_GT(p.ns(perfbench::RunLayer::kEngine), 0u);
  EXPECT_GT(p.ns(perfbench::RunLayer::kProtocol), 0u);
  EXPECT_LE(sum, p.wall_ns);
}

// --- span self time ----------------------------------------------------------------

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  perfbench::SpanRecorder rec;
  const std::size_t parent = rec.begin("exp.sweep", 0);
  // Two overlapping children on pool lanes, and an aggregated child.
  const std::size_t a = rec.begin("exp.run", 1, parent);
  const std::size_t b = rec.begin("exp.run", 2, parent);
  rec.add_aggregate(a, "routing.protocol", 1000, 4);
  rec.end(a);
  rec.end(b);
  rec.end(parent);
  const auto rows = rec.self_times();
  EXPECT_EQ(rows.at("exp.run").calls, 2u);
  EXPECT_EQ(rows.at("routing.protocol").calls, 4u);
  EXPECT_DOUBLE_EQ(rows.at("routing.protocol").self_s, 1e-6);
  EXPECT_LE(rows.at("exp.sweep").self_s, rows.at("exp.sweep").total_s);
  EXPECT_GE(rows.at("exp.sweep").self_s, 0.0);
  EXPECT_EQ(rec.durations_us("exp.run").size(), 2u);
}

// --- tiny-size smoke of every workload ------------------------------------------------

class WorkloadSmoke : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadSmoke, RunsCleanUntracedAndTraced) {
  for (const bool trace : {false, true}) {
    perfbench::Options o;
    o.workload = GetParam();
    o.seed = 5;
    o.seconds = 0.0;
    o.trace = trace;
    o.work_dir = std::filesystem::current_path() / "smoke";
    o.sizes = perfbench::Sizes::tiny();
    const perfbench::Result r = perfbench::run_workload(o);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.failed, 0u) << (r.failures.empty() ? "" : r.failures[0]);
    for (const char* name : {"setup_s", "runs_per_s", "peak_rss_mib"}) {
      const auto it = std::find_if(
          r.end_to_end.begin(), r.end_to_end.end(),
          [&](const perfbench::Metric& m) { return m.name == name; });
      ASSERT_NE(it, r.end_to_end.end()) << name;
      EXPECT_GT(it->value, 0.0) << name;
    }
    if (trace) {
      ASSERT_EQ(r.per_layer.size(), perfbench::per_layer_metrics().size());
      for (std::size_t i = 0; i < r.per_layer.size(); ++i) {
        EXPECT_EQ(r.per_layer[i].name, perfbench::per_layer_metrics()[i].name);
      }
      EXPECT_FALSE(r.self_time_table.empty());
    } else {
      EXPECT_TRUE(r.per_layer.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSmoke,
                         ::testing::Values("paper_figures",
                                           "paper_figures_warm", "city_stream",
                                           "bloom_faults"));

TEST(Workloads, UnknownNameIsRejected) {
  perfbench::Options o;
  o.workload = "nope";
  o.work_dir = std::filesystem::current_path() / "smoke";
  EXPECT_THROW((void)perfbench::run_workload(o), std::invalid_argument);
}

}  // namespace
