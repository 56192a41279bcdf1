#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/rng.hpp"
#include "exp/builders.hpp"
#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "exp/thread_pool.hpp"
#include "fault/plan.hpp"
#include "layers.hpp"
#include "percentile.hpp"
#include "provenance.hpp"
#include "spans.hpp"
#include "store/run_store.hpp"

namespace perfbench {

namespace exp = epi::exp;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr const char* kWorkloads[] = {"paper_figures", "paper_figures_warm",
                                      "city_stream", "bloom_faults"};

constexpr MetricSpec kPerLayer[] = {
    {"mobility.trace_build_s", "s"},
    {"mobility.next_chunk_s", "s"},
    {"mobility.contacts", "count"},
    {"mobility.ns_per_contact", "ns"},
    {"core.events", "count"},
    {"core.peak_queue_depth", "count"},
    {"routing.construct_s", "s"},
    {"routing.run_self_s", "s"},
    {"routing.ns_per_event", "ns"},
    {"routing.protocol_calls", "count"},
    {"routing.protocol_s", "s"},
    {"routing.offer_accept_frac", "ratio"},
    {"routing.scratch_reuse_frac", "ratio"},
    {"routing.transfers", "count"},
    {"routing.refused_full", "count"},
    {"dtn.summary_exchanges", "count"},
    {"dtn.ad_bytes", "B"},
    {"dtn.fp_suppressed", "count"},
    {"fault.slots_lost", "count"},
    {"fault.down_slots", "count"},
    {"fault.control_dropped", "count"},
    {"fault.contacts_truncated", "count"},
    {"metrics.aggregate_s", "s"},
    {"exp.report_s", "s"},
    {"exp.sweep_s", "s"},
    {"exp.pool_busy_frac", "ratio"},
    {"store.open_s", "s"},
    {"store.find_s", "s"},
    {"store.find_us_p50", "us"},
    {"store.put_s", "s"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.bytes", "B"},
    {"store.segments", "count"},
    {"obs.sink_s", "s"},
    {"obs.sink_events", "count"},
    {"obs.trace_overhead_frac", "ratio"},
};

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter survives execve, so it would report the launching
/// interpreter's footprint when that was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- output checks ---------------------------------------------------------------

/// Tallies checked runs; keeps the first few failure messages.
class Checker {
 public:
  /// One run checked; `why` is empty when it passed.
  void run(const std::string& why) {
    ++attempted_;
    if (why.empty()) return;
    ++failed_;
    if (messages_.size() < 10) messages_.push_back(why);
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Properties every RunSummary has by definition, whatever the protocol.
std::string invariant_violations(const metrics::RunSummary& s) {
  std::string why;
  if (!(s.delivery_ratio >= 0.0 && s.delivery_ratio <= 1.0)) {
    why += "delivery_ratio outside [0,1]; ";
  }
  if (s.load > 0 && s.complete != (s.delivery_ratio >= 1.0)) {
    why += "complete disagrees with delivery_ratio; ";
  }
  const double delivered = s.delivery_ratio * static_cast<double>(s.load);
  if (delivered > static_cast<double>(s.bundle_transmissions) + 0.5) {
    why += "more deliveries than transmissions; ";
  }
  for (const double f : s.flow_delivery) {
    if (!(f >= 0.0 && f <= 1.0)) why += "flow delivery outside [0,1]; ";
  }
  if (s.perf.events_processed == 0) why += "no events processed; ";
  return why;
}

/// Checks `got` against the reference run of the same coordinates.
std::string compare_run(const metrics::RunSummary& ref,
                        const metrics::RunSummary& got) {
  std::string why = invariant_violations(got);
  if (!metrics::deterministic_equal(ref, got)) {
    why += "summary differs from the reference run; ";
  }
  return why;
}

// --- per-pass measurements ------------------------------------------------------

struct PassStats {
  double wall_s = 0.0;
  std::uint64_t runs = 0;    ///< simulated or store-served
  std::uint64_t events = 0;  ///< simulated engine events
  std::vector<double> run_ms;
};

/// Durations (ms) of the sweep's per-replication spans.
std::vector<double> span_durations_ms(const obs::ChromeTraceWriter& chrome) {
  std::ostringstream out;
  chrome.write(out);
  const std::string text = out.str();
  std::vector<double> ms;
  ms.reserve(chrome.span_count());
  constexpr std::string_view kKey = "\"dur\":";
  for (std::size_t at = text.find(kKey); at != std::string::npos;
       at = text.find(kKey, at + kKey.size())) {
    ms.push_back(std::strtod(text.c_str() + at + kKey.size(), nullptr) / 1e3);
  }
  return ms;
}

/// Per-pass totals of the traced run, summed over every profiled run.
struct LayerTotals {
  std::mutex mutex;
  std::array<std::uint64_t, static_cast<std::size_t>(RunLayer::kCount)>
      layer_ns{};
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t source_contacts = 0;
  std::uint64_t protocol_calls = 0;
  std::uint64_t offers = 0;
  std::uint64_t offers_accepted = 0;
  std::uint64_t scratch_reuses = 0;
  std::uint64_t scratch_allocs = 0;
  std::uint64_t transfers = 0;
  std::uint64_t refused_full = 0;
  std::uint64_t summary_exchanges = 0;
  std::uint64_t ad_bytes = 0;
  std::uint64_t fp_suppressed = 0;
  std::uint64_t slots_lost = 0;
  std::uint64_t down_slots = 0;
  std::uint64_t control_dropped = 0;
  std::uint64_t contacts_truncated = 0;
  std::uint64_t sink_events = 0;

  // Filled by the workload, outside the run loop.
  std::uint64_t trace_contacts = 0;  ///< contacts of materialised traces
  double setup_trace_build_s = 0.0;  ///< trace built in set-up, not the pass
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t store_segments = 0;

  void add(const RunProfile& p) {
    const obs::PerfCounters& perf = p.summary.perf;
    const std::lock_guard lock(mutex);
    for (std::size_t l = 0; l < layer_ns.size(); ++l) {
      layer_ns[l] += p.layer_ns[l];
    }
    ++runs;
    events += perf.events_processed;
    peak_queue_depth =
        std::max<std::uint64_t>(peak_queue_depth, perf.peak_queue_depth);
    source_contacts += p.source_contacts;
    protocol_calls += p.protocol_calls;
    offers += p.offers;
    offers_accepted += p.offers_accepted;
    scratch_reuses += perf.scratch_reuses;
    scratch_allocs += perf.scratch_allocs;
    transfers += perf.transfers;
    refused_full += perf.transfers_refused_full;
    summary_exchanges += perf.summary_exchanges;
    ad_bytes += perf.summary_ad_bytes;
    fp_suppressed += perf.transfers_suppressed_fp;
    slots_lost += perf.slots_lost;
    down_slots += perf.down_slots;
    control_dropped += perf.control_dropped;
    contacts_truncated += perf.contacts_truncated;
    sink_events += p.sink.events;
  }

  [[nodiscard]] double layer_s(RunLayer layer) const {
    return static_cast<double>(layer_ns[static_cast<std::size_t>(layer)]) /
           1e9;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t segment_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("seg-", 0) == 0) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

/// The per-layer metrics of one traced pass.
std::map<std::string, double> layer_metrics(const SpanRecorder& rec,
                                            const LayerTotals& t,
                                            double pass_wall_s,
                                            unsigned lanes) {
  std::map<std::string, double> m;
  const double trace_build_s = rec.total_s("mobility.trace_build") +
                               rec.total_s("mobility.source_build") +
                               t.setup_trace_build_s;
  const double next_chunk_s = t.layer_s(RunLayer::kSource);
  const double contacts =
      static_cast<double>(t.trace_contacts + t.source_contacts);
  m["mobility.trace_build_s"] = trace_build_s;
  m["mobility.next_chunk_s"] = next_chunk_s;
  m["mobility.contacts"] = contacts;
  m["mobility.ns_per_contact"] =
      ratio((trace_build_s + next_chunk_s) * 1e9, contacts);
  m["core.events"] = static_cast<double>(t.events);
  m["core.peak_queue_depth"] = static_cast<double>(t.peak_queue_depth);
  m["routing.construct_s"] = t.layer_s(RunLayer::kConstruct);
  m["routing.run_self_s"] = t.layer_s(RunLayer::kEngine);
  m["routing.ns_per_event"] =
      ratio(t.layer_s(RunLayer::kEngine) * 1e9, static_cast<double>(t.events));
  m["routing.protocol_calls"] = static_cast<double>(t.protocol_calls);
  m["routing.protocol_s"] = t.layer_s(RunLayer::kProtocol);
  m["routing.offer_accept_frac"] =
      ratio(static_cast<double>(t.offers_accepted),
            static_cast<double>(t.offers));
  m["routing.scratch_reuse_frac"] =
      ratio(static_cast<double>(t.scratch_reuses),
            static_cast<double>(t.scratch_reuses + t.scratch_allocs));
  m["routing.transfers"] = static_cast<double>(t.transfers);
  m["routing.refused_full"] = static_cast<double>(t.refused_full);
  m["dtn.summary_exchanges"] = static_cast<double>(t.summary_exchanges);
  m["dtn.ad_bytes"] = static_cast<double>(t.ad_bytes);
  m["dtn.fp_suppressed"] = static_cast<double>(t.fp_suppressed);
  m["fault.slots_lost"] = static_cast<double>(t.slots_lost);
  m["fault.down_slots"] = static_cast<double>(t.down_slots);
  m["fault.control_dropped"] = static_cast<double>(t.control_dropped);
  m["fault.contacts_truncated"] = static_cast<double>(t.contacts_truncated);
  m["metrics.aggregate_s"] = rec.total_s("metrics.aggregate");
  m["exp.report_s"] = rec.total_s("exp.report");
  m["exp.sweep_s"] = rec.total_s("exp.sweep");
  // Pool work is every simulated run plus every store lookup that serves
  // one (phase-1 resolution also runs on the pool).
  m["exp.pool_busy_frac"] =
      ratio(rec.total_s("exp.run") + rec.total_s("store.find"),
            static_cast<double>(lanes) * pass_wall_s);
  m["store.open_s"] = rec.total_s("store.open");
  m["store.find_s"] = rec.total_s("store.find");
  m["store.find_us_p50"] = median(rec.durations_us("store.find"));
  m["store.put_s"] = rec.total_s("store.put");
  m["store.hits"] = static_cast<double>(t.store_hits);
  m["store.misses"] = static_cast<double>(t.store_misses);
  m["store.bytes"] = static_cast<double>(t.store_bytes);
  m["store.segments"] = static_cast<double>(t.store_segments);
  m["obs.sink_s"] = t.layer_s(RunLayer::kSink);
  m["obs.sink_events"] = static_cast<double>(t.sink_events);
  return m;
}

// --- the traced sweep ------------------------------------------------------------

/// exp::run_sweep_on restated from the outside so that every layer call it
/// makes can be timed: store find/put, the per-run engine constructor and
/// run() with decorated seams, and aggregate_runs. Phases, pool use and the
/// parallel-resolve threshold follow run_sweep_on; the outputs are checked
/// against the untraced path's.
struct TracedSweep {
  exp::SweepResult result;
  std::vector<std::string> reconcile;  ///< per job, empty when consistent
};

constexpr std::size_t kParallelResolveThreshold = 64;

TracedSweep traced_sweep(const exp::SweepSpec& spec,
                         const std::function<const mobility::ContactTrace&()>&
                             provider,
                         SpanRecorder& rec, std::size_t parent,
                         LayerTotals& totals) {
  TracedSweep out;
  exp::SweepResult& result = out.result;
  result.scenario_name = spec.scenario.name;
  result.protocol = spec.protocol;
  result.loads = spec.loads.empty() ? exp::paper_loads() : spec.loads;
  result.runs.assign(result.loads.size(), {});
  for (auto& batch : result.runs) batch.resize(spec.replications);
  const std::size_t total = result.loads.size() * spec.replications;
  out.reconcile.assign(total, {});

  const exp::RunSpec base = exp::RunSpecBuilder()
                                .protocol(spec.protocol)
                                .scenario(spec.scenario)
                                .master_seed(spec.master_seed)
                                .buffer_capacity(spec.buffer_capacity)
                                .eviction(spec.eviction)
                                .fault(spec.fault)
                                .summary(spec.summary)
                                .build();
  std::vector<exp::RunSpec> runs(total);
  std::vector<std::string> keys(spec.store != nullptr ? total : 0);
  std::vector<unsigned char> served(total, 0);
  const auto coordinates = [&](std::size_t job) {
    return std::pair{job / spec.replications,
                     static_cast<std::uint32_t>(job % spec.replications)};
  };

  const auto resolve = [&](std::size_t job, unsigned lane) {
    const auto [load_idx, rep] = coordinates(job);
    exp::RunSpec& run = runs[job];
    run = base;
    run.load = result.loads[load_idx];
    run.replication = rep;
    if (spec.store == nullptr) return;
    {
      const ScopedSpan span(&rec, "exp.store_key", lane, parent);
      keys[job] = exp::store_key(spec.scenario, run);
    }
    std::optional<metrics::RunSummary> cached;
    {
      const ScopedSpan span(&rec, "store.find", lane, parent);
      cached = spec.store->find(keys[job]);
    }
    if (cached) {
      result.runs[load_idx][rep] = *std::move(cached);
      served[job] = 1;
    }
  };
  if (spec.store != nullptr && total >= kParallelResolveThreshold) {
    exp::parallel_for(total, spec.threads,
                      [&](std::size_t job, unsigned worker) {
                        resolve(job, worker + 1);
                      });
  } else {
    for (std::size_t job = 0; job < total; ++job) resolve(job, 0);
  }
  std::vector<std::size_t> pending;
  for (std::size_t job = 0; job < total; ++job) {
    if (!served[job]) pending.push_back(job);
  }

  if (!pending.empty()) {
    const mobility::ContactTrace& trace = provider();
    exp::parallel_for(
        pending.size(), spec.threads, [&](std::size_t index, unsigned worker) {
          const std::size_t job = pending[index];
          const auto [load_idx, rep] = coordinates(job);
          const unsigned lane = worker + 1;
          const ScopedSpan run_span(&rec, "exp.run", lane, parent);
          RunProfile profile =
              run_profiled(runs[job], trace, {&rec, lane, run_span.id()});
          if (spec.store != nullptr) {
            const ScopedSpan put(&rec, "store.put", lane, run_span.id());
            spec.store->put(keys[job], profile.summary);
          }
          out.reconcile[job] = reconcile(profile);
          totals.add(profile);
          result.runs[load_idx][rep] = std::move(profile.summary);
        });
  }
  if (spec.store != nullptr) spec.store->flush();

  result.points.reserve(result.loads.size());
  for (const auto& batch : result.runs) {
    const ScopedSpan span(&rec, "metrics.aggregate", 0, parent);
    result.points.push_back(metrics::aggregate_runs(batch));
  }
  return out;
}

// --- workloads ---------------------------------------------------------------------

/// The master seeds one pass covers: the benchmark seed, then seeds drawn
/// from it. A pass over several independent mobility instances keeps its
/// cost from hinging on one generated trace.
std::vector<std::uint64_t> pass_seeds(std::uint64_t seed, std::uint32_t count) {
  std::vector<std::uint64_t> seeds{seed};
  epi::SplitMix64 draw(seed);
  while (seeds.size() < std::max<std::uint32_t>(count, 1)) {
    seeds.push_back(draw.next());
  }
  return seeds;
}

/// One workload: a repeatable set-up and a pass, untraced and traced.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs the passes need (run several times; the last one's
  /// products are kept).
  virtual void setup() = 0;
  virtual PassStats pass(Checker& checker) = 0;
  virtual PassStats traced_pass(Checker& checker, SpanRecorder& rec,
                                LayerTotals& totals) = 0;
  /// Pool lanes the passes use (for exp.pool_busy_frac).
  [[nodiscard]] virtual unsigned lanes() const = 0;
  [[nodiscard]] virtual bool simulates() const { return true; }
};

std::vector<const exp::FigureSpec*> paper_figure_specs() {
  std::vector<const exp::FigureSpec*> specs;
  for (const exp::FigureSpec& spec : exp::figure_registry()) {
    if (spec.paper_figure) specs.push_back(&spec);
  }
  return specs;
}

exp::ScenarioSpec scenario_named(const std::string& name) {
  for (exp::ScenarioSpec spec :
       {exp::trace_scenario(), exp::rwp_scenario(),
        exp::interval_scenario(400.0), exp::interval_scenario(2000.0)}) {
    if (spec.name == name) return spec;
  }
  throw std::runtime_error("no canned scenario named " + name);
}

/// The 14 paper figures for each pass seed, with their JSON report bytes.
struct FigureSet {
  std::vector<exp::Figure> figures;
  std::vector<std::string> json;
  std::vector<std::uint64_t> seeds;  ///< master seed of each figure

  [[nodiscard]] std::uint64_t runs() const {
    std::uint64_t n = 0;
    for (const auto& f : figures) {
      for (const auto& r : f.results) {
        for (const auto& batch : r.runs) n += batch.size();
      }
    }
    return n;
  }
};

/// Checks every run of `got` against `ref`; a figure whose report bytes
/// differ fails all of its runs. `reconcile`, when given, holds each
/// figure's per-run sink reconciliation in (series, load, replication)
/// order.
void compare_sets(const FigureSet& ref, const FigureSet& got, Checker& checker,
                  const std::vector<std::vector<std::string>>* reconcile =
                      nullptr) {
  if (ref.figures.size() != got.figures.size()) {
    checker.run("figure count differs from the reference pass");
    return;
  }
  for (std::size_t f = 0; f < ref.figures.size(); ++f) {
    const std::string report_why =
        ref.json[f] == got.json[f]
            ? std::string()
            : got.figures[f].id + " report bytes differ; ";
    const auto& rr = ref.figures[f].results;
    const auto& gr = got.figures[f].results;
    std::size_t job = 0;
    for (std::size_t s = 0; s < rr.size(); ++s) {
      for (std::size_t li = 0; li < rr[s].runs.size(); ++li) {
        for (std::size_t rep = 0; rep < rr[s].runs[li].size(); ++rep, ++job) {
          std::string why = report_why;
          if (s >= gr.size() || li >= gr[s].runs.size() ||
              rep >= gr[s].runs[li].size()) {
            why += "run missing; ";
          } else {
            why += compare_run(rr[s].runs[li][rep], gr[s].runs[li][rep]);
          }
          if (reconcile != nullptr) why += (*reconcile)[f].at(job);
          checker.run(why.empty() ? why : got.figures[f].id + ": " + why);
        }
      }
    }
  }
}

/// The figure-regeneration workloads: paper_figures (fresh store per pass)
/// and paper_figures_warm (one store filled in set-up, reopened per pass).
class FigureWorkload final : public Workload {
 public:
  FigureWorkload(const Options& o, unsigned threads, bool warm)
      : o_(o),
        threads_(threads),
        warm_(warm),
        dir_(o.work_dir / (warm ? "paper_figures_warm.store"
                                : "paper_figures.store")),
        seeds_(pass_seeds(o.seed, o.sizes.figure_seeds)) {}

  /// One full cold pass: for the warm workload it fills the store the
  /// passes serve from; for both, its figures are the reference every
  /// measured pass must reproduce byte for byte.
  void setup() override {
    ref_.reset();
    ref_ = run_figures(warm_ ? dir_ : o_.work_dir / "paper_figures.setup",
                       true, o_.sizes.figure_reps, seeds_, nullptr);
  }

  PassStats pass(Checker& checker) override {
    obs::ChromeTraceWriter chrome;
    PassStats stats;
    FigureSet set = run_figures(dir_, !warm_, o_.sizes.figure_reps, seeds_,
                                &chrome, &stats);
    stats.runs = set.runs();
    stats.run_ms = span_durations_ms(chrome);
    if (warm_ && (store_misses_ != 0 || !stats.run_ms.empty())) {
      checker.run("warm pass simulated runs instead of serving them");
    }
    compare_sets(*ref_, set, checker);
    return stats;
  }

  PassStats traced_pass(Checker& checker, SpanRecorder& rec,
                        LayerTotals& totals) override {
    PassStats stats;
    if (!warm_) fs::remove_all(dir_);
    const auto start = Clock::now();
    std::vector<std::vector<std::string>> reconcile;
    FigureSet set;
    {
      const ScopedSpan pass_span(&rec, "exp.pass", 0);
      std::optional<epi::store::RunStore> store;
      {
        const ScopedSpan span(&rec, "store.open", 0, pass_span.id());
        store.emplace(dir_);
      }
      for (std::size_t f = 0; f < ref_->figures.size(); ++f) {
        const exp::Figure& ref = ref_->figures[f];
        const std::uint64_t seed = ref_->seeds[f];
        const ScopedSpan fig_span(&rec, "exp.figure", 0, pass_span.id());
        std::map<std::string, mobility::ContactTrace> traces;
        exp::Figure out;
        out.id = ref.id;
        out.title = ref.title;
        out.metric = ref.metric;
        out.axis = ref.axis;
        std::vector<std::string> fig_reconcile;
        for (std::size_t s = 0; s < ref.results.size(); ++s) {
          exp::SweepSpec spec;
          spec.scenario = scenario_named(ref.results[s].scenario_name);
          spec.protocol = ref.results[s].protocol;
          spec.loads = ref.results[s].loads;
          spec.replications = o_.sizes.figure_reps;
          spec.master_seed = seed;
          spec.threads = threads_;
          spec.store = &*store;
          const ScopedSpan sweep_span(&rec, "exp.sweep", 0, fig_span.id());
          const auto provider = [&]() -> const mobility::ContactTrace& {
            auto it = traces.find(spec.scenario.name);
            if (it == traces.end()) {
              const ScopedSpan span(&rec, "mobility.trace_build", 0,
                                    sweep_span.id());
              it = traces
                       .emplace(spec.scenario.name,
                                exp::build_contact_trace(spec.scenario, seed))
                       .first;
              totals.trace_contacts += it->second.size();
            }
            return it->second;
          };
          TracedSweep sweep =
              traced_sweep(spec, provider, rec, sweep_span.id(), totals);
          out.labels.push_back(ref.labels[s]);
          out.results.push_back(std::move(sweep.result));
          fig_reconcile.insert(fig_reconcile.end(), sweep.reconcile.begin(),
                               sweep.reconcile.end());
        }
        {
          const ScopedSpan span(&rec, "exp.report", 0, fig_span.id());
          std::ostringstream json;
          exp::print_figure_json(json, out);
          set.json.push_back(json.str());
        }
        set.figures.push_back(std::move(out));
        set.seeds.push_back(seed);
        reconcile.push_back(std::move(fig_reconcile));
      }
      const epi::store::RunStore::Stats st = store->stats();
      totals.store_hits = st.hits;
      totals.store_misses = st.misses;
      totals.store_segments = st.segments;
    }
    stats.wall_s = seconds_since(start);
    stats.runs = set.runs();
    stats.events = totals.events;
    totals.store_bytes = segment_bytes(dir_);
    compare_sets(*ref_, set, checker, &reconcile);
    return stats;
  }

  [[nodiscard]] unsigned lanes() const override { return threads_; }
  [[nodiscard]] bool simulates() const override { return !warm_; }

 private:
  /// One regeneration of the 14 paper figures per seed through the figure
  /// registry, with one run store at `dir` (emptied first when `fresh`).
  FigureSet run_figures(const fs::path& dir, bool fresh, std::uint32_t reps,
                        const std::vector<std::uint64_t>& seeds,
                        obs::ChromeTraceWriter* chrome,
                        PassStats* stats = nullptr) {
    if (fresh) fs::remove_all(dir);
    FigureSet set;
    const auto start = Clock::now();
    epi::store::RunStore store(dir);
    exp::FigureOptions options;
    options.replications = reps;
    options.threads = threads_;
    options.store = &store;
    options.chrome = chrome;
    for (const std::uint64_t seed : seeds) {
      options.master_seed = seed;
      for (const exp::FigureSpec* spec : paper_figure_specs()) {
        exp::Figure figure = spec->run(options);
        std::ostringstream json;
        exp::print_figure_json(json, figure);
        set.json.push_back(json.str());
        set.figures.push_back(std::move(figure));
        set.seeds.push_back(seed);
      }
    }
    if (stats != nullptr) {
      stats->wall_s = seconds_since(start);
      // Every record of a fresh store was simulated in this pass.
      if (fresh) {
        store.for_each([&](const std::string&, const metrics::RunSummary& s) {
          stats->events += s.perf.events_processed;
        });
      }
    }
    store_misses_ = store.stats().misses;
    return set;
  }

  const Options& o_;
  unsigned threads_;
  bool warm_;
  fs::path dir_;
  std::vector<std::uint64_t> seeds_;
  std::optional<FigureSet> ref_;
  std::uint64_t store_misses_ = 0;
};

// --- city_stream -------------------------------------------------------------------

constexpr const char* kCityProtocols[] = {"pure_epidemic", "immunity",
                                          "pq_epidemic"};

/// Counter fields of a BENCH_engine.json row city_stream must reproduce.
constexpr const char* kBaselineCounters[] = {
    "events_processed",   "peak_queue_depth",       "transfers",
    "slots_lost",         "down_slots",             "control_dropped",
    "contacts_truncated", "transfers_refused_full", "summary_exchanges",
    "summary_ad_bytes",   "control_bytes",          "transfers_suppressed_fp",
};

std::uint64_t counter_of(const obs::PerfCounters& p, std::string_view name) {
  if (name == "events_processed") return p.events_processed;
  if (name == "peak_queue_depth") return p.peak_queue_depth;
  if (name == "transfers") return p.transfers;
  if (name == "slots_lost") return p.slots_lost;
  if (name == "down_slots") return p.down_slots;
  if (name == "control_dropped") return p.control_dropped;
  if (name == "contacts_truncated") return p.contacts_truncated;
  if (name == "transfers_refused_full") return p.transfers_refused_full;
  if (name == "summary_exchanges") return p.summary_exchanges;
  if (name == "summary_ad_bytes") return p.summary_ad_bytes;
  if (name == "control_bytes") return p.control_bytes;
  return p.transfers_suppressed_fp;
}

/// The counters of row `name` in a BENCH_engine.json (one row per line).
std::map<std::string, std::uint64_t> baseline_row(const fs::path& file,
                                                  const std::string& name) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot read " + file.string());
  const std::string tag = "\"name\": \"" + name + "\"";
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(tag) == std::string::npos) continue;
    std::map<std::string, std::uint64_t> row;
    for (const char* field : kBaselineCounters) {
      const std::string key = std::string("\"") + field + "\": ";
      const std::size_t at = line.find(key);
      if (at == std::string::npos) {
        throw std::runtime_error(name + " row lacks " + field);
      }
      row[field] = std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
    }
    return row;
  }
  throw std::runtime_error("no row " + name + " in " + file.string());
}

class CityWorkload final : public Workload {
 public:
  explicit CityWorkload(const Options& o) : o_(o) {}

  void setup() override {
    const Sizes& z = o_.sizes;
    scenario_ = exp::large_scenario(z.city_nodes);
    const std::vector<epi::FlowSpec> flows =
        exp::large_flows(z.city_nodes, z.city_flows, z.city_load_per_flow);
    std::uint32_t total_load = 0;
    for (const auto& f : flows) total_load += f.load;
    runs_.clear();
    for (const char* name : kCityProtocols) {
      epi::ProtocolParams params;
      params.kind = epi::protocol_from_string(name);
      runs_.push_back(exp::RunSpecBuilder()
                          .protocol(params)
                          .scenario(scenario_)
                          .load(total_load)
                          .flows(flows)
                          .replication(1)
                          .master_seed(o_.seed)
                          .build());
    }
    // One generation-only pass over the stream: warms the generator and
    // bounds how many contacts any run can process.
    const auto source = exp::build_contact_source(scenario_, o_.seed);
    stream_contacts_ = 0;
    for (auto chunk = source->next_chunk(); !chunk.empty();
         chunk = source->next_chunk()) {
      stream_contacts_ += chunk.size();
    }
  }

  /// The three runs, concurrently, one thread and one source each.
  PassStats pass(Checker& checker) override {
    PassStats stats;
    std::vector<metrics::RunSummary> summaries(runs_.size());
    stats.run_ms.resize(runs_.size());
    const auto start = Clock::now();
    exp::parallel_for(runs_.size(), lanes(), [&](std::size_t i) {
      const auto t0 = Clock::now();
      const auto source = exp::build_contact_source(scenario_, o_.seed);
      summaries[i] = exp::run_single(runs_[i], *source);
      stats.run_ms[i] = seconds_since(t0) * 1e3;
    });
    stats.wall_s = seconds_since(start);
    stats.runs = runs_.size();
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      stats.events += summaries[i].perf.events_processed;
      check(i, summaries[i], {}, checker);
    }
    return stats;
  }

  PassStats traced_pass(Checker& checker, SpanRecorder& rec,
                        LayerTotals& totals) override {
    PassStats stats;
    std::vector<RunProfile> profiles(runs_.size());
    const auto start = Clock::now();
    {
      const ScopedSpan pass_span(&rec, "exp.pass", 0);
      exp::parallel_for(
          runs_.size(), lanes(), [&](std::size_t i, unsigned worker) {
            const unsigned lane = worker + 1;
            const ScopedSpan run_span(&rec, "exp.run", lane, pass_span.id());
            std::unique_ptr<mobility::ContactSource> source;
            {
              const ScopedSpan span(&rec, "mobility.source_build", lane,
                                    run_span.id());
              source = exp::build_contact_source(scenario_, o_.seed);
            }
            profiles[i] =
                run_profiled(runs_[i], *source, {&rec, lane, run_span.id()});
          });
    }
    stats.wall_s = seconds_since(start);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      totals.add(profiles[i]);
      check(i, profiles[i].summary, reconcile(profiles[i]), checker);
    }
    stats.runs = profiles.size();
    stats.events = totals.events;
    return stats;
  }

  /// One lane per protocol. Concurrent single-threaded runs average out
  /// the per-CPU speed swings of shared hosts that a lone run would carry.
  [[nodiscard]] unsigned lanes() const override {
    return static_cast<unsigned>(runs_.size());
  }

 private:
  void check(std::size_t i, const metrics::RunSummary& summary,
             std::string why, Checker& checker) {
    why += ref_[i] ? compare_run(*ref_[i], summary)
                   : invariant_violations(summary);
    if (summary.perf.contacts > stream_contacts_) {
      why += "more contacts processed than the stream holds; ";
    }
    const bool pinned = o_.seed == 42 && o_.sizes.city_nodes == 8192 &&
                        o_.sizes.city_flows == 8 &&
                        o_.sizes.city_load_per_flow == 16 &&
                        !o_.engine_baseline.empty();
    if (pinned) {
      const std::string row = scenario_.name + "/" + kCityProtocols[i];
      for (const auto& [field, value] : baseline_row(o_.engine_baseline, row)) {
        if (counter_of(summary.perf, field) != value) {
          why += row + " " + field + " differs from BENCH_engine.json; ";
        }
      }
    }
    checker.run(why.empty() ? why : std::string(kCityProtocols[i]) + ": " + why);
    if (!ref_[i]) ref_[i] = summary;
  }

  const Options& o_;
  exp::ScenarioSpec scenario_;
  std::vector<exp::RunSpec> runs_;
  std::uint64_t stream_contacts_ = 0;
  std::array<std::optional<metrics::RunSummary>, std::size(kCityProtocols)>
      ref_;
};

// --- bloom_faults ------------------------------------------------------------------

constexpr const char* kBloomFamilies[] = {
    "immunity",    "encounter_count", "cumulative_immunity", "pure_epidemic",
    "pq_epidemic", "fixed_ttl",       "dynamic_ttl",         "ec_ttl",
};

class BloomWorkload final : public Workload {
 public:
  BloomWorkload(const Options& o, unsigned threads)
      : o_(o),
        threads_(threads),
        seeds_(pass_seeds(o.seed, o.sizes.bloom_seeds)) {}

  void setup() override {
    const auto t0 = Clock::now();
    traces_.clear();
    contacts_ = 0;
    for (const std::uint64_t seed : seeds_) {
      traces_.push_back(exp::build_contact_trace(exp::trace_scenario(), seed));
      contacts_ += traces_.back().size();
    }
    trace_build_s_ = seconds_since(t0);
    // The composite plan of bench_baseline's trace+fault suite.
    plan_ = epi::fault::FaultPlanBuilder()
                .slot_loss(0.2)
                .truncation(0.1)
                .duty_cycle(0.25, 7'200.0)
                .control_loss(0.2)
                .build();
    codec_ = {};
    codec_.mode = epi::SummaryMode::kBloom;
    codec_.filter_bits = 8;
    // One full pass before timing; its runs are the reference.
    ref_ = sweeps(nullptr);
  }

  PassStats pass(Checker& checker) override {
    obs::ChromeTraceWriter chrome;
    PassStats stats;
    const auto start = Clock::now();
    const std::vector<exp::SweepResult> results = sweeps(&chrome);
    stats.wall_s = seconds_since(start);
    stats.run_ms = span_durations_ms(chrome);
    for (const auto& r : results) {
      for (const auto& batch : r.runs) {
        for (const auto& run : batch) {
          ++stats.runs;
          stats.events += run.perf.events_processed;
        }
      }
    }
    check(results, checker, nullptr);
    return stats;
  }

  PassStats traced_pass(Checker& checker, SpanRecorder& rec,
                        LayerTotals& totals) override {
    PassStats stats;
    std::vector<exp::SweepResult> results;
    std::vector<std::string> reconcile;
    const auto start = Clock::now();
    {
      const ScopedSpan pass_span(&rec, "exp.pass", 0);
      for (std::size_t t = 0; t < seeds_.size(); ++t) {
        for (const char* family : kBloomFamilies) {
          const ScopedSpan sweep_span(&rec, "exp.sweep", 0, pass_span.id());
          TracedSweep sweep = traced_sweep(
              spec_for(family, seeds_[t], o_.sizes.bloom_reps, nullptr),
              [&]() -> const mobility::ContactTrace& { return traces_[t]; },
              rec, sweep_span.id(), totals);
          results.push_back(std::move(sweep.result));
          reconcile.insert(reconcile.end(), sweep.reconcile.begin(),
                           sweep.reconcile.end());
        }
      }
    }
    stats.wall_s = seconds_since(start);
    stats.runs = totals.runs;
    stats.events = totals.events;
    totals.setup_trace_build_s = trace_build_s_;
    totals.trace_contacts = contacts_;
    check(results, checker, &reconcile);
    return stats;
  }

  [[nodiscard]] unsigned lanes() const override { return threads_; }

 private:
  /// Every (trace, family) sweep of one pass, families innermost.
  std::vector<exp::SweepResult> sweeps(obs::ChromeTraceWriter* chrome) const {
    std::vector<exp::SweepResult> results;
    for (std::size_t t = 0; t < seeds_.size(); ++t) {
      for (const char* family : kBloomFamilies) {
        results.push_back(exp::run_sweep_on(
            spec_for(family, seeds_[t], o_.sizes.bloom_reps, chrome),
            traces_[t]));
      }
    }
    return results;
  }

  exp::SweepSpec spec_for(const char* family, std::uint64_t seed,
                          std::uint32_t reps,
                          obs::ChromeTraceWriter* chrome) const {
    exp::SweepSpec spec;
    spec.scenario = exp::trace_scenario();
    spec.protocol.kind = epi::protocol_from_string(family);
    spec.replications = reps;
    spec.master_seed = seed;
    spec.threads = threads_;
    spec.fault = plan_;
    spec.summary = codec_;
    spec.chrome = chrome;
    return spec;
  }

  /// `results` holds one sweep per (seed, family), families innermost.
  void check(const std::vector<exp::SweepResult>& results, Checker& checker,
             const std::vector<std::string>* reconcile) {
    std::size_t job = 0;
    std::uint64_t fp = 0;
    std::uint64_t lost = 0;
    for (std::size_t f = 0; f < results.size(); ++f) {
      const std::string family = kBloomFamilies[f % std::size(kBloomFamilies)];
      for (std::size_t li = 0; li < results[f].runs.size(); ++li) {
        for (std::size_t rep = 0; rep < results[f].runs[li].size(); ++rep) {
          const metrics::RunSummary& run = results[f].runs[li][rep];
          fp += run.perf.transfers_suppressed_fp;
          lost += run.perf.slots_lost;
          std::string why = compare_run(ref_[f].runs[li][rep], run);
          if (reconcile != nullptr) why += (*reconcile)[job];
          ++job;
          checker.run(why.empty() ? why : family + ": " + why);
        }
      }
    }
    // The workload exists to keep the codec and the injector busy.
    if (fp == 0 || lost == 0) {
      checker.run("no false-positive suppression or slot loss: the Bloom "
                  "codec or the fault plan is not in effect");
    }
  }

  const Options& o_;
  unsigned threads_;
  std::vector<std::uint64_t> seeds_;
  std::vector<mobility::ContactTrace> traces_;
  std::uint64_t contacts_ = 0;
  double trace_build_s_ = 0.0;
  epi::fault::FaultPlan plan_;
  epi::SummaryCodecParams codec_;
  std::vector<exp::SweepResult> ref_;
};

// --- the common pass loop ----------------------------------------------------------

/// Throughputs are all work over all measured time. The hosts this runs on
/// swing in speed in phases of several seconds; a median over sub-run
/// windows jumps with whichever phase held half the run, the total does not.
void add_end_to_end(Result& r, const std::vector<double>& setups,
                    const std::vector<PassStats>& passes, bool simulates) {
  double wall = 0.0;
  double runs = 0.0;
  double events = 0.0;
  std::vector<double> pass_rates;
  std::vector<double> run_ms;
  for (const PassStats& p : passes) {
    wall += p.wall_s;
    runs += static_cast<double>(p.runs);
    events += static_cast<double>(p.events);
    pass_rates.push_back(ratio(static_cast<double>(p.runs), p.wall_s));
    run_ms.insert(run_ms.end(), p.run_ms.begin(), p.run_ms.end());
  }
  r.end_to_end.push_back({"setup_s", median(setups), "s"});
  r.end_to_end.push_back({"runs_per_s", ratio(runs, wall), "1/s"});
  char note[240];
  std::snprintf(note, sizeof(note),
                "setup_s: median of %zu set-ups; runs_per_s: %.0f runs in "
                "%.3f s over %zu passes (per pass: min %.6g, median %.6g, "
                "max %.6g)",
                setups.size(), runs, wall, passes.size(),
                *std::min_element(pass_rates.begin(), pass_rates.end()),
                median(pass_rates),
                *std::max_element(pass_rates.begin(), pass_rates.end()));
  r.notes.emplace_back(note);
  if (!run_ms.empty()) {
    std::sort(run_ms.begin(), run_ms.end());
    r.end_to_end.push_back(
        {"run_ms_p50", percentile_of(run_ms, 50.0).value, "ms"});
    const PercentileValue tail = highest_supported(run_ms);
    if (tail.samples > 0 && tail.percentile > 50.0) {
      r.end_to_end.push_back(
          {percentile_name("run_ms", tail.percentile), tail.value, "ms"});
    }
    std::snprintf(note, sizeof(note),
                  "run_ms: %zu run spans; highest percentile with >= %zu "
                  "samples beyond it: p%g (%zu beyond)",
                  run_ms.size(), kMinBeyond, tail.percentile, tail.beyond);
    r.notes.emplace_back(note);
  }
  if (simulates) {
    r.end_to_end.push_back({"events_per_s", ratio(events, wall), "1/s"});
  }
  r.end_to_end.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
}

template <typename Body>
void repeat_for(double seconds, Body&& body) {
  const auto start = Clock::now();
  do {
    body();
  } while (seconds_since(start) < seconds);
}

Result drive(Workload& w, const Options& o) {
  Result r;
  Checker checker;
  std::vector<double> setups;
  for (unsigned i = 0; i < std::max(1u, o.sizes.setup_repeats); ++i) {
    const auto t0 = Clock::now();
    w.setup();
    setups.push_back(seconds_since(t0));
  }

  const double untraced_s = o.trace ? o.seconds / 2.0 : o.seconds;
  std::vector<PassStats> passes;
  repeat_for(untraced_s, [&] { passes.push_back(w.pass(checker)); });
  add_end_to_end(r, setups, passes, w.simulates());

  if (o.trace) {
    std::map<std::string, std::vector<double>> per_pass;
    std::map<std::string, SpanRecorder::SelfTimeRow> self_times;
    std::vector<double> traced_walls;
    std::vector<double> traced_per_run;
    repeat_for(o.seconds / 2.0, [&] {
      SpanRecorder rec;
      LayerTotals totals;
      const PassStats p = w.traced_pass(checker, rec, totals);
      traced_walls.push_back(p.wall_s);
      traced_per_run.push_back(p.wall_s / static_cast<double>(p.runs));
      for (const auto& [name, value] :
           layer_metrics(rec, totals, p.wall_s, w.lanes())) {
        per_pass[name].push_back(value);
      }
      accumulate(self_times, rec.self_times());
      if (traced_walls.size() == 1) {
        obs::ChromeTraceWriter chrome;
        rec.export_to(chrome);
        const fs::path file = o.work_dir / (o.workload + ".spans.json");
        chrome.write_file(file.string());
        r.notes.push_back("spans of the first traced pass: " + file.string());
      }
    });
    // Per run, since a traced pass may cover more runs than an untraced one.
    std::vector<double> untraced_per_run;
    for (const PassStats& p : passes) {
      untraced_per_run.push_back(p.wall_s / static_cast<double>(p.runs));
    }
    per_pass["obs.trace_overhead_frac"] = {
        median(traced_per_run) / median(untraced_per_run) - 1.0};
    for (const MetricSpec& spec : kPerLayer) {
      r.per_layer.push_back({spec.name, median(per_pass.at(spec.name)),
                             spec.unit});
    }
    r.self_time_table = format_self_times(self_times, traced_walls.size());
    const fs::path table = o.work_dir / (o.workload + ".self_time.txt");
    std::ofstream(table) << r.self_time_table;
    r.notes.push_back("per-layer: medians over " +
                      std::to_string(traced_walls.size()) +
                      " traced passes (untraced reference: " +
                      std::to_string(passes.size()) +
                      " passes); self-time table: " + table.string());
  }

  r.attempted = checker.attempted();
  r.failed = checker.failed();
  r.failures = checker.messages();
  r.end_to_end.push_back(
      {"failed_frac",
       ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
       "ratio"});
  return r;
}

}  // namespace

std::span<const char* const> workload_names() { return kWorkloads; }

std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

Result run_workload(const Options& options) {
  const unsigned threads = std::min(available_cpus(), 4u);
  fs::create_directories(options.work_dir);
  const std::string& name = options.workload;
  std::unique_ptr<Workload> workload;
  if (name == "paper_figures" || name == "paper_figures_warm") {
    workload = std::make_unique<FigureWorkload>(options, threads,
                                                name == "paper_figures_warm");
  } else if (name == "city_stream") {
    workload = std::make_unique<CityWorkload>(options);
  } else if (name == "bloom_faults") {
    workload = std::make_unique<BloomWorkload>(options, threads);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return drive(*workload, options);
}

}  // namespace perfbench
