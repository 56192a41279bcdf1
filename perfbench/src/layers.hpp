// Layer instrumentation applied from outside the simulator: decorators for
// the three seams the engine calls through (mobility::ContactSource,
// routing::Protocol, obs::TraceSink) plus an instrumented twin of
// exp::run_single that times the Engine constructor and run() around them.
//
// Time is attributed exclusively: when a decorated call starts while another
// one is open on the same run (a protocol hook whose engine service flushes
// the trace batch, the constructor pulling the first contact chunk), the
// outer layer's clock pauses, so the per-layer times of one run add up to
// its wall time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>

#include "exp/runner.hpp"
#include "metrics/summary.hpp"
#include "mobility/contact_source.hpp"
#include "mobility/contact_trace.hpp"
#include "obs/trace_sink.hpp"
#include "routing/protocol.hpp"
#include "spans.hpp"

namespace perfbench {

namespace dtn = epi::dtn;
namespace metrics = epi::metrics;
namespace mobility = epi::mobility;
namespace obs = epi::obs;
namespace routing = epi::routing;
using epi::ProtocolKind;

/// The layers one run is split into.
enum class RunLayer : std::uint8_t {
  kConstruct,  ///< Engine constructor (minus nested decorated calls)
  kEngine,     ///< Engine::run minus source, protocol and sink time
  kSource,     ///< ContactSource::next_chunk (streamed runs only)
  kProtocol,   ///< every Protocol hook
  kSink,       ///< TraceSink::emit / emit_batch
  kCount,
};

/// Exclusive per-layer clock of one run (single-threaded, like the run).
class LayerClock {
 public:
  void enter(RunLayer layer);
  void exit();
  [[nodiscard]] std::uint64_t ns(RunLayer layer) const noexcept {
    return ns_[static_cast<std::size_t>(layer)];
  }

 private:
  using clock = std::chrono::steady_clock;
  void charge(clock::time_point now);

  std::array<std::uint64_t, static_cast<std::size_t>(RunLayer::kCount)> ns_{};
  std::array<RunLayer, 8> stack_{};
  std::size_t depth_ = 0;
  clock::time_point last_{};
};

/// Event totals of one run, by kind, for reconciliation with PerfCounters.
struct SinkTotals {
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t contact_up = 0;
  std::uint64_t transferred = 0;
  std::uint64_t summary_vectors = 0;
  std::uint64_t summary_bytes = 0;
  std::uint64_t control_records = 0;
  std::uint64_t control_bytes = 0;
  std::array<std::uint64_t, 4> faults{};  ///< indexed by obs::FaultKind
};

/// Counting TraceSink: folds every event into SinkTotals.
class CountingSink final : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& event) override;
  void emit_batch(const obs::TraceEvent* events, std::size_t n) override;
  [[nodiscard]] const SinkTotals& totals() const noexcept { return totals_; }

 private:
  SinkTotals totals_;
};

/// Decorated TraceSink: times each hand-off, then forwards it.
class TimedSink final : public obs::TraceSink {
 public:
  TimedSink(obs::TraceSink& inner, LayerClock& clock) noexcept
      : inner_(inner), clock_(clock) {}
  void emit(const obs::TraceEvent& event) override;
  void emit_batch(const obs::TraceEvent* events, std::size_t n) override;

 private:
  obs::TraceSink& inner_;
  LayerClock& clock_;
};

/// Decorated ContactSource: times each pull and counts contacts handed out.
class TimedContactSource final : public mobility::ContactSource {
 public:
  TimedContactSource(mobility::ContactSource& inner,
                     LayerClock& clock) noexcept
      : inner_(inner), clock_(clock) {}
  [[nodiscard]] std::span<const mobility::Contact> next_chunk() override;
  [[nodiscard]] std::uint32_t node_count() const override {
    return inner_.node_count();
  }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] std::uint64_t contacts() const noexcept { return contacts_; }

 private:
  mobility::ContactSource& inner_;
  LayerClock& clock_;
  std::uint64_t calls_ = 0;
  std::uint64_t contacts_ = 0;
};

/// Decorated Protocol: forwards every hook, counting calls and offers.
class TimedProtocol final : public routing::Protocol {
 public:
  TimedProtocol(std::unique_ptr<routing::Protocol> inner,
                LayerClock& clock) noexcept
      : inner_(std::move(inner)), clock_(clock) {}

  [[nodiscard]] ProtocolKind kind() const noexcept override {
    return inner_->kind();
  }
  void on_injected(routing::Engine& engine, dtn::DtnNode& source,
                   dtn::StoredBundle& copy, epi::SimTime now) override;
  [[nodiscard]] epi::SimTime expiry_on_store(const dtn::DtnNode& node,
                                             const dtn::StoredBundle& copy,
                                             const dtn::DtnNode* from,
                                             epi::SimTime now) const override;
  void on_contact_start(routing::Engine& engine, routing::SessionId session,
                        dtn::DtnNode& a, dtn::DtnNode& b,
                        epi::SimTime now) override;
  void on_contact_end(routing::Engine& engine, routing::SessionId session,
                      epi::SimTime now) override;
  [[nodiscard]] bool may_offer(routing::Engine& engine,
                               routing::SessionId session,
                               const dtn::DtnNode& sender,
                               const dtn::DtnNode& receiver,
                               const dtn::StoredBundle& copy,
                               bool sender_is_source) override;
  bool make_room(routing::Engine& engine, dtn::DtnNode& receiver,
                 epi::BundleId incoming, epi::SimTime now) override;
  void after_transfer(routing::Engine& engine, dtn::DtnNode& sender,
                      dtn::DtnNode& receiver, dtn::StoredBundle& sender_copy,
                      dtn::StoredBundle& receiver_copy,
                      epi::SimTime now) override;
  void on_delivered(routing::Engine& engine, dtn::DtnNode& sender,
                    dtn::DtnNode& destination, epi::BundleId id,
                    epi::SimTime now) override;

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] std::uint64_t offers() const noexcept { return offers_; }
  [[nodiscard]] std::uint64_t offers_accepted() const noexcept {
    return accepted_;
  }

 private:
  std::unique_ptr<routing::Protocol> inner_;
  LayerClock& clock_;
  mutable std::uint64_t calls_ = 0;
  std::uint64_t offers_ = 0;
  std::uint64_t accepted_ = 0;
};

/// Everything the traced run learns about one simulation.
struct RunProfile {
  metrics::RunSummary summary;
  std::array<std::uint64_t, static_cast<std::size_t>(RunLayer::kCount)>
      layer_ns{};
  std::uint64_t wall_ns = 0;  ///< constructor start to run() return
  std::uint64_t source_calls = 0;
  std::uint64_t source_contacts = 0;
  std::uint64_t protocol_calls = 0;
  std::uint64_t offers = 0;
  std::uint64_t offers_accepted = 0;
  SinkTotals sink;

  [[nodiscard]] std::uint64_t ns(RunLayer layer) const noexcept {
    return layer_ns[static_cast<std::size_t>(layer)];
  }
};

/// Where a profiled run records its "routing.construct" and "routing.run"
/// spans (no recorder: none are recorded). The decorated calls made inside
/// each become aggregated children of that span.
struct SpanContext {
  SpanRecorder* recorder = nullptr;
  unsigned lane = 0;
  std::size_t parent = kNoParent;
};

/// exp::run_single over a materialised trace, with the protocol and a
/// counting sink decorated and the constructor and run() timed. The spec
/// must not carry its own trace sink or stats collection.
[[nodiscard]] RunProfile run_profiled(const epi::exp::RunSpec& spec,
                                      const mobility::ContactTrace& trace,
                                      const SpanContext& spans = {});

/// Streaming variant: the source is decorated too.
[[nodiscard]] RunProfile run_profiled(const epi::exp::RunSpec& spec,
                                      mobility::ContactSource& source,
                                      const SpanContext& spans = {});

/// Why a traced run disagrees with PerfCounters; empty when it reconciles.
[[nodiscard]] std::string reconcile(const RunProfile& profile);

}  // namespace perfbench
