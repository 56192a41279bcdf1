#include "layers.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/rng.hpp"
#include "fault/injector.hpp"
#include "routing/engine.hpp"
#include "routing/factory.hpp"

namespace perfbench {

// --- LayerClock ----------------------------------------------------------------

void LayerClock::charge(clock::time_point now) {
  const auto top = static_cast<std::size_t>(stack_[depth_ - 1]);
  ns_[top] += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
          .count());
}

void LayerClock::enter(RunLayer layer) {
  const auto now = clock::now();
  if (depth_ == stack_.size()) {
    throw std::logic_error("LayerClock: decorated calls nested too deeply");
  }
  if (depth_ > 0) charge(now);
  stack_[depth_++] = layer;
  last_ = now;
}

void LayerClock::exit() {
  const auto now = clock::now();
  charge(now);
  --depth_;
  last_ = now;
}

namespace {

/// Charges the enclosed scope to one layer of the run's clock.
class InLayer {
 public:
  InLayer(LayerClock& clock, RunLayer layer) : clock_(clock) {
    clock_.enter(layer);
  }
  InLayer(const InLayer&) = delete;
  InLayer& operator=(const InLayer&) = delete;
  ~InLayer() { clock_.exit(); }

 private:
  LayerClock& clock_;
};

}  // namespace

// --- sinks -----------------------------------------------------------------------

void CountingSink::emit(const obs::TraceEvent& event) {
  ++totals_.events;
  switch (event.kind) {
    case obs::EventKind::kContactUp:
      ++totals_.contact_up;
      break;
    case obs::EventKind::kTransferred:
      ++totals_.transferred;
      break;
    case obs::EventKind::kSummaryVector:
      ++totals_.summary_vectors;
      totals_.summary_bytes += event.bytes;
      break;
    case obs::EventKind::kControl:
      totals_.control_records += event.count;
      totals_.control_bytes += event.bytes;
      break;
    case obs::EventKind::kFault:
      ++totals_.faults.at(static_cast<std::size_t>(event.fault));
      break;
    default:
      break;
  }
}

void CountingSink::emit_batch(const obs::TraceEvent* events, std::size_t n) {
  ++totals_.batches;
  for (std::size_t i = 0; i < n; ++i) emit(events[i]);
}

void TimedSink::emit(const obs::TraceEvent& event) {
  const InLayer in(clock_, RunLayer::kSink);
  inner_.emit(event);
}

void TimedSink::emit_batch(const obs::TraceEvent* events, std::size_t n) {
  const InLayer in(clock_, RunLayer::kSink);
  inner_.emit_batch(events, n);
}

// --- contact source ----------------------------------------------------------------

std::span<const mobility::Contact> TimedContactSource::next_chunk() {
  const InLayer in(clock_, RunLayer::kSource);
  const std::span<const mobility::Contact> chunk = inner_.next_chunk();
  ++calls_;
  contacts_ += chunk.size();
  return chunk;
}

// --- protocol ------------------------------------------------------------------------

void TimedProtocol::on_injected(routing::Engine& engine, dtn::DtnNode& source,
                                dtn::StoredBundle& copy, epi::SimTime now) {
  const InLayer in(clock_, RunLayer::kProtocol);
  ++calls_;
  inner_->on_injected(engine, source, copy, now);
}

epi::SimTime TimedProtocol::expiry_on_store(const dtn::DtnNode& node,
                                            const dtn::StoredBundle& copy,
                                            const dtn::DtnNode* from,
                                            epi::SimTime now) const {
  const InLayer in(clock_, RunLayer::kProtocol);
  ++calls_;
  return inner_->expiry_on_store(node, copy, from, now);
}

void TimedProtocol::on_contact_start(routing::Engine& engine,
                                     routing::SessionId session,
                                     dtn::DtnNode& a, dtn::DtnNode& b,
                                     epi::SimTime now) {
  const InLayer in(clock_, RunLayer::kProtocol);
  ++calls_;
  inner_->on_contact_start(engine, session, a, b, now);
}

void TimedProtocol::on_contact_end(routing::Engine& engine,
                                   routing::SessionId session,
                                   epi::SimTime now) {
  const InLayer in(clock_, RunLayer::kProtocol);
  ++calls_;
  inner_->on_contact_end(engine, session, now);
}

bool TimedProtocol::may_offer(routing::Engine& engine,
                              routing::SessionId session,
                              const dtn::DtnNode& sender,
                              const dtn::DtnNode& receiver,
                              const dtn::StoredBundle& copy,
                              bool sender_is_source) {
  const InLayer in(clock_, RunLayer::kProtocol);
  ++calls_;
  ++offers_;
  const bool offered =
      inner_->may_offer(engine, session, sender, receiver, copy,
                        sender_is_source);
  if (offered) ++accepted_;
  return offered;
}

bool TimedProtocol::make_room(routing::Engine& engine, dtn::DtnNode& receiver,
                              epi::BundleId incoming, epi::SimTime now) {
  const InLayer in(clock_, RunLayer::kProtocol);
  ++calls_;
  return inner_->make_room(engine, receiver, incoming, now);
}

void TimedProtocol::after_transfer(routing::Engine& engine,
                                   dtn::DtnNode& sender,
                                   dtn::DtnNode& receiver,
                                   dtn::StoredBundle& sender_copy,
                                   dtn::StoredBundle& receiver_copy,
                                   epi::SimTime now) {
  const InLayer in(clock_, RunLayer::kProtocol);
  ++calls_;
  inner_->after_transfer(engine, sender, receiver, sender_copy, receiver_copy,
                         now);
}

void TimedProtocol::on_delivered(routing::Engine& engine, dtn::DtnNode& sender,
                                 dtn::DtnNode& destination, epi::BundleId id,
                                 epi::SimTime now) {
  const InLayer in(clock_, RunLayer::kProtocol);
  ++calls_;
  inner_->on_delivered(engine, sender, destination, id, now);
}

// --- instrumented run ------------------------------------------------------------------

namespace {

// The two helpers below restate exp::run_single's private config and seed
// derivation; the decorator-transparency tests pin them to it.

epi::SimulationConfig make_run_config(const epi::exp::RunSpec& spec,
                                      std::uint32_t node_count) {
  epi::SimulationConfig config;
  config.node_count = std::max(node_count, 2u);
  config.buffer_capacity = spec.buffer_capacity;
  config.node_capacities = spec.options.node_capacities;
  config.eviction_policy = spec.options.eviction;
  config.summary = spec.options.summary;
  config.slot_seconds = spec.slot_seconds;
  config.horizon = spec.horizon;
  config.load = spec.load;
  if (spec.flows.empty()) {
    const epi::exp::FlowEndpoints flow = epi::exp::pick_endpoints(
        spec.master_seed, spec.load, spec.replication, config.node_count);
    config.source = flow.source;
    config.destination = flow.destination;
  } else {
    config.flows = spec.flows;
  }
  config.encounter_session_gap = spec.session_gap;
  config.protocol = spec.protocol;
  return config;
}

std::uint64_t derive_run_seed(const epi::exp::RunSpec& spec) {
  return epi::SplitMix64(spec.master_seed ^
                         (std::uint64_t{spec.load} << 32) ^ spec.replication)
      .next();
}

/// Per-layer time and call counts of the decorated seams at one instant.
struct NestedSnapshot {
  std::array<std::uint64_t, 3> ns{};
  std::array<std::uint64_t, 3> calls{};
};

constexpr RunLayer kNestedLayers[] = {RunLayer::kSource, RunLayer::kProtocol,
                                      RunLayer::kSink};
constexpr const char* kNestedOps[] = {"mobility.next_chunk",
                                      "routing.protocol", "obs.sink"};

/// Books the decorated-call time since `last` as aggregated children of
/// `span`, then advances `last`.
void attach_nested(const SpanContext& ctx, std::size_t span,
                   const NestedSnapshot& now, NestedSnapshot& last) {
  if (ctx.recorder != nullptr) {
    for (std::size_t i = 0; i < now.ns.size(); ++i) {
      const std::uint64_t calls = now.calls[i] - last.calls[i];
      if (calls > 0) {
        ctx.recorder->add_aggregate(span, kNestedOps[i],
                                    now.ns[i] - last.ns[i], calls);
      }
    }
  }
  last = now;
}

template <typename Contacts>
RunProfile run_with(const epi::exp::RunSpec& spec, Contacts& contacts,
                    LayerClock& clock, const TimedContactSource* source,
                    const SpanContext& ctx) {
  if (spec.trace_sink != nullptr || spec.collect_stats) {
    throw std::invalid_argument(
        "run_profiled: the spec must not carry its own sink or stats");
  }
  CountingSink counter;
  TimedSink sink(counter, clock);
  const epi::SimulationConfig config =
      make_run_config(spec, contacts.node_count());
  auto decorated = std::make_unique<TimedProtocol>(
      routing::make_protocol(spec.protocol), clock);
  const TimedProtocol& hooks = *decorated;
  const auto snapshot = [&] {
    NestedSnapshot snap;
    for (std::size_t i = 0; i < snap.ns.size(); ++i) {
      snap.ns[i] = clock.ns(kNestedLayers[i]);
    }
    snap.calls = {source != nullptr ? source->calls() : 0, hooks.calls(),
                  counter.totals().batches};
    return snap;
  };
  NestedSnapshot last;

  RunProfile profile;
  const auto start = std::chrono::steady_clock::now();
  std::optional<routing::Engine> engine;
  {
    const ScopedSpan span(ctx.recorder, "routing.construct", ctx.lane,
                          ctx.parent);
    {
      const InLayer in(clock, RunLayer::kConstruct);
      engine.emplace(config, contacts, std::move(decorated),
                     derive_run_seed(spec));
    }
    attach_nested(ctx, span.id(), snapshot(), last);
  }
  engine->set_trace_sink(&sink, spec.replication);
  if (spec.options.fault.any()) {
    spec.options.fault.validate();
    engine->set_fault_injector(std::make_unique<epi::fault::Injector>(
        spec.options.fault, spec.master_seed, spec.load, spec.replication));
  }
  {
    const ScopedSpan span(ctx.recorder, "routing.run", ctx.lane, ctx.parent);
    {
      const InLayer in(clock, RunLayer::kEngine);
      profile.summary = engine->run();
    }
    attach_nested(ctx, span.id(), snapshot(), last);
  }
  profile.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  for (std::size_t l = 0; l < profile.layer_ns.size(); ++l) {
    profile.layer_ns[l] = clock.ns(static_cast<RunLayer>(l));
  }
  if (source != nullptr) {
    profile.source_calls = source->calls();
    profile.source_contacts = source->contacts();
  }
  profile.protocol_calls = hooks.calls();
  profile.offers = hooks.offers();
  profile.offers_accepted = hooks.offers_accepted();
  profile.sink = counter.totals();
  return profile;
}

}  // namespace

RunProfile run_profiled(const epi::exp::RunSpec& spec,
                        const mobility::ContactTrace& trace,
                        const SpanContext& spans) {
  LayerClock clock;
  return run_with(spec, trace, clock, nullptr, spans);
}

RunProfile run_profiled(const epi::exp::RunSpec& spec,
                        mobility::ContactSource& source,
                        const SpanContext& spans) {
  LayerClock clock;
  TimedContactSource timed(source, clock);
  return run_with(spec, timed, clock, &timed, spans);
}

std::string reconcile(const RunProfile& profile) {
  const metrics::RunSummary& s = profile.summary;
  const obs::PerfCounters& perf = s.perf;
  const SinkTotals& sink = profile.sink;
  const auto fault = [&](obs::FaultKind kind) {
    return sink.faults.at(static_cast<std::size_t>(kind));
  };
  std::string why;
  const auto expect = [&](const char* what, std::uint64_t events,
                          std::uint64_t counter) {
    if (events != counter) {
      why += std::string(what) + ": sink " + std::to_string(events) +
             " vs counter " + std::to_string(counter) + "; ";
    }
  };
  expect("kContactUp/contacts", sink.contact_up, perf.contacts);
  expect("kTransferred/transfers", sink.transferred, perf.transfers);
  expect("kSummaryVector/summary_exchanges", sink.summary_vectors,
         perf.summary_exchanges);
  expect("kSummaryVector bytes/summary_ad_bytes", sink.summary_bytes,
         perf.summary_ad_bytes);
  expect("kControl bytes/control_bytes", sink.control_bytes,
         perf.control_bytes);
  expect("kControl records/control_records", sink.control_records,
         s.control_records);
  expect("kFault slot_loss/slots_lost", fault(obs::FaultKind::kSlotLoss),
         perf.slots_lost);
  expect("kFault down_slot/down_slots", fault(obs::FaultKind::kDownSlot),
         perf.down_slots);
  expect("kFault control_drop/control_dropped",
         fault(obs::FaultKind::kControlDrop), perf.control_dropped);
  expect("kFault truncation/contacts_truncated",
         fault(obs::FaultKind::kTruncation), perf.contacts_truncated);
  return why;
}

}  // namespace perfbench
