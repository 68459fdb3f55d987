#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/apan_model.h"
#include "graph/node_partition.h"
#include "graph/sampling.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/sharded_engine.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/stopwatch.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {

using apan::Stopwatch;
using apan::core::ApanConfig;
using apan::core::ApanModel;
using apan::data::Dataset;
using apan::graph::Event;
using apan::serve::ShardedEngine;
using Batches = std::vector<std::vector<Event>>;

namespace {

constexpr size_t kBatchEvents = 200;  ///< the paper's serving batch
constexpr double kSyncSloMs = 10.0;
constexpr double kLagSloMs = 50.0;
constexpr double kWarmupShare = 0.05;
/// Open-loop batches may take at most this share of the post-warm-up
/// stream, so the drain that measures capacity is never starved.
constexpr double kMaxOpenShare = 0.6;
/// Sleep until this long before a send is due, then spin: the timer's
/// wake-up slack would otherwise show up as generator lateness.
constexpr auto kSpinWindow = std::chrono::microseconds(200);
constexpr auto kLagPoll = std::chrono::microseconds(50);
/// How long after the last scheduled send the observer keeps waiting for
/// propagation before it counts the remaining batches as failed.
constexpr auto kLagTimeout = std::chrono::seconds(60);
/// Passes whose host steal is within this many points of the run's
/// quietest pass count as quiet (README.md, "What a run does").
constexpr double kQuietStealSlackPct = 1.0;
/// Setup repetitions beyond the passes' own, for a steadier setup_s.
constexpr int kExtraSetups = 6;

/// Disjoint engine stages (docs/observability.md). `encode` runs on the
/// synchronous link; the others partition each worker's time.
constexpr const char* kStages[] = {"encode",         "append",    "sample",
                                   "frontier_wait",  "frontier_serve",
                                   "propagate",      "route",     "merge",
                                   "finalize",       "idle"};
constexpr size_t kNumStages = std::size(kStages);

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Aggregate CPU jiffies from /proc/stat, for the steal share of a run.
struct CpuJiffies {
  bool ok = false;
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuJiffies ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuJiffies out;
  if (label != "cpu") return out;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice, so the guest columns are not added again).
  uint64_t fields[8] = {};
  for (uint64_t& f : fields) {
    if (!(in >> f)) return out;
    out.total += f;
  }
  out.steal = fields[7];
  out.ok = true;
  return out;
}

double StealPct(const CpuJiffies& a, const CpuJiffies& b) {
  if (!a.ok || !b.ok || b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

ApanConfig ModelConfig(const WorkloadSpec& spec, const Dataset& dataset) {
  ApanConfig config;  // paper §4.4 defaults: 10 slots, fanout 10, 2 heads
  config.num_nodes = dataset.num_nodes;
  config.embedding_dim = dataset.feature_dim();
  config.propagation_hops = spec.hops;
  config.dropout = 0.0f;
  return config;
}

uint64_t ModelSeed(uint64_t seed) { return 2021 + seed; }

bool ScoresWellFormed(const std::vector<float>& scores, size_t events) {
  if (scores.size() != events) return false;
  for (const float s : scores) {
    if (!std::isfinite(s) || s < 0.0f || s > 1.0f) return false;
  }
  return true;
}

/// Batch index ranges of one pass: [0, warm) warm-up, [warm, warm + open)
/// open loop, the rest drain.
struct BatchPlan {
  size_t warm = 0;
  size_t open = 0;
};

BatchPlan PlanBatches(size_t num_batches, double rate, double seconds) {
  APAN_CHECK_MSG(num_batches >= 3, "stream too short for three phases");
  BatchPlan plan;
  plan.warm = std::max<size_t>(
      1, static_cast<size_t>(std::llround(kWarmupShare *
                                          static_cast<double>(num_batches))));
  const size_t wanted = std::max<size_t>(
      1, static_cast<size_t>(std::llround(rate * seconds /
                                          static_cast<double>(kBatchEvents))));
  const size_t cap = std::max<size_t>(
      1, static_cast<size_t>(kMaxOpenShare *
                             static_cast<double>(num_batches - plan.warm)));
  plan.open = std::min(wanted, cap);
  APAN_CHECK(plan.warm + plan.open < num_batches);
  return plan;
}

/// A model and the engine serving it. The engine is declared last so it
/// shuts down before the model it reads goes away.
struct Served {
  std::unique_ptr<ApanModel> model;
  std::unique_ptr<ShardedEngine> engine;
};

Served BuildServed(const WorkloadSpec& spec, const Dataset& dataset,
                   uint64_t seed, bool stage_metrics) {
  Served served;
  served.model = std::make_unique<ApanModel>(ModelConfig(spec, dataset),
                                             &dataset.features, ModelSeed(seed));
  ShardedEngine::Options options;
  options.num_shards = spec.shards;
  if (spec.locality) {
    options.partition = apan::graph::NodePartition::BuildLocality(
        dataset.num_nodes, spec.shards, dataset.events);
  }
  options.transport = apan::serve::MakeTransportFactory(spec.transport);
  options.stage_metrics = stage_metrics;
  served.engine = std::make_unique<ShardedEngine>(served.model.get(), options);
  return served;
}

/// Polls the engine's propagated-batch count and records, per open-loop
/// batch, the time from its scheduled send until the count first covers
/// it. Runs on its own thread for the open-loop phase only.
class LagObserver {
 public:
  LagObserver(std::function<int64_t()> propagated, int64_t base,
              std::vector<Clock::time_point> schedule)
      : propagated_(std::move(propagated)),
        base_(base),
        schedule_(std::move(schedule)),
        lag_ms_(schedule_.size(), 0.0),
        thread_([this] { Loop(); }) {}
  ~LagObserver() { Join(); }
  LagObserver(const LagObserver&) = delete;
  LagObserver& operator=(const LagObserver&) = delete;

  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  /// Lags of the batches seen propagated (call after Join).
  std::vector<double> lag_ms() const {
    return std::vector<double>(lag_ms_.begin(),
                               lag_ms_.begin() + static_cast<long>(seen_));
  }
  /// Batches never seen propagated before the timeout (call after Join).
  int64_t missing() const {
    return static_cast<int64_t>(schedule_.size() - seen_);
  }

 private:
  void Loop() {
    // Default timer slack (50 us) would double the poll interval.
    prctl(PR_SET_TIMERSLACK, 1000UL);
    const Clock::time_point deadline =
        (schedule_.empty() ? Clock::now() : schedule_.back()) + kLagTimeout;
    size_t next = 0;
    while (next < schedule_.size()) {
      const int64_t done = propagated_() - base_;
      const Clock::time_point now = Clock::now();
      while (next < schedule_.size() && done > static_cast<int64_t>(next)) {
        lag_ms_[next] = Ms(now - schedule_[next]);
        ++next;
      }
      if (next == schedule_.size() || now > deadline) break;
      std::this_thread::sleep_for(kLagPoll);
    }
    seen_ = next;
  }

  std::function<int64_t()> propagated_;
  int64_t base_;
  std::vector<Clock::time_point> schedule_;
  std::vector<double> lag_ms_;
  size_t seen_ = 0;
  std::thread thread_;  // last: starts after everything it reads exists
};

/// Everything one pass measured.
struct PassResult {
  double setup_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  OpenLoopTimings open;
  std::vector<double> lag_ms;  ///< failed or unseen batches are +inf
  std::vector<double> stale;   ///< batches a score could not see
  double capacity_events_per_s = 0.0;
  double cpu_us_per_event = 0.0;
  double flush_ms = 0.0;
  /// Host steal over the open loop and drain: what picks the quiet passes.
  double steal_pct = 0.0;

  int64_t events = 0;
  int64_t batches = 0;
  ShardedEngine::Stats stats;
  int64_t frames = 0;
  int64_t bytes = 0;
  int64_t syscalls = 0;
  std::vector<int64_t> events_homed;  ///< per shard

  double stage_ms[kNumStages] = {};
  double worker_ms = 0.0;  ///< shards x engine wall time, for coverage

  uint64_t digest = 0;
  int64_t digest_nonempty = 0;
};

void Fail(PassResult* pass, std::string why) {
  ++pass->failed;
  if (pass->failures.size() < 8) pass->failures.push_back(std::move(why));
}

/// Sends one batch through InferBatch and checks the scores. \return ok.
bool SendBatch(ShardedEngine& engine, const std::vector<Event>& events,
               PassResult* pass) {
  ++pass->attempted;
  pass->events += static_cast<int64_t>(events.size());
  ++pass->batches;
  apan::Result<ShardedEngine::InferenceResult> result = [&] {
    apan::obs::Span span("bench.infer_batch");
    return engine.InferBatch(events);
  }();
  if (!result.ok()) {
    Fail(pass, "InferBatch: " + result.status().ToString());
    return false;
  }
  if (!ScoresWellFormed(result->scores, events.size())) {
    Fail(pass, "InferBatch returned malformed scores");
    return false;
  }
  return true;
}

/// Digest over nodes [0, num_nodes), each read from the store that owns
/// it: an engine shard's store, or the serial model's all-nodes store.
MailboxDigest DigestStores(
    int64_t num_nodes,
    const std::function<const apan::core::NodeStateStore&(
        apan::graph::NodeId)>& store_of) {
  MailboxDigest digest;
  for (apan::graph::NodeId v = 0; v < num_nodes; ++v) {
    const apan::core::NodeStateStore& store = store_of(v);
    const int64_t count = store.ValidCount(v);
    if (count == 0) {
      digest.AddNode(0, {});
      continue;
    }
    const auto read = store.ReadBatch({v});
    digest.AddNode(count, std::span<const double>(read.timestamps)
                              .first(static_cast<size_t>(count)));
  }
  return digest;
}

PassResult RunPass(const WorkloadSpec& spec, const Dataset& dataset,
                   const Batches& batches, const BatchPlan& plan,
                   uint64_t seed, bool traced) {
  PassResult pass;
  Stopwatch setup_watch;
  Served served = BuildServed(spec, dataset, seed, /*stage_metrics=*/traced);
  pass.setup_s = setup_watch.ElapsedSeconds();
  ShardedEngine& engine = *served.engine;
  Stopwatch engine_wall;  // the window the stage histograms cover
  apan::obs::TraceRecorder& recorder = apan::obs::TraceRecorder::Global();
  if (traced) {
    recorder.Clear();
    recorder.Enable();
  }

  // Phase 1: warm-up, closed loop, unmeasured.
  for (size_t b = 0; b < plan.warm; ++b) SendBatch(engine, batches[b], &pass);
  engine.Flush();

  // Phase 2: open loop at the workload's rate.
  const auto interval = std::chrono::duration<double>(
      static_cast<double>(kBatchEvents) / spec.rate_events_per_s);
  std::vector<Clock::time_point> schedule(plan.open);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < plan.open; ++i) {
    schedule[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                           interval * static_cast<double>(i));
  }
  const auto base = static_cast<int64_t>(plan.warm);
  std::vector<char> open_ok(plan.open, 0);
  pass.stale.reserve(plan.open);
  const CpuJiffies jiffies_start = ReadCpuJiffies();
  {
    LagObserver observer(
        [&engine] { return engine.stats().batches_propagated; }, base,
        schedule);
    pass.open = RunOpenLoop(schedule, [&](size_t i) {
      const int64_t propagated = engine.stats().batches_propagated;
      pass.stale.push_back(
          static_cast<double>(base + static_cast<int64_t>(i) - propagated));
      open_ok[i] = SendBatch(engine, batches[plan.warm + i], &pass) ? 1 : 0;
    });
    observer.Join();
    pass.lag_ms = observer.lag_ms();
    for (int64_t m = 0; m < observer.missing(); ++m) {
      Fail(&pass, "batch never seen propagated");
      pass.lag_ms.push_back(INFINITY);
    }
  }
  for (size_t i = 0; i < plan.open; ++i) {
    if (open_ok[i] == 0) {
      pass.open.sync_ms[i] = INFINITY;  // a failure misses every limit
      pass.lag_ms[i] = INFINITY;
    }
  }

  // Phase 3: drain the rest, closed loop, ending in Flush().
  const double cpu_start = ProcessCpuSeconds();
  Stopwatch drain_watch;
  int64_t drain_events = 0;
  for (size_t b = plan.warm + plan.open; b < batches.size(); ++b) {
    SendBatch(engine, batches[b], &pass);
    drain_events += static_cast<int64_t>(batches[b].size());
  }
  Stopwatch flush_watch;
  {
    apan::obs::Span span("bench.flush");
    engine.Flush();
  }
  pass.flush_ms = flush_watch.ElapsedMillis();
  const double drain_s = drain_watch.ElapsedSeconds();
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  pass.steal_pct = StealPct(jiffies_start, ReadCpuJiffies());
  if (traced) recorder.Disable();
  pass.capacity_events_per_s = static_cast<double>(drain_events) / drain_s;
  pass.cpu_us_per_event = 1e6 * cpu_s / static_cast<double>(drain_events);

  // Correctness gate: nothing lost, shed, rejected or duplicated.
  pass.stats = engine.stats();
  const ShardedEngine::Stats& st = pass.stats;
  if (st.batches_propagated != st.batches_ingested) {
    Fail(&pass, "batches_propagated != batches_ingested after Flush");
  }
  if (st.batches_ingested != static_cast<int64_t>(batches.size())) {
    Fail(&pass, "not every batch was ingested");
  }
  if (st.batches_rejected != 0 || st.events_shed != 0 || st.sends_shed != 0 ||
      st.duplicates_dropped != 0) {
    Fail(&pass, "rejected/shed/duplicate counters are not all 0");
  }

  const apan::obs::Registry::Snapshot snap = engine.registry()->Scrape();
  pass.worker_ms =
      static_cast<double>(spec.shards) * engine_wall.ElapsedMillis();
  auto counter = [&snap](const char* name) -> int64_t {
    const auto* row = snap.FindCounter(name);
    return row != nullptr ? row->total : 0;
  };
  pass.frames = counter("transport.frames");
  pass.bytes = counter("transport.bytes");
  pass.syscalls = counter("transport.syscalls");
  if (const auto* homed = snap.FindCounter("serve.events_homed")) {
    pass.events_homed = homed->cells;
  }
  for (size_t s = 0; s < kNumStages; ++s) {
    const auto* row = snap.FindHistogram(std::string("stage.") + kStages[s]);
    pass.stage_ms[s] = row != nullptr ? row->total_ms : 0.0;
  }

  const MailboxDigest digest = DigestStores(
      dataset.num_nodes,
      [&engine](apan::graph::NodeId v) -> const apan::core::NodeStateStore& {
        return engine.state_store(engine.router().ShardOf(v));
      });
  pass.digest = digest.value();
  pass.digest_nonempty = digest.nonempty_nodes();
  return pass;
}

/// The serial oracle: the same batches through ApanModel's public calls,
/// one thread, each call timed (the core/graph per-layer numbers).
struct SerialReplay {
  bool ok = true;
  std::string error;
  uint64_t digest = 0;
  int64_t digest_nonempty = 0;
  int64_t batches = 0;
  int64_t events = 0;
  int64_t unique_nodes = 0;
  int64_t hop_entries = 0;
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double sample_ms = 0.0;
  double propagate_ms = 0.0;
  double deliver_ms = 0.0;
  double append_ms = 0.0;
};

SerialReplay RunSerial(const WorkloadSpec& spec, const Dataset& dataset,
                       const Batches& batches, uint64_t seed) {
  namespace core = apan::core;
  namespace graph = apan::graph;
  namespace tensor = apan::tensor;
  namespace obs = apan::obs;
  ApanModel model(ModelConfig(spec, dataset), &dataset.features,
                  ModelSeed(seed));
  model.SetTraining(false);
  const ApanConfig& config = model.config();
  const int64_t d = config.embedding_dim;
  SerialReplay out;
  for (const std::vector<Event>& events : batches) {
    tensor::NoGradGuard no_grad;
    tensor::ArenaScope arena;
    ++out.batches;
    out.events += static_cast<int64_t>(events.size());

    // Each node is encoded once per batch, as the engines do (§3.2).
    std::vector<graph::NodeId> unique;
    std::unordered_map<graph::NodeId, int64_t> index_of;
    std::vector<int64_t> src_rows, dst_rows;
    auto intern = [&](graph::NodeId v) {
      auto [it, inserted] =
          index_of.try_emplace(v, static_cast<int64_t>(unique.size()));
      if (inserted) unique.push_back(v);
      return it->second;
    };
    for (const Event& e : events) {
      src_rows.push_back(intern(e.src));
      dst_rows.push_back(intern(e.dst));
    }
    out.unique_nodes += static_cast<int64_t>(unique.size());

    Stopwatch watch;
    core::ApanEncoder::Output enc;
    {
      obs::Span span("bench.serial.encode");
      enc = model.EncodeNodes(unique);
    }
    out.encode_ms += watch.ElapsedMillis();
    const tensor::Tensor z_src = tensor::GatherRows(enc.embeddings, src_rows);
    const tensor::Tensor z_dst = tensor::GatherRows(enc.embeddings, dst_rows);
    watch.Restart();
    {
      obs::Span span("bench.serial.decode");
      const tensor::Tensor logits = model.ScoreLinkLogits(z_src, z_dst);
      static_cast<void>(logits);
    }
    out.decode_ms += watch.ElapsedMillis();

    std::vector<core::InteractionRecord> records(events.size());
    const float* emb = enc.embeddings.data();
    for (size_t i = 0; i < events.size(); ++i) {
      records[i].event = events[i];
      const float* zs = emb + src_rows[i] * d;
      const float* zd = emb + dst_rows[i] * d;
      records[i].z_src.assign(zs, zs + d);
      records[i].z_dst.assign(zd, zd + d);
    }
    // ProcessBatchPostInference, call by call.
    model.ApplyEmbeddings(records);
    watch.Restart();
    std::vector<std::vector<graph::HopEntry>> hops(records.size());
    {
      obs::Span span("bench.serial.sample");
      for (size_t r = 0; r < records.size(); ++r) {
        const Event& e = records[r].event;
        hops[r] = graph::KHopMostRecent(model.graph(), {e.src, e.dst},
                                        e.timestamp, config.propagation_hops,
                                        config.sampled_neighbors);
      }
    }
    out.sample_ms += watch.ElapsedMillis();
    for (const auto& h : hops) out.hop_entries += static_cast<int64_t>(h.size());
    watch.Restart();
    std::vector<core::MailDelivery> deliveries;
    {
      obs::Span span("bench.serial.propagate");
      std::vector<int64_t> event_index(records.size());
      std::iota(event_index.begin(), event_index.end(), 0);
      core::PartialPropagation part =
          model.propagator().ComputePartialFromHops(records, event_index, hops);
      deliveries.reserve(part.hop0.size() + part.partial.size());
      for (auto& tagged : part.hop0) {
        deliveries.push_back(std::move(tagged.delivery));
      }
      for (auto& partial : part.partial) {
        deliveries.push_back(
            core::MailPropagator::FinalizeReduce(std::move(partial)));
      }
    }
    out.propagate_ms += watch.ElapsedMillis();
    watch.Restart();
    {
      obs::Span span("bench.serial.deliver");
      model.mailbox().DeliverBatch(deliveries);
    }
    out.deliver_ms += watch.ElapsedMillis();
    watch.Restart();
    apan::Status appended;
    {
      obs::Span span("bench.serial.append");
      appended = model.AppendEvents(records);
    }
    out.append_ms += watch.ElapsedMillis();
    if (!appended.ok() && out.ok) {
      out.ok = false;
      out.error = "AppendEvents: " + appended.ToString();
    }
  }
  const MailboxDigest digest = DigestStores(
      dataset.num_nodes,
      [&model](apan::graph::NodeId) -> const apan::core::NodeStateStore& {
        return model.state_store();
      });
  out.digest = digest.value();
  out.digest_nonempty = digest.nonempty_nodes();
  return out;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) v = 0.0;  // JSON has no inf/nan; gated elsewhere
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// ---- Sample arithmetic ------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double SloSharePct(const std::vector<double>& values, double limit) {
  if (values.empty()) return 0.0;
  const auto met = std::count_if(values.begin(), values.end(),
                                 [limit](double v) { return v <= limit; });
  return 100.0 * static_cast<double>(met) / static_cast<double>(values.size());
}

void MailboxDigest::Mix(uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (word >> (8 * byte)) & 0xFFu;
    hash_ *= 1099511628211ULL;
  }
}

void MailboxDigest::AddNode(int64_t valid_count,
                            std::span<const double> timestamps) {
  Mix(static_cast<uint64_t>(valid_count));
  for (const double t : timestamps) {
    uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof(bits));
    Mix(bits);
  }
  if (valid_count > 0) ++nonempty_;
}

// ---- Open-loop load generation ----------------------------------------------

OpenLoopTimings RunOpenLoop(const std::vector<Clock::time_point>& schedule,
                            const std::function<void(size_t)>& send) {
  const int previous_slack = prctl(PR_GET_TIMERSLACK);
  prctl(PR_SET_TIMERSLACK, 1000UL);
  OpenLoopTimings t;
  t.sync_ms.reserve(schedule.size());
  t.call_ms.reserve(schedule.size());
  t.late_ms.reserve(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Clock::time_point due = schedule[i];
    if (due - Clock::now() > kSpinWindow) {
      std::this_thread::sleep_until(due - kSpinWindow);
    }
    while (Clock::now() < due) {
    }
    const Clock::time_point sent = Clock::now();
    send(i);
    const Clock::time_point done = Clock::now();
    t.sync_ms.push_back(Ms(done - due));
    t.call_ms.push_back(Ms(done - sent));
    t.late_ms.push_back(Ms(sent - due));
  }
  if (previous_slack > 0) {
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(previous_slack));
  }
  return t;
}

// ---- Workloads ----------------------------------------------------------------

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    using apan::data::SyntheticConfig;
    using apan::serve::TransportKind;
    // Table 1 sizes: Wikipedia 8,227 users + 1,000 items, 157,474 events.
    SyntheticConfig wiki = SyntheticConfig::WikipediaLike();
    wiki.num_users = 8227;
    wiki.num_items = 1000;
    wiki.num_events = 157474;
    // Alipay at 1/10 of Table 1's nodes, with a stream long enough for a
    // multi-second drain at 2 hops.
    SyntheticConfig alipay = SyntheticConfig::AlipayLike();
    alipay.num_users = 76175;
    alipay.num_events = 140000;
    // Reddit's Table 1 node count (10,000 users + 984 items) at half its
    // events: dense repeat traffic on Zipf-hot nodes.
    SyntheticConfig reddit = SyntheticConfig::RedditLike();
    reddit.num_users = 10000;
    reddit.num_items = 984;
    reddit.num_events = 336000;
    return std::vector<WorkloadSpec>{
        {"wiki-x1", wiki, 1, TransportKind::kInProcess, false, 1, 40000.0, 10},
        {"alipay-x2-uds-2hop", alipay, 2, TransportKind::kUnixSocket, false, 2,
         8000.0, 5},
        {"reddit-x2-loc", reddit, 2, TransportKind::kInProcess, true, 1,
         25000.0, 6},
    };
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// ---- Runs -----------------------------------------------------------------------

RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  RunReport report;
  const CpuJiffies jiffies_start = ReadCpuJiffies();
  auto note = [&report](const char* fmt, auto... args) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    report.notes.emplace_back(buf);
  };

  apan::data::SyntheticConfig data = spec.data;
  if (options.scale != 1.0) data = data.Scaled(options.scale);
  data.seed = spec.data.seed ^ (options.seed * 0x9E3779B97F4A7C15ULL);
  apan::Result<Dataset> generated = apan::data::GenerateSynthetic(data);
  if (!generated.ok()) {
    report.attempted = 1;
    report.failed = 1;
    note("dataset generation failed: %s",
         generated.status().ToString().c_str());
    return report;
  }
  const Dataset dataset = std::move(generated).ValueOrDie();
  Batches batches;
  for (size_t lo = 0; lo < dataset.events.size(); lo += kBatchEvents) {
    const size_t hi = std::min(lo + kBatchEvents, dataset.events.size());
    batches.emplace_back(dataset.events.begin() + static_cast<long>(lo),
                         dataset.events.begin() + static_cast<long>(hi));
  }
  const BatchPlan plan = PlanBatches(batches.size(), spec.rate_events_per_s,
                                     options.open_loop_seconds);
  // A traced run needs per-layer figures, not tight end-to-end ones: half
  // as many pairs keeps it near an untraced run's length.
  const int passes =
      options.trace ? std::max(2, spec.passes / 2) : spec.passes;
  note("workload %s: %lld nodes, %lld events, %zu batches of %zu "
       "(warm-up %zu, open loop %zu at %.0f ev/s, drain %zu), %d pass%s%s",
       spec.name, static_cast<long long>(dataset.num_nodes),
       static_cast<long long>(dataset.num_events()), batches.size(),
       kBatchEvents, plan.warm, plan.open, spec.rate_events_per_s,
       batches.size() - plan.warm - plan.open, passes,
       passes == 1 ? "" : "es",
       options.trace ? " (each an untraced/traced pair)" : "");

  // setup_s: every pass's own setup, plus extra rounds. Each extra engine
  // serves the warm-up prefix before it is torn down, so every timed setup
  // follows the teardown of an engine that served traffic, as a pass's
  // does: back-to-back idle setups get faster as the allocator settles.
  std::vector<double> setup_s;
  for (int i = 0; i < kExtraSetups; ++i) {
    Stopwatch watch;
    Served served = BuildServed(spec, dataset, options.seed, false);
    setup_s.push_back(watch.ElapsedSeconds());
    for (size_t b = 0; b < plan.warm; ++b) {
      static_cast<void>(served.engine->InferBatch(batches[b]));
    }
    served.engine->Flush();
  }

  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  for (int p = 0; p < passes; ++p) {
    untraced.push_back(
        RunPass(spec, dataset, batches, plan, options.seed, false));
    setup_s.push_back(untraced.back().setup_s);
    if (options.trace) {
      traced.push_back(
          RunPass(spec, dataset, batches, plan, options.seed, true));
      setup_s.push_back(traced.back().setup_s);
    }
  }
  const double peak_rss_mb = PeakRssMb();  // before the oracle's own model
  const double steal_pct = StealPct(jiffies_start, ReadCpuJiffies());

  apan::obs::TraceRecorder& recorder = apan::obs::TraceRecorder::Global();
  if (options.trace) recorder.Enable();
  const SerialReplay serial = RunSerial(spec, dataset, batches, options.seed);
  if (options.trace) recorder.Disable();

  // ---- Correctness gate --------------------------------------------------
  std::vector<PassResult*> all;
  for (PassResult& p : untraced) all.push_back(&p);
  for (PassResult& p : traced) all.push_back(&p);
  if (!serial.ok) {
    ++report.failed;
    note("gate: serial replay failed: %s", serial.error.c_str());
  }
  for (PassResult* p : all) {
    if (p->digest != serial.digest || serial.digest_nonempty == 0) {
      Fail(p, "stitched mailbox digest differs from the serial path");
    }
    report.attempted += p->attempted;
    report.failed += p->failed;
    for (const std::string& why : p->failures) note("gate: %s", why.c_str());
  }
  report.correct = report.failed == 0;
  note("gate: %s — %lld batches attempted, %lld failed; mailbox digest "
       "%016llx over %lld nonempty nodes (serial %016llx)",
       report.correct ? "PASS" : "FAIL",
       static_cast<long long>(report.attempted),
       static_cast<long long>(report.failed),
       static_cast<unsigned long long>(all.front()->digest),
       static_cast<long long>(all.front()->digest_nonempty),
       static_cast<unsigned long long>(serial.digest));

  // ---- End-to-end metrics (quiet untraced passes) -----------------------
  // The quietest half of the passes by host steal, plus any other pass
  // within kQuietStealSlackPct of the quietest: a noisy spell on a shared
  // host then costs a run some passes instead of shifting every figure,
  // and a quiet run keeps them all.
  std::vector<size_t> by_steal(untraced.size());
  std::iota(by_steal.begin(), by_steal.end(), 0);
  std::stable_sort(by_steal.begin(), by_steal.end(), [&](size_t a, size_t b) {
    return untraced[a].steal_pct < untraced[b].steal_pct;
  });
  std::vector<char> quiet(untraced.size(), 0);
  for (size_t k = 0; k < by_steal.size(); ++k) {
    const double steal = untraced[by_steal[k]].steal_pct;
    if (2 * k < by_steal.size() ||
        steal <= untraced[by_steal[0]].steal_pct + kQuietStealSlackPct) {
      quiet[by_steal[k]] = 1;
    }
  }
  std::vector<double> sync_ms, call_ms, late_ms, lag_ms, stale;
  std::vector<double> capacity, cpu_us, flush_ms;
  double events = 0.0, batch_count = 0.0, mails_routed = 0.0, mails_cross = 0.0;
  double frontier_requests = 0.0, frontier_nodes = 0.0;
  double frames = 0.0, bytes = 0.0, syscalls = 0.0;
  std::vector<double> homed(static_cast<size_t>(spec.shards), 0.0);
  for (size_t i = 0; i < untraced.size(); ++i) {
    if (quiet[i] == 0) continue;
    const PassResult& p = untraced[i];
    sync_ms.insert(sync_ms.end(), p.open.sync_ms.begin(), p.open.sync_ms.end());
    call_ms.insert(call_ms.end(), p.open.call_ms.begin(), p.open.call_ms.end());
    late_ms.insert(late_ms.end(), p.open.late_ms.begin(), p.open.late_ms.end());
    lag_ms.insert(lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
    stale.insert(stale.end(), p.stale.begin(), p.stale.end());
    capacity.push_back(p.capacity_events_per_s);
    cpu_us.push_back(p.cpu_us_per_event);
    flush_ms.push_back(p.flush_ms);
    events += static_cast<double>(p.events);
    batch_count += static_cast<double>(p.batches);
    mails_routed += static_cast<double>(p.stats.mails_routed);
    mails_cross += static_cast<double>(p.stats.mails_cross_shard);
    frontier_requests += static_cast<double>(p.stats.frontier_requests);
    frontier_nodes += static_cast<double>(p.stats.frontier_nodes_forwarded);
    frames += static_cast<double>(p.frames);
    bytes += static_cast<double>(p.bytes);
    syscalls += static_cast<double>(p.syscalls);
    for (size_t s = 0; s < p.events_homed.size() && s < homed.size(); ++s) {
      homed[s] += static_cast<double>(p.events_homed[s]);
    }
  }
  const double failed_pct =
      100.0 * Ratio(static_cast<double>(report.failed),
                    static_cast<double>(report.attempted));
  report.end_to_end = {
      {"sync_p50_ms", Percentile(sync_ms, 0.5), "ms"},
      {"sync_slo_pct", SloSharePct(sync_ms, kSyncSloMs), "%"},
      {"lag_p50_ms", Percentile(lag_ms, 0.5), "ms"},
      {"lag_slo_pct", SloSharePct(lag_ms, kLagSloMs), "%"},
      {"capacity_events_per_s", Median(capacity), "events/s"},
      {"cpu_us_per_event", Median(cpu_us), "us"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };

  // ---- Per-layer metrics ---------------------------------------------------
  const double homed_mean =
      std::accumulate(homed.begin(), homed.end(), 0.0) /
      static_cast<double>(homed.size());
  const double homed_max = *std::max_element(homed.begin(), homed.end());
  std::vector<Metric>& layer = report.per_layer;
  layer = {
      {"serve.infer_call_ms_p50", Percentile(call_ms, 0.5), "ms"},
      {"serve.stale_batches_mean",
       Ratio(std::accumulate(stale.begin(), stale.end(), 0.0),
             static_cast<double>(stale.size())),
       "batches"},
      {"serve.flush_ms", Median(flush_ms), "ms"},
      {"serve.mails_per_event", Ratio(mails_routed, events), "mails/event"},
      {"serve.cross_shard_mail_pct", 100.0 * Ratio(mails_cross, mails_routed),
       "%"},
      {"serve.frontier_requests_per_batch",
       Ratio(frontier_requests, batch_count), "requests/batch"},
      {"serve.frontier_nodes_forwarded_per_event",
       Ratio(frontier_nodes, events), "nodes/event"},
      {"serve.homed_event_skew", Ratio(homed_max, homed_mean), "max/mean"},
      {"transport.frames_per_batch", Ratio(frames, batch_count),
       "frames/batch"},
      {"transport.bytes_per_event", Ratio(bytes, events), "bytes/event"},
      {"transport.syscalls_per_batch", Ratio(syscalls, batch_count),
       "calls/batch"},
      {"transport.messages_per_syscall", Ratio(frames, syscalls),
       "msgs/call"},
  };
  if (!traced.empty()) {
    double stage_ms[kNumStages] = {};
    double worker_ms = 0.0, traced_batches = 0.0;
    for (const PassResult& p : traced) {
      for (size_t s = 0; s < kNumStages; ++s) stage_ms[s] += p.stage_ms[s];
      worker_ms += p.worker_ms;
      traced_batches += static_cast<double>(p.batches);
    }
    double covered = 0.0;
    for (size_t s = 0; s < kNumStages; ++s) {
      layer.push_back({std::string("stage.") + kStages[s],
                       Ratio(stage_ms[s], traced_batches), "ms/batch"});
      if (s > 0) covered += stage_ms[s];  // worker stages only
    }
    layer.push_back({"stage.coverage_pct", 100.0 * Ratio(covered, worker_ms),
                     "%"});
    std::vector<double> overhead;
    for (size_t i = 0; i < traced.size(); ++i) {
      overhead.push_back(100.0 *
                         Ratio(traced[i].cpu_us_per_event -
                                   untraced[i].cpu_us_per_event,
                               untraced[i].cpu_us_per_event));
    }
    layer.push_back({"obs.tracing_overhead_pct", Median(overhead), "%"});
  }
  const double serial_batches = static_cast<double>(serial.batches);
  const double serial_events = static_cast<double>(serial.events);
  layer.insert(
      layer.end(),
      {
          {"core.encode_ms_per_batch", Ratio(serial.encode_ms, serial_batches),
           "ms/batch"},
          {"core.unique_nodes_per_batch",
           Ratio(static_cast<double>(serial.unique_nodes), serial_batches),
           "nodes/batch"},
          {"core.decode_ms_per_batch", Ratio(serial.decode_ms, serial_batches),
           "ms/batch"},
          {"graph.sample_us_per_event",
           1e3 * Ratio(serial.sample_ms, serial_events), "us/event"},
          {"graph.hop_entries_per_event",
           Ratio(static_cast<double>(serial.hop_entries), serial_events),
           "entries/event"},
          {"core.propagate_us_per_event",
           1e3 * Ratio(serial.propagate_ms, serial_events), "us/event"},
          {"core.deliver_us_per_event",
           1e3 * Ratio(serial.deliver_ms, serial_events), "us/event"},
          {"graph.append_us_per_event",
           1e3 * Ratio(serial.append_ms, serial_events), "us/event"},
          {"loadgen.late_p50_ms", Percentile(late_ms, 0.5), "ms"},
          {"loadgen.late_p99_ms", Percentile(late_ms, 0.99), "ms"},
          {"host.steal_pct", steal_pct, "%"},
          {"sync_p99_ms", Percentile(sync_ms, 0.99), "ms"},
          {"lag_p99_ms", Percentile(lag_ms, 0.99), "ms"},
          {"open_loop_batches", static_cast<double>(sync_ms.size()), "count"},
          {"failed_pct", failed_pct, "%"},
      });

  // ---- Host and harness annotation ---------------------------------------
  note("host: nproc=%ld isa=%s compiler=%s build=%s steal_pct=%.3f",
       sysconf(_SC_NPROCESSORS_ONLN),
       apan::tensor::kernels::IsaName(apan::tensor::kernels::ActiveIsa()),
       CompilerName().c_str(), SERVEBENCH_BUILD_TYPE, steal_pct);
  note("loadgen: lateness p50 %.4f ms, p99 %.4f ms over %zu sends",
       Percentile(late_ms, 0.5), Percentile(late_ms, 0.99), late_ms.size());
  note("tail (diagnostic, not gated): sync p99 %.3f ms over %zu batches, "
       "lag p99 %.3f ms over %zu batches",
       Percentile(sync_ms, 0.99), sync_ms.size(), Percentile(lag_ms, 0.99),
       lag_ms.size());
  for (size_t i = 0; i < untraced.size(); ++i) {
    const PassResult& p = untraced[i];
    note("pass %zu%s: steal %.2f%%, setup %.4f s, sync p50 %.3f ms, lag p50 "
         "%.3f ms, drain %.0f ev/s at %.3f us/event, flush %.1f ms",
         i, quiet[i] != 0 ? "" : " (noisy, left out)", p.steal_pct,
         p.setup_s, Percentile(p.open.sync_ms, 0.5),
         Percentile(p.lag_ms, 0.5), p.capacity_events_per_s,
         p.cpu_us_per_event, p.flush_ms);
  }
  note("failed_pct %.4f %% (%lld of %lld batches)", failed_pct,
       static_cast<long long>(report.failed),
       static_cast<long long>(report.attempted));
  if (options.trace && !options.trace_path.empty()) {
    const apan::Status written = recorder.WriteChromeTrace(options.trace_path);
    note("chrome trace: %s", written.ok() ? options.trace_path.c_str()
                                          : written.ToString().c_str());
  }
  return report;
}

std::string ResultJson(const RunReport& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  const std::vector<Metric>& metrics =
      trace ? report.per_layer : report.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatDouble(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace servebench
