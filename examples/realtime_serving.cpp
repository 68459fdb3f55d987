// Real-time serving — the deployment architecture of the paper's
// Figure 2(b), scaled out: a trained APAN model behind the sharded
// serving engine. The synchronous link scores every incoming interaction
// with shard-parallel encoding; the k-hop mail propagation runs on
// per-shard background workers, with cross-shard mail routed between
// them (out of order by construction — the §3.6 mailbox absorbs it).
//
// The run ends with a metrics snapshot scraped from the engine's
// obs::Registry — the same per-shard counters, queue high-waters and
// stage histograms a production scrape would export (docs/observability.md).
//
// --transport=inproc|uds picks the shard-to-shard messaging plane:
// in-process delivery, or a Unix-domain-socket lane per ordered pair of
// distinct shards carrying serve/wire.h frames (the
// distributed-deployment shape).
// --trace=<path> records stage spans during the replay and flushes them
// as Chrome trace_event JSON (open at https://ui.perfetto.dev).
//
//   ./build/examples/realtime_serving
//   ./build/examples/realtime_serving --transport=uds --trace=serve.json

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/sharded_engine.h"
#include "serve/transport.h"
#include "tensor/arena.h"
#include "train/apan_adapter.h"
#include "train/link_trainer.h"

int main(int argc, char** argv) {
  using namespace apan;

  serve::TransportKind transport = serve::TransportKind::kInProcess;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--transport=", 0) == 0) {
      auto kind = serve::ParseTransportKind(arg.substr(strlen("--transport=")));
      if (!kind.ok()) {
        std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
        return 1;
      }
      transport = *kind;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = std::string(arg.substr(strlen("--trace=")));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--transport=inproc|uds] [--trace=<path>]\n",
                   argv[0]);
      return 1;
    }
  }
  if (transport == serve::TransportKind::kUnixSocket &&
      !serve::UnixSocketTransport::Available()) {
    std::fprintf(stderr, "--transport=uds: AF_UNIX unavailable here\n");
    return 1;
  }
  auto dataset = data::GenerateSynthetic(
      data::SyntheticConfig::WikipediaLike().Scaled(0.2));
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  // Train offline first (weights ship to the serving tier).
  core::ApanConfig config;
  config.num_nodes = dataset->num_nodes;
  config.embedding_dim = dataset->feature_dim();
  train::ApanLinkModel trained(config, &dataset->features, /*seed=*/11);
  train::LinkTrainConfig tc;
  tc.max_epochs = 4;
  train::LinkTrainer trainer(tc);
  auto report = trainer.Run(&trained, *dataset);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("offline training done: test AP %.2f%%\n\n",
              100 * report->test.ap);

  // "Deploy": reset streaming state and replay the event stream through
  // the sharded engine, as a production gateway would feed transactions.
  // Each shard owns a hash slice of the node space — a private
  // NodeStateStore (its mailbox slice + z(t−) rows), a graph slice, a
  // bounded inbox, and one propagation worker — while the trained weights
  // are shared const-only across shards (replicate weights, partition
  // state: the paper's §3.6 deployment split).
  trained.ResetState();
  serve::ShardedEngine::Options options;
  options.num_shards = 4;
  options.queue_capacity = 64;
  options.transport = serve::MakeTransportFactory(transport);
  serve::ShardedEngine engine(&trained.model(), options);

  // Arena traffic attributable to serving alone (training ran above).
  const int64_t arena_fresh_before = tensor::TensorArena::TotalFreshImpls();
  const int64_t arena_reused_before = tensor::TensorArena::TotalReusedImpls();

  if (!trace_path.empty()) {
    obs::TraceRecorder::Global().Clear();
    obs::TraceRecorder::Global().Enable();
  }

  const size_t batch = 200;  // paper's serving batch
  size_t served = 0;
  for (size_t lo = 0; lo + batch <= dataset->events.size(); lo += batch) {
    std::vector<graph::Event> events(dataset->events.begin() + lo,
                                     dataset->events.begin() + lo + batch);
    auto result = engine.InferBatch(events);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    served += result->scores.size();
  }
  engine.Flush();

  if (!trace_path.empty()) {
    obs::TraceRecorder::Global().Disable();
    const Status st =
        obs::TraceRecorder::Global().WriteChromeTrace(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "--trace: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  const auto stats = engine.stats();
  std::printf(
      "served %zu interactions in %lld batches across %d shards "
      "(transport: %s)\n",
      served, (long long)stats.batches_ingested,
      engine.router().num_shards, engine.transport_name());
  std::printf("\nsynchronous link (what the user waits for):\n");
  std::printf("  mean %.3f ms/batch | p50 %.3f | p99 %.3f\n",
              engine.sync_latency().Mean(), engine.sync_latency().P50(),
              engine.sync_latency().P99());

  // ---- End-of-run metrics snapshot, scraped from the registry ----------
  const obs::Registry::Snapshot snap = engine.registry()->Scrape();
  if (const auto* merge = snap.FindHistogram("stage.merge")) {
    std::printf("merge time (stage.merge: per-shard mail application):\n");
    std::printf("  mean %.3f ms/merge | p50 %.3f | p99 %.3f\n", merge->mean,
                merge->p50, merge->p99);
  }
  const int num_shards = engine.router().num_shards;
  const auto* homed = snap.FindCounter("serve.events_homed");
  const auto* merges = snap.FindCounter("serve.batches_propagated");
  const auto* job_hw = snap.FindGauge("serve.job_queue_highwater");
  const auto* mail_hw = snap.FindGauge("serve.mail_queue_highwater");
  std::printf("\nper-shard snapshot (obs::Registry scrape):\n");
  std::printf("  %-6s | %12s | %8s | %10s | %11s\n", "shard", "events homed",
              "merges", "job max q", "mail max q");
  for (int s = 0; s < num_shards; ++s) {
    const size_t cell = static_cast<size_t>(s);
    std::printf("  %-6d | %12lld | %8lld | %10lld | %11lld\n", s,
                homed != nullptr ? (long long)homed->cells[cell] : 0LL,
                merges != nullptr ? (long long)merges->cells[cell] : 0LL,
                job_hw != nullptr ? (long long)job_hw->cells[cell] : 0LL,
                mail_hw != nullptr ? (long long)mail_hw->cells[cell] : 0LL);
  }

  const auto* frames = snap.FindCounter("transport.frames");
  const auto* bytes = snap.FindCounter("transport.bytes");
  std::printf(
      "\ntransport: %lld frames; %lld mail deliveries, %lld crossed "
      "shards (%.1f%%) — out-of-order arrivals the FIFO mailbox absorbs "
      "by keeping slots time-sorted at write (paper §3.6)\n",
      frames != nullptr ? (long long)frames->total : 0LL,
      (long long)stats.mails_routed, (long long)stats.mails_cross_shard,
      stats.mails_routed > 0
          ? 100.0 * static_cast<double>(stats.mails_cross_shard) /
                static_cast<double>(stats.mails_routed)
          : 0.0);
  if (bytes != nullptr && bytes->total > 0) {
    std::printf("  %lld bytes over socket lanes\n", (long long)bytes->total);
  }
  std::printf(
      "tensor arena: %lld fresh allocations, %lld recycled during "
      "serving\n",
      (long long)(tensor::TensorArena::TotalFreshImpls() -
                  arena_fresh_before),
      (long long)(tensor::TensorArena::TotalReusedImpls() -
                  arena_reused_before));

  std::printf("\nstate plane (weights replicated, state partitioned):\n");
  int64_t state_sum = 0;
  for (int s = 0; s < num_shards; ++s) {
    const auto& store = engine.state_store(s);
    state_sum += store.MemoryBytes();
    std::printf("  shard %d: %lld nodes, %lld bytes mailbox + z rows\n", s,
                (long long)store.owned_count(),
                (long long)store.MemoryBytes());
  }
  std::printf("  summed: %lld bytes (%.2fx the monolithic store)\n",
              (long long)state_sum,
              static_cast<double>(state_sum) /
                  static_cast<double>(
                      trained.model().state_store().MemoryBytes()));
  if (!trace_path.empty()) {
    std::printf("\ntrace written to %s — open at https://ui.perfetto.dev\n",
                trace_path.c_str());
  }
  return 0;
}
