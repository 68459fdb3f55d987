#include "serve/sharded_engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "tensor/arena.h"
#include "tensor/ops.h"

namespace apan {
namespace serve {

using core::InteractionRecord;
using core::MailDelivery;
using core::MailPropagator;
using core::PartialPropagation;

ShardedEngine::ShardedEngine(core::ApanModel* model, Options options)
    : model_(model),
      options_(options),
      partition_(options.partition != nullptr
                     ? options.partition
                     : graph::NodePartition::BuildDefault(
                           model != nullptr ? model->config().num_nodes : 1,
                           options.num_shards)),
      router_(partition_),
      transport_(options_.transport ? options_.transport()
                                    : std::make_unique<InProcessTransport>()),
      encode_pool_(options.encode_threads > 0
                       ? options.encode_threads
                       : static_cast<size_t>(options.num_shards)),
      shard_down_(static_cast<size_t>(options.num_shards)) {
  APAN_CHECK(model != nullptr);
  APAN_CHECK_MSG(partition_->num_shards == options_.num_shards &&
                     partition_->num_nodes() == model->config().num_nodes,
                 "Options::partition must cover the model's node space with "
                 "Options::num_shards shards");
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  // Resolve metric handles once. Per-shard writers get one cell per
  // shard; transport lanes get one cell per directed (from, to) pair.
  stage_metrics_ = options_.stage_metrics;
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  const int ns = options_.num_shards;
  ins_.batches_ingested = registry_->GetCounter("serve.batches_ingested");
  ins_.batches_propagated =
      registry_->GetCounter("serve.batches_propagated", ns);
  ins_.batches_rejected = registry_->GetCounter("serve.batches_rejected");
  ins_.mails_routed = registry_->GetCounter("serve.mails_routed", ns);
  ins_.mails_cross_shard =
      registry_->GetCounter("serve.mails_cross_shard", ns);
  ins_.mails_dropped = registry_->GetCounter("serve.mails_dropped");
  ins_.duplicates_dropped =
      registry_->GetCounter("serve.duplicates_dropped", ns);
  ins_.events_homed = registry_->GetCounter("serve.events_homed", ns);
  ins_.events_shed = registry_->GetCounter("serve.events_shed", ns);
  ins_.sends_shed = registry_->GetCounter("serve.sends_shed", ns);
  ins_.job_depth = registry_->GetGauge("serve.job_queue_depth", ns);
  ins_.job_highwater = registry_->GetGauge("serve.job_queue_highwater", ns);
  ins_.mail_depth = registry_->GetGauge("serve.mail_queue_depth", ns);
  ins_.mail_highwater =
      registry_->GetGauge("serve.mail_queue_highwater", ns);
  ins_.merge_pending_highwater =
      registry_->GetGauge("serve.merge_pending_highwater", ns);
  ins_.stage_sync = registry_->GetHistogram("stage.sync");
  ins_.stage_merge = registry_->GetHistogram("stage.merge", ns);
  ins_.stage_encode = registry_->GetHistogram("stage.encode", ns);
  ins_.stage_append = registry_->GetHistogram("stage.append", ns);
  ins_.stage_sample = registry_->GetHistogram("stage.sample", ns);
  ins_.stage_propagate = registry_->GetHistogram("stage.propagate", ns);
  ins_.stage_route = registry_->GetHistogram("stage.route", ns);
  ins_.stage_idle = registry_->GetHistogram("stage.idle", ns);
  ins_.stage_finalize = registry_->GetHistogram("stage.finalize", ns);
  APAN_CHECK_MSG(
      model->config().sampling == core::PropagationSampling::kMostRecent,
      "ShardedEngine requires kMostRecent sampling: kUniform draws from a "
      "shared RNG, which shard-concurrent sampling would race on");
  // The one and only model mutation: eval mode, before the engine runs.
  // From here on the model is weights-only to the engine (const access);
  // every mutable byte the engine serves lives in the per-shard stores.
  model->SetTraining(false);
  // Partition the node space into disjoint per-shard state stores. The
  // ownership index is partition_ — the SAME instance the router reads —
  // so owner + local row per node is stored once for the whole engine.
  // The graph, by contrast, is replicated: each worker samples its own.
  const core::ApanConfig& config = model->config();
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->store = std::make_unique<core::NodeStateStore>(
        partition_, s, config.mailbox_slots, config.embedding_dim);
    shard->replica =
        std::make_unique<graph::AdjacencyReplica>(config.num_nodes);
    shards_.push_back(std::move(shard));
  }
  // Per-lane transport accounting: one counter cell per directed
  // (from, to) shard pair, attributed inside the transport itself (only
  // it knows frame sizes and syscall counts).
  TransportMetrics tmetrics;
  tmetrics.num_shards = ns;
  tmetrics.frames = registry_->GetCounter("transport.frames", ns * ns);
  tmetrics.bytes = registry_->GetCounter("transport.bytes", ns * ns);
  tmetrics.syscalls = registry_->GetCounter("transport.syscalls", ns * ns);
  tmetrics.lane_reconnects =
      registry_->GetCounter("transport.lane_reconnects", ns * ns);
  tmetrics.send_failures =
      registry_->GetCounter("transport.send_failures", ns * ns);
  transport_->SetMetrics(tmetrics);
  // The transport comes up before the workers: a worker's very first
  // batch may Send.
  const Status transport_up = transport_->Start(
      options_.num_shards, [this](int to_shard, ShardPartial message) {
        EnqueueMessage(to_shard, std::move(message));
      });
  APAN_CHECK_MSG(transport_up.ok(), transport_up.ToString());
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_[static_cast<size_t>(s)]->worker =
        std::thread([this, s] { WorkerLoop(s); });
  }
}

ShardedEngine::~ShardedEngine() { Shutdown(); }

Result<ShardedEngine::InferenceResult> ShardedEngine::InferBatch(
    const std::vector<graph::Event>& events) {
  if (events.empty()) {
    return Status::InvalidArgument("InferBatch on empty batch");
  }
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) return Status::Cancelled("engine is shut down");

  InferenceResult result;
  Stopwatch watch;
  const int num_shards = options_.num_shards;
  const int64_t d = model_->config().embedding_dim;
  std::vector<InteractionRecord> records;
  {
    // ---- Synchronous link: shard-parallel encoding over local state. ----
    APAN_TRACE_SPAN("sync");
    tensor::NoGradGuard no_grad;
    // Caller-thread arena for the decode leg below (gathers, link
    // scoring); each encode task opens its own pool-thread scope. Arena
    // tensors never cross threads — tasks copy rows into `emb`.
    tensor::ArenaScope arena_scope;

    // Deduplicate nodes: each node's embedding is generated once per batch
    // (paper §3.2), then split the unique set by owner shard.
    std::vector<graph::NodeId> unique_nodes;
    std::unordered_map<graph::NodeId, size_t> index_of;
    auto intern = [&](graph::NodeId v) {
      auto [it, inserted] = index_of.try_emplace(v, unique_nodes.size());
      if (inserted) unique_nodes.push_back(v);
      return it->second;
    };
    std::vector<int64_t> src_rows, dst_rows;
    src_rows.reserve(events.size());
    dst_rows.reserve(events.size());
    for (const auto& e : events) {
      src_rows.push_back(static_cast<int64_t>(intern(e.src)));
      dst_rows.push_back(static_cast<int64_t>(intern(e.dst)));
    }

    // Split the unique set by owner shard, remembering each row's index
    // in the first-appearance order so tasks can scatter results.
    std::vector<std::vector<graph::NodeId>> shard_nodes(
        static_cast<size_t>(num_shards));
    std::vector<std::vector<size_t>> shard_unique(
        static_cast<size_t>(num_shards));
    for (size_t u = 0; u < unique_nodes.size(); ++u) {
      const int s = router_.ShardOf(unique_nodes[u]);
      shard_nodes[static_cast<size_t>(s)].push_back(unique_nodes[u]);
      shard_unique[static_cast<size_t>(s)].push_back(u);
    }

    // Encode each shard's slice concurrently against that shard's own
    // state store — replicated weights over partitioned state, so the
    // only cache lines an encode touches are the shard's private rows.
    // Each task copies its rows straight into the shared flat matrix
    // (disjoint offsets) and drops its tensors before returning: encode
    // intermediates live and die on the pool thread that owns the arena.
    std::vector<float> emb(unique_nodes.size() * static_cast<size_t>(d));
    const auto encode_shard = [this, d, &shard_nodes, &shard_unique,
                               &emb](int s) {
      tensor::NoGradGuard task_no_grad;
      // Pool threads open their own per-batch arena; on the caller thread
      // this nests the already-open batch arena, which is a no-op.
      tensor::ArenaScope task_arena;
      APAN_TRACE_SPAN("encode");
      Stopwatch encode_watch;
      const auto& nodes = shard_nodes[static_cast<size_t>(s)];
      const auto& unique_rows = shard_unique[static_cast<size_t>(s)];
      core::ApanEncoder::Output out;
      {
        Shard& shard = *shards_[static_cast<size_t>(s)];
        util::MutexLock state_lock(shard.state_mu);
        out = model_->weights().EncodeNodes(*shard.store, nodes);
      }
      const float* rows = out.embeddings.data();
      for (size_t r = 0; r < nodes.size(); ++r) {
        std::copy_n(rows + static_cast<int64_t>(r) * d, d,
                    emb.data() + unique_rows[r] * static_cast<size_t>(d));
      }
      if (stage_metrics_) {
        ins_.stage_encode->Record(s, encode_watch.ElapsedMillis());
      }
    };
    // The caller thread encodes one slice itself instead of submitting
    // them all and blocking: at 1 shard the synchronous path pays zero
    // pool handoffs (the source of a 10x p99 wakeup tail vs the
    // single-worker pipeline), and at N shards the caller overlaps its
    // slice with the pool's N-1.
    std::vector<int> active_shards;
    for (int s = 0; s < num_shards; ++s) {
      if (!shard_nodes[static_cast<size_t>(s)].empty()) {
        active_shards.push_back(s);
      }
    }
    std::vector<std::future<void>> futures;
    for (size_t i = 0; i + 1 < active_shards.size(); ++i) {
      const int s = active_shards[i];
      futures.push_back(encode_pool_.Submit([&encode_shard, s] {
        encode_shard(s);
      }));
    }
    if (!active_shards.empty()) encode_shard(active_shards.back());
    for (auto& f : futures) f.get();

    tensor::Tensor embeddings = tensor::Tensor::FromVector(
        {static_cast<int64_t>(unique_nodes.size()), d}, std::move(emb));
    tensor::Tensor z_src = tensor::GatherRows(embeddings, src_rows);
    tensor::Tensor z_dst = tensor::GatherRows(embeddings, dst_rows);
    tensor::Tensor logits = model_->ScoreLinkLogits(z_src, z_dst);
    tensor::Tensor probs = tensor::Sigmoid(logits);
    result.scores.assign(probs.data(), probs.data() + probs.numel());

    // Package the asynchronous work while we still hold the embeddings.
    records.reserve(events.size());
    const float* flat = embeddings.data();
    for (size_t i = 0; i < events.size(); ++i) {
      InteractionRecord rec;
      rec.event = events[i];
      const float* zs = flat + src_rows[i] * d;
      const float* zd = flat + dst_rows[i] * d;
      rec.z_src.assign(zs, zs + d);
      rec.z_dst.assign(zd, zd + d);
      records.push_back(std::move(rec));
    }
  }
  result.sync_millis = watch.ElapsedMillis();
  ins_.stage_sync->Record(result.sync_millis);

  // ---- Hand off to the asynchronous link. ----
  if (options_.overflow == OverflowPolicy::kBlock) {
    for (auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      while (shard->jobs_in_flight >= options_.queue_capacity) {
        shard->cv.Wait(shard->mu);
      }
    }
  } else {
    // A batch is dropped whole: enqueueing it on a subset of shards would
    // leave the reassembly barrier waiting forever. The inference result
    // stays valid — the mail is simply lost, as in an overloaded broker.
    bool any_full = false;
    for (auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      any_full |= shard->jobs_in_flight >= options_.queue_capacity;
    }
    if (any_full) {
      ins_.batches_rejected->Add(1);
      ins_.mails_dropped->Add(static_cast<int64_t>(events.size()));
      return result;
    }
  }

  auto ctx = std::make_shared<BatchContext>();
  ctx->batch = next_batch_++;
  next_ordinal_ += static_cast<int64_t>(events.size());
  ctx->events = events;
  ingested_since_start_ = true;

  // Graceful degradation (SetShardDown): records homed to a down shard
  // are shed whole, its sampling/application legs are never counted (its
  // replica misses the batch), and its merge contribution to every
  // healthy shard is synthesized empty —
  // so the reassembly barriers complete and Flush never blocks on the
  // dead shard. The flags only flip at flushed batch boundaries
  // (SetShardDown / lane failure between batches), so one read per batch
  // is a consistent view.
  std::vector<char> down(static_cast<size_t>(num_shards), 0);
  int up_count = 0;
  for (int s = 0; s < num_shards; ++s) {
    down[static_cast<size_t>(s)] =
        shard_down_[static_cast<size_t>(s)].load(std::memory_order_relaxed)
            ? 1
            : 0;
    up_count += down[static_cast<size_t>(s)] == 0 ? 1 : 0;
  }

  // Home every record on its source endpoint's shard.
  std::vector<BatchJob> jobs(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    jobs[static_cast<size_t>(s)].ctx = ctx;
  }
  for (size_t i = 0; i < records.size(); ++i) {
    const int home = router_.HomeShardOf(records[i].event);
    auto& job = jobs[static_cast<size_t>(home)];
    job.records.push_back(std::move(records[i]));
    job.event_index.push_back(static_cast<int64_t>(i));
  }
  for (int s = 0; s < num_shards; ++s) {
    const auto homed = jobs[static_cast<size_t>(s)].records.size();
    if (homed == 0) continue;
    if (down[static_cast<size_t>(s)] != 0) {
      ins_.events_shed->Add(s, static_cast<int64_t>(homed));
    } else {
      ins_.events_homed->Add(s, static_cast<int64_t>(homed));
    }
  }

  ins_.batches_ingested->Add(1);
  if (up_count == 0) return result;  // every shard down: fully shed

  {
    std::set<int> up;
    for (int s = 0; s < num_shards; ++s) {
      if (down[static_cast<size_t>(s)] == 0) up.insert(s);
    }
    util::MutexLock lock(flush_mu_);
    inflight_ += 2 * static_cast<int64_t>(up_count);
    apply_remaining_.emplace(ctx->batch, std::move(up));
  }
  for (int s = 0; s < num_shards; ++s) {
    if (down[static_cast<size_t>(s)] != 0) {
      // The dead shard will never route its partials; stand in for it
      // with empty ones so every healthy shard's sender-count barrier
      // still completes. Delivered straight to the inboxes — the dead
      // peer's lanes may be dead too.
      for (int t = 0; t < num_shards; ++t) {
        if (down[static_cast<size_t>(t)] != 0) continue;
        ShardPartial empty;
        empty.batch = ctx->batch;
        empty.from_shard = s;
        EnqueueMessage(t, std::move(empty));
      }
      continue;
    }
    Shard& shard = *shards_[static_cast<size_t>(s)];
    int64_t depth = 0;
    {
      util::MutexLock lock(shard.mu);
      ++shard.jobs_in_flight;
      shard.jobs.push_back(std::move(jobs[static_cast<size_t>(s)]));
      depth = static_cast<int64_t>(shard.jobs.size());
      shard.cv.NotifyAll();
    }
    if (stage_metrics_) {
      ins_.job_depth->Set(s, depth);
      ins_.job_highwater->UpdateMax(s, depth);
    }
  }
  return result;
}

void ShardedEngine::WorkerLoop(int shard_id) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  std::deque<ShardPartial> mail_run;
  while (true) {
    BatchJob job;
    enum { kNone, kMessages, kJob } next = kNone;
    int64_t jobs_left = -1;
    {
      util::MutexLock lock(shard.mu);
      // Explicit predicate loops (not a lambda passed to the wait): the
      // thread-safety analysis cannot see guarded reads inside a closure.
      if (!shard.closed && shard.mail.empty() && shard.jobs.empty()) {
        // Only time the wait when the worker actually blocks: on the
        // busy path (work already queued) the clock reads themselves
        // would be the dominant cost of a meaningless ~0 sample.
        if (stage_metrics_) {
          Stopwatch idle_watch;
          while (!shard.closed && shard.mail.empty() && shard.jobs.empty()) {
            shard.cv.Wait(shard.mu);
          }
          ins_.stage_idle->Record(shard_id, idle_watch.ElapsedMillis());
        } else {
          while (!shard.closed && shard.mail.empty() && shard.jobs.empty()) {
            shard.cv.Wait(shard.mu);
          }
        }
      }
      // Messages first: applying a finished batch is cheap and retires
      // parked partials; jobs do the expensive sampling. The whole queued
      // run is taken at once, under one lock acquisition.
      if (!shard.mail.empty()) {
        mail_run.swap(shard.mail);
        next = kMessages;
      } else if (!shard.jobs.empty()) {
        job = std::move(shard.jobs.front());
        shard.jobs.pop_front();
        jobs_left = static_cast<int64_t>(shard.jobs.size());
        next = kJob;
      } else {
        return;  // closed and fully drained
      }
    }
    // Depth gauges refresh outside the lock (see EnqueueMessage).
    if (stage_metrics_) {
      if (next == kMessages) ins_.mail_depth->Set(shard_id, 0);
      if (jobs_left >= 0) ins_.job_depth->Set(shard_id, jobs_left);
    }
    if (next == kMessages) {
      for (ShardPartial& partial : mail_run) {
        OnMail(shard_id, std::move(partial));
      }
      mail_run.clear();
    } else {
      ProcessJob(shard_id, std::move(job));
    }
  }
}

void ShardedEngine::ProcessJob(int shard_id, BatchJob job) {
  if (job.op != BatchJob::Op::kBatch) {
    Status status;
    switch (job.op) {
      case BatchJob::Op::kReset:
        ResetShardLocal(shard_id);
        break;
      case BatchJob::Op::kSnapshot:
        status = SnapshotShardLocal(shard_id, job);
        break;
      case BatchJob::Op::kRestore:
        status = RestoreShardLocal(shard_id, job);
        break;
      case BatchJob::Op::kBatch:
        break;
    }
    Shard& shard = *shards_[static_cast<size_t>(shard_id)];
    {
      util::MutexLock lock(shard.mu);
      --shard.jobs_in_flight;
      shard.cv.NotifyAll();
    }
    util::MutexLock lock(flush_mu_);
    // The outcome is handed back under flush_mu_ — the same lock the
    // submitting caller's wait releases/reacquires — so the write is
    // ordered before the caller's post-wait read.
    if (job.control_status != nullptr) {
      *job.control_status = std::move(status);
    }
    if (--inflight_ == 0) flush_cv_.NotifyAll();
    return;
  }
  // φ + N over this shard's home events, sampled from the worker's own
  // replica BEFORE this batch is appended to it — the serial oracle's
  // order, so sampling sees exactly the events of batches 0..b-1.
  // Propagation is plain float-vector math today; the scope makes any
  // tensor op a future propagator grows draw from this worker's pool.
  // Arena tensors are thread-confined: anything that enters a
  // ShardPartial (read by OTHER shards' workers) must be copied into
  // plain vectors, never handed over as a pooled tensor.
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  std::optional<tensor::ArenaScope> arena_scope;
  arena_scope.emplace();
  std::vector<std::vector<graph::HopEntry>> hops = SampleKHop(shard_id, job);
  {
    // Every worker appends the whole batch: its replica is a full copy.
    APAN_TRACE_SPAN("append");
    Stopwatch append_watch;
    const Status append = shard.replica->AppendBatch(job.ctx->events);
    APAN_CHECK_MSG(append.ok(), append.ToString());
    if (stage_metrics_) {
      ins_.stage_append->Record(shard_id, append_watch.ElapsedMillis());
    }
  }
  PartialPropagation propagation;
  {
    APAN_TRACE_SPAN("propagate");
    Stopwatch propagate_watch;
    propagation = model_->propagator().ComputePartialFromHops(
        job.records, job.event_index, hops);
    if (stage_metrics_) {
      ins_.stage_propagate->Record(shard_id,
                                   propagate_watch.ElapsedMillis());
    }
  }
  RouteMail(shard_id, job, std::move(propagation));

  // Batch teardown is real per-batch work — freeing the nested hop
  // vectors, the arena's recycle pass, and (for the last shard holding
  // the context) the batch's event storage. It scales with batch size,
  // so it gets its own stage instead of hiding in the attribution
  // residue of the fig10 breakdown.
  APAN_TRACE_SPAN("finalize");
  Stopwatch finalize_watch;
  hops.clear();
  hops.shrink_to_fit();
  arena_scope.reset();
  job.records.clear();
  job.records.shrink_to_fit();
  job.event_index.clear();
  job.event_index.shrink_to_fit();
  job.ctx.reset();
  {
    util::MutexLock lock(shard.mu);
    --shard.jobs_in_flight;
    shard.cv.NotifyAll();  // wake back-pressured InferBatch callers
  }
  if (stage_metrics_) {
    // Recorded before the flush notify so a scrape gated on Flush() sees
    // every stage sample of the batches it waited for.
    ins_.stage_finalize->Record(shard_id, finalize_watch.ElapsedMillis());
  }
  {
    util::MutexLock lock(flush_mu_);
    if (--inflight_ == 0) flush_cv_.NotifyAll();
  }
}

std::vector<std::vector<graph::HopEntry>> ShardedEngine::SampleKHop(
    int shard_id, const BatchJob& job) {
  APAN_TRACE_SPAN("sample");
  Stopwatch sample_watch;
  std::vector<std::vector<graph::HopEntry>> hops(job.records.size());
  const int32_t num_hops = model_->config().propagation_hops;
  const int64_t fanout = model_->config().sampled_neighbors;
  const graph::AdjacencyReplica& replica =
      *shards_[static_cast<size_t>(shard_id)]->replica;
  for (size_t i = 0; i < job.records.size(); ++i) {
    const graph::Event& event = job.records[i].event;
    const graph::NodeId seeds[] = {event.src, event.dst};
    replica.SampleKHop(seeds, event.timestamp, num_hops, fanout, &hops[i]);
  }
  if (stage_metrics_) {
    ins_.stage_sample->Record(shard_id, sample_watch.ElapsedMillis());
  }
  return hops;
}

void ShardedEngine::SendPartial(int from_shard, int to_shard,
                                ShardPartial partial) {
  const int64_t batch = partial.batch;
  const auto to = static_cast<size_t>(to_shard);
  if (shard_down_[static_cast<size_t>(from_shard)].load(
          std::memory_order_relaxed) ||
      shard_down_[to].load(std::memory_order_relaxed)) {
    // Degraded path: a partial to (or from) a down shard is shed before
    // it touches the transport. Its batch counted the destination's
    // application leg at ingest (a batch ingested after the peer went
    // down never routes a partial to it — its apply set excludes the
    // peer), and a peer missing this partial can never reach its
    // sender-count barrier, so retire that leg here or Flush wedges.
    ins_.sends_shed->Add(to_shard, 1);
    CompensateLostPartial(to_shard, batch);
    return;
  }
  if (transport_->Send(from_shard, to_shard, std::move(partial)).ok()) {
    return;
  }
  // The lane is dead beyond the transport's own recovery (reconnect +
  // backoff): mark the peer down so subsequent traffic sheds cheaply,
  // count what was lost, and keep serving the healthy shards instead of
  // aborting the process.
  ins_.sends_shed->Add(to_shard, 1);
  shard_down_[to].store(true, std::memory_order_relaxed);
  CompensateLostPartial(to_shard, batch);
}

void ShardedEngine::CompensateLostPartial(int to_shard, int64_t batch) {
  util::MutexLock lock(flush_mu_);
  auto remaining = apply_remaining_.find(batch);
  if (remaining == apply_remaining_.end()) return;
  // erase() doubles as the dedupe: a second shed partial for the same
  // (batch, peer) — another sender's, or a duplicate — finds the leg
  // already retired and is a no-op.
  if (remaining->second.erase(to_shard) == 0) return;
  if (remaining->second.empty()) apply_remaining_.erase(remaining);
  if (--inflight_ == 0) flush_cv_.NotifyAll();
}

void ShardedEngine::EnqueueMessage(int to_shard, ShardPartial message) {
  // The transport is a pluggable extension point and (over a socket) the
  // message crossed a deserialization boundary, so shard ids are validated
  // before they index anything: wire.cc's "no UB" guarantee covers frame
  // structure, this covers field ranges. A violation is a broken transport
  // or peer — abort with a message, like the reader-thread decode checks.
  const auto valid_shard = [this](int shard) {
    return shard >= 0 && shard < options_.num_shards;
  };
  APAN_CHECK_MSG(valid_shard(to_shard),
                 "transport delivered a message to an out-of-range shard");
  APAN_CHECK_MSG(valid_shard(message.from_shard),
                 "transport delivered a message with an out-of-range sender");
  Shard& target = *shards_[static_cast<size_t>(to_shard)];
  int64_t depth = 0;
  {
    util::MutexLock lock(target.mu);
    target.mail.push_back(std::move(message));
    depth = static_cast<int64_t>(target.mail.size());
    target.cv.NotifyAll();
  }
  // Gauge updates happen after the unlock: lengthening the mail critical
  // section is the one way a relaxed-atomic metric could contend with the
  // serving path itself.
  if (stage_metrics_) {
    ins_.mail_depth->Set(to_shard, depth);
    ins_.mail_highwater->UpdateMax(to_shard, depth);
  }
}

void ShardedEngine::CountDuplicateDropped(int shard_id) {
  ins_.duplicates_dropped->Add(shard_id, 1);
}

void ShardedEngine::RouteMail(int from_shard, BatchJob& job,
                              PartialPropagation&& propagation) {
  APAN_TRACE_SPAN("route");
  Stopwatch route_watch;
  const int num_shards = options_.num_shards;
  std::vector<ShardPartial> outbound(static_cast<size_t>(num_shards));
  for (int t = 0; t < num_shards; ++t) {
    outbound[static_cast<size_t>(t)].batch = job.ctx->batch;
    outbound[static_cast<size_t>(t)].from_shard = from_shard;
  }

  // z(t−) write-backs go to each endpoint's owner; sequence tags let the
  // owner replay them in global event order (later events win).
  for (size_t i = 0; i < job.records.size(); ++i) {
    InteractionRecord& rec = job.records[i];
    const int64_t seq = 2 * job.event_index[i];
    outbound[static_cast<size_t>(router_.ShardOf(rec.event.src))]
        .state_updates.push_back(
            {seq, rec.event.src, std::move(rec.z_src)});
    outbound[static_cast<size_t>(router_.ShardOf(rec.event.dst))]
        .state_updates.push_back(
            {seq + 1, rec.event.dst, std::move(rec.z_dst)});
  }
  for (auto& tagged : propagation.hop0) {
    outbound[static_cast<size_t>(
                 router_.ShardOf(tagged.delivery.recipient))]
        .hop0.push_back(std::move(tagged));
  }
  for (auto& partial : propagation.partial) {
    outbound[static_cast<size_t>(router_.ShardOf(partial.recipient))]
        .partial.push_back(std::move(partial));
  }

  int64_t routed = 0;
  int64_t cross_shard = 0;
  for (int t = 0; t < num_shards; ++t) {
    ShardPartial& out = outbound[static_cast<size_t>(t)];
    const int64_t mails =
        static_cast<int64_t>(out.hop0.size() + out.partial.size());
    routed += mails;
    if (t != from_shard) cross_shard += mails;
    SendPartial(from_shard, t, std::move(out));
  }
  ins_.mails_routed->Add(from_shard, routed);
  ins_.mails_cross_shard->Add(from_shard, cross_shard);
  if (stage_metrics_) {
    ins_.stage_route->Record(from_shard, route_watch.ElapsedMillis());
  }
}

void ShardedEngine::OnMail(int shard_id, ShardPartial partial) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  // Replay protection: a partial for an already-merged batch, or from a
  // sender already represented in the pending set, is a transport
  // re-delivery — applying it twice would double mail and wedge the
  // sender-count completion barrier.
  if (partial.batch < shard.next_merge) {
    CountDuplicateDropped(shard_id);
    return;
  }
  std::vector<ShardPartial>& parts = shard.pending[partial.batch];
  for (const ShardPartial& existing : parts) {
    if (existing.from_shard == partial.from_shard) {
      CountDuplicateDropped(shard_id);
      return;
    }
  }
  parts.push_back(std::move(partial));
  // Batches complete in order: every sender emits its partials in batch
  // order, so once all senders reported for next_merge, every earlier
  // batch has already been merged.
  while (true) {
    auto it = shard.pending.find(shard.next_merge);
    if (it == shard.pending.end() ||
        static_cast<int>(it->second.size()) != options_.num_shards) {
      break;
    }
    std::vector<ShardPartial> merged = std::move(it->second);
    shard.pending.erase(it);
    ApplyMergedBatch(shard_id, std::move(merged));
    ++shard.next_merge;
  }
  // What is left is parked: batches some sender has not routed yet — the
  // drift between decoupled workers, bounded by queue_capacity.
  if (stage_metrics_) {
    ins_.merge_pending_highwater->UpdateMax(
        shard_id, static_cast<int64_t>(shard.pending.size()));
  }
}

void ShardedEngine::ApplyMergedBatch(int shard_id,
                                     std::vector<ShardPartial> parts) {
  APAN_TRACE_SPAN("merge");
  Stopwatch watch;
  // Deterministic merge order: contributions sorted by sender shard.
  std::sort(parts.begin(), parts.end(),
            [](const ShardPartial& a, const ShardPartial& b) {
              return a.from_shard < b.from_shard;
            });
  const int64_t batch = parts.front().batch;

  // 1. z(t−) write-backs in global event order (later events win).
  std::vector<StateUpdate> updates;
  for (auto& part : parts) {
    std::move(part.state_updates.begin(), part.state_updates.end(),
              std::back_inserter(updates));
    part.state_updates.clear();
  }
  std::sort(updates.begin(), updates.end(),
            [](const StateUpdate& a, const StateUpdate& b) {
              return a.sequence < b.sequence;
            });

  // 2. Hop-0 mail replayed in global event order — exactly the per-node
  // delivery order the single-worker pipeline produces.
  std::vector<PartialPropagation::TaggedDelivery> tagged;
  for (auto& part : parts) {
    std::move(part.hop0.begin(), part.hop0.end(),
              std::back_inserter(tagged));
    part.hop0.clear();
  }
  std::sort(tagged.begin(), tagged.end(),
            [](const PartialPropagation::TaggedDelivery& a,
               const PartialPropagation::TaggedDelivery& b) {
              return a.sequence < b.sequence;
            });
  std::vector<MailDelivery> hop0;
  hop0.reserve(tagged.size());
  for (auto& t : tagged) hop0.push_back(std::move(t.delivery));

  // 3. ρ across the whole batch: merge per-recipient partial sums from
  // all senders, then finalize to one reduced mail per recipient.
  std::vector<PartialPropagation::PartialReduce> partials;
  for (auto& part : parts) {
    std::move(part.partial.begin(), part.partial.end(),
              std::back_inserter(partials));
    part.partial.clear();
  }
  std::stable_sort(partials.begin(), partials.end(),
                   [](const PartialPropagation::PartialReduce& a,
                      const PartialPropagation::PartialReduce& b) {
                     return a.recipient < b.recipient;
                   });
  std::vector<MailDelivery> reduced;
  size_t i = 0;
  while (i < partials.size()) {
    PartialPropagation::PartialReduce merged = std::move(partials[i]);
    for (++i; i < partials.size() &&
              partials[i].recipient == merged.recipient;
         ++i) {
      const auto& extra = partials[i];
      for (size_t k = 0; k < merged.sum.size(); ++k) {
        merged.sum[k] += extra.sum[k];
      }
      merged.newest = std::max(merged.newest, extra.newest);
      merged.count += extra.count;
    }
    reduced.push_back(MailPropagator::FinalizeReduce(std::move(merged)));
  }

  {
    // Everything this batch touches is the owner shard's private store:
    // routed state updates and mail land in shard-local memory, never in
    // the model or another shard's rows.
    Shard& shard = *shards_[static_cast<size_t>(shard_id)];
    util::MutexLock state_lock(shard.state_mu);
    for (const StateUpdate& u : updates) {
      shard.store->SetLastEmbedding(u.node, u.z);
    }
    shard.store->DeliverBatch(std::move(hop0));
    shard.store->DeliverBatch(std::move(reduced));
  }
  // Teardown inside the watch: `updates` still owns two z vectors per
  // event (SetLastEmbedding copies), and freeing them is a real,
  // batch-sized slice of the merge — dropping it after the record would
  // leak it into the fig10 attribution residue.
  updates.clear();
  updates.shrink_to_fit();
  tagged.clear();
  tagged.shrink_to_fit();
  partials.clear();
  partials.shrink_to_fit();
  parts.clear();
  parts.shrink_to_fit();
  ins_.stage_merge->Record(shard_id, watch.ElapsedMillis());

  util::MutexLock lock(flush_mu_);
  auto remaining = apply_remaining_.find(batch);
  // A missing barrier (or a leg already retired) means the shed
  // compensation beat a late merge here: an at-least-once transport
  // delivered a held duplicate of a partial whose original was shed when
  // the peer went down. The merge's writes are idempotent against the
  // degraded outcome, but the leg was already accounted for — counting
  // it again would drive inflight_ negative and corrupt Flush.
  if (remaining == apply_remaining_.end() ||
      remaining->second.erase(shard_id) == 0) {
    return;
  }
  if (remaining->second.empty()) {
    apply_remaining_.erase(remaining);
    ins_.batches_propagated->Add(shard_id, 1);
  }
  if (--inflight_ == 0) flush_cv_.NotifyAll();
}

void ShardedEngine::Flush() {
  util::MutexLock lock(flush_mu_);
  while (inflight_ != 0) flush_cv_.Wait(flush_mu_);
}

void ShardedEngine::ResetShardLocal(int shard_id) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  {
    // The encode pool also reads the store (though ResetState's infer
    // lock means no encode can be running); keep the lock discipline.
    util::MutexLock state_lock(shard.state_mu);
    shard.store->Reset();
  }
  // Worker-confined state, reset on the worker's own thread: batch
  // numbering restarts at 0, so the merge cursor rewinds with it.
  shard.replica->Reset();
  shard.pending.clear();
  shard.next_merge = 0;
}

Status ShardedEngine::SnapshotShardLocal(int shard_id, const BatchJob& job) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  // Flush proved every batch below the watermark merged everywhere, so a
  // non-empty pending map means replay tags and the watermark disagree —
  // refuse to capture an image that could not replay to a unique state.
  if (!shard.pending.empty()) {
    return Status::FailedPrecondition(internal::StrCat(
        "shard ", shard_id, " has ", shard.pending.size(),
        " unmerged partial sets at a flushed point"));
  }
  snapshot::ShardSnapshot snap;
  snap.shard = shard_id;
  snap.num_shards = options_.num_shards;
  snap.num_nodes = static_cast<int64_t>(partition_->owner_of.size());
  snap.next_batch = job.snap_next_batch;
  snap.next_ordinal = job.snap_next_ordinal;
  {
    // The capture only reads, but the encode pool reads these rows too;
    // same discipline as every other store access.
    util::MutexLock state_lock(shard.state_mu);
    const core::Mailbox& mailbox = shard.store->mailbox();
    snap.owned_nodes = mailbox.num_nodes();
    snap.mailbox_slots = mailbox.slots();
    snap.mail_dim = mailbox.dim();
    snap.state_dim = shard.store->dim();
    const auto data = mailbox.raw_data();
    snap.mailbox_data.assign(data.begin(), data.end());
    const auto timestamps = mailbox.raw_timestamps();
    snap.mailbox_timestamps.assign(timestamps.begin(), timestamps.end());
    const auto head = mailbox.raw_head();
    snap.mailbox_head.assign(head.begin(), head.end());
    const auto count = mailbox.raw_count();
    snap.mailbox_count.assign(count.begin(), count.end());
    const auto order = mailbox.raw_order();
    snap.mailbox_order.assign(order.begin(), order.end());
    const auto z = shard.store->raw_state();
    snap.z_rows.assign(z.begin(), z.end());
  }
  snap.replica = shard.replica->Export();
  snap.next_merge = shard.next_merge;
  return snapshot::WriteShardSnapshot(snap, job.snapshot_path);
}

Status ShardedEngine::RestoreShardLocal(int shard_id, const BatchJob& job) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  const snapshot::ShardSnapshot& snap = *job.restore;
  {
    util::MutexLock state_lock(shard.state_mu);
    core::Mailbox& mailbox = shard.store->mailbox();
    // Both installers validate fully before mutating, so a failure here
    // leaves the pre-restore state intact; the geometry was already
    // matched against the engine's topology in RestoreShard, which makes
    // a RestoreRawState size failure after a RestoreRaw success
    // impossible (both derive from the same owned/dim image fields).
    APAN_RETURN_NOT_OK(mailbox.RestoreRaw(
        snap.mailbox_data, snap.mailbox_timestamps, snap.mailbox_head,
        snap.mailbox_count, snap.mailbox_order));
    APAN_RETURN_NOT_OK(shard.store->RestoreRawState(snap.z_rows));
  }
  APAN_RETURN_NOT_OK(shard.replica->Restore(snap.replica));
  // Replay state, rewound to the image's flushed point: pending is
  // structurally empty there (Flush settled every barrier), and the merge
  // cursor resumes exactly where the capture stood.
  shard.pending.clear();
  shard.next_merge = snap.next_merge;
  return Status::OK();
}

void ShardedEngine::ResetState() {
  // Holding infer_mu_ end-to-end serializes against InferBatch: no new
  // batch can interleave with the reset, and batch/ordinal sequencing
  // below is rewound under the same lock that advances it.
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) return;
  // Enforced, not just documented: rewinding the replay watermarks under
  // a duplicating transport would let a re-delivered pre-reset frame be
  // accepted as new-epoch state — silent corruption, so abort loudly.
  APAN_CHECK_MSG(transport_->exactly_once(),
                 "ResetState requires an exactly-once transport: a rewound "
                 "replay watermark cannot drop a pre-reset re-delivery");
  // Settle everything accepted so far. After this, every inbox and every
  // exactly-once transport lane is empty (Flush proves all application
  // legs ran, and legs are only reachable via delivered messages).
  Flush();
  // Route the reset through each shard's worker so the worker-confined
  // state (merge cursor, graph replica) is only ever touched by its own
  // thread.
  {
    util::MutexLock lock(flush_mu_);
    inflight_ += options_.num_shards;
  }
  for (int s = 0; s < options_.num_shards; ++s) {
    Shard& shard = *shards_[static_cast<size_t>(s)];
    BatchJob job;
    job.op = BatchJob::Op::kReset;
    util::MutexLock lock(shard.mu);
    ++shard.jobs_in_flight;
    shard.jobs.push_back(std::move(job));
    shard.cv.NotifyAll();
  }
  {
    util::MutexLock lock(flush_mu_);
    while (inflight_ != 0) flush_cv_.Wait(flush_mu_);
  }
  next_batch_ = 0;
  next_ordinal_ = 0;
  ingested_since_start_ = false;
}

Status ShardedEngine::RunControlJob(int shard, BatchJob job) {
  // Settle everything accepted so far: control jobs observe (or install)
  // a quiescent shard, and Flush proves every application leg ran.
  Flush();
  Status status;
  job.control_status = &status;
  {
    util::MutexLock lock(flush_mu_);
    ++inflight_;
  }
  Shard& target = *shards_[static_cast<size_t>(shard)];
  {
    util::MutexLock lock(target.mu);
    ++target.jobs_in_flight;
    target.jobs.push_back(std::move(job));
    target.cv.NotifyAll();
  }
  {
    // The worker writes `status` under flush_mu_ before its decrement, so
    // observing inflight_ == 0 under the same lock orders the read.
    util::MutexLock lock(flush_mu_);
    while (inflight_ != 0) flush_cv_.Wait(flush_mu_);
  }
  return status;
}

Status ShardedEngine::SnapshotShard(int shard, const std::string& path) {
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("SnapshotShard after Shutdown");
  }
  if (shard < 0 || shard >= options_.num_shards) {
    return Status::InvalidArgument(internal::StrCat(
        "SnapshotShard: shard ", shard, " out of range [0, ",
        options_.num_shards, ")"));
  }
  BatchJob job;
  job.op = BatchJob::Op::kSnapshot;
  job.snapshot_path = path;
  // The engine-level numbering is captured under infer_mu_ — the lock
  // that advances it — and rides into the image so a restored engine
  // resumes the batch/ordinal sequence exactly where this one stood.
  job.snap_next_batch = next_batch_;
  job.snap_next_ordinal = next_ordinal_;
  return RunControlJob(shard, std::move(job));
}

Status ShardedEngine::RestoreShard(int shard, const std::string& path) {
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("RestoreShard after Shutdown");
  }
  if (shard < 0 || shard >= options_.num_shards) {
    return Status::InvalidArgument(internal::StrCat(
        "RestoreShard: shard ", shard, " out of range [0, ",
        options_.num_shards, ")"));
  }
  // Same hazard ResetState aborts on, surfaced as Status here: rewinding
  // replay watermarks under an at-least-once transport would let a held
  // pre-restore re-delivery land in the restored epoch as fresh state. A
  // virgin engine is exempt — nothing was ever sent, so there is nothing
  // to re-deliver — which is exactly the crash-rejoin shape: a fresh
  // process restores every shard, then replays the tail.
  if (!transport_->exactly_once() && ingested_since_start_) {
    return Status::FailedPrecondition(
        "RestoreShard on an engine that has already ingested under an "
        "at-least-once transport: a held re-delivery could be accepted by "
        "the rewound replay watermarks; restore into a fresh engine");
  }
  auto snap_or = snapshot::ReadShardSnapshot(path);
  if (!snap_or.ok()) return snap_or.status();
  auto snap = std::make_shared<const snapshot::ShardSnapshot>(
      std::move(*snap_or));
  // Topology validation before anything mutates: the image must match
  // this engine, this shard, and this partition exactly.
  if (snap->shard != shard) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot is for shard ", snap->shard, ", not shard ", shard));
  }
  if (snap->num_shards != options_.num_shards) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot taken under ", snap->num_shards, " shards; engine has ",
        options_.num_shards));
  }
  const auto& config = model_->config();
  if (snap->num_nodes != config.num_nodes ||
      snap->mailbox_slots != config.mailbox_slots ||
      snap->mail_dim != config.embedding_dim ||
      snap->state_dim != config.embedding_dim) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot geometry (nodes=", snap->num_nodes,
        ", slots=", snap->mailbox_slots, ", mail_dim=", snap->mail_dim,
        ", state_dim=", snap->state_dim,
        ") does not match the engine's model config"));
  }
  const int64_t owned =
      partition_->owned_count[static_cast<size_t>(shard)];
  if (snap->owned_nodes != owned) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot owns ", snap->owned_nodes, " nodes; shard ", shard,
        " owns ", owned, " under this partition"));
  }
  const int64_t restored_batch = snap->next_batch;
  const int64_t restored_ordinal = snap->next_ordinal;
  BatchJob job;
  job.op = BatchJob::Op::kRestore;
  job.restore = std::move(snap);
  APAN_RETURN_NOT_OK(RunControlJob(shard, std::move(job)));
  // Adopt the image's numbering. Restoring a consistent set (one image
  // per shard, all captured at the same flushed point) writes the same
  // values num_shards times — idempotent; the caller then replays events
  // from this batch watermark to catch up to the present.
  next_batch_ = restored_batch;
  next_ordinal_ = restored_ordinal;
  return Status::OK();
}

void ShardedEngine::SetShardDown(int shard, bool down) {
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) return;
  APAN_CHECK_MSG(shard >= 0 && shard < options_.num_shards,
                 "SetShardDown: shard id out of range");
  // Flush first so the flag flips at a quiescent point: no in-flight
  // batch straddles the transition, so every batch sees one consistent
  // up/down view at ingest. (Marking a shard up again without a restore
  // or reset is only sound if it never missed a batch — a down shard's
  // replica does not absorb the batches it sheds.)
  Flush();
  shard_down_[static_cast<size_t>(shard)].store(down,
                                                std::memory_order_relaxed);
}

void ShardedEngine::Shutdown() {
  util::MutexLock shutdown_lock(shutdown_mu_);
  if (joined_) return;
  {
    util::MutexLock lock(infer_mu_);
    shutdown_ = true;
  }
  // Drain everything first — shutting down never loses accepted mail.
  Flush();
  // Then drain the transport *before* the workers go away: a socket lane
  // (or a fault decorator's delay buffer) can still hold frames after
  // Flush — necessarily re-deliveries, since Flush proved every batch
  // applied — and the workers must stay alive to receive and drop them;
  // stopping the transport also guarantees no delivery callback runs
  // into a dead engine.
  transport_->Stop();
  for (auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    shard->closed = true;
    shard->cv.NotifyAll();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  joined_ = true;
}

ShardedEngine::Stats ShardedEngine::stats() const {
  // A facade over the registry counters (the mutexed Stats fields these
  // summed were migrated to per-shard counter cells). Relaxed sums: exact
  // after Flush, near-point-in-time while running — same contract the
  // callers already had, minus the flush_mu_ contention.
  Stats s;
  s.batches_ingested = ins_.batches_ingested->Value();
  s.batches_propagated = ins_.batches_propagated->Value();
  s.batches_rejected = ins_.batches_rejected->Value();
  s.mails_routed = ins_.mails_routed->Value();
  s.mails_cross_shard = ins_.mails_cross_shard->Value();
  s.mails_dropped = ins_.mails_dropped->Value();
  s.duplicates_dropped = ins_.duplicates_dropped->Value();
  s.events_shed = ins_.events_shed->Value();
  s.sends_shed = ins_.sends_shed->Value();
  return s;
}

}  // namespace serve
}  // namespace apan
