#include "serve/sharded_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "tensor/arena.h"
#include "tensor/ops.h"

namespace apan {
namespace serve {

using core::MailPropagator;

ShardedEngine::ShardedEngine(core::ApanModel* model, Options options)
    : model_(model),
      options_(options),
      partition_(options.partition != nullptr
                     ? options.partition
                     : graph::NodePartition::BuildDefault(
                           model != nullptr ? model->config().num_nodes : 1,
                           options.num_shards)),
      // InferBatch submits at most num_shards − 1 slices; the caller
      // encodes the last one itself, so one shard starts no pool thread.
      encode_pool_(static_cast<size_t>(options.num_shards - 1)),
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
  const int ns = options_.num_shards;
  ins_.batches_ingested = registry_->GetCounter("serve.batches_ingested");
  ins_.batches_propagated =
      registry_->GetCounter("serve.batches_propagated", ns);
  ins_.mails_routed = registry_->GetCounter("serve.mails_routed", ns);
  ins_.mails_cross_shard =
      registry_->GetCounter("serve.mails_cross_shard", ns);
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
      "ShardedEngine requires kMostRecent sampling: each worker samples "
      "its graph::AdjacencyReplica, which implements most-recent sampling "
      "only");
  // The one and only model mutation: eval mode, before the engine runs.
  // From here on the model is weights-only to the engine (const access);
  // every mutable byte the engine serves lives in the per-shard stores.
  model->SetTraining(false);
  // Partition the node space into disjoint per-shard state stores. The
  // ownership index is partition_ — the SAME instance routing reads — so
  // owner + local row per node is stored once for the whole engine.
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
  // The transport comes up before the workers: a worker's very first
  // batch may Send.
  transport_ = StartTransport();
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_[static_cast<size_t>(s)]->worker =
        std::thread([this, s] { WorkerLoop(s); });
  }
}

std::unique_ptr<Transport> ShardedEngine::StartTransport() {
  std::unique_ptr<Transport> transport =
      options_.transport ? options_.transport()
                         : std::make_unique<InProcessTransport>();
  // Per-lane transport accounting: one counter cell per directed
  // (from, to) shard pair, attributed inside the transport itself (only
  // it knows frame sizes and syscall counts). A rebuilt transport counts
  // into the same cells.
  const int ns = options_.num_shards;
  TransportMetrics tmetrics;
  tmetrics.num_shards = ns;
  tmetrics.frames = registry_->GetCounter("transport.frames", ns * ns);
  tmetrics.bytes = registry_->GetCounter("transport.bytes", ns * ns);
  tmetrics.syscalls = registry_->GetCounter("transport.syscalls", ns * ns);
  tmetrics.send_failures =
      registry_->GetCounter("transport.send_failures", ns * ns);
  transport->SetMetrics(tmetrics);
  const Status up =
      transport->Start(ns, [this](int to_shard, ShardPartial message) {
        EnqueueMessage(to_shard, std::move(message));
      });
  APAN_CHECK_MSG(up.ok(), up.ToString());
  return transport;
}

ShardedEngine::~ShardedEngine() { Shutdown(); }

Result<ShardedEngine::InferenceResult> ShardedEngine::InferBatch(
    const std::vector<graph::Event>& events) {
  if (events.empty()) {
    return Status::InvalidArgument("InferBatch on empty batch");
  }
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) return Status::Cancelled("engine is shut down");
  // Caller events are validated here, before anything is encoded or
  // counted: an out-of-range endpoint would abort in ShardOf, an
  // out-of-range edge id in a worker's φ (after the scores went back), and
  // an out-of-order timestamp would pass the synchronous link only to
  // abort every worker's replica append. A NaN timestamp (false against
  // everything) would switch the order check off for the rest of the
  // stream, +∞ would refuse every later batch, and −∞ ages mail by +∞.
  // The timestamp checks mirror AdjacencyReplica::AppendBatch, so a batch
  // accepted here always appends.
  const int64_t num_nodes = model_->config().num_nodes;
  const int64_t num_edges = model_->propagator().features().num_edges();
  double latest = last_timestamp_;
  for (const graph::Event& e : events) {
    if (e.src < 0 || e.src >= num_nodes || e.dst < 0 || e.dst >= num_nodes) {
      return Status::InvalidArgument(internal::StrCat(
          "InferBatch: event endpoints out of range: ", e.src, " -> ", e.dst,
          " (num_nodes=", num_nodes, ")"));
    }
    if (e.edge_id < 0 || e.edge_id >= num_edges) {
      return Status::InvalidArgument(internal::StrCat(
          "InferBatch: edge id ", e.edge_id, " outside [0, ", num_edges,
          ")"));
    }
    if (!std::isfinite(e.timestamp)) {
      return Status::InvalidArgument("InferBatch: non-finite event timestamp");
    }
    if (e.timestamp < latest) {
      return Status::FailedPrecondition(internal::StrCat(
          "InferBatch: out-of-order event: ", e.timestamp, " < ", latest));
    }
    latest = e.timestamp;
  }

  InferenceResult result;
  Stopwatch watch;
  const int num_shards = options_.num_shards;
  const int64_t d = model_->config().embedding_dim;
  // What the asynchronous link gets of the synchronous one: the batch's
  // embedding matrix and each event's two row indices into it.
  auto ctx = std::make_shared<BatchContext>();
  std::vector<int64_t>& src_rows = ctx->src_row;
  std::vector<int64_t>& dst_rows = ctx->dst_row;
  {
    // ---- Synchronous link: shard-parallel encoding over local state. ----
    APAN_TRACE_SPAN("sync");
    tensor::NoGradGuard no_grad;
    // Caller-thread arena for the decode leg below (gathers, link
    // scoring); each encode task opens its own pool-thread scope. Arena
    // tensors never cross threads — tasks copy rows into `emb`.
    tensor::ArenaScope arena_scope;

    // Deduplicate nodes: each node's embedding is generated once per batch
    // (paper §3.2). Rows are in owner order, so each shard's nodes are one
    // contiguous block: a node's row is its position in its owner's list
    // plus the rows of the shards before that owner.
    std::vector<std::vector<graph::NodeId>> shard_nodes(
        static_cast<size_t>(num_shards));
    std::unordered_map<graph::NodeId, int64_t> position_of;
    auto intern = [&](graph::NodeId v) {
      auto [it, inserted] = position_of.try_emplace(v);
      if (inserted) {
        auto& nodes = shard_nodes[static_cast<size_t>(partition_->ShardOf(v))];
        it->second = static_cast<int64_t>(nodes.size());
        nodes.push_back(v);
      }
      return it->second;
    };
    src_rows.reserve(events.size());
    dst_rows.reserve(events.size());
    for (const auto& e : events) {
      src_rows.push_back(intern(e.src));
      dst_rows.push_back(intern(e.dst));
    }
    std::vector<int64_t> first_row(static_cast<size_t>(num_shards) + 1, 0);
    for (size_t s = 0; s < shard_nodes.size(); ++s) {
      first_row[s + 1] =
          first_row[s] + static_cast<int64_t>(shard_nodes[s].size());
    }
    for (size_t i = 0; i < events.size(); ++i) {
      src_rows[i] += first_row[partition_->ShardOf(events[i].src)];
      dst_rows[i] += first_row[partition_->ShardOf(events[i].dst)];
    }

    // Encode each shard's slice concurrently against that shard's own
    // state store — replicated weights over partitioned state. The state
    // lock covers only the gather of the slice's rows; the forward pass
    // reads copies and runs unlocked, so a worker's merge never waits on
    // it. Each task copies its output into its block of the batch matrix
    // and drops its tensors before returning: encode intermediates live
    // and die on the pool thread that owns the arena.
    std::vector<float> emb(static_cast<size_t>(first_row.back() * d));
    const auto encode_shard = [this, d, &shard_nodes, &first_row,
                               &emb](int s) {
      tensor::NoGradGuard task_no_grad;
      // Pool threads open their own per-batch arena; on the caller thread
      // this nests the already-open batch arena, which is a no-op.
      tensor::ArenaScope task_arena;
      APAN_TRACE_SPAN("encode");
      Stopwatch encode_watch;
      const auto& nodes = shard_nodes[static_cast<size_t>(s)];
      tensor::Tensor last;
      core::Mailbox::ReadResult read;
      {
        Shard& shard = *shards_[static_cast<size_t>(s)];
        util::MutexLock state_lock(shard.state_mu);
        last = shard.store->GatherLastEmbeddings(nodes);
        read = shard.store->ReadBatch(nodes);
      }
      const tensor::Tensor z = model_->encoder().Forward(last, read).embeddings;
      std::copy_n(z.data(), z.numel(),
                  emb.data() + first_row[static_cast<size_t>(s)] * d);
      if (stage_metrics_) {
        ins_.stage_encode->Record(s, encode_watch.ElapsedMillis());
      }
    };
    // The caller thread encodes one slice itself instead of submitting
    // them all and blocking: at 1 shard the synchronous path pays zero
    // pool handoffs (a handoff per batch costs a 10x p99 wakeup tail),
    // and at N shards the caller overlaps its slice with the pool's N-1.
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

    ctx->embeddings =
        tensor::Tensor::FromVector({first_row.back(), d}, std::move(emb));
    tensor::Tensor z_src = tensor::GatherRows(ctx->embeddings, src_rows);
    tensor::Tensor z_dst = tensor::GatherRows(ctx->embeddings, dst_rows);
    tensor::Tensor logits = model_->ScoreLinkLogits(z_src, z_dst);
    tensor::Tensor probs = tensor::Sigmoid(logits);
    result.scores.assign(probs.data(), probs.data() + probs.numel());
  }
  result.sync_millis = watch.ElapsedMillis();
  ins_.stage_sync->Record(result.sync_millis);

  // ---- Hand off to the asynchronous link (back-pressure when full). ----
  for (auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    while (shard->jobs_in_flight >= options_.queue_capacity) {
      shard->cv.Wait(shard->mu);
    }
  }

  ctx->batch = next_batch_++;
  last_timestamp_ = latest;
  ctx->events = events;

  // Graceful degradation, one rule: the shards up now are this batch's
  // senders and mergers. A down shard gets no job, so its replica misses
  // the batch, its home records are shed whole, and no shard waits for a
  // list from it. A flag set later (a lane failure mid-batch) only
  // affects later batches.
  std::vector<char>& up = ctx->up;
  up.resize(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const bool down =
        shard_down_[static_cast<size_t>(s)].load(std::memory_order_relaxed);
    up[static_cast<size_t>(s)] = down ? 0 : 1;
    ctx->senders += down ? 0 : 1;
  }

  // Home every record on its source endpoint's shard, and list for each
  // shard the events with an endpoint it owns: the only events its merge
  // visits. Events homed on a down shard are listed nowhere, so no shard
  // writes their rows or mail.
  std::vector<BatchJob> jobs(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    jobs[static_cast<size_t>(s)].ctx = ctx;
  }
  ctx->owned_events.resize(static_cast<size_t>(num_shards));
  for (size_t i = 0; i < events.size(); ++i) {
    const graph::Event& e = events[i];
    const int home = partition_->HomeShardOf(e);
    jobs[static_cast<size_t>(home)].home.push_back(i);
    if (up[static_cast<size_t>(home)] == 0) continue;
    ctx->owned_events[static_cast<size_t>(home)].push_back(i);
    const int dst_owner = partition_->ShardOf(e.dst);
    if (dst_owner != home) {
      ctx->owned_events[static_cast<size_t>(dst_owner)].push_back(i);
    }
  }
  for (int s = 0; s < num_shards; ++s) {
    const auto homed = jobs[static_cast<size_t>(s)].home.size();
    if (homed == 0) continue;
    if (up[static_cast<size_t>(s)] == 0) {
      ins_.events_shed->Add(s, static_cast<int64_t>(homed));
    } else {
      ins_.events_homed->Add(s, static_cast<int64_t>(homed));
    }
  }

  ins_.batches_ingested->Add(1);
  if (ctx->senders == 0) return result;  // every shard down: fully shed

  {
    util::MutexLock lock(flush_mu_);
    inflight_ += 2 * static_cast<int64_t>(ctx->senders);
    apply_remaining_.emplace(ctx->batch, ctx->senders);
  }
  for (int s = 0; s < num_shards; ++s) {
    if (up[static_cast<size_t>(s)] == 0) continue;
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
        // would be the dominant cost of a meaningless ~0 sample. With
        // stage metrics off the clock is never read.
        std::optional<Stopwatch> idle_watch;
        if (stage_metrics_) idle_watch.emplace();
        while (!shard.closed && shard.mail.empty() && shard.jobs.empty()) {
          shard.cv.Wait(shard.mu);
        }
        if (idle_watch) {
          ins_.stage_idle->Record(shard_id, idle_watch->ElapsedMillis());
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
  if (job.control) {
    Status status = job.control(shard_id);
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
    *job.control_status = std::move(status);
    if (--inflight_ == 0) flush_cv_.NotifyAll();
    return;
  }
  // N over this shard's home events, sampled from the worker's own
  // replica BEFORE this batch is appended to it — the serial oracle's
  // order, so sampling sees exactly the events of batches 0..b-1.
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  std::vector<graph::HopEntry> entries;
  std::vector<size_t> entries_end;
  SampleKHop(shard_id, job, &entries, &entries_end);
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
  // The merge runs over the context, so it is parked with the batch before
  // the own hop list can complete it.
  const int64_t batch = job.ctx->batch;
  shard.pending[batch].ctx = job.ctx;
  // The own list is applied after the cross-shard ones are on their way,
  // and outside the route stage: applying it can complete a merge. It
  // never touches the transport — this worker is its recipient.
  OnMail(shard_id, RouteMail(shard_id, job, entries, entries_end));

  // Batch teardown is real per-batch work — freeing the sampled entries
  // and the job's home-event list. It scales with batch size, so it gets
  // its own stage instead of hiding in the attribution residue of the
  // fig10 breakdown.
  APAN_TRACE_SPAN("finalize");
  Stopwatch finalize_watch;
  entries = {};
  entries_end = {};
  job = BatchJob{};
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

void ShardedEngine::SampleKHop(int shard_id, const BatchJob& job,
                               std::vector<graph::HopEntry>* entries,
                               std::vector<size_t>* entries_end) {
  APAN_TRACE_SPAN("sample");
  Stopwatch sample_watch;
  const int32_t num_hops = model_->config().propagation_hops;
  const int64_t fanout = model_->config().sampled_neighbors;
  const graph::AdjacencyReplica& replica =
      *shards_[static_cast<size_t>(shard_id)]->replica;
  entries_end->reserve(job.home.size());
  for (const size_t i : job.home) {
    const graph::Event& event = job.ctx->events[i];
    const graph::NodeId seeds[] = {event.src, event.dst};
    replica.SampleKHop(seeds, event.timestamp, num_hops, fanout, entries);
    entries_end->push_back(entries->size());
  }
  if (stage_metrics_) {
    ins_.stage_sample->Record(shard_id, sample_watch.ElapsedMillis());
  }
}

void ShardedEngine::SendPartial(int from_shard, int to_shard,
                                ShardPartial partial) {
  const int64_t batch = partial.batch;
  std::atomic<bool>& down = shard_down_[static_cast<size_t>(to_shard)];
  // A peer already marked down is not written to, so a dead lane fails
  // exactly one write.
  if (!down.load(std::memory_order_relaxed) &&
      transport_->Send(from_shard, to_shard, std::move(partial)).ok()) {
    return;
  }
  // The list is lost. The peer was up when this batch was ingested, so it
  // counts this sender: an empty list takes the lost one's place, straight
  // into its inbox, and it still merges the batch. Its state now lacks
  // the list, so it is down for later batches until a resync.
  down.store(true, std::memory_order_relaxed);
  ins_.sends_shed->Add(to_shard, 1);
  ShardPartial empty;
  empty.batch = batch;
  empty.from_shard = from_shard;
  EnqueueMessage(to_shard, std::move(empty));
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
  // The merge reads the hop list's offsets blind, so its shape is checked
  // here, once, at the delivery boundary; PropagateRows range-checks every
  // node against num_nodes before it indexes anything.
  APAN_CHECK_MSG(message.hops.WellFormed(),
                 "transport delivered a malformed ShardPartial");
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

ShardPartial ShardedEngine::RouteMail(
    int from_shard, const BatchJob& job,
    std::span<const graph::HopEntry> entries,
    std::span<const size_t> entries_end) {
  APAN_TRACE_SPAN("route");
  Stopwatch route_watch;
  const BatchContext& ctx = *job.ctx;
  const size_t n = ctx.events.size();
  const auto num_shards = static_cast<size_t>(options_.num_shards);
  // One list per recipient shard over the whole batch: record i is batch
  // event i, and only this shard's home events get entries. Endpoint
  // entries are dropped — endpoints take their mail at hop 0.
  std::vector<ShardPartial> outbound(num_shards);
  for (ShardPartial& out : outbound) {
    out.batch = ctx.batch;
    out.from_shard = from_shard;
    out.hops.offset.reserve(n + 1);
    out.hops.offset.push_back(0);
  }
  size_t next_home = 0, k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (next_home < job.home.size() && job.home[next_home] == i) {
      const graph::Event& e = ctx.events[i];
      for (; k < entries_end[next_home]; ++k) {
        const graph::NodeId v = entries[k].node;
        if (v == e.src || v == e.dst) continue;
        outbound[static_cast<size_t>(partition_->ShardOf(v))]
            .hops.node.push_back(v);
      }
      ++next_home;
    }
    for (ShardPartial& out : outbound) {
      out.hops.offset.push_back(static_cast<uint32_t>(out.hops.node.size()));
    }
  }

  int64_t routed = 0, cross_shard = 0;
  for (size_t t = 0; t < num_shards; ++t) {
    ShardPartial& out = outbound[t];
    const auto size = static_cast<int64_t>(out.hops.node.size());
    // A list with no entries goes out empty: no offsets on the wire.
    if (size == 0) out.hops = core::HopList{};
    routed += size;
    if (static_cast<int>(t) == from_shard) continue;
    cross_shard += size;
    if (ctx.up[t] == 0) {
      // Down at ingest: the shard does not merge this batch.
      ins_.sends_shed->Add(static_cast<int>(t), 1);
      continue;
    }
    SendPartial(from_shard, static_cast<int>(t), std::move(out));
  }
  ins_.mails_routed->Add(from_shard, routed);
  ins_.mails_cross_shard->Add(from_shard, cross_shard);
  if (stage_metrics_) {
    ins_.stage_route->Record(from_shard, route_watch.ElapsedMillis());
  }
  return std::move(outbound[static_cast<size_t>(from_shard)]);
}

void ShardedEngine::OnMail(int shard_id, ShardPartial partial) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  // Each sender routes a batch once and the transport delivers exactly
  // once, so a partial for an already-merged batch, or a second one from
  // the same sender, is a broken transport — applying it would double
  // mail and wedge the sender-count completion barrier.
  APAN_CHECK_MSG(partial.batch >= shard.next_merge,
                 "transport re-delivered a ShardPartial of a merged batch");
  std::vector<ShardPartial>& parts = shard.pending[partial.batch].parts;
  for (const ShardPartial& existing : parts) {
    APAN_CHECK_MSG(existing.from_shard != partial.from_shard,
                   "transport re-delivered a ShardPartial from the same "
                   "sender");
  }
  parts.push_back(std::move(partial));
  // Batches complete in order: every sender emits its partials in batch
  // order, so once all senders reported for next_merge, every earlier
  // batch has already been merged. The context is parked before the own
  // list is sent, and it names the batch's senders.
  while (true) {
    auto it = shard.pending.find(shard.next_merge);
    if (it == shard.pending.end() || it->second.ctx == nullptr ||
        static_cast<int>(it->second.parts.size()) != it->second.ctx->senders) {
      break;
    }
    Shard::PendingBatch merged = std::move(it->second);
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

core::RowBlock ShardedEngine::ReduceBatch(int shard_id,
                                          const Shard::PendingBatch& batch) {
  APAN_TRACE_SPAN("propagate");
  Stopwatch propagate_watch;
  const BatchContext& ctx = *batch.ctx;
  const size_t n = ctx.events.size();
  // The senders' lists in sender order. OnMail admits exactly one partial
  // per in-range sender, and an event is homed on exactly one shard, so
  // at most one list has entries for any event.
  std::vector<const core::HopList*> lists(
      static_cast<size_t>(options_.num_shards), nullptr);
  const core::HopList* hops = nullptr;
  size_t nonempty = 0;
  for (const ShardPartial& part : batch.parts) {
    if (part.hops.empty()) continue;
    APAN_CHECK_MSG(part.hops.num_events() == n,
                   "hop list does not cover its batch");
    lists[static_cast<size_t>(part.from_shard)] = &part.hops;
    hops = &part.hops;
    ++nonempty;
  }
  core::RowBlock reduced;
  if (hops == nullptr) return reduced;
  // Concatenated in event order they are the serial path's hop lists
  // restricted to this shard's nodes (one sender's list is used as is).
  core::HopList merged;
  if (nonempty > 1) {
    merged.offset.reserve(n + 1);
    merged.offset.push_back(0);
    for (size_t r = 0; r < n; ++r) {
      for (const core::HopList* list : lists) {
        if (list == nullptr) continue;
        const std::span<const graph::NodeId> reached = list->hops(r);
        merged.node.insert(merged.node.end(), reached.begin(), reached.end());
      }
      merged.offset.push_back(static_cast<uint32_t>(merged.node.size()));
    }
    hops = &merged;
  }
  model_->propagator().PropagateRows(
      {ctx.events, ctx.embeddings.values(), ctx.src_row, ctx.dst_row}, *hops,
      &reduced);
  if (stage_metrics_) {
    ins_.stage_propagate->Record(shard_id, propagate_watch.ElapsedMillis());
  }
  return reduced;
}

void ShardedEngine::ApplyMergedBatch(int shard_id,
                                     Shard::PendingBatch batch) {
  const int64_t batch_id = batch.ctx->batch;
  // ρ runs before the state lock: it reads only the context and the lists.
  core::RowBlock reduced = ReduceBatch(shard_id, batch);
  APAN_TRACE_SPAN("merge");
  Stopwatch watch;
  const int64_t d = model_->config().embedding_dim;
  const auto du = static_cast<size_t>(d);
  int64_t hop0_delivered = 0;
  {
    const BatchContext& ctx = *batch.ctx;
    // Everything this batch touches is the owner shard's private store:
    // z(t−) rows and mail land in shard-local memory, never in the model
    // or another shard's rows.
    Shard& shard = *shards_[static_cast<size_t>(shard_id)];
    util::MutexLock state_lock(shard.state_mu);
    core::NodeStateStore& store = *shard.store;

    // 1. The endpoints this shard owns, in event order: z(t−) (a later
    // event wins) and the event's unreduced hop-0 mail — exactly the
    // per-node delivery order the serial ApanModel path produces.
    const MailPropagator& propagator = model_->propagator();
    std::vector<float> mail(du);
    for (const size_t i : ctx.owned_events[static_cast<size_t>(shard_id)]) {
      const graph::Event& e = ctx.events[i];
      propagator.DeliverHop0(
          e, ctx.embeddings.data() + ctx.src_row[i] * d,
          ctx.embeddings.data() + ctx.dst_row[i] * d, mail,
          [&](graph::NodeId node, const float* z_node,
              std::span<const float> row) {
            if (partition_->ShardOf(node) != shard_id) return;
            store.SetLastEmbedding(node, {z_node, du});
            store.Deliver(node, row, e.timestamp);
            ++hop0_delivered;
          });
    }

    // 2. Each ρ recipient's mean, in ascending recipient order — the
    // serial path's ψ.
    for (size_t i = 0; i < reduced.size(); ++i) {
      MailPropagator::FinalizeRow(reduced.row(i), d, reduced.count[i]);
      store.Deliver(reduced.node[i], {reduced.row(i), du},
                    reduced.timestamp[i]);
    }
  }
  ins_.mails_routed->Add(shard_id, hop0_delivered);
  // Teardown inside the watch: the senders' hop lists, the ρ rows and,
  // for the last shard holding it, the batch context are freed here, a
  // real batch-sized slice of the merge — dropping them after the record
  // would leak it into the fig10 attribution residue.
  batch = Shard::PendingBatch{};
  reduced = core::RowBlock{};
  ins_.stage_merge->Record(shard_id, watch.ElapsedMillis());

  util::MutexLock lock(flush_mu_);
  auto remaining = apply_remaining_.find(batch_id);
  if (--remaining->second == 0) {
    apply_remaining_.erase(remaining);
    ins_.batches_propagated->Add(shard_id, 1);
  }
  if (--inflight_ == 0) flush_cv_.NotifyAll();
}

void ShardedEngine::Flush() {
  util::MutexLock lock(flush_mu_);
  while (inflight_ != 0) flush_cv_.Wait(flush_mu_);
}

Status ShardedEngine::SnapshotShardLocal(int shard_id, int64_t next_batch,
                                         const std::string& path) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  // Flush proved every batch below the watermark merged everywhere, so a
  // non-empty pending map means the merge cursor and the watermark
  // disagree — refuse to capture an image that could not replay to a
  // unique state.
  if (!shard.pending.empty() || shard.next_merge != next_batch) {
    return Status::FailedPrecondition(internal::StrCat(
        "shard ", shard_id, " has ", shard.pending.size(),
        " unmerged partial sets and merge cursor ", shard.next_merge,
        " at flushed batch ", next_batch));
  }
  snapshot::ShardSnapshot snap;
  snap.shard = shard_id;
  snap.num_shards = options_.num_shards;
  snap.num_nodes = partition_->num_nodes();
  snap.owned_digest = snapshot::OwnedNodesDigest(*partition_, shard_id);
  snap.next_batch = next_batch;
  {
    // The capture only reads, but the encode pool reads these rows too;
    // same discipline as every other store access.
    util::MutexLock state_lock(shard.state_mu);
    snapshot::CaptureStore(*shard.store, &snap);
  }
  snap.replica = shard.replica->Export();
  return snapshot::WriteShardSnapshot(snap, path);
}

void ShardedEngine::RestoreShardLocal(int shard_id,
                                      const snapshot::ShardSnapshot& snap) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  {
    util::MutexLock state_lock(shard.state_mu);
    snapshot::InstallStore(snap, shard.store.get());
  }
  // Restore validated the replica before any shard changed.
  const Status replica = shard.replica->Restore(snap.replica);
  APAN_CHECK_MSG(replica.ok(), replica.ToString());
  // Flush merged every batch a shard took part in, so nothing is parked:
  // the merge cursor just resumes at the watermark.
  shard.next_merge = snap.next_batch;
}

void ShardedEngine::ResetState() {
  // Holding infer_mu_ end-to-end serializes against InferBatch: no new
  // batch can interleave with the reset, and batch sequencing below is
  // rewound under the same lock that advances it.
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) return;
  next_batch_ = 0;
  last_timestamp_ = -std::numeric_limits<double>::infinity();
  Resync([this](int shard_id) {
    Shard& shard = *shards_[static_cast<size_t>(shard_id)];
    {
      // The encode pool also reads the store (though the held infer lock
      // means no encode can be running); keep the lock discipline.
      util::MutexLock state_lock(shard.state_mu);
      shard.store->Reset();
    }
    // Batch numbering restarts at 0, so the merge cursor rewinds with it.
    shard.replica->Reset();
    shard.next_merge = 0;
    return Status::OK();
  });
}

void ShardedEngine::Resync(const std::function<Status(int shard_id)>& install) {
  const Status installed = RunControlJobs(install);
  APAN_CHECK_MSG(installed.ok(), installed.ToString());
  // Every shard now holds one point, so a down shard is in sync again.
  bool any_down = false;
  for (auto& down : shard_down_) {
    any_down |= down.exchange(false, std::memory_order_relaxed);
  }
  if (!any_down) return;
  // A down shard may sit behind a dead lane, and no lane is ever revived:
  // rebuild them all. The round flushed first, and every inbox and lane
  // has been empty since (every counted merge ran, and merges only follow
  // delivered lists), so no worker is sending.
  transport_->Stop();
  transport_ = StartTransport();
}

Status ShardedEngine::RunControlJobs(
    const std::function<Status(int shard_id)>& control) {
  // Settle everything accepted so far: control jobs observe (or install)
  // quiescent shards, and Flush proves every application leg ran.
  Flush();
  const auto num_shards = static_cast<size_t>(options_.num_shards);
  std::vector<Status> statuses(num_shards);
  {
    util::MutexLock lock(flush_mu_);
    inflight_ += static_cast<int64_t>(num_shards);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    BatchJob job;
    job.control = control;
    job.control_status = &statuses[s];
    Shard& target = *shards_[s];
    util::MutexLock lock(target.mu);
    ++target.jobs_in_flight;
    target.jobs.push_back(std::move(job));
    target.cv.NotifyAll();
  }
  {
    // Each worker writes its status under flush_mu_ before its decrement,
    // so observing inflight_ == 0 under the same lock orders the reads.
    util::MutexLock lock(flush_mu_);
    while (inflight_ != 0) flush_cv_.Wait(flush_mu_);
  }
  for (Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

Status ShardedEngine::Snapshot(const std::string& dir) {
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) return Status::FailedPrecondition("Snapshot after Shutdown");
  // After this flush no partial is in flight, so no lane failure can mark
  // a shard down before the captures below run.
  Flush();
  for (int s = 0; s < options_.num_shards; ++s) {
    if (shard_down_[static_cast<size_t>(s)].load(std::memory_order_relaxed)) {
      return Status::FailedPrecondition(internal::StrCat(
          "Snapshot: shard ", s,
          " is down and missed batches; ResetState or Restore first"));
    }
  }
  // Every image is staged beside its file and renamed over it only once
  // all N writes succeeded, so a failed write leaves the previous point in
  // `dir` whole. (A crash between the renames can still leave a mixed
  // set, which Restore refuses.)
  const auto staged = [&dir](int s) {
    return snapshot::ShardPath(dir, s) + ".staged";
  };
  // The watermark is read under infer_mu_ — the lock that advances it —
  // and rides into every image. (The worker cannot read it itself without
  // an ACQUIRED_AFTER violation.)
  Status written = RunControlJobs(
      [this, &staged, next_batch = next_batch_](int shard_id) {
        return SnapshotShardLocal(shard_id, next_batch, staged(shard_id));
      });
  for (int s = 0; written.ok() && s < options_.num_shards; ++s) {
    written = snapshot::RenameFile(staged(s), snapshot::ShardPath(dir, s));
  }
  if (!written.ok()) {
    // Best-effort: a shard whose write failed left no staged file.
    for (int s = 0; s < options_.num_shards; ++s) {
      static_cast<void>(std::remove(staged(s).c_str()));
    }
  }
  return written;
}

Status ShardedEngine::CheckImage(int shard,
                                 const snapshot::ShardSnapshot& snap) const {
  if (snap.shard != shard) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot file of shard ", shard, " holds shard ", snap.shard,
        "'s image"));
  }
  if (snap.num_shards != options_.num_shards) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot taken under ", snap.num_shards, " shards; engine has ",
        options_.num_shards));
  }
  const auto& config = model_->config();
  if (snap.num_nodes != config.num_nodes ||
      snap.mailbox_slots != config.mailbox_slots ||
      snap.dim != config.embedding_dim) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot geometry (nodes=", snap.num_nodes,
        ", slots=", snap.mailbox_slots, ", dim=", snap.dim,
        ") does not match the engine's model config"));
  }
  const int64_t owned = partition_->owned_count[static_cast<size_t>(shard)];
  if (static_cast<int64_t>(snap.mail_count.size()) != owned) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot owns ", snap.mail_count.size(), " nodes; shard ", shard,
        " owns ", owned, " under this partition"));
  }
  // Rows restore by local position, so the image must also own the same
  // nodes in the same row order — an equal count is not enough.
  if (snap.owned_digest != snapshot::OwnedNodesDigest(*partition_, shard)) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot of shard ", shard,
        " was taken under a different partition: its owned-node digest ",
        snap.owned_digest, " does not match this engine's"));
  }
  return Status::OK();
}

Status ShardedEngine::Restore(const std::string& dir) {
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) return Status::FailedPrecondition("Restore after Shutdown");
  // Every image is read and checked before any shard changes.
  std::vector<snapshot::ShardSnapshot> images;
  images.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    auto image = snapshot::ReadShardSnapshot(snapshot::ShardPath(dir, s));
    APAN_RETURN_NOT_OK(image.status());
    APAN_RETURN_NOT_OK(CheckImage(s, *image));
    // Every replica is a full copy of the graph, so images of one point
    // agree on it as well as on the watermark.
    const snapshot::ShardSnapshot& first = s == 0 ? *image : images.front();
    if (image->next_batch != first.next_batch ||
        image->replica.num_events != first.replica.num_events ||
        image->replica.latest_timestamp != first.replica.latest_timestamp) {
      return Status::InvalidArgument(internal::StrCat(
          "snapshot set mixes recovery points: shard ", s, " is at batch ",
          image->next_batch, " after ", image->replica.num_events,
          " events, shard 0 at batch ", first.next_batch, " after ",
          first.replica.num_events));
    }
    images.push_back(std::move(*image));
  }
  // The caller replays events from this watermark to catch up to the
  // present.
  next_batch_ = images.front().next_batch;
  last_timestamp_ = images.front().replica.latest_timestamp;
  Resync([this, &images](int shard_id) {
    RestoreShardLocal(shard_id, images[static_cast<size_t>(shard_id)]);
    return Status::OK();
  });
  return Status::OK();
}

void ShardedEngine::MarkShardDown(int shard) {
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) return;
  APAN_CHECK_MSG(shard >= 0 && shard < options_.num_shards,
                 "MarkShardDown: shard id out of range");
  // Flush first so the flag flips at a quiescent point: no in-flight
  // batch straddles the transition, so every batch sees one consistent
  // up/down view at ingest.
  Flush();
  shard_down_[static_cast<size_t>(shard)].store(true,
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
  // Then stop the transport *before* the workers go away. Flush proved
  // every batch applied, so no lane holds a frame a merge still needs,
  // and stopping it guarantees no delivery callback runs into a dead
  // engine.
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
  s.mails_routed = ins_.mails_routed->Value();
  s.mails_cross_shard = ins_.mails_cross_shard->Value();
  s.events_shed = ins_.events_shed->Value();
  s.sends_shed = ins_.sends_shed->Value();
  return s;
}

}  // namespace serve
}  // namespace apan
