#include "serve/sharded_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

#include "tensor/arena.h"
#include "tensor/ops.h"

namespace apan {
namespace serve {

using core::MailPropagator;
using core::RowBlock;

namespace {

/// True when `b` is a well-formed section of `d`-wide rows carrying
/// exactly the index columns its role uses (see core::RowBlock).
bool SectionFits(const RowBlock& b, int64_t d, bool sequenced, bool timed) {
  const size_t n = b.size();
  return (n == 0 || b.width == d) &&
         b.rows.size() == n * static_cast<size_t>(d) &&
         b.sequence.size() == (sequenced ? n : 0) &&
         b.timestamp.size() == (timed ? n : 0) &&
         b.count.size() == (timed ? n : 0);
}

/// Reserves `rows` rows in `out`, with the columns and width of `like`.
void ReserveLike(RowBlock* out, const RowBlock& like, size_t rows) {
  out->width = like.width;
  if (!like.sequence.empty()) out->sequence.reserve(rows);
  out->node.reserve(rows);
  if (!like.timestamp.empty()) out->timestamp.reserve(rows);
  if (!like.count.empty()) out->count.reserve(rows);
  out->rows.reserve(rows * static_cast<size_t>(like.width));
}

/// Appends row `i` of `src`, every used column included, to `out`.
void AppendRow(RowBlock* out, const RowBlock& src, size_t i) {
  if (!src.sequence.empty()) out->sequence.push_back(src.sequence[i]);
  out->node.push_back(src.node[i]);
  if (!src.timestamp.empty()) out->timestamp.push_back(src.timestamp[i]);
  if (!src.count.empty()) out->count.push_back(src.count[i]);
  out->rows.insert(out->rows.end(), src.row(i), src.row(i) + src.width);
}

/// Splits `block` by the owner of each row's node into section `section`
/// of each outbound partial, copying rows in order — so every piece stays
/// an ascending run. A block whose rows all go to one shard moves whole.
void SplitByOwner(const ShardRouter& router, RowBlock&& block,
                  RowBlock ShardPartial::*section,
                  std::vector<ShardPartial>* outbound) {
  const size_t n = block.size();
  std::vector<int> owner(n);
  std::vector<size_t> rows_to(outbound->size(), 0);
  for (size_t i = 0; i < n; ++i) {
    owner[i] = router.ShardOf(block.node[i]);
    ++rows_to[static_cast<size_t>(owner[i])];
  }
  for (size_t t = 0; t < outbound->size(); ++t) {
    if (rows_to[t] == n) {
      (*outbound)[t].*section = std::move(block);
      return;
    }
  }
  for (size_t t = 0; t < outbound->size(); ++t) {
    ReserveLike(&((*outbound)[t].*section), block, rows_to[t]);
  }
  for (size_t i = 0; i < n; ++i) {
    AppendRow(&((*outbound)[static_cast<size_t>(owner[i])].*section), block,
              i);
  }
}

/// k-way merge of one section across a batch's sender runs (`runs[s]` is
/// sender s's partial): calls visit(block, row) for every row in ascending
/// key(block, row) order. Each run is already strictly ascending, so this
/// is a scan of the run heads — no sort, no copy; rows with equal keys
/// (one ρ recipient reported by several senders) visit in ascending
/// sender order, the order ρ partials are summed in.
template <typename Key, typename Visit>
void MergeRuns(std::span<const ShardPartial* const> runs,
               const RowBlock ShardPartial::*section, Key key, Visit visit) {
  std::vector<size_t> head(runs.size(), 0);
  while (true) {
    const RowBlock* best = nullptr;
    size_t best_sender = 0;
    int64_t best_key = 0;
    for (size_t s = 0; s < runs.size(); ++s) {
      const RowBlock& run = runs[s]->*section;
      if (head[s] == run.size()) continue;
      const int64_t k = key(run, head[s]);
      if (best == nullptr || k < best_key) {
        best = &run;
        best_sender = s;
        best_key = k;
      }
    }
    if (best == nullptr) return;
    visit(*best, head[best_sender]++);
  }
}

}  // namespace

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
      encode_pool_(static_cast<size_t>(options.num_shards)),
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
      "ShardedEngine requires kMostRecent sampling: each worker samples "
      "its graph::AdjacencyReplica, which implements most-recent sampling "
      "only");
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
  // Caller events are validated here, before anything is encoded or
  // counted: an out-of-range endpoint would abort in the router, an
  // out-of-range edge id in a worker's φ (after the scores went back), and
  // an out-of-order timestamp would pass the synchronous link only to
  // abort every worker's replica append. A NaN timestamp compares false
  // against everything, so it would switch the order check off for the
  // rest of the stream. The timestamp checks mirror
  // AdjacencyReplica::AppendBatch, so a batch accepted here always
  // appends.
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
    if (std::isnan(e.timestamp)) {
      return Status::InvalidArgument("InferBatch: NaN event timestamp");
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
  std::vector<float> batch_z;
  std::vector<int64_t> src_rows, dst_rows;
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

    tensor::Tensor embeddings = tensor::Tensor::FromVector(
        {static_cast<int64_t>(unique_nodes.size()), d}, emb);
    batch_z = std::move(emb);
    tensor::Tensor z_src = tensor::GatherRows(embeddings, src_rows);
    tensor::Tensor z_dst = tensor::GatherRows(embeddings, dst_rows);
    tensor::Tensor logits = model_->ScoreLinkLogits(z_src, z_dst);
    tensor::Tensor probs = tensor::Sigmoid(logits);
    result.scores.assign(probs.data(), probs.data() + probs.numel());
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
  last_timestamp_ = latest;
  ctx->events = events;
  ctx->embeddings = std::move(batch_z);
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
  for (size_t i = 0; i < events.size(); ++i) {
    const int home = router_.HomeShardOf(events[i]);
    auto& job = jobs[static_cast<size_t>(home)];
    job.events.push_back(events[i]);
    job.src_row.push_back(src_rows[i]);
    job.dst_row.push_back(dst_rows[i]);
    job.event_index.push_back(static_cast<int64_t>(i));
  }
  for (int s = 0; s < num_shards; ++s) {
    const auto homed = jobs[static_cast<size_t>(s)].events.size();
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
  // φ + N over this shard's home events, sampled from the worker's own
  // replica BEFORE this batch is appended to it — the serial oracle's
  // order, so sampling sees exactly the events of batches 0..b-1.
  // Propagation is plain flat-row math today; the scope makes any tensor
  // op a future propagator grows draw from this worker's pool. Arena
  // tensors are thread-confined: anything that enters a ShardPartial
  // (read by OTHER shards' workers) must be copied into its row blocks,
  // never handed over as a pooled tensor.
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
  RowBlock hop0, partial;
  {
    APAN_TRACE_SPAN("propagate");
    Stopwatch propagate_watch;
    model_->propagator().PropagateRows(
        {job.events, job.event_index, job.ctx->embeddings, job.src_row,
         job.dst_row},
        hops, &hop0, &partial);
    if (stage_metrics_) {
      ins_.stage_propagate->Record(shard_id,
                                   propagate_watch.ElapsedMillis());
    }
  }
  // The own partial is applied after the cross-shard ones are on their
  // way, and outside the route stage: applying it can complete a merge.
  SendPartial(shard_id, shard_id,
              RouteMail(shard_id, job, std::move(hop0), std::move(partial)));

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

std::vector<std::vector<graph::HopEntry>> ShardedEngine::SampleKHop(
    int shard_id, const BatchJob& job) {
  APAN_TRACE_SPAN("sample");
  Stopwatch sample_watch;
  std::vector<std::vector<graph::HopEntry>> hops(job.events.size());
  const int32_t num_hops = model_->config().propagation_hops;
  const int64_t fanout = model_->config().sampled_neighbors;
  const graph::AdjacencyReplica& replica =
      *shards_[static_cast<size_t>(shard_id)]->replica;
  for (size_t i = 0; i < job.events.size(); ++i) {
    const graph::Event& event = job.events[i];
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
  if (to_shard == from_shard) {
    // A shard's own partial never touches the transport: this worker is
    // the recipient, so it merges it here — no frame, no inbox hop.
    OnMail(to_shard, std::move(partial));
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
  // The merge reads d-wide rows and every index column blind, so the
  // blocks' shape is checked here, once, at the delivery boundary.
  const int64_t d = model_->config().embedding_dim;
  APAN_CHECK_MSG(SectionFits(message.state, d, true, false) &&
                     SectionFits(message.hop0, d, true, true) &&
                     SectionFits(message.partial, d, false, true),
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

void ShardedEngine::CountDuplicateDropped(int shard_id) {
  ins_.duplicates_dropped->Add(shard_id, 1);
}

ShardPartial ShardedEngine::RouteMail(int from_shard, const BatchJob& job,
                                      RowBlock&& hop0, RowBlock&& partial) {
  APAN_TRACE_SPAN("route");
  Stopwatch route_watch;
  const int num_shards = options_.num_shards;
  const int64_t d = model_->config().embedding_dim;
  std::vector<ShardPartial> outbound(static_cast<size_t>(num_shards));
  for (int t = 0; t < num_shards; ++t) {
    outbound[static_cast<size_t>(t)].batch = job.ctx->batch;
    outbound[static_cast<size_t>(t)].from_shard = from_shard;
  }

  // z(t−) write-backs go to each endpoint's owner; sequence tags let the
  // owner replay them in global event order (later events win). Rows are
  // copied straight out of the batch's embedding matrix.
  const size_t n = job.events.size();
  std::vector<size_t> state_rows(static_cast<size_t>(num_shards), 0);
  for (const graph::Event& e : job.events) {
    ++state_rows[static_cast<size_t>(router_.ShardOf(e.src))];
    ++state_rows[static_cast<size_t>(router_.ShardOf(e.dst))];
  }
  for (int t = 0; t < num_shards; ++t) {
    RowBlock& state = outbound[static_cast<size_t>(t)].state;
    const size_t rows = state_rows[static_cast<size_t>(t)];
    state.width = d;
    state.sequence.reserve(rows);
    state.node.reserve(rows);
    state.rows.reserve(rows * static_cast<size_t>(d));
  }
  const float* z = job.ctx->embeddings.data();
  const auto add_state = [&](int64_t sequence, graph::NodeId node,
                             int64_t row) {
    RowBlock& state =
        outbound[static_cast<size_t>(router_.ShardOf(node))].state;
    state.sequence.push_back(sequence);
    state.node.push_back(node);
    state.rows.insert(state.rows.end(), z + row * d, z + (row + 1) * d);
  };
  for (size_t i = 0; i < n; ++i) {
    const int64_t seq = 2 * job.event_index[i];
    add_state(seq, job.events[i].src, job.src_row[i]);
    add_state(seq + 1, job.events[i].dst, job.dst_row[i]);
  }
  SplitByOwner(router_, std::move(hop0), &ShardPartial::hop0, &outbound);
  SplitByOwner(router_, std::move(partial), &ShardPartial::partial,
               &outbound);

  int64_t routed = 0;
  int64_t cross_shard = 0;
  for (int t = 0; t < num_shards; ++t) {
    ShardPartial& out = outbound[static_cast<size_t>(t)];
    const auto mails = static_cast<int64_t>(out.hop0.size() +
                                            out.partial.size());
    routed += mails;
    if (t == from_shard) continue;
    cross_shard += mails;
    SendPartial(from_shard, t, std::move(out));
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
  // One run per sender, indexed by sender: OnMail admits exactly one
  // partial per in-range sender, so every slot is filled.
  std::vector<const ShardPartial*> runs(
      static_cast<size_t>(options_.num_shards), nullptr);
  for (const ShardPartial& part : parts) {
    runs[static_cast<size_t>(part.from_shard)] = &part;
  }
  const int64_t batch = parts.front().batch;
  const int64_t d = model_->config().embedding_dim;
  const auto by_sequence = [](const RowBlock& b, size_t i) {
    return b.sequence[i];
  };
  const auto by_recipient = [](const RowBlock& b, size_t i) {
    return b.node[i];
  };
  {
    // Everything this batch touches is the owner shard's private store:
    // routed state updates and mail land in shard-local memory, never in
    // the model or another shard's rows.
    Shard& shard = *shards_[static_cast<size_t>(shard_id)];
    util::MutexLock state_lock(shard.state_mu);
    core::NodeStateStore& store = *shard.store;

    // 1. z(t−) write-backs in global event order (later events win).
    MergeRuns(runs, &ShardPartial::state, by_sequence,
              [&store, d](const RowBlock& b, size_t i) {
                store.SetLastEmbedding(b.node[i],
                                       {b.row(i), static_cast<size_t>(d)});
              });

    // 2. Hop-0 mail replayed in global event order — exactly the per-node
    // delivery order the serial ApanModel path produces.
    MergeRuns(runs, &ShardPartial::hop0, by_sequence,
              [&store, d](const RowBlock& b, size_t i) {
                store.Deliver(b.node[i], {b.row(i), static_cast<size_t>(d)},
                              b.timestamp[i]);
              });

    // 3. ρ across the whole batch: one recipient's partial sums arrive
    // consecutively, in sender order; the first is copied, the rest are
    // added, and the finalized mean is delivered — the serial path's
    // arithmetic, one scratch row, no per-recipient vector.
    std::vector<float> sum(static_cast<size_t>(d));
    bool open = false;
    graph::NodeId recipient = -1;
    double newest = 0.0;
    int64_t contributions = 0;
    const auto deliver_reduced = [&] {
      MailPropagator::FinalizeRow(sum.data(), d, contributions);
      store.Deliver(recipient, sum, newest);
    };
    MergeRuns(runs, &ShardPartial::partial, by_recipient,
              [&](const RowBlock& b, size_t i) {
                const float* row = b.row(i);
                if (open && b.node[i] == recipient) {
                  for (int64_t k = 0; k < d; ++k) {
                    sum[static_cast<size_t>(k)] += row[k];
                  }
                  newest = std::max(newest, b.timestamp[i]);
                  contributions += b.count[i];
                  return;
                }
                if (open) deliver_reduced();
                open = true;
                std::copy_n(row, d, sum.data());
                recipient = b.node[i];
                newest = b.timestamp[i];
                contributions = b.count[i];
              });
    if (open) deliver_reduced();
  }
  // Teardown inside the watch: the senders' row blocks are freed here, a
  // real batch-sized slice of the merge — dropping them after the record
  // would leak it into the fig10 attribution residue.
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

Status ShardedEngine::SnapshotShardLocal(int shard_id, int64_t next_batch,
                                         int64_t next_ordinal,
                                         const std::string& path) {
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
  snap.next_batch = next_batch;
  snap.next_ordinal = next_ordinal;
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
  return snapshot::WriteShardSnapshot(snap, path);
}

Status ShardedEngine::RestoreShardLocal(int shard_id,
                                        const snapshot::ShardSnapshot& snap) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
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
  // RunControlJob flushes first; after that every inbox and every
  // exactly-once transport lane is empty (Flush proves all application
  // legs ran, and legs are only reachable via delivered messages). The
  // reset then runs on each shard's own worker, so the worker-confined
  // state (merge cursor, graph replica) is only ever touched by its own
  // thread.
  const auto reset_shard = [this](int shard_id) {
    Shard& shard = *shards_[static_cast<size_t>(shard_id)];
    {
      // The encode pool also reads the store (though the held infer lock
      // means no encode can be running); keep the lock discipline.
      util::MutexLock state_lock(shard.state_mu);
      shard.store->Reset();
    }
    // Batch numbering restarts at 0, so the merge cursor rewinds with it.
    shard.replica->Reset();
    shard.pending.clear();
    shard.next_merge = 0;
    return Status::OK();
  };
  for (int s = 0; s < options_.num_shards; ++s) {
    const Status reset = RunControlJob(s, reset_shard);
    APAN_CHECK_MSG(reset.ok(), reset.ToString());
  }
  next_batch_ = 0;
  next_ordinal_ = 0;
  last_timestamp_ = -std::numeric_limits<double>::infinity();
  ingested_since_start_ = false;
}

Status ShardedEngine::RunControlJob(
    int shard, std::function<Status(int shard_id)> control) {
  // Settle everything accepted so far: control jobs observe (or install)
  // a quiescent shard, and Flush proves every application leg ran.
  Flush();
  Status status;
  BatchJob job;
  job.control = std::move(control);
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
  // The engine-level numbering is captured under infer_mu_ — the lock
  // that advances it — and rides into the image so a restored engine
  // resumes the batch/ordinal sequence exactly where this one stood. (The
  // worker cannot read it itself without an ACQUIRED_AFTER violation.)
  return RunControlJob(
      shard, [this, path, next_batch = next_batch_,
              next_ordinal = next_ordinal_](int shard_id) {
        return SnapshotShardLocal(shard_id, next_batch, next_ordinal, path);
      });
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
  const double restored_timestamp = snap->replica.latest_timestamp;
  APAN_RETURN_NOT_OK(RunControlJob(
      shard, [this, snap = std::move(snap)](int shard_id) {
        return RestoreShardLocal(shard_id, *snap);
      }));
  // Adopt the image's numbering and stream position. Restoring a
  // consistent set (one image per shard, all captured at the same flushed
  // point) writes the same values num_shards times — idempotent; the
  // caller then replays events from this batch watermark to catch up to
  // the present.
  next_batch_ = restored_batch;
  next_ordinal_ = restored_ordinal;
  last_timestamp_ = restored_timestamp;
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
