// The serving engine — the paper's Figure 2(b) system architecture (a
// synchronous encode-and-score link, k-hop propagation on an asynchronous
// link) scaled out across a node partition (paper §3.6: "APAN can be
// deployed on distributed streaming systems ... mails may arrive out of
// order", which the mailbox absorbs by keeping each node's slots
// time-sorted at write). num_shards = 1 is the single-worker deployment.
//
// A ShardRouter partitions the node space into N shards through a shared
// graph::NodePartition index (canonical hash by default, or a
// locality-aware index via Options::partition). Each shard exclusively
// owns its nodes' mutable state — a core::NodeStateStore holding its
// mailbox slice and z(t−) rows — and its worker keeps a private, full
// graph::AdjacencyReplica of the temporal graph. The model itself is
// touched only through the const core::ApanWeights view (the weights are
// replicated, the state is partitioned): the engine never locks or writes
// a byte of ApanModel's mutable state while running, so the model's
// default store stays empty and Shard::state_mu guards genuinely
// shard-private memory — no false sharing on the synchronous link. Each
// shard has a bounded inbox of batch jobs and runs one propagation
// worker. The division of labour per batch:
//
//   Synchronous link (InferBatch, what the caller waits for)
//     · the batch's unique nodes are split by owner shard and encoded
//       concurrently on a thread pool — each encode touches only its
//       shard's rows, under that shard's state lock;
//     · link scores are decoded on the calling thread and returned.
//
//   Asynchronous link (per-shard workers, off the latency path)
//     · every event is homed on its source endpoint's shard; the home
//       shard computes the event's mail (φ) and samples its k-hop
//       neighbourhood (N) from the worker's own replica. Every worker
//       receives the whole batch, samples its home events first and then
//       appends all of the batch's events — the serial oracle's order —
//       so a replica read sees exactly batches 0..b-1 with no versioning
//       and no shard ever waits on another to sample;
//     · the home shard's propagation kernel writes the event's mail rows
//       and ρ partial sums into flat row blocks, which are *routed* —
//       split by owner with row copies, z(t−) write-backs alongside — as
//       one ShardPartial per recipient shard. Cross-shard mail therefore
//       arrives interleaved with other shards' traffic — out of order by
//       construction; a shard's partial to itself skips the transport;
//     · a recipient shard reassembles a batch once partials from all N
//       shards have arrived, then k-way merges the N sender runs (each
//       already in sequence / recipient order) straight into its rows in
//       global event order, restoring exactly the per-node delivery order
//       of the serial ApanModel path.
//
// Transport plane: every cross-shard ShardPartial travels through a
// pluggable serve::Transport (Options::transport) — synchronous in-process
// delivery by default, or a Unix-domain-socket lane per ordered pair of
// distinct shards carrying serve/wire.h frames. The engine assumes only
// at-least-once delivery with no ordering: sequence tags reconstruct every
// order that matters, and duplicated deliveries are dropped by their
// (batch, sender) tag.
// With the state plane split into per-shard stores, nothing crosses a
// shard boundary through shared memory: a shard's entire mutable
// footprint (store + replica) is address-space independent, and only
// connected sockets separate this from a true multi-process deployment
// (docs/serving.md).
//
// Determinism: because neighborhood expansion, per-node delivery order and
// ρ-reduction are reconstructed exactly, the final mailbox timestamps and
// counts after Flush() are bitwise-identical to the serial ApanModel path
// (ProcessBatchPostInference, batch by batch) on the same stream. Mail
// *payloads* sum ρ partials in sender-shard order, so they equal the
// serial path's bitwise at 1 shard and agree up to floating-point
// summation order otherwise (tests/serve_sharded_test.cc asserts both and
// pins the multi-shard payloads by digest — and
// tests/serve_transport_test.cc re-asserts the mailbox over a socket
// transport and under injected delay/reorder/duplication faults).
//
// Skew and deadlock freedom: batch-job inboxes are bounded (back-pressure
// on the caller), shard-to-shard messages are unbounded, and no worker
// ever blocks on a peer. Workers run decoupled, so a fast shard parks
// partials for batches a slow shard has not routed yet; the bounded
// inboxes cap that drift at Options::queue_capacity batches
// (serve.merge_pending_highwater reports it).

#ifndef APAN_SERVE_SHARDED_ENGINE_H_
#define APAN_SERVE_SHARDED_ENGINE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/apan_model.h"
#include "core/node_state_store.h"
#include "graph/adjacency_replica.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/shard_message.h"
#include "serve/shard_router.h"
#include "serve/snapshot.h"
#include "serve/transport.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace apan {
namespace serve {

/// What InferBatch does when a shard's inbox is at Options::queue_capacity.
enum class OverflowPolicy {
  /// Wait for space (back-pressure on the caller; default).
  kBlock,
  /// Drop the incoming batch whole — a partially enqueued batch would
  /// wedge the cross-shard reassembly barrier. Its scores are still
  /// returned; its mail is lost and counted (Stats::batches_rejected,
  /// Stats::mails_dropped).
  kDropNewest,
};

/// \brief Runs one ApanModel behind an N-shard partition of the node
/// space: per-shard mailbox/memory ownership, per-shard propagation
/// workers sampling private graph replicas, cross-shard mail routing over
/// a pluggable transport.
class ShardedEngine {
 public:
  struct Options {
    int num_shards = 4;
    /// Shared node-ownership index for the router and the state stores.
    /// Null means the canonical hash
    /// (graph::NodePartition::BuildDefault). Pass a
    /// NodePartition::BuildLocality index — built from a warmup prefix or
    /// a prior epoch's events — to keep k-hop propagation shard-local.
    /// Must cover exactly the model's node count with `num_shards` shards
    /// (CHECK-enforced). Determinism is partition-independent: replay
    /// tags make delivery order irrelevant, so every suite passes under
    /// any ownership map.
    std::shared_ptr<const graph::NodePartition> partition;
    /// Maximum in-flight batches per shard before InferBatch applies the
    /// overflow policy. It also bounds how far decoupled workers drift
    /// apart, and with it the partials a fast shard parks for a slow one
    /// (each parked batch holds its routed mail).
    size_t queue_capacity = 32;
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    /// Builds the shard-to-shard message transport; null means
    /// InProcessTransport (the pre-transport deque semantics).
    TransportFactory transport;
    /// Metrics land here; null means the engine owns a private registry
    /// (reachable via registry()). Sharing one registry across engines
    /// accumulates counts across them — benches pass null per run.
    obs::Registry* registry = nullptr;
    /// Stage-level histograms, queue gauges and trace spans. Counters
    /// (the stats() substrate) are always on — they are single relaxed
    /// adds and strictly cheaper than the mutexed fields they replaced.
    /// fig10 runs each config with this off and on to price the
    /// difference (the <2% overhead contract in docs/observability.md).
    bool stage_metrics = true;
  };

  /// `model` must outlive the engine and must not be used concurrently by
  /// other threads while the engine is running. Requires
  /// PropagationSampling::kMostRecent (CHECK-enforced): workers sample
  /// their graph::AdjacencyReplica, which samples most-recent only. The
  /// model is put in eval mode once here; afterwards the engine accesses
  /// it const-only (core::ApanWeights): served state lands in the
  /// engine's own per-shard NodeStateStores and graph replicas, NOT in
  /// model->graph(), model->mailbox() or model->state_store(), which all
  /// stay empty.
  ShardedEngine(core::ApanModel* model, Options options);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  struct InferenceResult {
    /// P(edge) per event, from the link decoder.
    std::vector<float> scores;
    /// Wall-clock milliseconds of the synchronous path for this batch.
    double sync_millis = 0.0;
  };

  /// \brief Scores a batch of interactions on the synchronous link
  /// (shard-parallel encoding) and enqueues the per-shard asynchronous
  /// work. Concurrent callers are serialized.
  /// \return Cancelled after Shutdown; InvalidArgument for an empty batch,
  /// an endpoint outside [0, num_nodes), an edge id outside the model's
  /// edge feature rows, or a NaN timestamp; FailedPrecondition when the
  /// timestamps decrease within the batch or fall before the last
  /// accepted batch's. A refused batch leaves the engine unchanged.
  Result<InferenceResult> InferBatch(const std::vector<graph::Event>& events)
      APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// Blocks until every accepted batch has been sampled, routed, and
  /// applied on every shard.
  void Flush() APAN_EXCLUDES(flush_mu_);

  /// Drains all accepted work AND the transport (a socket lane can hold
  /// frames a deque never could), then stops the workers (idempotent;
  /// also called by the destructor). Shutdown never loses accepted mail.
  void Shutdown() APAN_EXCLUDES(shutdown_mu_, infer_mu_, flush_mu_);

  /// \brief Resets all streaming state between epochs, mirroring
  /// ApanModel::ResetState for the sharded layout: flushes accepted work,
  /// then routes a reset through every shard's worker that zeroes its
  /// NodeStateStore, empties its graph replica, and rewinds its merge
  /// cursor; batch/ordinal numbering restarts at 0. After it returns
  /// the engine reproduces a fresh engine bitwise on the same stream.
  /// Stats and latency recorders stay cumulative. Callers must not run
  /// InferBatch concurrently. CHECK-enforced: the transport must report
  /// exactly_once() (inproc and uds do — their lanes are provably empty
  /// after the internal flush); a duplicating transport could re-deliver
  /// a pre-reset frame whose replay tag the reset rewound, so the engine
  /// aborts instead of corrupting silently. No-op after Shutdown.
  void ResetState() APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// \brief Writes shard `shard`'s full recovery image — its
  /// NodeStateStore (mailbox planes + z(t−) rows), its graph replica, and
  /// its merge cursor, plus the engine's batch/ordinal numbering —
  /// crash-atomically to `path` (serve/snapshot.h format). Flushes
  /// accepted work first, then runs the capture as a control job on the
  /// shard's own worker thread (the ResetState pattern), so every
  /// worker-confined field is read by the one thread allowed to touch it.
  /// Restoring the snapshot and replaying the event stream from its batch
  /// watermark reproduces the never-crashed mailbox bitwise. Safe under
  /// any transport: capture only reads, so a late re-delivered frame is
  /// dropped by the same tags the snapshot preserves.
  Status SnapshotShard(int shard, const std::string& path)
      APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// \brief Restores shard `shard` from a snapshot written by
  /// SnapshotShard: decodes + validates the file against this engine's
  /// topology (shard id, shard count, node count, mailbox/state geometry),
  /// then installs it via a control job on the shard's worker and adopts
  /// the snapshot's batch/ordinal numbering (all shards of one recovery
  /// set carry the same quiesced numbering, so per-shard adoption is
  /// idempotent across the set). A corrupt, truncated or mismatched
  /// snapshot returns a non-OK Status with the engine unchanged.
  /// Requires an exactly-once transport, for the same reason ResetState
  /// does: restore rewinds replay watermarks, and a duplicating transport
  /// could re-deliver a pre-restore frame the rewound tags would accept.
  Status RestoreShard(int shard, const std::string& path)
      APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// \brief Marks a shard down (or back up) for graceful degradation.
  /// While a shard is down the engine keeps serving from the healthy
  /// shards instead of blocking on the dead one: batches' records homed
  /// to it are shed (counted in Stats::events_shed), partials to it are
  /// shed at send (Stats::sends_shed), and its merge contribution is
  /// synthesized empty so healthy shards' reassembly barriers still
  /// complete. Healthy shards still sample nodes it owns from their own
  /// replicas. Scores keep flowing — encoded against the down shard's
  /// frozen state. Flushes in-flight work before flipping the flag, so
  /// the transition lands at a batch boundary.
  /// No-op after Shutdown.
  void SetShardDown(int shard, bool down)
      APAN_EXCLUDES(infer_mu_, flush_mu_);

  struct Stats {
    int64_t batches_ingested = 0;
    /// Batches fully applied on every shard.
    int64_t batches_propagated = 0;
    /// Batches refused whole by a drop overflow policy (their records are
    /// also counted in mails_dropped). The accounting identity is
    /// batches_ingested == batches attempted − batches_rejected.
    int64_t batches_rejected = 0;
    /// MailDeliveries routed shard→shard (hop-0 plus reduced).
    int64_t mails_routed = 0;
    /// Subset of mails_routed whose sender and owner shards differ.
    int64_t mails_cross_shard = 0;
    /// Interaction records dropped whole by the overflow policy.
    int64_t mails_dropped = 0;
    /// Always 0: every worker samples its own graph replica, so no
    /// frontier is ever forwarded to another shard. Kept so that readers
    /// of the old frontier counters still build.
    int64_t frontier_requests = 0;
    /// Always 0, for the same reason as frontier_requests.
    int64_t frontier_nodes_forwarded = 0;
    /// Messages dropped as transport re-deliveries (by replay tag). Zero
    /// under an exactly-once transport; positive under FaultyTransport.
    int64_t duplicates_dropped = 0;
    /// Interaction records homed to a down shard and shed whole while it
    /// was down (SetShardDown). Zero in any run with no shard down.
    int64_t events_shed = 0;
    /// Partials shed at send — to or from a down shard, or refused by
    /// the transport after its lane-level recovery (reconnect/backoff)
    /// gave up. Zero in a healthy run.
    int64_t sends_shed = 0;
  };
  Stats stats() const;

  const ShardRouter& router() const { return router_; }
  /// The transport the engine is running over ("inproc", "uds", ...).
  const char* transport_name() const { return transport_->name(); }
  /// One shard worker's graph replica (quiescent inspection: call after
  /// Flush).
  const graph::AdjacencyReplica& replica(int shard) const {
    return *shards_[static_cast<size_t>(shard)]->replica;
  }
  /// One shard's mutable node state — its mailbox slice + z(t−) rows
  /// (quiescent inspection: call after Flush). Stitching the per-shard
  /// stores by router ownership reconstructs the monolithic state.
  /// Analysis opt-out: the store pointee is guarded by Shard::state_mu,
  /// but this accessor's contract is quiescence (post-Flush, no batch in
  /// flight), not a lock — taking state_mu here would hand the caller an
  /// unprotected reference anyway.
  const core::NodeStateStore& state_store(int shard) const
      APAN_NO_THREAD_SAFETY_ANALYSIS {
    return *shards_[static_cast<size_t>(shard)]->store;
  }
  /// Latency of the synchronous path per batch (what the user waits for).
  const obs::Histogram& sync_latency() const { return *ins_.stage_sync; }
  /// The registry this engine's metrics live in (Options::registry, or
  /// the engine-owned default). Scrape after Flush for exact totals.
  obs::Registry* registry() const { return registry_; }

 private:
  /// Shared per-batch bookkeeping for the in-process job path, read-only
  /// once built: the whole batch, which every shard appends to its
  /// replica, and the synchronous link's embedding matrix, which every
  /// home shard reads its events' z rows from. (The apply barrier lives in
  /// apply_remaining_, keyed by batch — ShardPartials cross the transport
  /// and cannot carry pointers.)
  struct BatchContext {
    int64_t batch = 0;
    std::vector<graph::Event> events;
    /// {unique nodes, d} row-major: each of the batch's nodes encoded once.
    std::vector<float> embeddings;
  };

  /// A batch's home-events slice for one shard, or a control job. Jobs
  /// stay in-process (they carry the caller's encoder output); only
  /// ShardPartials travel the transport.
  struct BatchJob {
    std::shared_ptr<BatchContext> ctx;
    /// The home events, their endpoints' rows in ctx->embeddings, and
    /// their global batch positions — core::InteractionRows, by column.
    std::vector<graph::Event> events;
    std::vector<int64_t> src_row;
    std::vector<int64_t> dst_row;
    std::vector<int64_t> event_index;
    /// Set for a control job (reset, snapshot, restore), which runs this
    /// on the owning worker instead of propagating a batch. Routing it
    /// through the inbox keeps every worker-confined field (merge cursor,
    /// graph replica) single-threaded.
    std::function<Status(int shard_id)> control;
    /// Control-job outcome, written by the worker before it decrements
    /// inflight_ under flush_mu_ — the same lock the submitting caller
    /// waits on, so the write is ordered before the caller's read.
    Status* control_status = nullptr;
  };

  struct Shard {
    /// Guards the *pointee* of `store` between the encode pool
    /// (synchronous link) and this shard's worker (batch application).
    /// The pointer itself is set once at construction and never reseated.
    util::Mutex state_mu;
    /// This shard's mutable node state: its mailbox slice + z(t−) rows,
    /// dense over the nodes the router assigns to it. Exclusively owned —
    /// no other shard (and not the model) ever touches these bytes.
    std::unique_ptr<core::NodeStateStore> store APAN_PT_GUARDED_BY(state_mu);

    /// Inbox lock. Jobs are bounded by Options::queue_capacity (client
    /// back-pressure); messages are unbounded (see deadlock note above).
    /// Lock order: a worker or caller holding `mu` never acquires another
    /// shard's `mu`, `state_mu`, or any engine mutex — inbox critical
    /// sections are push/pop only.
    util::Mutex mu;
    util::CondVar cv;
    std::deque<BatchJob> jobs APAN_GUARDED_BY(mu);
    std::deque<ShardPartial> mail APAN_GUARDED_BY(mu);
    size_t jobs_in_flight APAN_GUARDED_BY(mu) = 0;  ///< Queued + running.
    bool closed APAN_GUARDED_BY(mu) = false;

    /// This worker's full copy of the temporal graph (worker thread
    /// only): sampled for its home events, then appended every batch.
    std::unique_ptr<graph::AdjacencyReplica> replica;

    /// Worker-local per-batch reassembly (worker thread only).
    std::map<int64_t, std::vector<ShardPartial>> pending;
    int64_t next_merge = 0;

    std::thread worker;
  };

  void WorkerLoop(int shard_id) APAN_EXCLUDES(flush_mu_);
  void ProcessJob(int shard_id, BatchJob job) APAN_EXCLUDES(flush_mu_);
  /// Worker-side halves of SnapshotShard / RestoreShard: they run on the
  /// shard's own thread so the worker-confined merge cursor and graph
  /// replica stay thread-local.
  Status SnapshotShardLocal(int shard_id, int64_t next_batch,
                            int64_t next_ordinal, const std::string& path);
  Status RestoreShardLocal(int shard_id, const snapshot::ShardSnapshot& snap);
  /// The one control-job path (ResetState, SnapshotShard, RestoreShard):
  /// Flush, run `control` on `shard`'s worker, wait for it, return the
  /// Status it produced. Held infer_mu_ keeps InferBatch (and other
  /// control callers) out for the whole round trip.
  Status RunControlJob(int shard, std::function<Status(int shard_id)> control)
      APAN_REQUIRES(infer_mu_) APAN_EXCLUDES(flush_mu_);
  void OnMail(int shard_id, ShardPartial partial) APAN_EXCLUDES(flush_mu_);
  void ApplyMergedBatch(int shard_id, std::vector<ShardPartial> parts)
      APAN_EXCLUDES(flush_mu_);
  /// Splits a job's propagation output and z(t−) write-backs by owner
  /// into one ShardPartial per shard, sends the cross-shard ones, and
  /// returns the one addressed to `from_shard` (applied by the caller
  /// after the route stage is timed).
  ShardPartial RouteMail(int from_shard, const BatchJob& job,
                         core::RowBlock&& hop0, core::RowBlock&& partial)
      APAN_EXCLUDES(flush_mu_);
  /// Hands one partial to the transport (which delivers it through
  /// EnqueueMessage, possibly on another thread, possibly more than
  /// once) — or, addressed to the sending shard itself, straight to
  /// OnMail — or sheds it when either end is down or the lane is dead
  /// beyond the transport's own recovery. Worker thread only.
  void SendPartial(int from_shard, int to_shard, ShardPartial partial)
      APAN_EXCLUDES(flush_mu_);
  /// Retires the application leg of `batch` on `to_shard` after a
  /// ShardPartial to it was shed: erases the peer from the batch's
  /// apply_remaining_ set and decrements inflight_ if the leg was still
  /// present, so Flush cannot wedge on a merge the dead peer will never
  /// perform.
  void CompensateLostPartial(int to_shard, int64_t batch)
      APAN_EXCLUDES(flush_mu_);
  /// Transport delivery handler: pushes onto the target shard's inbox.
  void EnqueueMessage(int to_shard, ShardPartial message);
  void CountDuplicateDropped(int shard_id);

  /// k-hop expansion of a job's events from the shard's own replica,
  /// which holds exactly the batches before the job's (sampling runs
  /// before the job's append).
  std::vector<std::vector<graph::HopEntry>> SampleKHop(int shard_id,
                                                       const BatchJob& job);

  /// Const-only while running: weights are read through model_->weights();
  /// all mutable serve state lives in the per-shard stores above.
  const core::ApanModel* model_;
  Options options_;
  /// The ONE ownership index of this engine, shared by the router and
  /// every per-shard NodeStateStore (element-identical maps, stored once).
  /// Options::partition, or the canonical hash when none was given.
  /// Declared before router_: it consumes it at construction.
  std::shared_ptr<const graph::NodePartition> partition_;
  ShardRouter router_;
  std::unique_ptr<Transport> transport_;
  ThreadPool encode_pool_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Per-shard down flags (SetShardDown), sized num_shards at
  /// construction and never resized. Atomics because the readers span
  /// lock domains — InferBatch under infer_mu_, SendPartial on worker
  /// threads under no engine lock — and the flag
  /// only flips at a flushed quiescent point, so relaxed reads suffice.
  std::vector<std::atomic<bool>> shard_down_;

  /// Serializes Shutdown callers end-to-end. Outermost engine lock:
  /// Shutdown holds it while taking infer_mu_ (and, via Flush, flush_mu_).
  util::Mutex shutdown_mu_;
  bool joined_ APAN_GUARDED_BY(shutdown_mu_) = false;

  /// Serializes InferBatch callers (stream-order contract) and guards the
  /// shutdown flag + batch/ordinal sequencing.
  util::Mutex infer_mu_ APAN_ACQUIRED_AFTER(shutdown_mu_);
  bool shutdown_ APAN_GUARDED_BY(infer_mu_) = false;
  int64_t next_batch_ APAN_GUARDED_BY(infer_mu_) = 0;
  int64_t next_ordinal_ APAN_GUARDED_BY(infer_mu_) = 0;  ///< Events accepted.
  /// Timestamp of the last accepted event: InferBatch refuses anything
  /// older. ResetState rewinds it; RestoreShard adopts the image's.
  double last_timestamp_ APAN_GUARDED_BY(infer_mu_) =
      -std::numeric_limits<double>::infinity();
  /// False until the first accepted batch. Gates RestoreShard under a
  /// duplicating transport: restoring a virgin engine rewinds nothing, so
  /// there is no pre-restore frame a rewound replay tag could re-accept —
  /// which is how a fresh engine rejoins from snapshots even when its
  /// transport cannot promise exactly-once.
  bool ingested_since_start_ APAN_GUARDED_BY(infer_mu_) = false;

  /// Outstanding work legs for Flush: each accepted batch contributes
  /// num_shards sampling legs + num_shards application legs. Innermost
  /// engine lock (see the ACQUIRED_AFTER chain).
  mutable util::Mutex flush_mu_ APAN_ACQUIRED_AFTER(infer_mu_);
  util::CondVar flush_cv_;
  int64_t inflight_ APAN_GUARDED_BY(flush_mu_) = 0;
  /// Apply barrier per in-flight batch: the exact set of shards yet to
  /// merge it; the last shard to leave the set completes the batch. A set
  /// (not a count) so that shedding a partial destined to a dead peer can
  /// retire precisely the legs that were counted at ingest — a batch
  /// ingested while a shard was already down never put that shard in its
  /// set, so double-compensation is structurally impossible.
  std::map<int64_t, std::set<int>> apply_remaining_ APAN_GUARDED_BY(flush_mu_);

  /// Metric handles, resolved once at construction (the registry owns the
  /// metrics; handles are stable and lock-free). Counters are the stats()
  /// substrate — the old mutexed Stats fields migrated here, one cell per
  /// shard where the writer is per-shard. Stage histograms and queue
  /// gauges are live only when Options::stage_metrics is set.
  struct Instruments {
    obs::Counter* batches_ingested = nullptr;   ///< 1 cell (caller thread)
    obs::Counter* batches_propagated = nullptr;  ///< cell = completing shard
    obs::Counter* batches_rejected = nullptr;   ///< 1 cell
    obs::Counter* mails_routed = nullptr;       ///< cell = sender shard
    obs::Counter* mails_cross_shard = nullptr;  ///< cell = sender shard
    obs::Counter* mails_dropped = nullptr;      ///< 1 cell
    obs::Counter* duplicates_dropped = nullptr;  ///< cell = dropping shard
    obs::Counter* events_homed = nullptr;        ///< cell = home shard
    obs::Counter* events_shed = nullptr;         ///< cell = down home shard
    obs::Counter* sends_shed = nullptr;          ///< cell = destination
    obs::Gauge* job_depth = nullptr;        ///< per-shard inbox depth
    obs::Gauge* job_highwater = nullptr;
    obs::Gauge* mail_depth = nullptr;
    obs::Gauge* mail_highwater = nullptr;
    obs::Gauge* merge_pending_highwater = nullptr;  ///< per-shard
    obs::Histogram* stage_sync = nullptr;   ///< cell 0 (always recorded)
    obs::Histogram* stage_merge = nullptr;  ///< per-shard (always recorded)
    obs::Histogram* stage_encode = nullptr;
    obs::Histogram* stage_append = nullptr;
    obs::Histogram* stage_sample = nullptr;
    obs::Histogram* stage_propagate = nullptr;
    obs::Histogram* stage_route = nullptr;
    obs::Histogram* stage_idle = nullptr;
    obs::Histogram* stage_finalize = nullptr;
  };
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  Instruments ins_;
  bool stage_metrics_ = true;
};

}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_SHARDED_ENGINE_H_
