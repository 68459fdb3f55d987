// The serving engine — the paper's Figure 2(b) system architecture (a
// synchronous encode-and-score link, k-hop propagation on an asynchronous
// link) scaled out across a node partition (paper §3.6: "APAN can be
// deployed on distributed streaming systems ... mails may arrive out of
// order", which the mailbox absorbs by keeping each node's slots
// time-sorted at write). num_shards = 1 is the single-worker deployment.
//
// One graph::NodePartition index partitions the node space into N shards
// (canonical hash by default, or a locality-aware index via
// Options::partition) and answers every owner query. Each shard
// exclusively owns its nodes' mutable state — a core::NodeStateStore
// holding its mailbox slice and z(t−) rows — and its worker keeps a
// private, full graph::AdjacencyReplica of the temporal graph. The model
// itself is touched only through a const pointer (the weights are
// replicated, the state is partitioned): the engine never locks or writes
// a byte of ApanModel's mutable state while running, so the model's
// default store stays empty and Shard::state_mu guards genuinely
// shard-private memory — no false sharing on the synchronous link. Each
// shard has a bounded inbox of batch jobs and runs one propagation worker.
// The division of labour per batch:
//
//   Synchronous link (InferBatch, what the caller waits for)
//     · the batch's unique nodes, one embedding-matrix row each in owner
//       order, are encoded one shard slice per task (the caller runs one,
//       a thread pool the rest) — a task gathers its shard's rows under
//       that shard's state lock, then runs the encoder forward unlocked;
//     · link scores are decoded on the calling thread and returned.
//
//   Asynchronous link (per-shard workers, off the latency path)
//     · every worker receives the whole batch and its embedding matrix
//       (one shared BatchContext). Every event is homed on its source
//       endpoint's shard; the home shard samples the event's k-hop
//       neighbourhood (N) from the worker's own replica. Every worker
//       samples its home events first and then appends all of the
//       batch's events — the serial oracle's order — so a replica read
//       sees exactly batches 0..b-1 with no versioning and no shard ever
//       waits on another to sample;
//     · the home shard drops each sampled entry that is an endpoint of its
//       event and *routes* the rest — node ids only, split by owner — as
//       one CSR hop list (core::HopList) per recipient shard, a
//       ShardPartial. Cross-shard lists therefore arrive interleaved with
//       other shards' traffic — out of order by construction; a shard's
//       list to itself skips the transport;
//     · a recipient shard merges a batch once lists from every shard that
//       was up at ingest have arrived. It concatenates them in event
//       order and runs the serial path's kernel
//       (MailPropagator::PropagateRows: φ + f + ρ) over the shared
//       context, then, under its state lock, walks in order the batch's
//       events with an endpoint it owns (listed per shard at ingest),
//       writing each such endpoint's z(t−) row and hop-0 mail, and
//       delivers each ρ mean — exactly the per-node delivery order of the
//       serial ApanModel path.
//
// Transport plane: every cross-shard ShardPartial travels through a
// pluggable serve::Transport (Options::transport) — synchronous in-process
// delivery by default, or a Unix-domain-socket lane per ordered pair of
// distinct shards carrying serve/wire.h frames. The engine assumes
// exactly-once delivery with no ordering: a batch merges only once every
// sender's list is in, and a re-delivered list aborts the process as a
// broken transport. A Send that fails delivers nothing; the engine puts an
// empty list in its place, so the recipient still merges the batch, and
// marks the recipient down for later batches (MarkShardDown).
// With the state plane split into per-shard stores, nothing crosses a
// shard boundary through shared memory: a shard's entire mutable
// footprint (store + replica) is address-space independent, and only
// connected sockets separate this from a true multi-process deployment
// (docs/serving.md).
//
// Determinism: neighborhood expansion and per-node delivery order are
// reproduced exactly, and ρ is summed in one place — PropagateRows on the
// recipient, over the batch's hop lists in event order, the serial
// path's own order. So after Flush() the stitched mailbox timestamps and
// counts are bitwise the serial ApanModel path's (ProcessBatchPostInference,
// batch by batch) on the same stream, under every partition and
// transport; served flush-stepped (every encode sees settled state), so
// are the mail payload bytes, the z(t−) rows and the scores
// (tests/serve_sharded_test.cc, serve_transport_test.cc and the
// differential fuzz in serve_recovery_test.cc).
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
#include <span>
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
#include "serve/snapshot.h"
#include "serve/transport.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace apan {
namespace serve {

/// \brief Runs one ApanModel behind an N-shard partition of the node
/// space: per-shard mailbox/memory ownership, per-shard propagation
/// workers sampling private graph replicas, cross-shard mail routing over
/// a pluggable transport.
class ShardedEngine {
 public:
  struct Options {
    int num_shards = 4;
    /// Shared node-ownership index for routing and the state stores.
    /// Null means the canonical hash
    /// (graph::NodePartition::BuildDefault). Pass a
    /// NodePartition::BuildLocality index — built from a warmup prefix or
    /// a prior epoch's events — to keep k-hop propagation shard-local.
    /// Must cover exactly the model's node count with `num_shards` shards
    /// (CHECK-enforced). The served state equals the serial path's
    /// bitwise under any ownership map (see Determinism above): the
    /// partition decides who sums ρ for a node, never the order of the
    /// sum.
    std::shared_ptr<const graph::NodePartition> partition;
    /// Maximum in-flight batches per shard: at the cap, InferBatch waits
    /// for space (back-pressure on the caller). It also bounds how far
    /// decoupled workers drift apart, and with it the hop lists a fast
    /// shard parks for a slow one.
    size_t queue_capacity = 32;
    /// Builds the shard-to-shard message transport; null means
    /// InProcessTransport (the pre-transport deque semantics).
    TransportFactory transport;
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
  /// it const-only (weights and propagator): served state lands in the
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
  /// edge feature rows, or a non-finite timestamp; FailedPrecondition
  /// when the timestamps decrease within the batch or fall before the
  /// last accepted batch's. A refused batch leaves the engine unchanged.
  Result<InferenceResult> InferBatch(const std::vector<graph::Event>& events)
      APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// Blocks until every accepted batch has been sampled, routed, and
  /// applied on every shard.
  void Flush() APAN_EXCLUDES(flush_mu_);

  /// Drains all accepted work, stops the transport, then stops the
  /// workers (idempotent; also called by the destructor). Shutdown never
  /// loses accepted mail.
  void Shutdown() APAN_EXCLUDES(shutdown_mu_, infer_mu_, flush_mu_);

  /// \brief Resets all streaming state between epochs, mirroring
  /// ApanModel::ResetState for the sharded layout: flushes accepted work,
  /// then routes a reset through every shard's worker that zeroes its
  /// NodeStateStore, empties its graph replica, and rewinds its merge
  /// cursor; batch numbering restarts at 0 and every shard is up again,
  /// over rebuilt lanes if any shard was down.
  /// After it returns the engine reproduces a fresh engine bitwise on the
  /// same stream, under any transport: the internal flush leaves no frame
  /// in flight. Stats and latency recorders stay cumulative. Callers must
  /// not run InferBatch concurrently. No-op after Shutdown.
  void ResetState() APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// \brief Writes the engine's recovery point into directory `dir`
  /// (which must exist): one image per shard, snapshot::ShardPath(dir, s),
  /// each holding the shard's mail and z(t−) rows, its graph replica and
  /// the engine's batch watermark (serve/snapshot.h format). Flushes
  /// accepted work first, then runs every capture in one control round on
  /// the shards' own worker threads, so every worker-confined field is
  /// read by the one thread allowed to touch it. Each capture is written
  /// crash-atomically to `<ShardPath>.staged`; the staged set is renamed
  /// over the images only once all N writes succeeded, so a failed write
  /// leaves the previous point in `dir` whole. Restoring the set and
  /// replaying the event stream from its watermark reproduces the
  /// never-crashed state bitwise.
  /// \return FailedPrecondition while any shard is down (its state missed
  /// batches, so no consistent point exists) or after Shutdown; the
  /// write's IoError otherwise, with no staged file left behind.
  Status Snapshot(const std::string& dir)
      APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// \brief Restores every shard from a set written by Snapshot. Reads,
  /// decodes and validates all num_shards images before it changes
  /// anything: file s must hold shard s's image, all under this engine's
  /// shard count, node count, mailbox geometry and partition (the digest
  /// of the nodes each shard owns), and all at one point (one batch
  /// watermark, one replica). Then each shard's worker rebuilds its state
  /// through the mailbox write path (snapshot::InstallStore) and adopts
  /// its replica; every merge cursor and the batch numbering restart at
  /// the watermark, and every shard is up again, over rebuilt lanes if any
  /// shard was down. Like ResetState, it flushes first, so it is safe
  /// after ingest under any transport.
  /// \return IoError for a missing or corrupt file; InvalidArgument for an
  /// image of another topology or a mixed-point set — the engine is then
  /// unchanged; FailedPrecondition after Shutdown.
  Status Restore(const std::string& dir) APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// \brief Marks a shard down for graceful degradation. The one rule:
  /// the shards up when a batch is ingested are that batch's shards. A
  /// batch ingested while a shard is down gives it no job and waits for
  /// no list from it: the batch's records homed to it are shed (counted
  /// in Stats::events_shed) and lists addressed to it are dropped
  /// (Stats::sends_shed). Healthy shards write no z(t−) row and no mail
  /// for a shed event, and still sample nodes the down shard owns from
  /// their own replicas. Scores keep flowing — encoded against the down
  /// shard's frozen state. Flushes in-flight work before setting the
  /// flag, so the transition lands at a batch boundary. A down shard
  /// missed batches, so it stays down until a resync: ResetState or
  /// Restore. No-op after Shutdown.
  void MarkShardDown(int shard) APAN_EXCLUDES(infer_mu_, flush_mu_);

  struct Stats {
    int64_t batches_ingested = 0;
    /// Batches merged by every shard that was up when they were ingested.
    int64_t batches_propagated = 0;
    /// Always 0: a full inbox back-pressures the caller instead of
    /// refusing the batch. Kept so that readers of the old overflow
    /// counter still build.
    int64_t batches_rejected = 0;
    /// Mail routed: hop-0 deliveries (counted at the owner) plus routed
    /// hop entries, one per propagated copy (counted at the home shard).
    int64_t mails_routed = 0;
    /// Hop entries sent to a shard other than their home shard — the only
    /// thing that crosses shards; a subset of mails_routed.
    int64_t mails_cross_shard = 0;
    /// Always 0: every worker samples its own graph replica, so no
    /// frontier is ever forwarded to another shard. Kept so that readers
    /// of the old frontier counters still build.
    int64_t frontier_requests = 0;
    /// Always 0, for the same reason as frontier_requests.
    int64_t frontier_nodes_forwarded = 0;
    /// Always 0: the transport delivers exactly once, and a re-delivery
    /// aborts instead of being dropped. Kept so that readers of the old
    /// replay-drop counter still build.
    int64_t duplicates_dropped = 0;
    /// Interaction records homed to a down shard and shed whole while it
    /// was down (MarkShardDown). Zero in any run with no shard down.
    int64_t events_shed = 0;
    /// Hop lists shed at send — addressed to a shard that was down at
    /// ingest, or lost to a dead lane (the recipient then merges an empty
    /// list in its place). Zero in a healthy run.
    int64_t sends_shed = 0;
  };
  Stats stats() const;

  /// The engine's ownership index: ShardOf(node), HomeShardOf(event).
  const graph::NodePartition& router() const { return *partition_; }
  /// The transport the engine is running over ("inproc", "uds", ...).
  const char* transport_name() const { return transport_->name(); }
  /// One shard worker's graph replica (quiescent inspection: call after
  /// Flush).
  const graph::AdjacencyReplica& replica(int shard) const {
    return *shards_[static_cast<size_t>(shard)]->replica;
  }
  /// One shard's mutable node state — its mailbox slice + z(t−) rows
  /// (quiescent inspection: call after Flush). Stitching the per-shard
  /// stores by router().ShardOf ownership reconstructs the monolithic
  /// state.
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
  /// The engine-owned registry its metrics live in. Scrape after Flush
  /// for exact totals.
  obs::Registry* registry() const { return registry_.get(); }

 private:
  /// Shared per-batch bookkeeping, read-only once built: the whole batch,
  /// which every shard appends to its replica, the shards up at ingest,
  /// each shard's list of the events whose endpoints it writes at merge
  /// time, and the synchronous link's embedding matrix, which every shard
  /// reads z rows from. (The apply count lives in apply_remaining_, keyed
  /// by batch — ShardPartials cross the transport and cannot carry
  /// pointers.)
  struct BatchContext {
    int64_t batch = 0;
    /// Per shard, whether it was up when the batch was ingested: the
    /// batch's senders and mergers. A shard down at ingest gets no job,
    /// and lists addressed to it are dropped.
    std::vector<char> up;
    /// How many shards were up: the hop lists a merging shard waits for.
    int senders = 0;
    std::vector<graph::Event> events;
    /// {unique nodes, d}: each of the batch's nodes encoded once, rows in
    /// owner-shard order — the one matrix the encode tasks write, the
    /// decoder reads and every worker propagates from.
    tensor::Tensor embeddings;
    /// Each event's endpoint rows in `embeddings`.
    std::vector<int64_t> src_row;
    std::vector<int64_t> dst_row;
    /// Per shard, ascending: the events with an endpoint that shard owns
    /// whose home shard was up at ingest — the z(t−) rows and hop-0 mail
    /// its merge writes. Events homed on a down shard are shed.
    std::vector<std::vector<size_t>> owned_events;
  };

  /// A batch's home-events slice for one shard, or a control job. Jobs
  /// stay in-process (they carry the caller's encoder output); only
  /// ShardPartials travel the transport.
  struct BatchJob {
    std::shared_ptr<const BatchContext> ctx;
    /// Ascending indices into ctx->events of the events homed here: the
    /// ones this worker samples.
    std::vector<size_t> home;
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
    /// Guards the *pointee* of `store` between the synchronous link's
    /// gather (z(t−) rows and mailbox read of one encode slice — the
    /// encoder forward runs after the lock is released) and this shard's
    /// worker (batch application). The pointer itself is set once at
    /// construction and never reseated.
    util::Mutex state_mu;
    /// This shard's mutable node state: its mailbox slice + z(t−) rows,
    /// dense over the nodes the partition assigns to it. Exclusively
    /// owned — no other shard (and not the model) ever touches these bytes.
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

    /// Worker-local per-batch reassembly (worker thread only): the
    /// batch's context, stored when this worker runs the batch's job, and
    /// the hop lists received so far.
    struct PendingBatch {
      std::shared_ptr<const BatchContext> ctx;
      std::vector<ShardPartial> parts;
    };
    std::map<int64_t, PendingBatch> pending;
    int64_t next_merge = 0;

    std::thread worker;
  };

  void WorkerLoop(int shard_id) APAN_EXCLUDES(flush_mu_);
  void ProcessJob(int shard_id, BatchJob job) APAN_EXCLUDES(flush_mu_);
  /// Worker-side halves of Snapshot / Restore: they run on the shard's
  /// own thread so the worker-confined merge cursor and graph replica
  /// stay thread-local.
  Status SnapshotShardLocal(int shard_id, int64_t next_batch,
                            const std::string& path);
  void RestoreShardLocal(int shard_id, const snapshot::ShardSnapshot& snap);
  /// Checks one decoded image against this engine's topology: shard
  /// `shard`'s id, shard and node counts, mailbox geometry and partition.
  Status CheckImage(int shard, const snapshot::ShardSnapshot& snap) const;
  /// The one control round (ResetState, Snapshot, Restore): Flush, run
  /// `control` on every shard's worker at once, wait for all of them, and
  /// return the first non-OK Status in shard order. Held infer_mu_ keeps
  /// InferBatch (and other control callers) out for the whole round.
  Status RunControlJobs(const std::function<Status(int shard_id)>& control)
      APAN_REQUIRES(infer_mu_) APAN_EXCLUDES(flush_mu_);
  /// The tail of ResetState and Restore: runs `install` on every worker
  /// in one control round, marks every shard up and, when any shard was
  /// down, replaces the transport from Options::transport (a dead lane is
  /// never revived, so the lanes are rebuilt whole). An epoch reset with
  /// every shard up keeps its lanes.
  void Resync(const std::function<Status(int shard_id)>& install)
      APAN_REQUIRES(infer_mu_) APAN_EXCLUDES(flush_mu_);
  /// Builds a transport from Options::transport (InProcessTransport when
  /// unset), installs its per-lane counters and starts it.
  std::unique_ptr<Transport> StartTransport();
  void OnMail(int shard_id, ShardPartial partial) APAN_EXCLUDES(flush_mu_);
  /// Runs ReduceBatch, then writes the shard's own endpoints (z(t−) rows,
  /// hop-0 mail) from the batch's context and delivers its ρ means.
  void ApplyMergedBatch(int shard_id, Shard::PendingBatch batch)
      APAN_EXCLUDES(flush_mu_);
  /// Concatenates a batch's hop lists in event order and runs
  /// PropagateRows over the context: the ρ partial sums of this shard's
  /// recipients, ascending, not yet finalized. Takes no lock.
  core::RowBlock ReduceBatch(int shard_id, const Shard::PendingBatch& batch);
  /// Drops endpoint entries from a job's sample (home event j's entries
  /// are entries[entries_end[j - 1], entries_end[j])), splits the rest by
  /// owner into one hop list per shard, sends the cross-shard ones to the
  /// shards up at ingest (dropping the rest), and returns the one
  /// addressed to `from_shard` (applied by the caller after the route
  /// stage is timed).
  ShardPartial RouteMail(int from_shard, const BatchJob& job,
                         std::span<const graph::HopEntry> entries,
                         std::span<const size_t> entries_end)
      APAN_EXCLUDES(flush_mu_);
  /// Hands one cross-shard partial to the transport (which delivers it
  /// once through EnqueueMessage, possibly on another thread). When the
  /// recipient is down, or the write fails, the list is lost: the
  /// recipient is marked down for later batches and gets an empty list in
  /// its inbox instead, so it still merges this batch. Worker thread only.
  void SendPartial(int from_shard, int to_shard, ShardPartial partial)
      APAN_EXCLUDES(flush_mu_);
  /// Transport delivery handler: pushes onto the target shard's inbox.
  void EnqueueMessage(int to_shard, ShardPartial message);

  /// k-hop expansion of a job's home events from the shard's own
  /// replica, which holds exactly the batches before the job's (sampling
  /// runs before the job's append), appended to `entries`; home event j's
  /// expansion ends at (*entries_end)[j].
  void SampleKHop(int shard_id, const BatchJob& job,
                  std::vector<graph::HopEntry>* entries,
                  std::vector<size_t>* entries_end);

  /// Const-only while running: only weights and the propagator are read;
  /// all mutable serve state lives in the per-shard stores above.
  const core::ApanModel* model_;
  Options options_;
  /// The ONE ownership index of this engine: routing reads it and every
  /// per-shard NodeStateStore shares it (stored once).
  /// Options::partition, or the canonical hash when none was given.
  std::shared_ptr<const graph::NodePartition> partition_;
  /// Replaced only by Resync, at a flushed point where no worker is
  /// sending; the next job push (under the shard's inbox lock) publishes
  /// the new one to the workers.
  std::unique_ptr<Transport> transport_;
  ThreadPool encode_pool_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Per-shard down flags, sized num_shards at construction and never
  /// resized. InferBatch reads them once per batch into
  /// BatchContext::up; a flag set later affects later batches only.
  /// MarkShardDown sets one at a flushed point, a failed lane write sets
  /// one mid-batch (SendPartial), and Resync clears them all at a flushed
  /// point. Atomics because the readers span lock domains — InferBatch
  /// under infer_mu_, SendPartial on worker threads under no engine lock.
  /// Relaxed suffices: a sender that still sees a dead peer up writes
  /// into the dead lane once more and loses that list the same way.
  std::vector<std::atomic<bool>> shard_down_;

  /// Serializes Shutdown callers end-to-end. Outermost engine lock:
  /// Shutdown holds it while taking infer_mu_ (and, via Flush, flush_mu_).
  util::Mutex shutdown_mu_;
  bool joined_ APAN_GUARDED_BY(shutdown_mu_) = false;

  /// Serializes InferBatch callers (stream-order contract) and guards the
  /// shutdown flag + batch sequencing.
  util::Mutex infer_mu_ APAN_ACQUIRED_AFTER(shutdown_mu_);
  bool shutdown_ APAN_GUARDED_BY(infer_mu_) = false;
  int64_t next_batch_ APAN_GUARDED_BY(infer_mu_) = 0;
  /// Timestamp of the last accepted event: InferBatch refuses anything
  /// older. ResetState rewinds it; Restore adopts the images' replica's.
  double last_timestamp_ APAN_GUARDED_BY(infer_mu_) =
      -std::numeric_limits<double>::infinity();

  /// Outstanding work legs for Flush: each accepted batch contributes one
  /// sampling leg and one application leg per shard up at ingest, and
  /// every one of them runs. Innermost engine lock (see the
  /// ACQUIRED_AFTER chain).
  mutable util::Mutex flush_mu_ APAN_ACQUIRED_AFTER(infer_mu_);
  util::CondVar flush_cv_;
  int64_t inflight_ APAN_GUARDED_BY(flush_mu_) = 0;
  /// Per in-flight batch, how many of its shards have yet to merge it; the
  /// last merge counts the batch propagated.
  std::map<int64_t, int> apply_remaining_ APAN_GUARDED_BY(flush_mu_);

  /// Metric handles, resolved once at construction (the registry owns the
  /// metrics; handles are stable and lock-free). Counters are the stats()
  /// substrate — the old mutexed Stats fields migrated here, one cell per
  /// shard where the writer is per-shard. Stage histograms and queue
  /// gauges are live only when Options::stage_metrics is set.
  struct Instruments {
    obs::Counter* batches_ingested = nullptr;   ///< 1 cell (caller thread)
    obs::Counter* batches_propagated = nullptr;  ///< cell = completing shard
    obs::Counter* mails_routed = nullptr;  ///< cell = owner / home shard
    obs::Counter* mails_cross_shard = nullptr;  ///< cell = sender shard
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
  std::unique_ptr<obs::Registry> registry_ =
      std::make_unique<obs::Registry>();
  Instruments ins_;
  bool stage_metrics_ = true;
};

}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_SHARDED_ENGINE_H_
