// The pluggable shard-to-shard messaging plane.
//
// serve::ShardedEngine routes every cross-shard interaction — mail
// partials and z(t−) write-backs, one ShardPartial per (sender,
// recipient, batch) — through a Transport. The engine only assumes:
//
//   · at-least-once delivery: every accepted Send is delivered at least
//     once before Stop() returns (duplicates are allowed — the engine
//     drops them by tag);
//   · thread-safe Send from any engine thread, and a handler that may be
//     invoked from any transport thread (the engine's inbox push is
//     mutex-guarded);
//   · no ordering at all: sequence-tag replay reconstructs every order
//     that matters (docs/serving.md, "Transport plane").
//
// Implementations:
//   · InProcessTransport — Send invokes the handler synchronously on the
//     calling thread, preserving the pre-transport deque semantics
//     byte-for-byte (no serialization, no copies, per-lane FIFO).
//   · UnixSocketTransport — each directed (sender → receiver) lane is a
//     SOCK_STREAM socketpair carrying wire.h frames, with one reader
//     thread per lane decoding into the handler. The shards still share a
//     process, but no message crosses a shard boundary through shared
//     memory — the step that lets a future PR put shards in separate
//     processes by swapping socketpair() for connected AF_UNIX/TCP
//     sockets. Unavailable() on platforms without AF_UNIX.
//   · FaultyTransport — a decorator that delays, reorders, and duplicates
//     messages under a seeded RNG; the determinism soak tests run the
//     engine over it to prove tag replay absorbs an adversarial network.

#ifndef APAN_SERVE_TRANSPORT_H_
#define APAN_SERVE_TRANSPORT_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/shard_message.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace apan {
namespace serve {

/// \brief Per-lane transport accounting handles, installed by the engine
/// before Start. Each counter has num_shards² cells — one per directed
/// (from, to) lane — so concurrent lane writers never share a cell.
/// frames counts accepted messages (one frame each); bytes counts
/// serialized frame bytes and syscalls counts ::write calls (both zero
/// for transports that never serialize, e.g. in-process delivery).
struct TransportMetrics {
  obs::Counter* frames = nullptr;
  obs::Counter* bytes = nullptr;
  obs::Counter* syscalls = nullptr;
  /// Robustness accounting, optional on top of valid(): lane_reconnects
  /// counts successful lane rebuilds after a peer death (one per rebuilt
  /// socketpair), send_failures counts Sends that returned a
  /// non-OK Status after exhausting reconnect attempts. Per directed
  /// lane, like the others. Null handles skip the count, not the retry.
  obs::Counter* lane_reconnects = nullptr;
  obs::Counter* send_failures = nullptr;
  int num_shards = 0;

  bool valid() const {
    return frames != nullptr && bytes != nullptr && syscalls != nullptr &&
           num_shards > 0;
  }
  int lane(int from_shard, int to_shard) const {
    return from_shard * num_shards + to_shard;
  }
};

/// \brief Moves ShardPartials between shards. Lifecycle: Start once, Send
/// from any thread, Stop once (idempotent; also run by the destructor).
class Transport {
 public:
  /// Delivery callback. May be invoked concurrently from transport
  /// threads; must not call back into the transport.
  using Handler = std::function<void(int to_shard, ShardPartial message)>;

  virtual ~Transport() = default;

  /// Registers the delivery handler and brings up the lanes. Must be
  /// called exactly once, before any Send.
  virtual Status Start(int num_shards, Handler handler) = 0;

  /// Queues `message` for delivery to `to_shard`. Every shard pair is a
  /// lane, including from_shard == to_shard (self-mail takes the same
  /// path as foreign mail). Fails after Stop.
  virtual Status Send(int from_shard, int to_shard, ShardPartial message) = 0;

  /// Drains every accepted Send to its handler, then tears the lanes
  /// down. No Send may be in flight concurrently with Stop; after it
  /// returns no handler invocation is running or pending.
  virtual void Stop() = 0;

  virtual const char* name() const = 0;

  /// Installs per-lane accounting counters. Call before Start; the
  /// default ignores them (instrumentation is optional for transport
  /// authors). Decorators forward to their inner transport.
  virtual void SetMetrics(const TransportMetrics& metrics) {
    static_cast<void>(metrics);
  }

  /// True when every accepted Send is delivered exactly once (no
  /// duplication) — the in-process and socket lanes qualify; a
  /// fault-injecting decorator (or any future retrying transport) does
  /// not. Gates operations that rewind the engine's replay watermarks
  /// (ShardedEngine::ResetState): after a rewind, a re-delivered
  /// pre-rewind frame would be accepted as new rather than dropped by
  /// tag. Pure virtual on purpose: the safe default is to make every
  /// transport author declare this property, not inherit a permissive
  /// one.
  virtual bool exactly_once() const = 0;
};

/// Builds a fresh transport per engine (an engine owns its transport).
using TransportFactory = std::function<std::unique_ptr<Transport>()>;

/// \brief The pre-transport semantics: synchronous handler invocation on
/// the sender's thread.
class InProcessTransport : public Transport {
 public:
  Status Start(int num_shards, Handler handler) override;
  Status Send(int from_shard, int to_shard, ShardPartial message) override;
  void Stop() override { stopped_ = true; }
  const char* name() const override { return "inproc"; }
  void SetMetrics(const TransportMetrics& metrics) override {
    metrics_ = metrics;
  }
  /// Synchronous handler call: one delivery per Send, by construction.
  bool exactly_once() const override { return true; }

 private:
  Handler handler_;
  /// Frames only: nothing is serialized, so bytes/syscalls stay zero.
  TransportMetrics metrics_;
  int num_shards_ = 0;
  /// Start-before-Send and Send-after-Stop are caller contract
  /// violations; these flags turn them into Status, not UB. Sends are
  /// externally synchronized with Start/Stop per the lifecycle contract.
  bool started_ = false;
  bool stopped_ = false;
};

/// \brief Every directed lane is a Unix-domain stream socket carrying
/// length-prefixed wire.h frames; one reader thread per lane.
class UnixSocketTransport : public Transport {
 public:
  UnixSocketTransport() = default;
  ~UnixSocketTransport() override;

  /// False on platforms without AF_UNIX (tests skip, not fail).
  static bool Available();

  Status Start(int num_shards, Handler handler) override;
  Status Send(int from_shard, int to_shard, ShardPartial message) override;
  void Stop() override;
  const char* name() const override { return "uds"; }
  void SetMetrics(const TransportMetrics& metrics) override {
    metrics_ = metrics;
  }
  /// Lossless FIFO socketpair lanes: one frame per Send. Reconnect keeps
  /// this true — a rebuilt lane only ever re-sends a frame whose first
  /// copy died partially written, which the dying reader discarded.
  bool exactly_once() const override { return true; }

  /// \brief Fault-injection hook for the robustness tests: simulates the
  /// (from → to) lane's peer dying by shutting the receive side down.
  /// Queued-but-unread frames are discarded with the peer (exactly what a
  /// process death does), the lane's reader exits, and the next write
  /// observes EPIPE and takes the reconnect path. Must not race Stop or a
  /// concurrent kill of the same lane.
  Status KillLaneForTest(int from_shard, int to_shard);

 private:
  struct Lane {
    /// Serializes writers (a fault decorator's flusher can race the
    /// worker) and guards write_fd against the close in Stop.
    util::Mutex write_mu;
    int write_fd APAN_GUARDED_BY(write_mu) = -1;
    /// Reader-thread-confined until the reader is joined (by Stop, or by
    /// a reconnect rebuilding the lane under write_mu); never raced.
    int read_fd = -1;
    std::thread reader;
  };

  /// Send's tail: one locked write loop for a fully serialized frame.
  /// A failed write
  /// (peer death: EPIPE/ECONNRESET) is surfaced as Status, never a
  /// signal or a crash: the lane is rebuilt with capped exponential
  /// backoff and the frame retried; after the attempts are exhausted the
  /// caller gets IoError and the send_failures cell is bumped.
  Status WriteFrame(int from_shard, int to_shard,
                    const std::vector<uint8_t>& frame);
  /// Tears down and rebuilds one lane under its write lock: kicks the old
  /// reader off the dead socket, joins it, makes a fresh socketpair and
  /// respawns the reader. The joined reader hands read_fd back to this
  /// thread, so the fd swap is unraced by construction.
  Status ReconnectLaneLocked(Lane& lane, int to_shard)
      APAN_REQUIRES(lane.write_mu);

  Lane& LaneFor(int from_shard, int to_shard) {
    return *lanes_[static_cast<size_t>(from_shard) *
                       static_cast<size_t>(num_shards_) +
                   static_cast<size_t>(to_shard)];
  }
  void ReaderLoop(Lane* lane, int to_shard);

  Handler handler_;
  /// Frames + serialized bytes + ::write syscalls, per directed lane.
  TransportMetrics metrics_;
  int num_shards_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
  bool started_ = false;
  bool stopped_ = false;
};

/// \brief Fault-injecting decorator: under a seeded RNG, each message may
/// be duplicated and each copy may be held back for a random interval — a
/// background flusher releases due messages in shuffled order, so
/// deliveries reorder across and within lanes. Stop releases everything
/// still held before stopping the inner transport: faults degrade
/// ordering and multiplicity, never delivery.
class FaultyTransport : public Transport {
 public:
  struct Options {
    uint64_t seed = 1;
    /// Probability a message copy is held back instead of sent inline.
    double delay_probability = 0.5;
    /// Probability a message is sent twice (the duplicate is delayed
    /// independently).
    double duplicate_probability = 0.25;
    /// Held copies release after U[0, max_delay] microseconds.
    int64_t max_delay_micros = 2000;
    /// Flusher wake period.
    int64_t flush_period_micros = 100;
  };

  FaultyTransport(std::unique_ptr<Transport> inner, Options options);
  ~FaultyTransport() override;

  Status Start(int num_shards, Handler handler) override;
  Status Send(int from_shard, int to_shard, ShardPartial message) override
      APAN_EXCLUDES(mu_);
  void Stop() override APAN_EXCLUDES(mu_);
  const char* name() const override { return "faulty"; }
  /// The inner transport does the real moving; it does the accounting
  /// too (so injected duplicates are counted, as they cost real frames).
  void SetMetrics(const TransportMetrics& metrics) override {
    inner_->SetMetrics(metrics);
  }
  bool exactly_once() const override { return false; }

 private:
  struct Held {
    std::chrono::steady_clock::time_point release;
    int from_shard = 0;
    int to_shard = 0;
    ShardPartial message;
  };

  void FlusherLoop() APAN_EXCLUDES(mu_);
  /// Sends every held message whose deadline passed (all of them when
  /// `drain`), in RNG-shuffled order.
  Status FlushDue(bool drain) APAN_EXCLUDES(mu_);

  std::unique_ptr<Transport> inner_;
  Options options_;

  util::Mutex mu_;
  util::CondVar cv_;
  Rng rng_ APAN_GUARDED_BY(mu_);
  std::vector<Held> held_ APAN_GUARDED_BY(mu_);
  bool stop_ APAN_GUARDED_BY(mu_) = false;
  std::thread flusher_;
  bool started_ = false;
};

/// Named transports for --transport= flags.
enum class TransportKind { kInProcess, kUnixSocket };

/// "inproc" or "uds" → kind; anything else is InvalidArgument.
Result<TransportKind> ParseTransportKind(std::string_view name);

TransportFactory MakeTransportFactory(TransportKind kind);

}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_TRANSPORT_H_
