// The pluggable shard-to-shard messaging plane.
//
// serve::ShardedEngine routes every cross-shard interaction — hop lists,
// one ShardPartial per (sender, recipient, batch) with sender !=
// recipient — through a Transport. A
// shard's list to itself never touches the transport. The engine only
// assumes:
//
//   · exactly-once delivery: every accepted Send is delivered once, and
//     only once, before Stop() returns. A Send that fails delivers
//     nothing; the engine then hands the recipient an empty list in its
//     place and marks it down for later batches, and replaces the whole
//     transport at the next resync. A re-delivery is a broken transport,
//     and the engine aborts on it;
//   · thread-safe Send from any engine thread, and a handler that may be
//     invoked from any transport thread (the engine's inbox push is
//     mutex-guarded);
//   · no ordering at all: per-batch reassembly and the in-order merge
//     cursor reconstruct every order that matters (docs/serving.md,
//     "Transport plane").
//
// Implementations:
//   · InProcessTransport — Send invokes the handler synchronously on the
//     calling thread, preserving the pre-transport deque semantics
//     byte-for-byte (no serialization, no copies, per-lane FIFO).
//   · UnixSocketTransport — each directed (sender → receiver) lane
//     between two distinct shards is a SOCK_STREAM socketpair carrying
//     wire.h frames, with one reader thread per lane decoding into the
//     handler: N×(N−1) lanes for N shards. The shards still share a
//     process, but no message crosses a shard boundary through shared
//     memory — the step that lets a future PR put shards in separate
//     processes by swapping socketpair() for connected AF_UNIX/TCP
//     sockets. Unavailable() on platforms without AF_UNIX.
//   · FaultyTransport — a decorator that delays and reorders messages
//     under a seeded RNG; the determinism soak tests run the engine over
//     it to prove per-batch reassembly absorbs an adversarial ordering.

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
  /// Sends whose lane write failed (a dead peer) and returned a non-OK
  /// Status. Per directed lane, like the others.
  obs::Counter* send_failures = nullptr;
  int num_shards = 0;

  bool valid() const {
    return frames != nullptr && bytes != nullptr && syscalls != nullptr &&
           send_failures != nullptr && num_shards > 0;
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

  /// Queues `message` for delivery to `to_shard`. Every ordered pair of
  /// distinct shards is a lane; there is no self-lane — a shard applies
  /// its own partial directly — so from_shard == to_shard is
  /// InvalidArgument, as is an out-of-range id. Fails after Stop.
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

/// \brief Every directed lane between two distinct shards is a
/// Unix-domain stream socket carrying length-prefixed wire.h frames; one
/// reader thread per lane.
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

  /// \brief Fault-injection hook for the robustness tests: simulates the
  /// (from → to) lane's peer dying by shutting the receive side down. The
  /// lane's reader exits, and the next write on the lane fails with EPIPE,
  /// which Send returns as IoError; the lane then stays closed. Must not
  /// race Stop or a concurrent kill of the same lane.
  Status KillLaneForTest(int from_shard, int to_shard);

 private:
  struct Lane {
    /// Serializes writers (a fault decorator's flusher can race the
    /// worker) and guards write_fd against the closes in Stop and after a
    /// failed write.
    util::Mutex write_mu;
    int write_fd APAN_GUARDED_BY(write_mu) = -1;
    /// Reader-thread-confined until Stop joins the reader; never raced.
    int read_fd = -1;
    std::thread reader;
  };

  /// Send's tail: one locked write loop for a fully serialized frame.
  /// A failed write (peer death: EPIPE/ECONNRESET) is surfaced as
  /// IoError at once, never a signal or a crash, and bumps the lane's
  /// send_failures cell. A frame cut off mid-write is discarded by the
  /// dying reader, so a failed Send delivers nothing.
  Status WriteFrame(int from_shard, int to_shard,
                    const std::vector<uint8_t>& frame);

  /// Lanes are packed per sender, skipping the absent self-lane.
  Lane& LaneFor(int from_shard, int to_shard) {
    const int slot = to_shard < from_shard ? to_shard : to_shard - 1;
    return *lanes_[static_cast<size_t>(from_shard) *
                       static_cast<size_t>(num_shards_ - 1) +
                   static_cast<size_t>(slot)];
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
/// be held back for a random interval — a background flusher releases due
/// messages in shuffled order, so deliveries reorder across and within
/// lanes. Stop releases everything still held before stopping the inner
/// transport: faults degrade ordering, never delivery or multiplicity.
class FaultyTransport : public Transport {
 public:
  struct Options {
    uint64_t seed = 1;
    /// Probability a message is held back instead of sent inline.
    double delay_probability = 0.5;
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
  /// too.
  void SetMetrics(const TransportMetrics& metrics) override {
    inner_->SetMetrics(metrics);
  }

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
  int num_shards_ = 0;
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
