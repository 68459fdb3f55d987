#include "serve/transport.h"

#include <algorithm>
#include <utility>

#include "serve/wire.h"

#if defined(__unix__) || defined(__APPLE__)
#define APAN_HAVE_AF_UNIX 1
#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>
#else
#define APAN_HAVE_AF_UNIX 0
#endif

namespace apan {
namespace serve {

namespace {

// Every transport's lane check: ids in range, and no self-lane.
Status CheckLane(int from_shard, int to_shard, int num_shards) {
  if (from_shard < 0 || from_shard >= num_shards || to_shard < 0 ||
      to_shard >= num_shards) {
    return Status::InvalidArgument("shard id out of range");
  }
  if (from_shard == to_shard) {
    return Status::InvalidArgument(internal::StrCat(
        "no self-lane: shard ", from_shard,
        " applies its own partials without the transport"));
  }
  return Status::OK();
}

}  // namespace

// ---- InProcessTransport ----------------------------------------------------

Status InProcessTransport::Start(int num_shards, Handler handler) {
  if (started_) return Status::FailedPrecondition("transport already started");
  if (num_shards <= 0 || handler == nullptr) {
    return Status::InvalidArgument("Start needs shards > 0 and a handler");
  }
  num_shards_ = num_shards;
  handler_ = std::move(handler);
  started_ = true;
  return Status::OK();
}

Status InProcessTransport::Send(int from_shard, int to_shard,
                                ShardPartial message) {
  if (!started_ || stopped_) {
    return Status::FailedPrecondition("transport is not running");
  }
  APAN_RETURN_NOT_OK(CheckLane(from_shard, to_shard, num_shards_));
  if (metrics_.valid()) {
    metrics_.frames->Add(metrics_.lane(from_shard, to_shard), 1);
  }
  handler_(to_shard, std::move(message));
  return Status::OK();
}

// ---- UnixSocketTransport ---------------------------------------------------

bool UnixSocketTransport::Available() { return APAN_HAVE_AF_UNIX != 0; }

#if APAN_HAVE_AF_UNIX

namespace {

// A dead peer must surface as a Status on the writer's thread, not as a
// process-wide SIGPIPE: pass MSG_NOSIGNAL where the platform has it, and
// fall back to marking the socket itself on ones that spell it
// SO_NOSIGPIPE (macOS). One of the two exists everywhere AF_UNIX does.
ssize_t SendSome(int fd, const uint8_t* data, size_t size) {
#if defined(MSG_NOSIGNAL)
  return ::send(fd, data, size, MSG_NOSIGNAL);
#else
  return ::write(fd, data, size);
#endif
}

void SuppressSigpipe(int fd) {
#if !defined(MSG_NOSIGNAL) && defined(SO_NOSIGPIPE)
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  static_cast<void>(fd);
#endif
}

}  // namespace

UnixSocketTransport::~UnixSocketTransport() { Stop(); }

Status UnixSocketTransport::Start(int num_shards, Handler handler) {
  if (started_) return Status::FailedPrecondition("transport already started");
  if (num_shards <= 0 || handler == nullptr) {
    return Status::InvalidArgument("Start needs shards > 0 and a handler");
  }
  num_shards_ = num_shards;
  handler_ = std::move(handler);
  // One lane per ordered pair of distinct shards: N×(N−1).
  const size_t lane_count = static_cast<size_t>(num_shards) *
                            static_cast<size_t>(num_shards - 1);
  lanes_.reserve(lane_count);
  for (size_t i = 0; i < lane_count; ++i) {
    auto lane = std::make_unique<Lane>();
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      const int err = errno;
      for (auto& open_lane : lanes_) {
        // No reader threads exist yet, but write_fd's lock discipline is
        // declared unconditionally — take the (uncontended) lock.
        util::MutexLock lock(open_lane->write_mu);
        ::close(open_lane->write_fd);
        ::close(open_lane->read_fd);
      }
      lanes_.clear();
      return Status::IoError(
          internal::StrCat("socketpair failed: errno ", err));
    }
    SuppressSigpipe(fds[0]);
    {
      util::MutexLock lock(lane->write_mu);
      lane->write_fd = fds[0];
    }
    lane->read_fd = fds[1];
    lanes_.push_back(std::move(lane));
  }
  for (int from = 0; from < num_shards; ++from) {
    for (int to = 0; to < num_shards; ++to) {
      if (from == to) continue;
      Lane* lane = &LaneFor(from, to);
      lane->reader = std::thread([this, lane, to] { ReaderLoop(lane, to); });
    }
  }
  started_ = true;
  return Status::OK();
}

void UnixSocketTransport::ReaderLoop(Lane* lane, int to_shard) {
  // 1 = got n bytes, 0 = clean EOF before the first byte, -1 = error or
  // EOF mid-read.
  const auto read_exact = [lane](uint8_t* buf, size_t n) -> int {
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::read(lane->read_fd, buf + got, n - got);
      if (r == 0) return got == 0 ? 0 : -1;
      if (r < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      got += static_cast<size_t>(r);
    }
    return 1;
  };

  std::vector<uint8_t> payload;
  while (true) {
    uint8_t header[wire::kFrameHeaderBytes];
    const int header_read = read_exact(header, sizeof(header));
    if (header_read == 0) return;  // write side closed at a frame boundary
    // A mid-frame EOF or read error is a dead lane (peer death), not a
    // protocol bug: exit instead of taking the process with it. The
    // truncated frame is discarded — its writer saw the failure as a
    // Status, and the engine sheds what it carried.
    if (header_read != 1) return;
    Result<uint32_t> length =
        wire::DecodeFrameLength(std::span<const uint8_t, 4>(header));
    APAN_CHECK_MSG(length.ok(), length.status().ToString());
    payload.resize(*length);
    if (read_exact(payload.data(), payload.size()) != 1) return;
    Result<ShardPartial> message = wire::DecodeMessage(payload);
    APAN_CHECK_MSG(message.ok(), message.status().ToString());
    handler_(to_shard, std::move(*message));
  }
}

Status UnixSocketTransport::WriteFrame(int from_shard, int to_shard,
                                       const std::vector<uint8_t>& frame) {
  Lane& lane = LaneFor(from_shard, to_shard);
  util::MutexLock lock(lane.write_mu);
  if (lane.write_fd < 0) {
    return Status::FailedPrecondition("uds lane is closed");
  }
  const int cell = metrics_.valid() ? metrics_.lane(from_shard, to_shard) : 0;
  size_t sent = 0;
  int64_t write_calls = 0;
  while (sent < frame.size()) {
    const ssize_t w =
        SendSome(lane.write_fd, frame.data() + sent, frame.size() - sent);
    ++write_calls;
    if (w < 0) {
      if (errno == EINTR) continue;
      // Peer death (EPIPE/ECONNRESET) or any other refusal. The lane
      // closes for good: a partial frame stranded in the socket then ends
      // in EOF and its reader discards it, so the failed Send delivers
      // nothing and no later frame can land behind the fragment.
      const int err = errno;
      ::close(lane.write_fd);
      lane.write_fd = -1;
      if (metrics_.valid()) metrics_.send_failures->Add(cell, 1);
      return Status::IoError(
          internal::StrCat("uds lane write failed: errno ", err));
    }
    sent += static_cast<size_t>(w);
  }
  if (metrics_.valid()) {
    metrics_.frames->Add(cell, 1);
    metrics_.bytes->Add(cell, static_cast<int64_t>(frame.size()));
    metrics_.syscalls->Add(cell, write_calls);
  }
  return Status::OK();
}

Status UnixSocketTransport::Send(int from_shard, int to_shard,
                                 ShardPartial message) {
  if (!started_) return Status::FailedPrecondition("transport not started");
  APAN_RETURN_NOT_OK(CheckLane(from_shard, to_shard, num_shards_));
  std::vector<uint8_t> frame;
  wire::AppendFrame(message, &frame);
  return WriteFrame(from_shard, to_shard, frame);
}

void UnixSocketTransport::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Closing the write side delivers EOF to the reader *after* every byte
  // already written — a stream socket never drops queued data on a
  // SHUT_WR-style close — so readers drain all accepted frames, then exit.
  for (auto& lane : lanes_) {
    util::MutexLock lock(lane->write_mu);
    if (lane->write_fd >= 0) ::close(lane->write_fd);
    lane->write_fd = -1;
  }
  for (auto& lane : lanes_) {
    if (lane->reader.joinable()) lane->reader.join();
  }
  for (auto& lane : lanes_) {
    ::close(lane->read_fd);
    lane->read_fd = -1;
  }
}

Status UnixSocketTransport::KillLaneForTest(int from_shard, int to_shard) {
  if (!started_ || stopped_) {
    return Status::FailedPrecondition("transport is not running");
  }
  APAN_RETURN_NOT_OK(CheckLane(from_shard, to_shard, num_shards_));
  Lane& lane = LaneFor(from_shard, to_shard);
  util::MutexLock lock(lane.write_mu);
  if (lane.write_fd < 0) {
    return Status::FailedPrecondition("lane already torn down");
  }
  // Receive-side shutdown is what a peer process death looks like from
  // this end: the reader sees EOF and exits, anything queued but unread
  // is gone, and the next write on the lane comes back EPIPE.
  ::shutdown(lane.read_fd, SHUT_RDWR);
  return Status::OK();
}

#else  // !APAN_HAVE_AF_UNIX

UnixSocketTransport::~UnixSocketTransport() = default;

Status UnixSocketTransport::Start(int, Handler) {
  return Status::NotImplemented("AF_UNIX is unavailable on this platform");
}

Status UnixSocketTransport::Send(int, int, ShardPartial) {
  return Status::NotImplemented("AF_UNIX is unavailable on this platform");
}

Status UnixSocketTransport::WriteFrame(int, int,
                                       const std::vector<uint8_t>&) {
  return Status::NotImplemented("AF_UNIX is unavailable on this platform");
}

Status UnixSocketTransport::KillLaneForTest(int, int) {
  return Status::NotImplemented("AF_UNIX is unavailable on this platform");
}

void UnixSocketTransport::Stop() {}

#endif  // APAN_HAVE_AF_UNIX

// ---- FaultyTransport -------------------------------------------------------

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 Options options)
    : inner_(std::move(inner)), options_(options), rng_(options.seed) {
  APAN_CHECK(inner_ != nullptr);
}

FaultyTransport::~FaultyTransport() { Stop(); }

Status FaultyTransport::Start(int num_shards, Handler handler) {
  if (started_) return Status::FailedPrecondition("transport already started");
  APAN_RETURN_NOT_OK(inner_->Start(num_shards, std::move(handler)));
  num_shards_ = num_shards;
  flusher_ = std::thread([this] { FlusherLoop(); });
  started_ = true;
  return Status::OK();
}

Status FaultyTransport::Send(int from_shard, int to_shard,
                             ShardPartial message) {
  if (!started_) return Status::FailedPrecondition("transport not started");
  // Refused up front: a held message would only fail later, on the
  // flusher.
  APAN_RETURN_NOT_OK(CheckLane(from_shard, to_shard, num_shards_));
  {
    util::MutexLock lock(mu_);
    if (stop_) return Status::FailedPrecondition("transport is stopped");
    if (rng_.Bernoulli(options_.delay_probability)) {
      const auto delay = std::chrono::microseconds(rng_.UniformInt(
          int64_t{0}, std::max<int64_t>(options_.max_delay_micros, 0)));
      held_.push_back({std::chrono::steady_clock::now() + delay, from_shard,
                       to_shard, std::move(message)});
      return Status::OK();
    }
  }
  return inner_->Send(from_shard, to_shard, std::move(message));
}

Status FaultyTransport::FlushDue(bool drain) {
  std::vector<Held> due;
  {
    util::MutexLock lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    auto keep = held_.begin();
    for (auto it = held_.begin(); it != held_.end(); ++it) {
      if (drain || it->release <= now) {
        due.push_back(std::move(*it));
      } else {
        // Guard against self-move: moving an element onto itself empties
        // the vectors inside the message while keeping its tags, which
        // would silently deliver a hollowed frame.
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    held_.erase(keep, held_.end());
    // Shuffled release on top of random hold times: two messages held on
    // the same lane can come back in either order.
    rng_.Shuffle(&due);
  }
  for (Held& h : due) {
    APAN_RETURN_NOT_OK(
        inner_->Send(h.from_shard, h.to_shard, std::move(h.message)));
  }
  return Status::OK();
}

void FaultyTransport::FlusherLoop() {
  const auto period = std::chrono::microseconds(
      std::max<int64_t>(options_.flush_period_micros, 1));
  while (true) {
    {
      util::MutexLock lock(mu_);
      // A spurious wake just flushes one period early — the period is a
      // polling cadence, not a correctness deadline — so one timed wait
      // (no predicate loop) is enough here.
      if (!stop_) cv_.WaitFor(mu_, period);
      if (stop_) return;
    }
    const Status flushed = FlushDue(/*drain=*/false);
    APAN_CHECK_MSG(flushed.ok(), flushed.ToString());
  }
}

void FaultyTransport::Stop() {
  if (!flusher_.joinable()) return;
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  flusher_.join();
  // Faults degrade ordering, never delivery: everything
  // still held goes out before the inner transport is allowed to drain.
  const Status drained = FlushDue(/*drain=*/true);
  APAN_CHECK_MSG(drained.ok(), drained.ToString());
  inner_->Stop();
}

// ---- Factories -------------------------------------------------------------

Result<TransportKind> ParseTransportKind(std::string_view name) {
  if (name == "inproc") return TransportKind::kInProcess;
  if (name == "uds") return TransportKind::kUnixSocket;
  return Status::InvalidArgument(internal::StrCat(
      "unknown transport \"", std::string(name), "\" (inproc|uds)"));
}

TransportFactory MakeTransportFactory(TransportKind kind) {
  switch (kind) {
    case TransportKind::kUnixSocket:
      return [] { return std::make_unique<UnixSocketTransport>(); };
    case TransportKind::kInProcess:
    default:
      return [] { return std::make_unique<InProcessTransport>(); };
  }
}

}  // namespace serve
}  // namespace apan
