#include "obs/trace.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace apan {
namespace obs {

// ----------------------------------------------------------- ValidateJson
// Minimal recursive-descent well-formedness check. Accepts exactly the
// JSON grammar (objects, arrays, strings with escapes, numbers, literals)
// with a depth cap; reports the byte offset of the first error.

namespace {

class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  bool Validate(std::string* error) {
    SkipWs();
    if (!Value(0)) return Fail(error);
    SkipWs();
    if (pos_ != text_.size()) {
      err_ = "trailing content";
      return Fail(error);
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 256;

  bool Fail(std::string* error) {
    if (error != nullptr) {
      std::ostringstream os;
      os << (err_.empty() ? "malformed JSON" : err_) << " at byte " << pos_;
      *error = os.str();
    }
    return err_.empty();
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Value(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return Object(depth);
      case '[':
        return Array(depth);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object(int depth) {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key");
      }
      if (!String()) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Err("expected ':'");
      }
      ++pos_;
      SkipWs();
      if (!Value(depth + 1)) return false;
      SkipWs();
      if (pos_ >= text_.size()) return Err("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Err("expected ',' or '}'");
    }
  }

  bool Array(int depth) {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value(depth + 1)) return false;
      SkipWs();
      if (pos_ >= text_.size()) return Err("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Err("expected ',' or ']'");
    }
  }

  bool String() {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("raw control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Err("dangling escape");
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + static_cast<size_t>(i) >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(
                    text_[pos_ + static_cast<size_t>(i)]))) {
              return Err("bad \\u escape");
            }
          }
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return Err("bad escape");
        }
      }
      ++pos_;
    }
    return Err("unterminated string");
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Err("bad literal");
      }
    }
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Err("expected value");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Err("bad fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Err("bad exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    return pos_ > start;
  }

  bool Err(const char* msg) {
    if (err_.empty()) err_ = msg;
    return false;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string err_;
};

}  // namespace

bool ValidateJson(std::string_view text, std::string* error) {
  return JsonScanner(text).Validate(error);
}

// ---------------------------------------------------------- TraceRecorder

struct TraceRecorder::ThreadBuffer {
  /// Immutable after creation (registration happens under the recorder's
  /// mu_); readable without `mu`.
  std::thread::id owner;
  int tid = 0;
  mutable util::Mutex mu;  ///< owner thread vs. flusher, flush-time only
  std::vector<TraceEvent> ring APAN_GUARDED_BY(mu);
  uint64_t total_written APAN_GUARDED_BY(mu) = 0;
};

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed
  return *recorder;
}

TraceRecorder::TraceRecorder()
    : epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::Enable() {
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

double TraceRecorder::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  const auto me = std::this_thread::get_id();
  // The global recorder outlives every thread, so its buffer pointer can
  // be cached in TLS. Local recorders (tests) may be destroyed while the
  // thread lives on — they pay the scan on every span instead.
  if (this == &Global()) {
    thread_local ThreadBuffer* cached = nullptr;
    if (cached != nullptr) return cached;
    util::MutexLock lock(mu_);
    for (const auto& b : buffers_) {
      if (b->owner == me) {
        cached = b.get();
        return cached;
      }
    }
    auto buf = std::make_unique<ThreadBuffer>();
    buf->owner = me;
    buf->tid = static_cast<int>(buffers_.size());
    cached = buf.get();
    buffers_.push_back(std::move(buf));
    return cached;
  }
  util::MutexLock lock(mu_);
  for (const auto& b : buffers_) {
    if (b->owner == me) return b.get();
  }
  auto buf = std::make_unique<ThreadBuffer>();
  buf->owner = me;
  buf->tid = static_cast<int>(buffers_.size());
  ThreadBuffer* raw = buf.get();
  buffers_.push_back(std::move(buf));
  return raw;
}

void TraceRecorder::Record(const char* name, double ts_us, double dur_us) {
  ThreadBuffer* buf = BufferForThisThread();
  TraceEvent ev;
  ev.name = name;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  util::MutexLock lock(buf->mu);
  ev.tid = buf->tid;
  if (buf->ring.size() < kRingCapacity) {
    buf->ring.push_back(ev);
  } else {
    buf->ring[static_cast<size_t>(buf->total_written % kRingCapacity)] = ev;
  }
  ++buf->total_written;
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  util::MutexLock lock(mu_);
  for (const auto& b : buffers_) {
    util::MutexLock buf_lock(b->mu);
    const size_t n = b->ring.size();
    if (n == 0) continue;
    // Oldest-first: the ring wraps at total_written % capacity.
    const size_t start =
        b->total_written > n
            ? static_cast<size_t>(b->total_written % kRingCapacity)
            : 0;
    for (size_t i = 0; i < n; ++i) {
      out.push_back(b->ring[(start + i) % n]);
    }
  }
  return out;
}

uint64_t TraceRecorder::dropped() const {
  uint64_t d = 0;
  util::MutexLock lock(mu_);
  for (const auto& b : buffers_) {
    util::MutexLock buf_lock(b->mu);
    if (b->total_written > kRingCapacity) {
      d += b->total_written - kRingCapacity;
    }
  }
  return d;
}

void TraceRecorder::Clear() {
  util::MutexLock lock(mu_);
  for (const auto& b : buffers_) {
    util::MutexLock buf_lock(b->mu);
    b->ring.clear();
    b->total_written = 0;
  }
}

namespace {
void AppendEscaped(std::string* out, const char* s) {
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", static_cast<unsigned>(c));
      out->append(hex);
    } else {
      out->push_back(c);
    }
  }
}
}  // namespace

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<TraceEvent> events = Snapshot();
  std::string body;
  body.reserve(events.size() * 96 + 64);
  body += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char num[64];
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) body += ',';
    first = false;
    body += "{\"name\":\"";
    AppendEscaped(&body, ev.name == nullptr ? "(null)" : ev.name);
    body += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    std::snprintf(num, sizeof(num), "%d", ev.tid);
    body += num;
    body += ",\"ts\":";
    std::snprintf(num, sizeof(num), "%.3f", ev.ts_us);
    body += num;
    body += ",\"dur\":";
    std::snprintf(num, sizeof(num), "%.3f", ev.dur_us);
    body += num;
    body += '}';
  }
  body += "]}";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open trace file: " + path);
  }
  out << body << '\n';
  out.flush();
  if (!out) {
    return Status::IoError("short write to trace file: " + path);
  }
  return Status();
}

}  // namespace obs
}  // namespace apan
