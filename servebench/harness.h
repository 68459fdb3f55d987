// Serving benchmark harness: one named workload through
// serve::ShardedEngine, measured end to end from outside the engine.
//
// A run generates its stream from the synthetic generators
// (data/synthetic.h), then replays it in `passes` independent passes. Each
// pass builds a fresh model + partition + engine (timed: setup_s) and runs
// three phases over one copy of the stream, in 200-event batches (the
// paper's serving batch):
//
//   1. warm-up   the first 5% of batches, closed loop, then Flush — not
//                measured;
//   2. open loop batches sent on a fixed schedule at the workload's rate.
//                Sync time is taken from each batch's *scheduled* send
//                time, so a stall is charged to every batch queued behind
//                it; a lag observer thread polls batches_propagated to
//                time the asynchronous link;
//   3. drain     the rest of the stream, closed loop, ending in Flush().
//                Wall time gives capacity; process CPU time gives the
//                steal-robust cost per event.
//
// After the passes a single-threaded serial replay of the same batches
// through core::ApanModel's public calls is the correctness oracle (every
// pass's stitched mailbox must digest-equal it) and, in traced runs, the
// per-layer core/graph timing. README.md in this directory documents every
// metric, workload and prediction.

#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/synthetic.h"
#include "serve/transport.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

// ---- Sample arithmetic ------------------------------------------------------

/// q-th quantile (q in [0, 1]) by linear interpolation between the closest
/// ranks of the sorted samples. Empty input yields 0.
double Percentile(std::vector<double> values, double q);

/// Share, in percent, of samples that are <= `limit`. Empty input yields 0.
double SloSharePct(const std::vector<double>& values, double limit);

/// Order-sensitive FNV-1a digest over per-node mailbox state: each node's
/// valid mail count followed by its time-sorted slot timestamps. Counts
/// and timestamps do not depend on the partition or on timing, so equal
/// streams give equal digests under any engine configuration.
class MailboxDigest {
 public:
  void AddNode(int64_t valid_count, std::span<const double> timestamps);
  uint64_t value() const { return hash_; }
  int64_t nonempty_nodes() const { return nonempty_; }

 private:
  void Mix(uint64_t word);

  uint64_t hash_ = 1469598103934665603ULL;
  int64_t nonempty_ = 0;
};

// ---- Open-loop load generation ----------------------------------------------

/// Per-send timings of one open-loop phase, in milliseconds.
struct OpenLoopTimings {
  std::vector<double> sync_ms;  ///< scheduled send -> return
  std::vector<double> call_ms;  ///< actual send -> return
  std::vector<double> late_ms;  ///< scheduled send -> actual send
};

/// Calls `send(i)` for i in [0, schedule.size()), each no earlier than
/// schedule[i]. A send that finds its slot already past goes at once, so a
/// slow send delays the ones behind it, and they are charged for it:
/// sync time always counts from the scheduled time.
OpenLoopTimings RunOpenLoop(const std::vector<Clock::time_point>& schedule,
                            const std::function<void(size_t)>& send);

// ---- Workloads ----------------------------------------------------------------

/// One workload; why each exists is recorded in BENCHMARK.json and
/// README.md.
struct WorkloadSpec {
  const char* name;
  /// Generator at full size; RunOptions::scale shrinks it for smoke runs.
  apan::data::SyntheticConfig data;
  int shards;
  apan::serve::TransportKind transport;
  /// Locality partition built over the whole stream (timed in setup_s);
  /// false means the engine's canonical hash.
  bool locality;
  int32_t hops;
  double rate_events_per_s;
  /// Independent fresh-engine passes per run; more passes buy steadiness
  /// where one pass is short.
  int passes;
};

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// ---- Runs -----------------------------------------------------------------------

struct RunOptions {
  uint64_t seed = 1;
  /// Open-loop phase length of each pass, capped so the drain keeps at
  /// least 40% of the stream.
  double open_loop_seconds = 2.0;
  /// Traced run: each pass is an untraced/traced pair (stage metrics and
  /// the span recorder on for the second), and the per-layer table is
  /// reported.
  bool trace = false;
  /// Chrome trace destination for traced runs; empty skips the file.
  std::string trace_path;
  /// Multiplies node and event counts (smoke tests); 1 = full size.
  double scale = 1.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines: host annotation, sample counts, gate results.
  std::vector<std::string> notes;
};

RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

/// The report's last line: one JSON object with correct/attempted/failed
/// and the end-to-end (trace off) or per-layer (trace on) metrics.
std::string ResultJson(const RunReport& report, bool trace);

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
