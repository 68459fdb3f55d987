// Self-tests of the serving benchmark harness: sample arithmetic, the
// mailbox digest, the open-loop scheduler, and a tiny-scale run of every
// workload through the full correctness gate.

#include "harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/transport.h"

namespace servebench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  // 101 samples 0..100: p99 is exactly 99.
  std::vector<double> ramp;
  for (int i = 100; i >= 0; --i) ramp.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(ramp, 0.99), 99.0);
}

TEST(SloShareTest, CountsSamplesAtOrUnderTheLimit) {
  const std::vector<double> v = {1.0, 5.0, 10.0, 11.0, INFINITY};
  EXPECT_DOUBLE_EQ(SloSharePct(v, 10.0), 60.0);
  EXPECT_DOUBLE_EQ(SloSharePct(v, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(SloSharePct({}, 10.0), 0.0);
}

TEST(MailboxDigestTest, CoversCountsTimestampsAndOrder) {
  const std::vector<double> ts = {1.0, 2.5};
  auto digest = [](std::vector<std::pair<int64_t, std::vector<double>>> nodes) {
    MailboxDigest d;
    for (const auto& [count, t] : nodes) d.AddNode(count, t);
    return d;
  };
  const MailboxDigest a = digest({{2, ts}, {0, {}}});
  EXPECT_EQ(a.value(), digest({{2, ts}, {0, {}}}).value());
  EXPECT_EQ(a.nonempty_nodes(), 1);
  EXPECT_NE(a.value(), digest({{0, {}}, {2, ts}}).value());  // node order
  EXPECT_NE(a.value(), digest({{2, {1.0, 2.0}}, {0, {}}}).value());
  EXPECT_NE(a.value(), digest({{1, {1.0}}, {0, {}}}).value());
  // Bitwise: -0.0 and 0.0 are different timestamps to the digest.
  EXPECT_NE(digest({{1, {0.0}}}).value(), digest({{1, {-0.0}}}).value());
}

TEST(OpenLoopTest, TimesFromTheScheduledSendNotTheActualOne) {
  // Five sends 2 ms apart; the first one stalls for 30 ms. The sends
  // behind it go late, and their sync time must include that wait even
  // though each call itself returns at once.
  constexpr auto kInterval = std::chrono::milliseconds(2);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  std::vector<Clock::time_point> schedule;
  for (int i = 0; i < 5; ++i) schedule.push_back(t0 + i * kInterval);
  std::vector<Clock::time_point> sent_at;
  const OpenLoopTimings t = RunOpenLoop(schedule, [&](size_t i) {
    sent_at.push_back(Clock::now());
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  ASSERT_EQ(t.sync_ms.size(), 5u);
  ASSERT_EQ(sent_at.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_GE(sent_at[i], schedule[i]) << "sent before its slot, i=" << i;
  }
  EXPECT_GE(t.call_ms[0], 30.0);
  for (size_t i = 1; i < 5; ++i) {
    // Due at 2*i ms, sent after the 30 ms stall: ~30 - 2*i ms late.
    EXPECT_GE(t.late_ms[i], 29.0 - 2.0 * static_cast<double>(i)) << i;
    EXPECT_GE(t.sync_ms[i], t.late_ms[i]) << i;
    EXPECT_NEAR(t.sync_ms[i], t.late_ms[i] + t.call_ms[i], 1e-6) << i;
    EXPECT_LT(t.call_ms[i], t.sync_ms[i]) << i;
  }
}

std::map<std::string, double> ByName(const std::vector<Metric>& metrics) {
  std::map<std::string, double> out;
  for (const Metric& m : metrics) out[m.name] = m.value;
  return out;
}

TEST(SmokeTest, EveryWorkloadPassesTheGateAtTinyScale) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.transport == apan::serve::TransportKind::kUnixSocket &&
        !apan::serve::UnixSocketTransport::Available()) {
      continue;  // AF_UNIX unavailable on this platform
    }
    SCOPED_TRACE(spec.name);
    RunOptions options;
    options.seed = 3;
    options.scale = 0.03;
    options.open_loop_seconds = 0.05;
    options.trace = true;
    const RunReport report = RunWorkload(spec, options);
    std::string notes;
    for (const std::string& line : report.notes) notes += line + "\n";
    SCOPED_TRACE(notes);
    EXPECT_TRUE(report.correct);
    EXPECT_EQ(report.failed, 0);
    EXPECT_GT(report.attempted, 0);

    const auto e2e = ByName(report.end_to_end);
    for (const char* name :
         {"sync_p50_ms", "sync_slo_pct", "lag_p50_ms", "lag_slo_pct",
          "capacity_events_per_s", "cpu_us_per_event", "setup_s",
          "peak_rss_mb"}) {
      ASSERT_TRUE(e2e.count(name)) << name;
      EXPECT_GT(e2e.at(name), 0.0) << name;
      EXPECT_TRUE(std::isfinite(e2e.at(name))) << name;
    }
    const auto layer = ByName(report.per_layer);
    for (const char* name :
         {"stage.merge", "stage.frontier_wait", "stage.coverage_pct",
          "core.encode_ms_per_batch", "graph.sample_us_per_event",
          "obs.tracing_overhead_pct", "transport.bytes_per_event",
          "serve.frontier_requests_per_batch", "failed_pct"}) {
      EXPECT_TRUE(layer.count(name)) << name;
    }
    EXPECT_EQ(layer.at("failed_pct"), 0.0);
    if (spec.shards == 1) {
      EXPECT_EQ(layer.at("serve.frontier_requests_per_batch"), 0.0);
      EXPECT_EQ(layer.at("serve.cross_shard_mail_pct"), 0.0);
    } else {
      EXPECT_GT(layer.at("serve.frontier_requests_per_batch"), 0.0);
    }
    if (spec.transport == apan::serve::TransportKind::kUnixSocket) {
      EXPECT_GT(layer.at("transport.bytes_per_event"), 0.0);
    } else {
      EXPECT_EQ(layer.at("transport.bytes_per_event"), 0.0);
    }
  }
}

}  // namespace
}  // namespace servebench
