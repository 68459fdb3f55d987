#include "obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace apan {
namespace obs {
namespace {

std::string TempPath(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(::testing::TempDir()) + info->test_suite_name() + "_" +
         info->name() + "_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- JSON validator -------------------------------------------------------

TEST(ValidateJsonTest, AcceptsWellFormed) {
  std::string err;
  EXPECT_TRUE(ValidateJson("{}", &err)) << err;
  EXPECT_TRUE(ValidateJson("[1, 2.5, -3e4, \"s\", true, false, null]", &err))
      << err;
  EXPECT_TRUE(ValidateJson(
      "{\"traceEvents\":[{\"name\":\"a\\\"b\",\"ts\":0.5}]}", &err))
      << err;
}

TEST(ValidateJsonTest, RejectsMalformed) {
  std::string err;
  EXPECT_FALSE(ValidateJson("", &err));
  EXPECT_FALSE(ValidateJson("{", &err));
  EXPECT_FALSE(ValidateJson("[1,]", &err));
  EXPECT_FALSE(ValidateJson("{\"a\":01}", &err));
  EXPECT_FALSE(ValidateJson("{\"a\" 1}", &err));
  EXPECT_FALSE(ValidateJson("\"unterminated", &err));
  EXPECT_FALSE(ValidateJson("{} trailing", &err));
  EXPECT_FALSE(err.empty());  // errors come with a message
}

// ---- Recorder behaviour ---------------------------------------------------

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder recorder;
  ASSERT_FALSE(recorder.enabled());
  {
    Span span("ignored", &recorder);
  }
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(TraceRecorderTest, SpansNestAndContain) {
  TraceRecorder recorder;
  recorder.Enable();
  {
    Span outer("outer", &recorder);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      Span inner("inner", &recorder);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: inner closes (and records) first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);  // same thread, same ring
  // Temporal containment: outer started before inner and ends after it.
  EXPECT_LE(outer.ts_us, inner.ts_us);
  EXPECT_GE(outer.ts_us + outer.dur_us, inner.ts_us + inner.dur_us);
  EXPECT_GT(inner.dur_us, 0.0);
  EXPECT_GT(outer.dur_us, inner.dur_us);
}

TEST(TraceRecorderTest, ThreadsGetDistinctTids) {
  TraceRecorder recorder;
  recorder.Enable();
  {
    Span main_span("main", &recorder);
  }
  std::thread worker([&recorder] { Span s("worker", &recorder); });
  worker.join();
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TraceRecorderTest, RingOverwritesOldestAndCountsDrops) {
  TraceRecorder recorder;
  recorder.Enable();
  const size_t total = TraceRecorder::kRingCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    recorder.Record("tick", static_cast<double>(i), 1.0);
  }
  EXPECT_EQ(recorder.dropped(), 100u);
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), TraceRecorder::kRingCapacity);
  // Oldest-first: the first surviving span is the one recorded at ts=100.
  EXPECT_DOUBLE_EQ(events.front().ts_us, 100.0);
  EXPECT_DOUBLE_EQ(events.back().ts_us, static_cast<double>(total - 1));
}

TEST(TraceRecorderTest, WriteChromeTraceIsValidJson) {
  TraceRecorder recorder;
  recorder.Enable();
  {
    Span a("append \"quoted\"", &recorder);  // name needing escaping
    Span b("sample", &recorder);
  }
  std::thread worker([&recorder] { Span s("merge", &recorder); });
  worker.join();

  const std::string path = TempPath("trace.json");
  ASSERT_TRUE(recorder.WriteChromeTrace(path).ok());
  const std::string text = ReadFile(path);
  std::string err;
  EXPECT_TRUE(ValidateJson(text, &err)) << err << "\n" << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(text.find("append \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(text.find("\"sample\""), std::string::npos);
  EXPECT_NE(text.find("\"merge\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, ClearResetsBuffersAndDrops) {
  TraceRecorder recorder;
  recorder.Enable();
  recorder.Record("x", 0.0, 1.0);
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceRecorderTest, GlobalSingletonRoundTrips) {
  TraceRecorder& g = TraceRecorder::Global();
  EXPECT_EQ(&g, &TraceRecorder::Global());
  g.Clear();
  g.Enable();
  {
    APAN_TRACE_SPAN("global_span");
  }
  g.Disable();
  const auto events = g.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "global_span");
  g.Clear();
}

}  // namespace
}  // namespace obs
}  // namespace apan
