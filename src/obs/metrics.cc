#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/status.h"

namespace apan {
namespace obs {

// ---------------------------------------------------------------- Counter

Counter::Counter(int num_cells)
    : cells_(static_cast<size_t>(std::max(1, num_cells))) {}

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

// ------------------------------------------------------------------ Gauge

Gauge::Gauge(int num_cells)
    : cells_(static_cast<size_t>(std::max(1, num_cells))) {}

void Gauge::UpdateMax(int cell, int64_t v) {
  auto& a = cells_[static_cast<size_t>(cell)].v;
  int64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

int64_t Gauge::Sum() const {
  int64_t total = 0;
  for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

int64_t Gauge::Max() const {
  int64_t m = 0;
  for (const auto& c : cells_) {
    m = std::max(m, c.v.load(std::memory_order_relaxed));
  }
  return m;
}

// -------------------------------------------------------------- Histogram

Histogram::Cell::Cell()
    : min(std::numeric_limits<double>::infinity()),
      max(-std::numeric_limits<double>::infinity()) {}

Histogram::Histogram(int num_cells) {
  const int n = std::max(1, num_cells);
  cells_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) cells_.push_back(std::make_unique<Cell>());
}

int Histogram::BucketIndex(double value) {
  if (!(value > 0.0)) return 0;  // <= 0, NaN, and exact zero underflow
  int exp = 0;
  const double m = std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5,1)
  const int octave = exp - 1;                // value = (2m) * 2^octave
  if (octave < kMinExp) return 0;
  if (octave > kMaxExp) return kNumBuckets - 1;
  // 2m is the mantissa in [1, 2); map it linearly onto kSubBuckets.
  int sub = static_cast<int>((2.0 * m - 1.0) * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return 1 + (octave - kMinExp) * kSubBuckets + sub;
}

double Histogram::BucketLower(int index) {
  if (index <= 0) return 0.0;
  if (index >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExp + 1);
  const int i = index - 1;
  const int octave = kMinExp + i / kSubBuckets;
  const int sub = i % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

void Histogram::BucketBounds(double value, double* lower, double* upper) {
  const int idx = BucketIndex(value);
  *lower = BucketLower(idx);
  *upper = BucketLower(idx + 1);
}

void Histogram::Record(int cell, double value) {
  // NaN and negatives clamp to 0 so the moment accumulators stay finite
  // (the old LatencyRecorder stored raw samples; nothing in the repo
  // records negative latencies, so the clamp only defends against bugs).
  const double v = (value > 0.0) ? value : 0.0;
  Cell& c = *cells_[static_cast<size_t>(cell)];
  c.buckets[static_cast<size_t>(BucketIndex(v))].fetch_add(
      1, std::memory_order_relaxed);
  c.count.fetch_add(1, std::memory_order_relaxed);
  c.sum.fetch_add(v, std::memory_order_relaxed);
  c.sumsq.fetch_add(v * v, std::memory_order_relaxed);
  double cur = c.min.load(std::memory_order_relaxed);
  while (v < cur &&
         !c.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = c.max.load(std::memory_order_relaxed);
  while (v > cur &&
         !c.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::count() const {
  uint64_t n = 0;
  for (const auto& c : cells_) n += c->count.load(std::memory_order_relaxed);
  return n;
}

double Histogram::Sum() const {
  double s = 0.0;
  for (const auto& c : cells_) s += c->sum.load(std::memory_order_relaxed);
  return s;
}

double Histogram::Mean() const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  return Sum() / static_cast<double>(n);
}

double Histogram::StdDev() const {
  const uint64_t n = count();
  if (n < 2) return 0.0;
  double sumsq = 0.0;
  for (const auto& c : cells_) {
    sumsq += c->sumsq.load(std::memory_order_relaxed);
  }
  const double m = Mean();
  const double var = (sumsq - static_cast<double>(n) * m * m) /
                     static_cast<double>(n - 1);
  return std::sqrt(std::max(0.0, var));
}

double Histogram::Min() const {
  double m = std::numeric_limits<double>::infinity();
  bool any = false;
  for (const auto& c : cells_) {
    if (c->count.load(std::memory_order_relaxed) == 0) continue;
    any = true;
    m = std::min(m, c->min.load(std::memory_order_relaxed));
  }
  return any ? m : 0.0;
}

double Histogram::Max() const {
  double m = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (const auto& c : cells_) {
    if (c->count.load(std::memory_order_relaxed) == 0) continue;
    any = true;
    m = std::max(m, c->max.load(std::memory_order_relaxed));
  }
  return any ? m : 0.0;
}

double Histogram::Quantile(double q) const {
  // Aggregate the per-cell buckets once; relaxed loads make this safe
  // (though approximate) against concurrent writers.
  std::array<uint64_t, kNumBuckets> agg{};
  uint64_t n = 0;
  for (const auto& c : cells_) {
    for (int b = 0; b < kNumBuckets; ++b) {
      const uint64_t x =
          c->buckets[static_cast<size_t>(b)].load(std::memory_order_relaxed);
      agg[static_cast<size_t>(b)] += x;
      n += x;
    }
  }
  if (n == 0) return 0.0;
  // fmax/fmin eat NaN (std::clamp would pass it into the rank cast — UB);
  // NaN q thus maps to 1, the max-side extreme, as LatencyRecorder did.
  q = std::fmax(0.0, std::fmin(q, 1.0));
  const double rank = q * static_cast<double>(n - 1);
  uint64_t before = 0;
  int idx = kNumBuckets - 1;
  for (int b = 0; b < kNumBuckets; ++b) {
    const uint64_t cnt = agg[static_cast<size_t>(b)];
    if (cnt == 0) continue;
    if (rank < static_cast<double>(before + cnt)) {
      idx = b;
      break;
    }
    before += cnt;
  }
  const uint64_t cnt = agg[static_cast<size_t>(idx)];
  const double lower = BucketLower(idx);
  const double upper = BucketLower(idx + 1);
  const double frac =
      cnt == 0 ? 0.0
               : (rank - static_cast<double>(before)) /
                     static_cast<double>(cnt);
  const double v = lower + frac * (upper - lower);
  // The exact observed range is tighter than the bucket bounds. A Record
  // racing this scrape bumps its bucket before its min/max CAS lands, so
  // the range can still read inverted (max = -inf); clamping to it then
  // is undefined, so the bucket estimate stands.
  const double lo = Min();
  const double hi = Max();
  return lo <= hi ? std::clamp(v, lo, hi) : v;
}

void Histogram::Clear() {
  for (auto& c : cells_) {
    c->count.store(0, std::memory_order_relaxed);
    c->sum.store(0.0, std::memory_order_relaxed);
    c->sumsq.store(0.0, std::memory_order_relaxed);
    c->min.store(std::numeric_limits<double>::infinity(),
                 std::memory_order_relaxed);
    c->max.store(-std::numeric_limits<double>::infinity(),
                 std::memory_order_relaxed);
    for (auto& b : c->buckets) b.store(0, std::memory_order_relaxed);
  }
}

// --------------------------------------------------------------- Registry

Counter* Registry::GetCounter(const std::string& name, int num_cells) {
  util::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>(num_cells)).first;
  }
  APAN_CHECK_MSG(it->second->num_cells() == std::max(1, num_cells),
                 "counter '" + name + "' re-registered with different cells");
  return it->second.get();
}

Gauge* Registry::GetGauge(const std::string& name, int num_cells) {
  util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>(num_cells)).first;
  }
  APAN_CHECK_MSG(it->second->num_cells() == std::max(1, num_cells),
                 "gauge '" + name + "' re-registered with different cells");
  return it->second.get();
}

Histogram* Registry::GetHistogram(const std::string& name, int num_cells) {
  util::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>(num_cells))
             .first;
  }
  APAN_CHECK_MSG(it->second->num_cells() == std::max(1, num_cells),
                 "histogram '" + name +
                     "' re-registered with different cells");
  return it->second.get();
}

Registry::Snapshot Registry::Scrape() const {
  Snapshot snap;
  util::MutexLock lock(mu_);
  for (const auto& [name, c] : counters_) {
    CounterRow row;
    row.name = name;
    for (int i = 0; i < c->num_cells(); ++i) {
      row.cells.push_back(c->CellValue(i));
      row.total += row.cells.back();
    }
    snap.counters.push_back(std::move(row));
  }
  for (const auto& [name, g] : gauges_) {
    GaugeRow row;
    row.name = name;
    for (int i = 0; i < g->num_cells(); ++i) {
      row.cells.push_back(g->CellValue(i));
    }
    row.sum = g->Sum();
    row.max = g->Max();
    snap.gauges.push_back(std::move(row));
  }
  for (const auto& [name, h] : histograms_) {
    HistogramRow row;
    row.name = name;
    row.count = h->count();
    row.total_ms = h->Sum();
    row.mean = h->Mean();
    row.p50 = h->P50();
    row.p99 = h->P99();
    row.max = h->Max();
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

namespace {
template <typename Row>
const Row* FindRow(const std::vector<Row>& rows, const std::string& name) {
  for (const auto& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}
}  // namespace

const Registry::CounterRow* Registry::Snapshot::FindCounter(
    const std::string& name) const {
  return FindRow(counters, name);
}
const Registry::GaugeRow* Registry::Snapshot::FindGauge(
    const std::string& name) const {
  return FindRow(gauges, name);
}
const Registry::HistogramRow* Registry::Snapshot::FindHistogram(
    const std::string& name) const {
  return FindRow(histograms, name);
}

}  // namespace obs
}  // namespace apan
