// bench_check: validates the bench JSONs CI tracks across PRs —
// BENCH_fig10.json (bench/fig10_sharded_throughput) and BENCH_fig7.json
// (bench/fig7_training_time), dispatched on the top-level "figure"
// field. CI's bench-smoke job runs it against both the freshly generated
// JSON (schema only — a loaded CI machine's timing numbers are noise)
// and the committed file (full check), so a bench refactor that drops a
// field, emits NaN, or ships a regression fails the build instead of
// silently rotting the committed trajectory.
//
//   ./build/tools/bench_check BENCH_fig10.json
//   ./build/tools/bench_check --schema-only /tmp/BENCH_fig10.json
//   ./build/tools/bench_check --min-scale=0.35 BENCH_fig10.json
//   ./build/tools/bench_check --min-ap=0.65 BENCH_fig7.json
//
// fig7 checks: every model row carries a name, a finite positive
// seconds_per_epoch_mean and steps_per_sec, and a test_ap in [0, 1].
// APAN rows are additionally gated on arena_plan_misses == 0 in BOTH
// modes (the zero-alloc steady-state claim: APAN's training step is
// structurally constant, so the graph-planned arena must replay it
// without heap fallbacks — a structural property, not a timing, hence
// immune to CI noise). Full mode adds test_ap >= --min-ap (default
// 0.65 — AP is seed- and numerics-sensitive at 3 epochs, so the floor
// catches a broken backward pass, not run-to-run jitter).
//
// fig10 checks:
// Schema checks (always):
//   1. the file parses as well-formed JSON (obs::ValidateJson);
//   2. a non-empty "rows" array where every row carries a "partition"
//      string and a present, finite, positive "events_per_sec";
//   3. a "memory" array whose entries carry "partition" and a per-shard
//      max >= min state-slice split — one measured row per
//      (shards, partition) configuration, never a reused one — plus a
//      positive replica_bytes with graph_bytes == shards x replica_bytes
//      (every shard worker holds an identical full graph replica, so the
//      graph's footprint is exactly N copies, structurally);
//   4. a "recovery" array (the checkpoint/rejoin cycle) whose rows carry
//      finite, non-negative snapshot_write_ms / restore_replay_ms, a
//      positive events_replayed, and events_shed == 0 — the bench never
//      takes a shard down, so shed events during rejoin are lost traffic
//      (structural, so it holds even on a loaded box).
//
// Scaling checks (skipped under --schema-only):
//   5. within each (transport, partition) group, every multi-shard row
//      keeps events_per_sec >= --min-scale x the 1-shard row of the same
//      transport. The default floor (0.25) is deliberately a collapse
//      detector, not a speedup gate: shard workers are threads, so on a
//      single-core host the best possible curve is FLAT (parity with one
//      shard, and the 8-shard uds row pays 8x the per-frame syscall tax
//      with zero hardware to hide it behind) — positive scaling is
//      physically unavailable there. CI boxes with real parallelism can
//      tighten the floor via the flag.
//   6. at every (shards > 1, transport), the locality partition's
//      cross_shard_pct must not exceed the hash partition's — the one
//      scaling property that holds on any hardware, since it counts mail
//      routing, not wall time.
//
// Exit 0 on success; 1 with a diagnostic per violation on stderr.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "tools/tool_util.h"

namespace {

/// Returns the substring covering the balanced [...] array that follows
/// `"key": ` in `text`, without the brackets. Empty when absent. The
/// input is machine-written single-object JSON (bench::JsonWriter), so
/// strings never contain brackets and flat scanning is sufficient —
/// ValidateJson has already vouched for well-formedness.
std::string ExtractArray(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": [";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return "";
  size_t pos = at + needle.size();
  int depth = 1;
  const size_t start = pos;
  while (pos < text.size() && depth > 0) {
    if (text[pos] == '[') ++depth;
    if (text[pos] == ']') --depth;
    ++pos;
  }
  return text.substr(start, pos - start - 1);
}

/// Splits a flat array body into its top-level {...} object substrings.
std::vector<std::string> SplitObjects(const std::string& array_body) {
  std::vector<std::string> objects;
  size_t pos = 0;
  while (pos < array_body.size()) {
    if (array_body[pos] != '{') {
      ++pos;
      continue;
    }
    int depth = 0;
    const size_t start = pos;
    while (pos < array_body.size()) {
      if (array_body[pos] == '{') ++depth;
      if (array_body[pos] == '}') --depth;
      ++pos;
      if (depth == 0) break;
    }
    objects.push_back(array_body.substr(start, pos - start));
  }
  return objects;
}

/// `"field": "value"` → value; empty string when the field is absent.
std::string StringField(const std::string& object, const std::string& field) {
  const std::string needle = "\"" + field + "\": \"";
  const size_t at = object.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = object.find('"', start);
  return end == std::string::npos ? "" : object.substr(start, end - start);
}

/// `"field": <number>` → value. `found` reports presence; NaN and inf in
/// the text (which ValidateJson would have rejected anyway) come back
/// non-finite and fail the finiteness check downstream.
double NumberField(const std::string& object, const std::string& field,
                   bool* found) {
  const std::string needle = "\"" + field + "\": ";
  const size_t at = object.find(needle);
  if (at == std::string::npos) {
    *found = false;
    return 0.0;
  }
  *found = true;
  return std::strtod(object.c_str() + at + needle.size(), nullptr);
}

struct Row {
  std::string engine;
  std::string transport;
  std::string partition;
  int shards = 0;
  double events_per_sec = 0.0;
  double cross_shard_pct = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const apan::tools::ArgParser args(argc, argv);
  if (args.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: %s [--schema-only] [--min-scale=<ratio>] "
                 "[--min-ap=<ap>] <BENCH_fig10.json|BENCH_fig7.json>\n",
                 args.program().c_str());
    return 1;
  }
  const bool schema_only = args.HasFlag("schema-only");
  const double min_scale =
      std::strtod(args.FlagValue("min-scale", "0.25").c_str(), nullptr);
  const std::string& path = args.positional()[0];
  std::string text;
  if (!apan::tools::SlurpFile(path, &text)) return 1;

  std::string error;
  if (!apan::obs::ValidateJson(text, &error)) {
    std::fprintf(stderr, "bench_check: %s is not well-formed JSON: %s\n",
                 path.c_str(), error.c_str());
    return 1;
  }

  int violations = 0;
  const auto fail = [&](const char* fmt, auto... rest) {
    std::fprintf(stderr, "bench_check: ");
    std::fprintf(stderr, fmt, rest...);
    std::fprintf(stderr, "\n");
    ++violations;
  };

  // ---- fig7: training-speed trajectory -------------------------------------
  if (StringField(text, "figure") == "fig7_training_time") {
    const double min_ap =
        std::strtod(args.FlagValue("min-ap", "0.65").c_str(), nullptr);
    const std::vector<std::string> model_objects =
        SplitObjects(ExtractArray(text, "models"));
    if (model_objects.empty()) {
      fail("%s has no \"models\" array (or it is empty)", path.c_str());
    }
    for (size_t i = 0; i < model_objects.size(); ++i) {
      const std::string& object = model_objects[i];
      const std::string name = StringField(object, "name");
      if (name.empty()) fail("model row %zu lacks \"name\"", i);
      bool found = false;
      const double s_epoch =
          NumberField(object, "seconds_per_epoch_mean", &found);
      if (!found) {
        fail("model %s lacks \"seconds_per_epoch_mean\"", name.c_str());
      } else if (!std::isfinite(s_epoch) || s_epoch <= 0.0) {
        fail("model %s seconds_per_epoch_mean = %g is not finite and "
             "positive",
             name.c_str(), s_epoch);
      }
      const double steps = NumberField(object, "steps_per_sec", &found);
      if (!found) {
        fail("model %s lacks \"steps_per_sec\"", name.c_str());
      } else if (!std::isfinite(steps) || steps <= 0.0) {
        fail("model %s steps_per_sec = %g is not finite and positive",
             name.c_str(), steps);
      }
      const double ap = NumberField(object, "test_ap", &found);
      if (!found) {
        fail("model %s lacks \"test_ap\"", name.c_str());
      } else if (!(ap >= 0.0 && ap <= 1.0)) {
        fail("model %s test_ap = %g is outside [0, 1]", name.c_str(), ap);
      }
      if (name.rfind("APAN", 0) == 0) {
        if (!schema_only && ap < min_ap) {
          fail("%s test_ap %.4f fell below the --min-ap floor %.2f — the "
               "fast backward pass must not cost accuracy",
               name.c_str(), ap, min_ap);
        }
        // Plan misses are machine-independent (a structural property of
        // the recorded step, not a timing), so this gate applies even
        // under --schema-only — a loaded CI box can't excuse them.
        bool has_misses = false;
        const double misses =
            NumberField(object, "arena_plan_misses", &has_misses);
        if (!has_misses || misses != 0.0) {
          fail("%s arena_plan_misses = %g — APAN's training step is "
               "structurally constant, so the planned arena must replay "
               "it without heap fallbacks",
               name.c_str(), has_misses ? misses : -1.0);
        }
      }
    }
    if (violations > 0) {
      std::fprintf(stderr, "bench_check: %s FAILED (%d violation%s)\n",
                   path.c_str(), violations, violations == 1 ? "" : "s");
      return 1;
    }
    std::printf("bench_check: %s OK (%zu models%s)\n", path.c_str(),
                model_objects.size(), schema_only ? ", schema only" : "");
    return 0;
  }

  // ---- rows: schema --------------------------------------------------------
  const std::vector<std::string> row_objects =
      SplitObjects(ExtractArray(text, "rows"));
  if (row_objects.empty()) {
    fail("%s has no \"rows\" array (or it is empty)", path.c_str());
  }
  std::vector<Row> rows;
  for (size_t i = 0; i < row_objects.size(); ++i) {
    const std::string& object = row_objects[i];
    Row row;
    row.engine = StringField(object, "engine");
    row.transport = StringField(object, "transport");
    row.partition = StringField(object, "partition");
    if (row.partition.empty()) {
      fail("row %zu lacks a \"partition\" field", i);
    }
    bool found = false;
    row.events_per_sec = NumberField(object, "events_per_sec", &found);
    if (!found) {
      fail("row %zu lacks \"events_per_sec\"", i);
    } else if (!std::isfinite(row.events_per_sec) ||
               row.events_per_sec <= 0.0) {
      fail("row %zu events_per_sec = %g is not finite and positive", i,
           row.events_per_sec);
    }
    row.shards =
        static_cast<int>(NumberField(object, "shards", &found));
    row.cross_shard_pct = NumberField(object, "cross_shard_pct", &found);
    rows.push_back(row);
  }

  // ---- memory: one measured split per (shards, partition) ------------------
  const std::vector<std::string> memory_objects =
      SplitObjects(ExtractArray(text, "memory"));
  if (memory_objects.empty()) {
    fail("%s has no \"memory\" array (or it is empty)", path.c_str());
  }
  std::map<std::pair<int, std::string>, int> memory_seen;
  for (size_t i = 0; i < memory_objects.size(); ++i) {
    const std::string& object = memory_objects[i];
    const std::string partition = StringField(object, "partition");
    if (partition.empty()) {
      fail("memory row %zu lacks a \"partition\" field", i);
      continue;
    }
    bool has_shards = false, has_max = false, has_min = false;
    const int shards =
        static_cast<int>(NumberField(object, "shards", &has_shards));
    const double max_shard =
        NumberField(object, "state_bytes_max_shard", &has_max);
    const double min_shard =
        NumberField(object, "state_bytes_min_shard", &has_min);
    if (!has_shards || !has_max || !has_min) {
      fail("memory row %zu lacks shards/state_bytes_{max,min}_shard", i);
      continue;
    }
    if (max_shard < min_shard || min_shard <= 0.0) {
      fail("memory row %zu per-shard split max %g / min %g is not a "
           "measurement",
           i, max_shard, min_shard);
    }
    bool has_replica = false, has_graph = false;
    const double replica = NumberField(object, "replica_bytes", &has_replica);
    const double graph = NumberField(object, "graph_bytes", &has_graph);
    if (!has_replica || !has_graph || !(replica > 0.0)) {
      fail("memory row %zu lacks a positive replica_bytes / graph_bytes", i);
    } else if (graph != static_cast<double>(shards) * replica) {
      fail("memory row %zu graph_bytes %g is not %d x replica_bytes %g — "
           "the shard replicas diverged",
           i, graph, shards, replica);
    }
    if (++memory_seen[{shards, partition}] > 1) {
      fail("memory row %zu duplicates configuration (%d shards, %s) — "
           "rows must be measured per configuration, not reused",
           i, shards, partition.c_str());
    }
  }

  // ---- recovery: checkpoint + rejoin cost ----------------------------------
  // Schema tier (runs on fresh JSON too): every recovery row carries
  // finite, non-negative snapshot/rejoin timings and a positive replayed
  // count. events_shed is a structural property, not a timing: the bench's
  // crash/recovery cycle never takes a shard down, so anything shed during
  // rejoin is lost traffic — it must be exactly 0 even on a loaded box.
  const std::vector<std::string> recovery_objects =
      SplitObjects(ExtractArray(text, "recovery"));
  if (recovery_objects.empty()) {
    fail("%s has no \"recovery\" array (or it is empty)", path.c_str());
  }
  for (size_t i = 0; i < recovery_objects.size(); ++i) {
    const std::string& object = recovery_objects[i];
    if (StringField(object, "transport").empty()) {
      fail("recovery row %zu lacks a \"transport\" field", i);
    }
    for (const char* field : {"snapshot_write_ms", "restore_replay_ms"}) {
      bool found = false;
      const double ms = NumberField(object, field, &found);
      if (!found) {
        fail("recovery row %zu lacks \"%s\"", i, field);
      } else if (!std::isfinite(ms) || ms < 0.0) {
        fail("recovery row %zu %s = %g is not finite and non-negative", i,
             field, ms);
      }
    }
    bool found = false;
    const double replayed = NumberField(object, "events_replayed", &found);
    if (!found || !std::isfinite(replayed) || replayed <= 0.0) {
      fail("recovery row %zu events_replayed = %g is not a measurement", i,
           found ? replayed : -1.0);
    }
    const double shed = NumberField(object, "events_shed", &found);
    if (!found || shed != 0.0) {
      fail("recovery row %zu events_shed = %g — no shard is down in the "
           "bench's crash/recovery cycle, so shed events are lost traffic",
           i, found ? shed : -1.0);
    }
  }

  // ---- scaling -------------------------------------------------------------
  if (!schema_only) {
    // 1-shard reference per transport (1-shard rows are partition "hash":
    // every partitioner coincides there).
    std::map<std::string, double> one_shard_eps;
    for (const Row& row : rows) {
      if (row.engine == "ShardedEngine" && row.shards == 1) {
        one_shard_eps[row.transport] = row.events_per_sec;
      }
    }
    for (const Row& row : rows) {
      if (row.engine != "ShardedEngine" || row.shards <= 1) continue;
      const auto base = one_shard_eps.find(row.transport);
      if (base == one_shard_eps.end()) {
        fail("no 1-shard row for transport %s to scale against",
             row.transport.c_str());
        break;
      }
      const double ratio = row.events_per_sec / base->second;
      if (ratio < min_scale) {
        fail("%s/%s x%d events/s collapsed to %.2fx of the 1-shard row "
             "(floor %.2fx)",
             row.transport.c_str(), row.partition.c_str(), row.shards,
             ratio, min_scale);
      }
    }
    // Locality must never route MORE mail cross-shard than the hash.
    for (const Row& row : rows) {
      if (row.partition != "locality") continue;
      for (const Row& hash_row : rows) {
        if (hash_row.partition == "hash" &&
            hash_row.transport == row.transport &&
            hash_row.shards == row.shards &&
            row.cross_shard_pct > hash_row.cross_shard_pct) {
          fail("%s x%d: locality cross_shard_pct %.1f exceeds hash %.1f",
               row.transport.c_str(), row.shards, row.cross_shard_pct,
               hash_row.cross_shard_pct);
        }
      }
    }
  }

  if (violations > 0) {
    std::fprintf(stderr, "bench_check: %s FAILED (%d violation%s)\n",
                 path.c_str(), violations, violations == 1 ? "" : "s");
    return 1;
  }
  std::printf("bench_check: %s OK (%zu rows, %zu memory rows%s)\n",
              path.c_str(), rows.size(), memory_objects.size(),
              schema_only ? ", schema only" : "");
  return 0;
}
