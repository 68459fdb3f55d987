// Reproduces Figure 7: training time (seconds per epoch) versus average
// precision, Wikipedia-like dataset, link prediction.
//
// Shape to verify: TGAT-2layers is the slowest (temporal attention over
// two recursive hops), the recurrent baselines (JODIE, DyRep) are the
// cheapest, and APAN sits near the recurrent band — its per-event work
// is mailbox-local. The graph-planned TrainingArena roughly halves the
// TGAT rows and TGN-2layers; APAN's rows run as fast without it
// (docs/performance.md, "Measured effect"). bench_check gates the APAN
// rows on AP and on zero arena plan misses.
//
// Emits BENCH_fig7.json (the training-speed trajectory bench_check
// validates across PRs): per model s/epoch, steps/s, test AP, and the
// TrainingArena counters that back the zero-alloc steady-state claim.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "tensor/kernels.h"

int main() {
  using namespace apan;
  std::printf(
      "== Figure 7: training time (s/epoch) vs AP, wikipedia-like ==\n\n");

  data::Dataset wiki = bench::MakeWikipedia();
  train::LinkTrainConfig cfg;
  cfg.max_epochs = bench::EnvEpochs(3);
  cfg.patience = 2;
  train::LinkTrainer trainer(cfg);

  const size_t train_batches =
      (wiki.train_end + cfg.batch_size - 1) / cfg.batch_size;

  const std::vector<std::string> models = {
      "JODIE",        "DyRep",       "TGAT-1layer", "TGAT-2layers",
      "TGN-1layer",   "TGN-2layers", "APAN-1layer", "APAN-2layers"};

  bench::JsonWriter json(bench::JsonOutPath("BENCH_fig7.json"));
  json.BeginObject();
  json.Field("figure", std::string("fig7_training_time"));
  json.Field("dataset", std::string("wikipedia-like"));
  json.Field("batch_size", static_cast<int64_t>(cfg.batch_size));
  json.Field("epochs", static_cast<int64_t>(cfg.max_epochs));
  json.Field("kernel_isa",
             std::string(tensor::kernels::IsaName(
                 tensor::kernels::ActiveIsa())));
  json.BeginArray("models");

  std::printf("%-14s | %12s | %9s | %9s\n", "Model", "s/epoch", "steps/s",
              "AP (%)");
  bench::PrintRule(56);
  for (const auto& name : models) {
    auto model = bench::MakeTemporalModel(name, wiki, /*seed=*/2021);
    auto report = trainer.Run(model.get(), wiki);
    APAN_CHECK_MSG(report.ok(), report.status().ToString());
    const double s_epoch = report->mean_train_seconds_per_epoch;
    const double steps_per_sec =
        s_epoch > 0 ? static_cast<double>(train_batches) / s_epoch : 0.0;
    std::printf("%-14s | %12.4f | %9.1f | %9.2f\n", name.c_str(), s_epoch,
                steps_per_sec, 100 * report->test.ap);
    std::fflush(stdout);
    json.BeginObject();
    json.Field("name", name);
    json.Field("seconds_per_epoch_mean", s_epoch);
    json.Field("steps_per_sec", steps_per_sec);
    json.Field("test_ap", report->test.ap);
    json.Field("epochs_run", static_cast<int64_t>(report->epochs_run));
    json.Field("arena_fresh_impls", report->arena_fresh_impls);
    json.Field("arena_reused_impls", report->arena_reused_impls);
    json.Field("arena_plan_misses", report->arena_plan_misses);
    json.Field("arena_pool_slots", report->arena_pool_slots);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  bench::PrintRule(56);
  return 0;
}
