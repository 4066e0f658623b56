// Throughput bench: the batch engine (PR 9) vs the rebuild-everything
// baseline.
//
// The throughput half of airshed::svc adds two knobs, both required to be
// bit-identity-preserving:
//
//   share_inputs  one content-addressed SharedInputCache of immutable
//                 DatasetBase instances (mesh + meteorology), so scenarios
//                 differing only in emission controls build the expensive
//                 base exactly once per batch;
//   schedule      deterministic shortest-expected-work-first dispatch with
//                 per-dataset fair share, replacing FIFO rounds.
//
// Two measurements, reported without adjustment:
//
//  1. Reference 32-scenario chaos batch end to end, baseline (share off,
//     fifo) vs engine (share + fair). On a
//     compute-bound mix the model's chemistry hour loop dominates
//     (cf. BENCH_host_parallel.json phase split: >95% chemistry), so the
//     end-to-end wall gain is bounded by the amortizable fraction — the
//     honest wall numbers and the per-config setup/compute split are
//     committed as measured, along with proof the archives stay
//     byte-identical across every knob combination and thread count.
//     The same specs under share + fifo and share + fair at 4 threads
//     check that the fair schedule is no slower than fifo.
//
//  2. The input path in isolation — the work the cache actually amortizes:
//     wall time to materialize every scenario dataset of the batch with
//     and without the shared cache. This is where the >=2x scenarios/hour
//     target lands (one base build instead of N on the NE mesh), and the
//     committed ratio is a real wall-clock measurement, not a model.
//
// Emits BENCH_svc_throughput.json. `--smoke` shrinks the mix for CI
// sanitizer runs.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <airshed/airshed.h>

#include "bench_common.hpp"

namespace {

using namespace airshed;
namespace fs = std::filesystem;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

/// Archive contents for byte comparison: name -> bytes, journal excluded.
std::map<std::string, std::string> archive_bytes(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.find(".journal") != std::string::npos) continue;
    out[name] = durable::read_file_bytes(e.path().string());
  }
  return out;
}

struct BatchRun {
  svc::BatchReport report;
  double wall_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  using clock = std::chrono::steady_clock;

  // The reference mix: the same shape as abl_svc_resilience (heavy-tailed
  // TEST episodes under every chaos class), so the two benches describe
  // the same workload from the robustness and throughput sides.
  svc::JobMixOptions mix;
  mix.scenarios = smoke ? 6 : 32;
  mix.dataset = "TEST";
  mix.hours_min = smoke ? 1 : 2;
  mix.hours_max = smoke ? 2 : 8;
  mix.hours_alpha = 1.1;

  svc::BatchOptions base_opts;
  base_opts.batch_seed = 1998;
  base_opts.max_attempts = 3;
  base_opts.breaker_threshold = 3;
  base_opts.breaker_cooldown_rounds = 2;
  base_opts.chaos.node_death = 0.12;
  base_opts.chaos.straggler = 0.15;
  base_opts.chaos.storage_fault = 0.08;
  base_opts.chaos.payload_corruption = 0.05;
  base_opts.chaos.numerics = 0.06;
  base_opts.chaos.hang = 0.05;
  base_opts.chaos.poison_scenarios =
      smoke ? std::vector<int>{3} : std::vector<int>{3, 17};

  const auto specs = svc::make_job_mix(base_opts.batch_seed, mix);
  int mix_hours = 0;
  for (const svc::ScenarioSpec& s : specs) mix_hours += s.hours;
  const int threads_hi = smoke ? 4 : 8;
  const int cores = par::hardware_threads();

  std::printf(
      "Throughput bench: %d TEST scenarios (%d model-hours), full chaos,\n"
      "%d threads on %d host core(s)\n\n",
      mix.scenarios, mix_hours, threads_hi, cores);

  const fs::path work =
      fs::temp_directory_path() /
      ("airshed_svc_throughput_" + std::to_string(::getpid()));
  fs::remove_all(work);
  fs::create_directories(work);

  // ------------------------- part 1: reference batch, baseline vs engine
  const auto run_batch = [&](const std::string& tag, bool share,
                             svc::Schedule schedule, int threads,
                             obs::MetricsRegistry* metrics) {
    svc::BatchOptions opts = base_opts;
    opts.threads = threads;
    opts.share_inputs = share;
    opts.schedule = schedule;
    opts.archive_dir = (work / ("archive_" + tag)).string();
    opts.metrics = metrics;
    BatchRun out;
    const clock::time_point t0 = clock::now();
    out.report = svc::BatchSupervisor(opts).run(specs);
    out.wall_s = std::chrono::duration<double>(clock::now() - t0).count();
    return out;
  };
  const auto per_hour = [](int scenarios, double wall_s) {
    return wall_s > 0.0 ? static_cast<double>(scenarios) * 3600.0 / wall_s
                        : 0.0;
  };

  obs::MetricsRegistry metrics;
  const BatchRun baseline = run_batch("baseline", false, svc::Schedule::Fifo,
                                      threads_hi, nullptr);
  const BatchRun engine = run_batch("engine", true, svc::Schedule::Fair,
                                    threads_hi, &metrics);

  std::printf("reference batch (end to end, chemistry-bound):\n");
  std::printf("  %-28s wall %7.2f s  %7.1f scn/h  setup %6.3f s\n",
              "baseline (rebuild, fifo)", baseline.wall_s,
              per_hour(mix.scenarios, baseline.wall_s),
              baseline.report.setup_s);
  std::printf("  %-28s wall %7.2f s  %7.1f scn/h  setup %6.3f s\n",
              "engine (share+fair)", engine.wall_s,
              per_hour(mix.scenarios, engine.wall_s), engine.report.setup_s);
  const double wall_speedup =
      engine.wall_s > 0.0 ? baseline.wall_s / engine.wall_s : 0.0;
  std::printf("  end-to-end wall speedup %.3fx on %d core(s)\n\n",
              wall_speedup, cores);

  // The knobs must not move a single result byte. Same statuses, same
  // checksums, same manifest.
  const auto baseline_files = archive_bytes((work / "archive_baseline").string());
  const bool same_archive =
      baseline_files == archive_bytes((work / "archive_engine").string());
  check(same_archive, "engine archive must be byte-identical to baseline");
  check(baseline.report.completed == engine.report.completed &&
            baseline.report.degraded == engine.report.degraded &&
            baseline.report.quarantined == engine.report.quarantined,
        "statuses must be identical across configs");

  // Sharing must actually engage on the reference batch.
  check(engine.report.input_cache_misses >= 1 &&
            engine.report.input_cache_hits > 0,
        "input cache must serve hits on the reference batch");
  check(baseline.report.input_cache_hits == 0,
        "baseline must not share anything");

  // Engine-side counters flow through the obs registry (airshed_cli trace
  // renders the same registry).
  check(metrics.counter("svc/input_cache_hits").value() ==
            engine.report.input_cache_hits,
        "obs counter svc/input_cache_hits");
  check(metrics.counter("svc/input_cache_misses").value() ==
            engine.report.input_cache_misses,
        "obs counter svc/input_cache_misses");

  // Byte-identity sweep: the engine config at 1/2/8 threads lands the
  // same canonical report and manifest bytes.
  std::printf("identity sweep (engine config across thread counts):\n");
  bool sweep_identical = true;
  const std::string ref_report = engine.report.canonical_json().str();
  for (int threads : {1, 2}) {  // plus threads_hi via the engine run above
    const BatchRun run = run_batch("sweep_t" + std::to_string(threads), true,
                                   svc::Schedule::Fair, threads, nullptr);
    const bool same_rep = run.report.canonical_json().str() == ref_report;
    const bool same_arc =
        archive_bytes((work / ("archive_sweep_t" + std::to_string(threads)))
                          .string()) ==
        archive_bytes((work / "archive_engine").string());
    check(same_rep, "canonical report identical at " +
                        std::to_string(threads) + " threads");
    check(same_arc,
          "archive identical at " + std::to_string(threads) + " threads");
    sweep_identical = sweep_identical && same_rep && same_arc;
    std::printf("  %d thread(s): report %s, archive %s\n", threads,
                same_rep ? "identical" : "MISMATCH",
                same_arc ? "identical" : "MISMATCH");
  }
  std::printf("\n");

  // Fair must be no slower than fifo on the same specs at 4 threads. Lanes
  // claim scenarios from each other and help running ones with their
  // chemistry, so the shortest-first order no longer strands the longest
  // scenarios on one lane. Wall-clock only, so the smoke run (sanitizer
  // builds, a six-scenario mix) reports it without gating on it.
  const BatchRun fifo4 =
      run_batch("fifo_t4", true, svc::Schedule::Fifo, 4, nullptr);
  const BatchRun fair4 =
      run_batch("fair_t4", true, svc::Schedule::Fair, 4, nullptr);
  const double fair_over_fifo =
      fifo4.wall_s > 0.0 ? fair4.wall_s / fifo4.wall_s : 0.0;
  std::printf("schedules at 4 threads (share on): fifo %.2f s, fair %.2f s "
              "(fair/fifo %.3f)\n\n",
              fifo4.wall_s, fair4.wall_s, fair_over_fifo);
  if (!smoke) {
    check(fair4.wall_s <= fifo4.wall_s,
          "fair schedule must be no slower than fifo at 4 threads");
  }

  // ----------------------- part 2: the input path the cache amortizes
  // Wall time to materialize every scenario dataset of a batch, with and
  // without the shared cache — the rebuild-everything cost the supervisor
  // used to pay on every attempt. NE makes the base cost visible (3328
  // points of multiscale refinement); smoke stays on TEST for sanitizers.
  svc::JobMixOptions input_mix = mix;
  input_mix.dataset = smoke ? "TEST" : "NE";
  input_mix.hours_min = 1;
  input_mix.hours_max = 1;
  const auto input_specs = svc::make_job_mix(1998, input_mix);

  const bench::WallStats rebuild =
      bench::measure_wall(1, smoke ? 2 : 3, [&] {
        for (const svc::ScenarioSpec& s : input_specs) {
          (void)svc::build_scenario_dataset(s);
        }
      });
  const bench::WallStats shared = bench::measure_wall(1, smoke ? 2 : 3, [&] {
    svc::SharedInputCache cache;  // one batch = one cache: cold per sample
    for (const svc::ScenarioSpec& s : input_specs) {
      (void)svc::build_scenario_dataset(s, false, &cache);
    }
  });
  const double input_speedup =
      shared.median_s > 0.0 ? rebuild.median_s / shared.median_s : 0.0;
  std::printf("input path (%d %s scenario datasets per batch):\n",
              input_mix.scenarios, input_mix.dataset.c_str());
  std::printf("  rebuild-everything  %8.3f s  (%7.1f datasets/h)\n",
              rebuild.median_s,
              per_hour(input_mix.scenarios, rebuild.median_s));
  std::printf("  shared input cache  %8.3f s  (%7.1f datasets/h)\n",
              shared.median_s,
              per_hour(input_mix.scenarios, shared.median_s));
  std::printf("  input-path speedup  %.1fx\n\n", input_speedup);
  check(input_speedup >= 2.0,
        "shared input cache must beat rebuild-everything by >=2x on the "
        "input path");

  // --------------------------------------------------------------- JSON
  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("svc_throughput");
  json.key("smoke").value(smoke);
  json.key("host_cores").value(cores);
  json.key("batch_seed").value(static_cast<long long>(base_opts.batch_seed));
  json.key("scenarios").value(mix.scenarios);
  json.key("model_hours").value(mix_hours);
  json.key("threads").value(threads_hi);
  json.key("reference_batch").begin_object();
  const auto emit_config = [&](const char* name, const BatchRun& run,
                               const char* desc) {
    json.key(name).begin_object();
    json.key("config").value(desc);
    json.key("wall_s").value(run.wall_s);
    json.key("scenarios_per_hour").value(per_hour(mix.scenarios, run.wall_s));
    json.key("setup_s").value(run.report.setup_s);
    json.key("input_cache_hits").value(run.report.input_cache_hits);
    json.key("input_cache_misses").value(run.report.input_cache_misses);
    json.key("rounds").value(run.report.rounds);
    json.key("retries").value(run.report.retries);
    json.end_object();
  };
  emit_config("baseline", baseline,
              "rebuild-everything: share off, fifo");
  emit_config("engine", engine, "share_inputs + fair schedule");
  json.key("wall_speedup").value(wall_speedup);
  json.key("wall_note")
      .value("chemistry-bound mix on this host: end-to-end wall is bounded "
             "by the model hour loop (see BENCH_host_parallel.json phase "
             "split); the amortizable input path is measured separately "
             "below");
  json.key("archive_identical_across_configs").value(same_archive);
  json.key("identity_sweep_identical").value(sweep_identical);
  json.end_object();
  json.key("fair_vs_fifo").begin_object();
  json.key("threads").value(4);
  json.key("fifo_wall_s").value(fifo4.wall_s);
  json.key("fair_wall_s").value(fair4.wall_s);
  json.key("fair_over_fifo").value(fair_over_fifo);
  json.key("fair_no_slower").value(fair4.wall_s <= fifo4.wall_s);
  json.end_object();
  json.key("queue_wait_rounds").begin_array();
  for (long long c : engine.report.queue_wait_rounds) json.value(c);
  json.end_array();
  json.key("input_path").begin_object();
  json.key("dataset").value(input_mix.dataset);
  json.key("datasets_per_batch").value(input_mix.scenarios);
  json.key("rebuild_median_s").value(rebuild.median_s);
  json.key("rebuild_datasets_per_hour")
      .value(per_hour(input_mix.scenarios, rebuild.median_s));
  json.key("shared_median_s").value(shared.median_s);
  json.key("shared_datasets_per_hour")
      .value(per_hour(input_mix.scenarios, shared.median_s));
  json.key("speedup").value(input_speedup);
  json.key("meets_2x_target").value(input_speedup >= 2.0);
  json.end_object();
  json.key("failed_checks").value(static_cast<long long>(g_failures));
  json.end_object();
  bench::write_bench_json("svc_throughput", json);

  fs::remove_all(work);

  if (g_failures > 0) {
    std::printf("\n%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf(
      "takeaway: sharing and fair scheduling change batch wall\n"
      "time and counters only — the archives stay byte-identical, and the\n"
      "input path the cache amortizes runs %.0fx faster than rebuilding\n"
      "every scenario's base from scratch.\n",
      input_speedup);
  return 0;
}
