// Shared helpers for the figure-reproduction benches.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <airshed/airshed.h>

namespace airshed::bench {

/// Default episode length (hours). The paper's LA/NE episodes are full-day
/// runs; override with AIRSHED_BENCH_HOURS for quick checks.
inline constexpr int kDefaultHours = 24;

inline int env_hours() {
  if (const char* e = std::getenv("AIRSHED_BENCH_HOURS")) {
    const int h = std::atoi(e);
    if (h >= 1) return h;
  }
  return kDefaultHours;
}

inline const int kHours = env_hours();

/// Node counts swept by the paper's figures.
inline const std::vector<int> kNodeCounts = {4, 8, 16, 32, 64, 128};

/// Trace cache directory: AIRSHED_TRACE_DIR or ./traces.
inline std::string trace_dir() {
  if (const char* e = std::getenv("AIRSHED_TRACE_DIR")) return e;
  return "traces";
}

inline std::string trace_path(const std::string& dir, const std::string& name,
                              int hours) {
  return dir + "/" + name + "_" + std::to_string(hours) + "h.trace";
}

/// Runs the physics for the named dataset ("LA" or "NE") and returns the
/// trace.
inline WorkTrace generate_trace(const std::string& name, int hours) {
  const Dataset ds = name == "NE" ? northeast_dataset() : la_basin_dataset();
  ModelOptions opts;
  opts.hours = hours;
  AirshedModel model(ds, opts);
  return model.run().trace;
}

/// Loads the cached trace, generating (and caching) it if missing.
inline WorkTrace load_trace(const std::string& name, int hours = kHours) {
  const std::string dir = trace_dir();
  std::filesystem::create_directories(dir);
  return WorkTrace::cached(trace_path(dir, name, hours),
                           [&] { return generate_trace(name, hours); });
}

/// Documented accuracy contract of LaneMode::tolerance: maximum relative
/// error of any final concentration / PM value against the strict (or
/// scalar) fields, rel = |tol - ref| / max(|ref|, 1e-9 ppm). See
/// docs/BENCHMARKS.md.
inline constexpr double kToleranceRelBound = 1e-6;

inline double max_rel_err(const ModelRunResult& got,
                          const ModelRunResult& ref) {
  double worst = 0.0;
  const auto scan = [&](std::span<const double> a, std::span<const double> b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double scale = std::max(std::abs(b[i]), 1e-9);
      worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
    }
  };
  scan(got.outputs.conc.flat(), ref.outputs.conc.flat());
  scan(std::span<const double>(got.outputs.pm.flat()),
       std::span<const double>(ref.outputs.pm.flat()));
  return worst;
}

/// The BENCH_*.json artifacts use the project's shared schema writer
/// (airshed/obs/json.hpp): insertion-ordered keys, shortest round-trip
/// doubles with non-finite -> null, fully escaped strings. See
/// docs/BENCHMARKS.md for the per-bench field reference.
using JsonWriter = obs::JsonWriter;

/// Wall-clock measurement of one bench configuration: `warmup` untimed runs
/// followed by `repeats` timed runs of `fn`. Median and min are the robust
/// summary statistics (mean is polluted by one-off scheduler noise).
struct WallStats {
  double median_s = 0.0;
  double min_s = 0.0;
  std::vector<double> samples_s;  ///< raw timed samples, run order
};

inline WallStats measure_wall(int warmup, int repeats,
                              const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  WallStats stats;
  for (int i = 0; i < warmup; ++i) fn();
  stats.samples_s.reserve(static_cast<std::size_t>(std::max(repeats, 0)));
  for (int i = 0; i < repeats; ++i) {
    const clock::time_point t0 = clock::now();
    fn();
    stats.samples_s.push_back(
        std::chrono::duration<double>(clock::now() - t0).count());
  }
  if (stats.samples_s.empty()) return stats;
  std::vector<double> sorted = stats.samples_s;
  std::sort(sorted.begin(), sorted.end());
  stats.min_s = sorted.front();
  const std::size_t n = sorted.size();
  stats.median_s = n % 2 == 1 ? sorted[n / 2]
                              : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  return stats;
}

/// Normalizes a wall time to nanoseconds per processed cell (the kernel
/// engine's figure of merit: cells = grid points x layers x steps).
inline double ns_per_cell(double seconds, double cells) {
  return cells > 0.0 ? seconds * 1e9 / cells : 0.0;
}

/// Writes a bench artifact `BENCH_<name>.json` into the current directory
/// (run benches from the repo root to land them there).
inline void write_bench_json(const std::string& name, const JsonWriter& json) {
  const std::string path = "BENCH_" + name + ".json";
  if (!obs::write_json_file(path, json)) {
    std::printf("FAILED to write %s\n", path.c_str());
    return;
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), json.str().size() + 1);
}

}  // namespace airshed::bench
