// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--smoke] [--tamper digest|truncate]
//             [--dump-specs]
//
// Prints human-readable lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// correctness check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "common.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

struct Declared {
  const char* name;
  const char* unit;
};

// The metric table; BENCHMARK.json declares the same names and units.
constexpr Declared kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"cell_hours_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr Declared kPerLayer[] = {
    {"svc.lane_idle_frac", "ratio"},
    {"svc.critical_lane_s", "s"},
    {"svc.lpt_bound_s", "s"},
    {"svc.lpt_gap", "ratio"},
    {"svc.attempt_p50_s", "s"},
    {"svc.attempt_max_s", "s"},
    {"svc.rounds", "count"},
    {"svc.retries", "count"},
    {"svc.degraded", "count"},
    {"svc.rate_shared_hits", "count"},
    {"svc.input_cache_hit_ratio", "ratio"},
    {"svc.engine_reuse_ratio", "ratio"},
    {"svc.setup_s", "s"},
    {"core.hour_p50_s", "s"},
    {"core.hour_max_s", "s"},
    {"core.transport_s", "s"},
    {"core.chemistry_s", "s"},
    {"core.aerosol_s", "s"},
    {"core.io_s", "s"},
    {"core.serial_s", "s"},
    {"core.engine_setup_s", "s"},
    {"par.busy_frac", "ratio"},
    {"par.imbalance", "ratio"},
    {"chem.lane_occupancy", "ratio"},
    {"chem.ns_per_live_lane", "ns"},
    {"chem.substeps", "count"},
    {"chem.rate_evals", "count"},
    {"chem.rate_cache_hit_ratio", "ratio"},
    {"transport.ns_per_cell_species", "ns"},
    {"io.dataset_build_s", "s"},
    {"io.archive_bytes", "bytes"},
    {"io.archive_files", "count"},
    {"city.generate_s", "s"},
    {"durable.journal_bytes", "bytes"},
    {"durable.verify_s", "s"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.non_chem_frac", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <la-batch|"
               "la-forecast|uniform-forecast|city-chaos> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--smoke] "
               "[--tamper digest|truncate] [--dump-specs]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = next();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(next().c_str());
    } else if (flag == "--trace") {
      a.trace = next() == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = next();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--tamper") {
      a.tamper = next();
    } else if (flag == "--dump-specs") {
      a.dump_specs = true;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (!perfbench::is_forecast(a.workload) && !perfbench::is_batch(a.workload)) {
    usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (!a.tamper.empty() && a.tamper != "digest" &&
      !(a.tamper == "truncate" && perfbench::is_batch(a.workload))) {
    usage("--tamper takes digest, or truncate on a batch workload");
  }
  return a;
}

/// The build this binary was compiled in; an unoptimized build is flagged.
void print_build() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("build: type %s, compiler %s, flags '%s'%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
              optimized ? "" : " -- WARNING: UNOPTIMIZED BUILD");
}

void print_result(const Args& a, const Result& r) {
  airshed::obs::JsonWriter json;
  json.begin_object();
  json.key("correct").value(r.correct());
  json.key("attempted").value(r.attempted);
  json.key("failed").value(r.failed);
  json.key("metrics").begin_object();
  const auto emit = [&](const Declared& d, double value) {
    std::printf("  %-32s %.6g %s\n", d.name, value, d.unit);
    json.key(d.name).begin_object();
    json.key("value").value(value);
    json.key("unit").value(d.unit);
    json.end_object();
  };
  std::printf("%s seed %llu (%s):\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed),
              a.trace ? "traced" : "untraced");
  if (a.trace) {
    for (const Declared& d : kPerLayer) {
      const auto it = r.metrics.find(d.name);
      // 0 marks a layer this workload does not reach (see README.md).
      emit(d, it == r.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const Declared& d : kEndToEnd) emit(d, r.metrics.at(d.name));
  }
  json.end_object();
  json.end_object();
  const double failed_frac =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::printf("  %-32s %.6g ratio (%lld of %lld results)\n", "failed_frac",
              failed_frac, r.failed, r.attempted);
  for (const std::string& e : r.errors) std::printf("check failed: %s\n", e.c_str());
  std::printf("%s\n", json.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  Result r;
  try {
    if (!a.dump_specs) print_build();
    if (perfbench::is_forecast(a.workload)) {
      perfbench::run_forecast(a, r);
    } else {
      perfbench::run_batch(a, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (a.dump_specs) return 0;
  print_result(a, r);
  return r.correct() ? 0 : 1;
}
