#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::map<std::string, double> median_each(
    const std::vector<std::map<std::string, double>>& per_op) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& op : per_op) {
    for (const auto& [name, value] : op) columns[name].push_back(value);
  }
  std::map<std::string, double> out;
  for (auto& [name, values] : columns) out[name] = median(std::move(values));
  return out;
}

std::size_t median_op(const std::vector<std::map<std::string, double>>& per_op) {
  std::vector<double> walls;
  for (const auto& op : per_op) walls.push_back(op.at("wall_s"));
  const double mid = median(walls);
  std::size_t best = 0;
  for (std::size_t i = 1; i < walls.size(); ++i) {
    if (std::abs(walls[i] - mid) < std::abs(walls[best] - mid)) best = i;
  }
  return best;
}

SetupSampler::SetupSampler(std::function<void()> setup)
    : setup_(std::move(setup)) {
  const double first = timed(setup_);
  per_sample_ = static_cast<std::size_t>(std::clamp(
      kSetupSampleSeconds / std::max(first, 1e-9), 1.0, 1e7));
}

void SetupSampler::sample_after_op() {
  for (std::size_t k = 0; k < kSetupSamplesPerOp; ++k) {
    const double s = timed([&] {
      for (std::size_t i = 0; i < per_sample_; ++i) setup_();
    });
    samples_.push_back(s / static_cast<double>(per_sample_));
  }
}

std::vector<double> closed_loop(double seconds, const std::function<void()>& op,
                                const std::function<void()>& between) {
  std::vector<double> walls;
  const auto t0 = Clock::now();
  do {
    walls.push_back(timed(op));
    if (between) between();
  } while (since(t0) < seconds || walls.size() < kMinOps);
  std::printf("closed loop: %zu ops, wall s:", walls.size());
  for (double w : walls) std::printf(" %.4f", w);
  std::printf("\n");
  return walls;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_attribution(
    const std::string& workload, double wall_s,
    const std::vector<std::pair<std::string, double>>& layers) {
  double attributed = 0.0;
  std::printf("attribution %s: traced wall %.4f s\n", workload.c_str(), wall_s);
  for (const auto& [name, self_s] : layers) {
    attributed += self_s;
    std::printf("  %-28s %9.4f s  %5.1f%%\n", name.c_str(), self_s,
                100.0 * self_s / wall_s);
  }
  std::printf("  %-28s %9.4f s  %5.1f%%\n", "unattributed", wall_s - attributed,
              100.0 * (wall_s - attributed) / wall_s);
}

double span_seconds(const airshed::obs::TraceSession& session,
                    const std::string& name) {
  // The pool labels its thread-0 block with the enclosing phase's name, so
  // same-named spans nest: count the covered interval once.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (const airshed::obs::CompletedSpan& span : session.host) {
    if (span.thread == 0 && span.name == name) {
      spans.emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::sort(spans.begin(), spans.end());
  std::uint64_t covered = 0, reach = 0;
  for (const auto& [start, end] : spans) {
    if (end <= reach) continue;
    covered += end - std::max(start, reach);
    reach = end;
  }
  return 1e-9 * static_cast<double>(covered);
}

std::map<std::string, double> layer_metrics(const airshed::HostProfile& p, double wall,
                                            const std::vector<double>& hour_s,
                                            double cells, long long steps) {
  std::map<std::string, double> m;
  const double threads = p.threads;
  m["core.hour_p50_s"] = median(hour_s);
  m["core.hour_max_s"] = *std::max_element(hour_s.begin(), hour_s.end());
  m["core.transport_s"] = p.transport_s;
  m["core.chemistry_s"] = p.chemistry_s;
  m["core.aerosol_s"] = p.aerosol_s;
  m["core.io_s"] = p.io_s;
  m["core.engine_setup_s"] = p.setup_s;
  // Wall time outside the pooled phases: the Amdahl serial part.
  m["core.serial_s"] = wall - p.transport_s - p.chemistry_s - p.setup_s;

  double busy = 0.0, busy_max = 0.0;
  for (double b : p.thread_busy_s) {
    busy += b;
    busy_max = std::max(busy_max, b);
  }
  const double pooled = p.transport_s + p.chemistry_s;
  m["par.busy_frac"] = busy / (threads * pooled);
  m["par.imbalance"] = busy_max / (busy / threads);

  const double live = static_cast<double>(p.lane_evals_live);
  const double lookups = static_cast<double>(
      p.rate_cache_hits + p.rate_cache_shared_hits + p.rate_evals);
  m["chem.lane_occupancy"] = live / static_cast<double>(p.lane_evals_dense);
  m["chem.ns_per_live_lane"] = 1e9 * p.chemistry_s * threads / live;
  m["chem.substeps"] = static_cast<double>(p.chem_substeps);
  m["chem.rate_evals"] = static_cast<double>(p.rate_evals);
  m["chem.rate_cache_hit_ratio"] =
      static_cast<double>(p.rate_cache_hits + p.rate_cache_shared_hits) /
      lookups;
  // Two transport half-steps per model step, every cell and species.
  m["transport.ns_per_cell_species"] =
      1e9 * p.transport_s * threads /
      (cells * airshed::kSpeciesCount * 2.0 * static_cast<double>(steps));
  return m;
}

airshed::svc::JobMixOptions job_mix(int scenarios) {
  airshed::svc::JobMixOptions mix;
  mix.scenarios = scenarios;
  mix.control_lo = 0.95;
  mix.control_hi = 1.05;
  mix.perturbation_lo = 0.98;
  mix.perturbation_hi = 1.02;
  return mix;
}

airshed::ControlScenario seeded_controls(std::uint64_t seed) {
  airshed::svc::JobMixOptions mix = job_mix(1);
  mix.hours_min = mix.hours_max = 1;
  const airshed::svc::ScenarioSpec spec =
      airshed::svc::make_job_mix(seed, mix).front();
  return airshed::svc::scenario_dataset_spec(spec).controls;
}

std::vector<int> stratified_hours(int n, int lo, int hi, double alpha) {
  std::vector<int> hours;
  for (int i = 0; i < n; ++i) {
    const double u = (i + 0.5) / n;
    const double h = airshed::svc::bounded_pareto(
        u, lo, static_cast<double>(hi) + 1.0 - 1e-9, alpha);
    hours.push_back(std::clamp(static_cast<int>(h), lo, hi));
  }
  return hours;
}

std::string describe(const airshed::ControlScenario& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "nox=%.17g voc=%.17g co=%.17g so2=%.17g nh3=%.17g",
                c.nox_scale, c.voc_scale, c.co_scale, c.so2_scale, c.nh3_scale);
  return buf;
}

}  // namespace perfbench
