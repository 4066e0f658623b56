// Shared plumbing of the repository benchmark program: arguments, the
// result record, closed-loop timing, set-up sampling and small statistics.
//
// The binary sits outside the library: it generates seeded inputs, calls
// only public entry points and times each call from outside. Every
// workload fills one Result; main.cpp prints it as the final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <airshed/airshed.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host threads every workload's timed phase uses (the 4-core host).
inline constexpr int kThreads = 4;

/// Set-up sampling (see SetupSampler): kSetupSamplesPerOp samples after
/// each timed op, each averaging consecutive set-ups over about
/// kSetupSampleSeconds.
inline constexpr std::size_t kSetupSamplesPerOp = 3;
inline constexpr double kSetupSampleSeconds = 5e-3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  /// Shrunken inputs for the benchmark's self-tests (names and checks are
  /// the same; sizes are not comparable with full runs).
  bool smoke = false;
  /// Self-test fault: "digest" alters one result digest, "truncate" cuts
  /// one archive container in half, before verification.
  std::string tamper;
  /// Print the generated inputs and exit (generator purity self-test).
  bool dump_specs = false;
};

struct Result {
  long long attempted = 0;
  long long failed = 0;
  /// Run-level check failures (reference mismatch of a whole report, ...).
  std::vector<std::string> errors;
  /// Metric values by name; units come from the declared metric table
  /// (main.cpp), which also fills the per-layer metrics a workload does
  /// not reach.
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  bool correct() const { return failed == 0 && errors.empty(); }
};

double median(std::vector<double> values);

/// Median of each metric over several per-op maps (same keys in each).
std::map<std::string, double> median_each(
    const std::vector<std::map<std::string, double>>& per_op);

/// Samples the wall time of a workload's set-up. A sample is the mean of
/// enough consecutive set-ups to take about kSetupSampleSeconds, so that a
/// sub-microsecond set-up is not clock noise. Samples are taken after each
/// timed op (sample_after_op), so that their median spans the run as the
/// timed ops do and every sample finds the machine in the same state:
/// this shared host has slow spells of seconds that would otherwise catch
/// a whole set-up phase.
class SetupSampler {
 public:
  explicit SetupSampler(std::function<void()> setup);
  void sample_after_op();
  double median() const { return perfbench::median(samples_); }

 private:
  std::function<void()> setup_;
  std::size_t per_sample_ = 1;
  std::vector<double> samples_;
};

/// Ops per closed loop at least, so that no median is a single sample.
inline constexpr std::size_t kMinOps = 2;

/// Closed loop: calls op() until `seconds` have elapsed and kMinOps calls
/// are done, and returns each call's wall seconds. `between`, when given,
/// runs untimed after each op.
std::vector<double> closed_loop(double seconds, const std::function<void()>& op,
                                const std::function<void()>& between = {});

/// Index of the op whose "wall_s" is closest to the median: the traced op
/// whose attribution is printed.
std::size_t median_op(const std::vector<std::map<std::string, double>>& per_op);

/// Runs fn() and returns its wall seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return since(t0);
}

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Per-layer self time of one traced op, printed with its share of the
/// traced wall and the unattributed remainder.
void print_attribution(const std::string& workload, double wall_s,
                       const std::vector<std::pair<std::string, double>>& layers);

/// Sum of the durations (s) of thread-0 host spans named `name`.
double span_seconds(const airshed::obs::TraceSession& session,
                    const std::string& name);

/// core/par/chem/transport metrics of one traced model run: its host
/// profile, wall seconds, per-hour wall seconds, cells (points x layers)
/// and model steps.
std::map<std::string, double> layer_metrics(const airshed::HostProfile& p,
                                            double wall,
                                            const std::vector<double>& hour_s,
                                            double cells, long long steps);

/// The benchmark's job-mix options: `scenarios` scenarios with policy
/// knobs in [0.95, 1.05] and perturbations in [0.98, 1.02]. The default
/// +-30% knobs move LA chemistry work by up to 20% between seeds; the
/// narrow range keeps per-seed work, and so the timings, comparable.
airshed::svc::JobMixOptions job_mix(int scenarios);

/// Seeded policy controls (the job mix's knob draw for scenario 0).
airshed::ControlScenario seeded_controls(std::uint64_t seed);

/// Episode lengths: the `n` stratified quantiles of the job mix's bounded
/// Pareto on [lo, hi] hours (rounded as svc::make_job_mix rounds), so the
/// total work of a mix is the same under every seed.
std::vector<int> stratified_hours(int n, int lo, int hi, double alpha);

std::string describe(const airshed::ControlScenario& c);

// Workload entry points (forecast.cpp, batch.cpp).
void run_forecast(const Args& args, Result& result);
void run_batch(const Args& args, Result& result);
bool is_forecast(const std::string& workload);
bool is_batch(const std::string& workload);

}  // namespace perfbench
