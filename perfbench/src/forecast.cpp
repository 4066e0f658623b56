// Forecast workloads: one model run at a time, submitted by one caller and
// waited for (closed loop), at host_threads = 4 with no svc layer.
//
//   la-forecast       AirshedModel on the LA multiscale dataset (SUPG
//                     transport, lane-parallel chemistry)
//   uniform-forecast  UniformAirshedModel on LA-uniform 40 x 40 (1-D van
//                     Leer transport)
//
// The seed draws the policy controls. Every run's final-field digest must
// equal a host_threads = 1 reference run of the same inputs.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "common.hpp"

namespace perfbench {
namespace {

using namespace airshed;

std::size_t layers_of(const Dataset& ds) {
  return static_cast<std::size_t>(ds.layers());
}
std::size_t layers_of(const UniformDataset& ds) {
  return static_cast<std::size_t>(ds.layers);
}

template <typename DatasetT, typename ModelT>
void forecast(const Args& a, Result& res, int hours,
              const std::function<DatasetT()>& build) {
  ModelOptions mo;
  mo.hours = hours;
  mo.host_threads = kThreads;

  // Set-up: dataset build + model construction. The sampler repeats it on
  // throwaway products; the timed phase uses one more build.
  double build_total = 0.0;
  long long builds = 0;
  SetupSampler setup([&] {
    std::optional<DatasetT> d;
    build_total += timed([&] { d.emplace(build()); });
    ++builds;
    const ModelT m(*d, mo);
  });
  const DatasetT ds = build();
  ModelT model(ds, mo);
  const double cells = static_cast<double>(ds.points() * layers_of(ds));
  const double cell_hours = cells * hours;

  std::vector<std::uint64_t> digests;
  const auto run_op = [&] {
    ModelRunResult r = model.run();
    digests.push_back(svc::field_digest(r.outputs));
  };
  const std::vector<double> walls =
      closed_loop(a.seconds, run_op, [&] { setup.sample_after_op(); });

  // Traced run: the public sinks attached (trace recorder, host profile,
  // hour callback), per-op metrics, median per metric.
  std::vector<std::map<std::string, double>> traced;
  std::vector<double> traced_walls;
  if (a.trace) {
    obs::TraceRecorder rec(kThreads);
    HostProfile prof;
    ModelOptions to = mo;
    to.trace = &rec;
    to.profile = &prof;
    ModelT tmodel(ds, to);
    obs::TraceSession last;
    const auto t_op = [&] {
      std::vector<double> hour_s;
      auto mark = Clock::now();
      const HourCallback on_hour = [&](const HourlyStats&,
                                       const ConcentrationField&) {
        hour_s.push_back(since(mark));
        mark = Clock::now();
      };
      const auto t0 = Clock::now();
      ModelRunResult r = tmodel.run(on_hour);
      const double wall = since(t0);
      digests.push_back(svc::field_digest(r.outputs));
      traced_walls.push_back(wall);
      auto m = layer_metrics(prof, wall, hour_s, cells, r.trace.total_steps());
      last = rec.drain();
      m["attr.io_s"] = span_seconds(last, "inputhour") +
                       span_seconds(last, "outputhour");
      m["attr.transport_s"] = span_seconds(last, "transport Lxy");
      m["attr.chemistry_s"] = span_seconds(last, "chemistry Lcz");
      m["attr.aerosol_s"] = span_seconds(last, "aerosol");
      m["wall_s"] = wall;
      traced.push_back(std::move(m));
    };
    closed_loop(a.seconds, t_op);
  }

  // One-thread reference of the same inputs.
  ModelOptions ro = mo;
  ro.host_threads = 1;
  const std::uint64_t reference = svc::field_digest(ModelT(ds, ro).run().outputs);

  if (a.tamper == "digest") digests.front() ^= 1;
  std::vector<double> rates;
  for (std::size_t i = 0; i < digests.size(); ++i) {
    ++res.attempted;
    const bool ok = digests[i] == reference;
    if (!ok) {
      ++res.failed;
      std::printf("check failed: forecast %zu digest %s != reference %s\n", i,
                  hash_hex(digests[i]).c_str(), hash_hex(reference).c_str());
    }
    if (i < walls.size()) rates.push_back(ok ? cell_hours / walls[i] : 0.0);
  }

  if (!a.trace) {
    res.set("wall_s", median(walls));
    res.set("setup_s", setup.median());
    res.set("cell_hours_per_s", median(rates));
    res.set("peak_rss_mb", peak_rss_mib());
    std::printf("forecast: %zu runs of %d h on %.0f cells, %d threads\n",
                walls.size(), hours, cells, kThreads);
    return;
  }

  const std::map<std::string, double> m = median_each(traced);
  for (const auto& [name, value] : m) {
    if (name.rfind("attr.", 0) != 0 && name != "wall_s") res.set(name, value);
  }
  res.set("io.dataset_build_s", build_total / static_cast<double>(builds));
  res.set("obs.trace_overhead_frac", median(traced_walls) / median(walls) - 1.0);
  const std::map<std::string, double>& op = traced[median_op(traced)];
  const double wall = op.at("wall_s");
  const double chem = op.at("attr.chemistry_s");
  res.set("obs.non_chem_frac", 1.0 - chem / wall);
  print_attribution(a.workload, wall,
                    {{"core.engine_setup", op.at("core.engine_setup_s")},
                     {"io (inputhour+outputhour)", op.at("attr.io_s")},
                     {"transport Lxy", op.at("attr.transport_s")},
                     {"chemistry Lcz", chem},
                     {"aerosol", op.at("attr.aerosol_s")}});
}

}  // namespace

bool is_forecast(const std::string& w) {
  return w == "la-forecast" || w == "uniform-forecast";
}

void run_forecast(const Args& a, Result& res) {
  const ControlScenario controls = seeded_controls(a.seed);
  const bool la = a.workload == "la-forecast";
  const int hours = a.smoke || !la ? 1 : 2;
  if (a.dump_specs) {
    std::printf("workload %s\nhours %d\nthreads %d\ndataset %s\ncontrols %s\n",
                a.workload.c_str(), hours, kThreads,
                la ? (a.smoke ? "TEST" : "LA")
                   : (a.smoke ? "LA-uniform 10x10" : "LA-uniform 40x40"),
                describe(controls).c_str());
    return;
  }
  if (la) {
    forecast<Dataset, AirshedModel>(a, res, hours, [&] {
      return a.smoke ? test_basin_dataset(controls) : la_basin_dataset(controls);
    });
  } else {
    forecast<UniformDataset, UniformAirshedModel>(a, res, hours, [&] {
      return a.smoke ? build_uniform_dataset(la_basin_spec(controls), 10, 10)
                     : la_uniform_dataset(controls);
    });
  }
}

}  // namespace perfbench
