#include "airshed/popexp/popexp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "airshed/chem/species.hpp"
#include "airshed/util/error.hpp"

namespace airshed {

double PopulationRaster::total_population() const {
  double t = 0.0;
  for (double p : population) t += p;
  return t;
}

PopulationRaster PopulationRaster::from_density(
    BBox domain, std::size_t nx, std::size_t ny,
    const std::function<double(Point2)>& density, double total_people) {
  AIRSHED_REQUIRE(total_people > 0.0, "population must be positive");
  PopulationRaster r{UniformGrid(domain, nx, ny), {}};
  r.population.resize(r.grid.cell_count());
  double sum = 0.0;
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const double d = std::max(0.0, density(r.grid.center(i, j)));
      r.population[r.grid.index(i, j)] = d;
      sum += d;
    }
  }
  AIRSHED_REQUIRE(sum > 0.0, "population density integrates to zero");
  const double scale = total_people / sum;
  for (double& p : r.population) p *= scale;
  return r;
}

ExposureModel::ExposureModel(PopulationRaster raster, const TriMesh& mesh)
    : raster_(std::move(raster)) {
  const auto pts = mesh.points();
  AIRSHED_REQUIRE(!pts.empty(), "mesh has no vertices");
  nearest_vertex_.resize(raster_.grid.cell_count());
  dose_o3_.assign(raster_.grid.cell_count(), 0.0);
  for (std::size_t j = 0; j < raster_.grid.ny(); ++j) {
    for (std::size_t i = 0; i < raster_.grid.nx(); ++i) {
      const Point2 c = raster_.grid.center(i, j);
      std::uint32_t best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (std::size_t v = 0; v < pts.size(); ++v) {
        const double d = dot(pts[v] - c, pts[v] - c);
        if (d < best_d) {
          best_d = d;
          best = static_cast<std::uint32_t>(v);
        }
      }
      nearest_vertex_[raster_.grid.index(i, j)] = best;
    }
  }
}

ExposureResult ExposureModel::accumulate_hour(const ConcentrationField& conc) {
  const auto o3 = static_cast<std::size_t>(index_of(Species::O3));
  const auto no2 = static_cast<std::size_t>(index_of(Species::NO2));
  ExposureResult res;
  for (std::size_t cell = 0; cell < nearest_vertex_.size(); ++cell) {
    const std::uint32_t v = nearest_vertex_[cell];
    const double c_o3 = conc(o3, 0, v);
    const double c_no2 = conc(no2, 0, v);
    const double pop = raster_.population[cell];
    res.person_ppm_hours_o3 += pop * c_o3;
    res.person_ppm_hours_no2 += pop * c_no2;
    res.max_cell_o3_ppm = std::max(res.max_cell_o3_ppm, c_o3);
    dose_o3_[cell] += pop * c_o3;
  }
  res.work_flops =
      static_cast<double>(nearest_vertex_.size()) * kWorkPerCellFlops;
  return res;
}

std::string to_string(PopExpCoupling c) {
  switch (c) {
    case PopExpCoupling::NativeTask:    return "native task";
    case PopExpCoupling::ForeignModule: return "foreign module";
  }
  return "unknown";
}

PopExpAllocation allocate_popexp_nodes(int total_nodes) {
  AIRSHED_REQUIRE(total_nodes >= 4,
                  "Airshed+PopExp pipeline needs at least 4 nodes");
  PopExpAllocation a;
  a.input_nodes = 1;
  a.output_nodes = 1;
  a.popexp_nodes = std::max(1, total_nodes / 8);
  a.main_nodes = total_nodes - a.input_nodes - a.output_nodes - a.popexp_nodes;
  return a;
}

RunReport simulate_airshed_popexp(const WorkTrace& trace,
                                  const PopExpExecutionConfig& config) {
  return simulate_airshed_popexp(trace, config,
                                 allocate_popexp_nodes(config.nodes));
}

RunReport simulate_airshed_popexp(const WorkTrace& trace,
                                  const PopExpExecutionConfig& config,
                                  const PopExpAllocation& alloc) {
  AIRSHED_REQUIRE(config.raster_cells >= 1, "raster must be nonempty");
  AIRSHED_REQUIRE(alloc.input_nodes >= 1 && alloc.main_nodes >= 1 &&
                      alloc.output_nodes >= 1 && alloc.popexp_nodes >= 1,
                  "every pipeline stage needs at least one node");
  AIRSHED_REQUIRE(alloc.input_nodes + alloc.main_nodes + alloc.output_nodes +
                          alloc.popexp_nodes ==
                      config.nodes,
                  "allocation must use exactly the configured nodes");

  const HourStageTimes st =
      pipeline_stage_times(trace, config.machine, alloc.main_nodes);

  // PopExp consumes the hourly surface-layer concentrations: one layer of
  // every species.
  const std::size_t transfer_bytes =
      trace.species * trace.points * config.machine.word_size;
  const double transfer_s =
      config.coupling == PopExpCoupling::ForeignModule
          ? foreign_transfer_seconds(config.machine, transfer_bytes,
                                     alloc.main_nodes, alloc.popexp_nodes,
                                     config.foreign)
          : native_transfer_seconds(config.machine, transfer_bytes,
                                    alloc.main_nodes, alloc.popexp_nodes);
  const double compute_s =
      config.machine.compute_time(static_cast<double>(config.raster_cells) *
                                  config.work_per_cell_flops) /
      static_cast<double>(
          std::min<std::size_t>(alloc.popexp_nodes, config.raster_cells));

  const std::size_t hours = trace.hours.size();

  // Degraded-mode coupling: a foreign module that dies mid-run costs the
  // native program one failed handshake (timeouts + backoff, paid where
  // the main stage would have sent), after which the run continues with
  // no exposure output for the remaining hours.
  const bool module_dies = config.coupling == PopExpCoupling::ForeignModule &&
                           config.module_dead_from_hour >= 0 &&
                           static_cast<std::size_t>(
                               config.module_dead_from_hour) < hours;
  const std::size_t dead_from =
      module_dies ? static_cast<std::size_t>(config.module_dead_from_hour)
                  : hours;
  const double giveup_s =
      module_dies ? attempt_handshake(false, config.handshake).elapsed_s : 0.0;

  // The hourly transfer occupies both sides: the native program's nodes
  // send (so the main stage stalls for it) and the PopExp subgroup
  // receives before computing.
  std::vector<double> main_s = st.main_s;
  std::vector<double> popexp_s(hours, transfer_s + compute_s);
  for (std::size_t h = 0; h < hours; ++h) {
    if (h < dead_from) {
      main_s[h] += transfer_s;
    } else {
      main_s[h] += h == dead_from ? giveup_s : 0.0;
      popexp_s[h] = 0.0;
    }
  }

  RunReport report;
  report.machine = config.machine.name;
  report.nodes = config.nodes;
  report.strategy = Strategy::TaskAndDataParallel;
  report.recovery.foreign_module_gave_up = module_dies;
  report.recovery.final_nodes = config.nodes;
  report.total_seconds =
      pipeline_makespan({st.input_s, main_s, st.output_s, popexp_s});

  // Task-mapper fallback (as for the plain pipeline): on small machines,
  // dedicating nodes to the I/O and PopExp tasks costs more than the
  // overlap buys; the alternative schedule runs Airshed data-parallel on
  // the whole machine and PopExp after each hour on the same nodes.
  const RunReport dp = simulate_execution(
      trace, ExecutionConfig{.machine = config.machine, .nodes = config.nodes,
                             .strategy = Strategy::DataParallel});
  const double serialized =
      dp.total_seconds +
      static_cast<double>(dead_from) *
          (transfer_s + config.machine.compute_time(
                            static_cast<double>(config.raster_cells) *
                            config.work_per_cell_flops) /
                            static_cast<double>(config.nodes)) +
      giveup_s;
  report.total_seconds = std::min(report.total_seconds, serialized);

  for (std::size_t h = 0; h < hours; ++h) {
    report.ledger.charge(PhaseCategory::IoProcessing, "input stage",
                         st.input_s[h]);
    report.ledger.charge(PhaseCategory::Chemistry, "main stage", st.main_s[h]);
    report.ledger.charge(PhaseCategory::IoProcessing, "output stage",
                         st.output_s[h]);
    if (h < dead_from) {
      report.ledger.charge(PhaseCategory::Coupling, "concentration transfer",
                           transfer_s);
      report.ledger.charge(PhaseCategory::Exposure, "PopExp", compute_s);
    } else if (h == dead_from) {
      report.ledger.charge(PhaseCategory::Coupling,
                           "handshake give-up (dead module)", giveup_s);
    }
  }
  return report;
}

PopExpAllocationSearch optimize_popexp_allocation(
    const WorkTrace& trace, const PopExpExecutionConfig& config) {
  AIRSHED_REQUIRE(config.nodes >= 4,
                  "Airshed+PopExp pipeline needs at least 4 nodes");
  PopExpAllocationSearch result;
  result.heuristic_makespan_s =
      simulate_airshed_popexp(trace, config).total_seconds;

  bool first = true;
  for (int pop = 1; pop <= config.nodes - 3; ++pop) {
    PopExpAllocation alloc;
    alloc.input_nodes = 1;
    alloc.output_nodes = 1;
    alloc.popexp_nodes = pop;
    alloc.main_nodes = config.nodes - 2 - pop;
    const double makespan =
        simulate_airshed_popexp(trace, config, alloc).total_seconds;
    if (first || makespan < result.best_makespan_s) {
      first = false;
      result.best = alloc;
      result.best_makespan_s = makespan;
    }
  }
  return result;
}

}  // namespace airshed
