#include "airshed/core/uniform_model.hpp"

#include "airshed/io/dataset.hpp"
#include "fig1_loop.hpp"

namespace airshed {

namespace {

/// Grid policy of the Fig 1 loop on the uniform grid (1-D van Leer
/// transport). Points are cell centers in linear index order.
struct UniformPolicy {
  using Transport = OneDimTransport;
  static constexpr const char* kModel = "UniformAirshedModel";
  const UniformDataset& ds;
  std::vector<Point2> centers = ds.grid.all_centers();
  std::vector<double> unit_area = std::vector<double>(ds.points(), 1.0);

  const std::string& name() const { return ds.name; }
  int layers() const { return ds.layers; }
  std::span<const Point2> xy() const { return centers; }
  const Meteorology& met() const { return ds.met; }
  const EmissionInventory& emissions() const { return ds.emissions; }
  const std::vector<double>& layer_dz_m() const { return ds.layer_dz_m; }
  /// Rows of a 1-D sweep are independent.
  std::size_t row_parallelism() const {
    return std::min(ds.grid.nx(), ds.grid.ny());
  }
  OneDimTransport transport(const TransportOptions& opts) const {
    return OneDimTransport(ds.grid, opts);
  }

  /// outputhour on cells: equal cell areas make the weighted means plain
  /// means (the uniform grid reports no PM nitrate total).
  HourlyStats stats(const ConcentrationField& conc, const Array3<double>&,
                    int hour) const {
    return surface_stats(centers, unit_area, conc, hour);
  }
};

}  // namespace

UniformDataset build_uniform_dataset(const DatasetSpec& spec, std::size_t nx,
                                     std::size_t ny) {
  AIRSHED_REQUIRE(spec.layers >= 1, "dataset needs at least one layer");
  return UniformDataset{
      spec.name + "-uniform",
      UniformGrid(spec.domain, nx, ny),
      spec.layers,
      Meteorology(spec.domain, spec.met),
      EmissionInventory(spec.domain, spec.cities, spec.stacks, spec.controls,
                        spec.area_sources),
      Meteorology::layer_thickness_m(spec.layers),
  };
}

UniformDataset la_uniform_dataset(ControlScenario controls) {
  // 40 x 40 cells = 4 km: the LA multiscale grid's urban-core resolution.
  return build_uniform_dataset(la_basin_spec(controls), 40, 40);
}

UniformAirshedModel::UniformAirshedModel(const UniformDataset& dataset,
                                         ModelOptions opts)
    : dataset_(&dataset), opts_(opts) {
  AIRSHED_REQUIRE(opts.hours >= 1, "need at least one simulated hour");
}

ConcentrationField UniformAirshedModel::initial_conditions(
    const UniformDataset& dataset) {
  return fig1::background_field(dataset.layers, dataset.points());
}

ModelRunResult UniformAirshedModel::run(const HourCallback& on_hour) {
  return run_hours(nullptr, on_hour, {});
}

ModelRunResult UniformAirshedModel::run_with_checkpoints(
    const CheckpointCallback& on_checkpoint, const HourCallback& on_hour) {
  return run_hours(nullptr, on_hour, on_checkpoint);
}

ModelRunResult UniformAirshedModel::resume(const CheckpointRecord& from,
                                           const HourCallback& on_hour) {
  return run_hours(&from, on_hour, {});
}

ModelRunResult UniformAirshedModel::run_hours(
    const CheckpointRecord* from, const HourCallback& on_hour,
    const CheckpointCallback& on_checkpoint) {
  return fig1::run_hours<fig1::BlockedKernel>(UniformPolicy{*dataset_}, opts_,
                                              from, on_hour, on_checkpoint);
}

ModelRunResult run_scalar_oracle(const UniformDataset& dataset,
                                 ModelOptions opts) {
  return fig1::run_hours<fig1::ScalarKernel>(UniformPolicy{dataset}, opts,
                                             nullptr, {}, {});
}

}  // namespace airshed
