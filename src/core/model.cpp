#include "airshed/core/model.hpp"

#include "airshed/transport/supg.hpp"
#include "fig1_loop.hpp"

namespace airshed {

namespace {

/// Grid policy of the Fig 1 loop on the multiscale mesh (SUPG transport).
struct MultiscalePolicy {
  using Transport = SupgTransport;
  static constexpr const char* kModel = "AirshedModel";
  const Dataset& ds;

  const std::string& name() const { return ds.name(); }
  int layers() const { return ds.layers(); }
  std::span<const Point2> xy() const { return ds.mesh().points(); }
  const Meteorology& met() const { return ds.met(); }
  const EmissionInventory& emissions() const { return ds.emissions; }
  const std::vector<double>& layer_dz_m() const { return ds.layer_dz_m(); }
  /// A layer of the 2-D operator is indivisible.
  std::size_t row_parallelism() const { return 1; }
  SupgTransport transport(const TransportOptions& opts) const {
    return SupgTransport(ds.mesh(), opts);
  }
  HourlyStats stats(const ConcentrationField& conc, const Array3<double>& pm,
                    int hour) const {
    return compute_hourly_stats(ds, conc, pm, hour);
  }
};

}  // namespace

AirshedModel::AirshedModel(const Dataset& dataset, ModelOptions opts)
    : dataset_(&dataset), opts_(opts) {
  AIRSHED_REQUIRE(opts.hours >= 1, "need at least one simulated hour");
}

ConcentrationField AirshedModel::initial_conditions(const Dataset& dataset) {
  return fig1::background_field(dataset.layers(), dataset.points());
}

ModelRunResult AirshedModel::run(const HourCallback& on_hour) {
  return run_hours(nullptr, on_hour, {});
}

ModelRunResult AirshedModel::run_with_checkpoints(
    const CheckpointCallback& on_checkpoint, const HourCallback& on_hour) {
  return run_hours(nullptr, on_hour, on_checkpoint);
}

ModelRunResult AirshedModel::resume(const CheckpointRecord& from,
                                    const HourCallback& on_hour) {
  return run_hours(&from, on_hour, {});
}

ModelRunResult AirshedModel::resume(CheckpointVault& vault,
                                    CheckpointVault::RestoreResult* info,
                                    const HourCallback& on_hour) {
  CheckpointVault::RestoreResult restored = vault.restore_newest_valid();
  ModelRunResult out = resume(restored.record, on_hour);
  if (info) *info = std::move(restored);
  return out;
}

ModelRunResult AirshedModel::run_hours(const CheckpointRecord* from,
                                       const HourCallback& on_hour,
                                       const CheckpointCallback& on_checkpoint) {
  return fig1::run_hours<fig1::BlockedKernel>(MultiscalePolicy{*dataset_},
                                              opts_, from, on_hour,
                                              on_checkpoint);
}

ModelRunResult run_scalar_oracle(const Dataset& dataset, ModelOptions opts) {
  return fig1::run_hours<fig1::ScalarKernel>(MultiscalePolicy{dataset}, opts,
                                             nullptr, {}, {});
}

}  // namespace airshed
