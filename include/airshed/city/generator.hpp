// airshed::city — seeded procedural scenario generator.
//
// The paper's two fixed datasets (LA basin, NE-US) exercise one grid shape
// and one emission pattern each; the batch service layer (airshed::svc) and
// the planned work-stealing scheduler need arbitrarily many *distinct*,
// *reproducible* scenarios, including deliberately skewed ones. This module
// generates them: a synthetic city built in deterministic layers —
//
//   1. districts: seeded region growth assigns every block a land-use class
//      (industrial / commercial / residential / park), ProcIsoCity-style;
//   2. roads: cross-city highways + periodic arterials with per-segment
//      traffic loads from a gravity-lite commute model over the districts;
//   3. emissions: an hourly per-group inventory lowered from land use +
//      traffic into an AreaSourceField raster (rush-hour diurnal profile,
//      vegetation for the biogenic source), plus elevated industrial
//      stacks;
//   4. refinement: land-use intensity clusters become CitySpec kernels, so
//      the multiscale grid refines exactly over the generated city cores —
//      the grid stressor the fixed datasets never produce.
//
// Every layer draws from an independent salted sub-stream of the master
// seed (city/options.hpp), and the whole pipeline is a pure function of
// CityOptions: no global state, no iteration-order dependence, bit-exact
// across platforms and thread counts. The output is a standard DatasetSpec
// (base geometry + met + refinement cores, with the raster attached as the
// emission overlay), so generated cities flow through build_dataset_base,
// svc::SharedInputCache and the batch journal unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "airshed/city/options.hpp"
#include "airshed/emis/emissions.hpp"
#include "airshed/io/dataset.hpp"
#include "airshed/met/meteorology.hpp"

namespace airshed::city {

/// Land-use class of one city block.
enum class LandUse : std::uint8_t {
  Park = 0,
  Residential = 1,
  Commercial = 2,
  Industrial = 3,
};

/// Canonical lower-case name ("park", "residential", ...).
const char* to_string(LandUse use);

/// One explicit road segment passing through a block. Only arterials
/// (class 2) and highways (class 3) are explicit; the local street grid is
/// folded into per-block traffic instead.
struct RoadSegment {
  int x = 0;               ///< block column
  int y = 0;               ///< block row
  bool horizontal = true;  ///< orientation through the block
  int road_class = 2;      ///< 2 = arterial, 3 = highway
  double traffic = 0.0;    ///< relative vehicle flow (mean ~ traffic_demand)

  friend bool operator==(const RoadSegment&, const RoadSegment&) = default;
};

/// The generated city before lowering: every intermediate layer, exposed so
/// tests and the CLI summary can inspect (and diff) them per salt stream.
struct CityModel {
  CityOptions options;
  BBox domain;
  /// Land-use class per block, row-major (y * blocks_x + x).
  std::vector<LandUse> landuse;
  /// Explicit road segments in deterministic (class desc, y, x) order.
  std::vector<RoadSegment> roads;
  /// Aggregated vehicle flow per block (explicit segments + local grid).
  std::vector<double> block_traffic;
  /// Refinement cores derived from land-use intensity only.
  std::vector<CitySpec> cores;
  /// Elevated SO2/NO stacks on the strongest industrial blocks.
  std::vector<PointSource> stacks;
  /// Seed-jittered meteorology (salt-independent: shared across district/
  /// road/diurnal variants so their bases can be shared too).
  MetParams met;

  LandUse landuse_at(int x, int y) const {
    return landuse[static_cast<std::size_t>(y) *
                       static_cast<std::size_t>(options.blocks_x) +
                   static_cast<std::size_t>(x)];
  }
};

/// Runs the full generation pipeline. Pure in `options`; throws ConfigError
/// on invalid options (same checks as city::validate).
CityModel generate_city(const CityOptions& options);

/// Lowers the city's land use + traffic into the gridded emission overlay
/// (one raster cell per block). Pure in the model.
std::shared_ptr<const AreaSourceField> lower_emissions(const CityModel& model);

/// The DatasetSpec a generated city resolves to: domain, refinement cores,
/// jittered met, stacks and the emission raster, with `controls` applied as
/// the per-scenario policy overlay. Equivalent specs (same options) yield
/// equal dataset_base_digest values; road-/diurnal-salted variants of one
/// city yield the SAME base digest (only the overlay differs).
DatasetSpec city_dataset_spec(const CityOptions& options,
                              ControlScenario controls = {});

/// Aggregate statistics for summaries, tests and the workload bench.
struct CitySummary {
  std::size_t blocks = 0;
  std::size_t industrial_blocks = 0;
  std::size_t commercial_blocks = 0;
  std::size_t residential_blocks = 0;
  std::size_t park_blocks = 0;
  std::size_t highway_segments = 0;
  std::size_t arterial_segments = 0;
  double total_traffic = 0.0;      ///< sum of explicit segment flows
  double peak_block_traffic = 0.0;
  std::size_t cores = 0;
  std::size_t stacks = 0;
  /// Domain-integrated NOx group flux at the morning rush peak, ppm*m/min
  /// summed over blocks (the inventory magnitude handle).
  double nox_flux_rush = 0.0;
};

CitySummary summarize(const CityModel& model);

}  // namespace airshed::city
