// Streamline-Upwind Petrov-Galerkin (SUPG) horizontal transport operator.
//
// Airshed solves horizontal advection-diffusion with the SUPG finite
// element method of Odman & Russell on the multiscale grid (paper §2.1).
// The operator acts on one vertical layer at a time — the key structural
// property the paper leans on: the 2-D operator is hard to parallelize
// within a layer, so the transport phase parallelizes only over layers
// (degree of parallelism = number of layers, e.g. 5).
//
// Discretization: P1 triangles, lumped mass, explicit Euler substeps under
// a CFL bound, SUPG stabilization tau = 1/sqrt((2|u|/h)^2 + (4K/h^2)^2).
// Units: km, hours (velocity km/h, diffusivity km^2/h), concentration ppm.
#pragma once

#include <span>
#include <vector>

#include "airshed/grid/trimesh.hpp"
#include "airshed/util/array.hpp"

namespace airshed {

struct TransportOptions {
  double cfl = 0.45;              ///< advective CFL for explicit substeps
  double diffusion_number = 0.2;  ///< diffusive stability fraction
  double boundary_relax = 1.0;    ///< inflow boundary relaxation strength

  /// Work-trace weight of transport flops relative to chemistry flops.
  /// Unstructured FEM gather/scatter sustains a far lower fraction of peak
  /// on the paper's machines than the dense chemistry inner loops; the
  /// weight folds that efficiency gap into the single-rate machine model
  /// (calibration documented in EXPERIMENTS.md).
  double work_weight = 4.5;

  friend bool operator==(const TransportOptions&,
                         const TransportOptions&) = default;
};

/// Species per block of the species-blocked transport layers
/// (advance_layer_blocked), the block the models run with: it amortizes
/// the per-element/per-line loads without changing any result.
inline constexpr int kTransportSpeciesBlock = 8;

struct TransportStepResult {
  int substeps = 0;
  double work_flops = 0.0;
};

/// SUPG operator bound to one mesh; holds reusable scratch, so create one
/// instance per thread of execution.
class SupgTransport {
 public:
  explicit SupgTransport(const TriMesh& mesh, TransportOptions opts = {});

  const TriMesh& mesh() const { return *mesh_; }
  const TransportOptions& options() const { return opts_; }

  /// Largest stable explicit step (hours) for the given per-vertex velocity
  /// field (km/h) and horizontal diffusivity (km^2/h).
  double stable_dt_hours(std::span<const Point2> velocity_kmh,
                         double kh_km2h) const;

  /// Advances every species of one layer by dt_hours (substepping as
  /// needed). `conc` is the (species, layers, nodes) field; `velocity_kmh`
  /// has one entry per mesh vertex; `background_ppm` (kSpeciesCount values)
  /// supplies the inflow boundary concentration.
  TransportStepResult advance_layer(ConcentrationField& conc,
                                    std::size_t layer,
                                    std::span<const Point2> velocity_kmh,
                                    double kh_km2h, double dt_hours,
                                    std::span<const double> background_ppm);

  /// Species-blocked advance_layer: assembles `species_block` species per
  /// element sweep, so the per-element geometry/velocity loads are
  /// amortized over the block, and hoists the species-independent
  /// boundary-relaxation factor out of the species loop. Per species the
  /// floating-point operation sequence is unchanged — results are
  /// bit-identical to advance_layer at every block size.
  TransportStepResult advance_layer_blocked(
      ConcentrationField& conc, std::size_t layer,
      std::span<const Point2> velocity_kmh, double kh_km2h, double dt_hours,
      std::span<const double> background_ppm, int species_block);

  /// Total tracer mass (concentration integrated over vertex dual areas)
  /// of one (species, layer) slice; conserved by the interior scheme.
  double layer_mass(const ConcentrationField& conc, std::size_t species,
                    std::size_t layer) const;

 private:
  const TriMesh* mesh_;
  TransportOptions opts_;
  // Per-element per-substep cache (velocity, stabilization).
  std::vector<Point2> elem_u_;
  std::vector<double> elem_tau_;
  // Per-vertex accumulation buffer.
  std::vector<double> rate_;
  // Blocked-path scratch (sized on first blocked call, reused): per-vertex
  // boundary relaxation factors and the species-block rate panel.
  std::vector<double> lam_;
  std::vector<double> rate_block_;
  std::vector<double*> crow_;
};

}  // namespace airshed
