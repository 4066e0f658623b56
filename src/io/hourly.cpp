#include "airshed/io/hourly.hpp"

#include <limits>

#include "airshed/aerosol/aerosol.hpp"
#include "airshed/chem/species.hpp"
#include "airshed/util/error.hpp"

namespace airshed {

InputGenerator::InputGenerator(const Dataset& dataset,
                               TransportOptions transport_opts,
                               IoWorkModel work)
    : dataset_(&dataset), transport_opts_(transport_opts), work_(work) {}

HourlyInputs sample_hourly_inputs(std::span<const Point2> points, int layers,
                                  const Meteorology& met,
                                  const EmissionInventory& emissions,
                                  const IoWorkModel& work, int hour) {
  const std::size_t nv = points.size();
  const int nl = layers;
  const double t_mid = static_cast<double>(hour) + 0.5;

  HourlyInputs in;
  in.hour = hour;

  // Wind per layer, sampled mid-hour (hourly inputs are piecewise constant,
  // as in the original observation files).
  in.wind_kmh.resize(nl);
  for (int k = 0; k < nl; ++k) {
    in.wind_kmh[k].resize(nv);
    const double frac = nl > 1 ? static_cast<double>(k) / (nl - 1) : 0.0;
    for (std::size_t v = 0; v < nv; ++v) {
      in.wind_kmh[k][v] = met.wind(points[v], t_mid, frac);
    }
  }
  in.kh_km2h = met.kh(t_mid);

  in.kz_m2s.resize(nl > 1 ? nl - 1 : 0);
  for (int k = 0; k + 1 < nl; ++k) {
    in.kz_m2s[k] = met.kz(t_mid, k, nl);
  }

  in.layer_temp_k.resize(nl);
  const Point2 center = emissions.domain().center();
  for (int k = 0; k < nl; ++k) {
    in.layer_temp_k[k] = met.temperature(center, t_mid, k);
  }
  in.vertex_temp_k.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    in.vertex_temp_k[v] = met.temperature(points[v], t_mid, 0);
  }

  // Surface emissions (species, point).
  in.surface_flux = Array2<double>(kSpeciesCount, nv, 0.0);
  for (int s = 0; s < kSpeciesCount; ++s) {
    const Species sp = static_cast<Species>(s);
    if (!is_emitted_species(sp)) continue;
    for (std::size_t v = 0; v < nv; ++v) {
      in.surface_flux(s, v) = emissions.surface_flux(sp, points[v], t_mid);
    }
  }

  // Elevated stack emissions mapped to the nearest grid point.
  for (const PointSource& src : emissions.point_sources()) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::max();
    for (std::size_t v = 0; v < nv; ++v) {
      const double d = norm(points[v] - src.location);
      if (d < best_d) {
        best_d = d;
        best = v;
      }
    }
    auto& flat = in.elevated_flux[best];
    if (flat.empty()) flat.assign(static_cast<std::size_t>(kSpeciesCount) * nl, 0.0);
    const int layer = std::min(src.layer, nl - 1);
    flat[static_cast<std::size_t>(index_of(src.species)) * nl + layer] +=
        src.rate_ppm_m_min;
  }

  const double elements = static_cast<double>(kSpeciesCount) *
                          static_cast<double>(nl) * static_cast<double>(nv);
  in.input_work_flops = work.input_flops_per_element * elements;
  in.pretrans_work_flops = work.pretrans_flops_per_element * elements;
  return in;
}

HourlyInputs InputGenerator::generate(int hour) const {
  const Dataset& ds = *dataset_;
  HourlyInputs in = sample_hourly_inputs(ds.mesh().points(), ds.layers(),
                                         ds.met(), ds.emissions, work_, hour);
  in.nsteps = cfl_steps_per_hour(SupgTransport(ds.mesh(), transport_opts_), in);
  return in;
}

double InputGenerator::outputhour_work_flops() const {
  const double elements = static_cast<double>(kSpeciesCount) *
                          static_cast<double>(dataset_->layers()) *
                          static_cast<double>(dataset_->points());
  return work_.output_flops_per_element * elements;
}

HourlyStats surface_stats(std::span<const Point2> points,
                          std::span<const double> area,
                          const ConcentrationField& conc, int hour) {
  HourlyStats st;
  st.hour = hour;
  const auto o3 = static_cast<std::size_t>(index_of(Species::O3));
  const auto no2 = static_cast<std::size_t>(index_of(Species::NO2));
  const auto co = static_cast<std::size_t>(index_of(Species::CO));

  double area_sum = 0.0, o3_sum = 0.0, no2_sum = 0.0, co_sum = 0.0;
  for (std::size_t v = 0; v < points.size(); ++v) {
    const double c = conc(o3, 0, v);
    if (c > st.max_surface_o3_ppm) {
      st.max_surface_o3_ppm = c;
      st.max_o3_location = points[v];
    }
    const double a = area[v];
    area_sum += a;
    o3_sum += c * a;
    no2_sum += conc(no2, 0, v) * a;
    co_sum += conc(co, 0, v) * a;
  }
  st.mean_surface_o3_ppm = o3_sum / area_sum;
  st.mean_surface_no2_ppm = no2_sum / area_sum;
  st.mean_surface_co_ppm = co_sum / area_sum;
  return st;
}

HourlyStats compute_hourly_stats(const Dataset& ds,
                                 const ConcentrationField& conc,
                                 const Array3<double>& pm, int hour) {
  AIRSHED_REQUIRE(conc.dim2() == ds.points(), "field does not match dataset");
  const auto lumped = ds.mesh().lumped_area();
  HourlyStats st = surface_stats(ds.mesh().points(), lumped, conc, hour);
  for (std::size_t v = 0; v < ds.points(); ++v) {
    st.total_pm_nitrate +=
        pm(static_cast<std::size_t>(PmComponent::Nitrate), 0, v) * lumped[v];
  }
  return st;
}

}  // namespace airshed
