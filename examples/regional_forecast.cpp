// Regional forecast: run the North-Eastern US scenario (the paper's larger
// data set) for a forecast window, print the evolving surface statistics,
// and then answer the operational question the paper's §4 model enables:
// on which machine / node count does the forecast finish fast enough?
//
//   $ ./regional_forecast [hours] [deadline_seconds]
#include <cstdio>
#include <cstdlib>

#include <airshed/airshed.h>

int main(int argc, char** argv) {
  using namespace airshed;
  const int hours = argc > 1 ? std::atoi(argv[1]) : 4;
  const double deadline_s = argc > 2 ? std::atof(argv[2]) : 600.0;

  Dataset ds = northeast_dataset();
  std::printf("Regional forecast: %s — %zu grid points, %zu triangles, "
              "%d layers\n", ds.name().c_str(), ds.points(),
              ds.mesh().triangle_count(), ds.layers());
  std::printf("simulating %d hours from 05:00...\n\n", hours);

  ModelOptions opts;
  opts.hours = hours;
  AirshedModel model(ds, opts);
  std::printf("%-6s %-14s %-12s %-12s %-18s\n", "hour", "max O3 (ppm)",
              "mean O3", "mean NO2", "peak location (km)");
  const ModelRunResult run = model.run([](const HourlyStats& st,
                                          const ConcentrationField&) {
    std::printf("%-6d %-14.4f %-12.4f %-12.5f (%.0f, %.0f)\n", st.hour,
                st.max_surface_o3_ppm, st.mean_surface_o3_ppm,
                st.mean_surface_no2_ppm, st.max_o3_location.x,
                st.max_o3_location.y);
  });

  // Operational scheduling: use the execution simulator to find, per
  // machine, the smallest node count that meets the forecast deadline.
  std::printf("\nforecast scheduling (deadline %.0f s of machine time for "
              "these %d hours):\n", deadline_s, hours);
  Table t({"machine", "P needed", "time at P (s)", "time at 128 (s)"});
  for (const MachineModel& m : {intel_paragon(), cray_t3d(), cray_t3e()}) {
    int needed = -1;
    double at_needed = 0.0;
    for (int p = 1; p <= 128; p *= 2) {
      const double s =
          simulate_execution(run.trace,
                             ExecutionConfig{.machine = m, .nodes = p})
              .total_seconds;
      if (s <= deadline_s) {
        needed = p;
        at_needed = s;
        break;
      }
    }
    const double at128 =
        simulate_execution(run.trace,
                           ExecutionConfig{.machine = m, .nodes = 128})
            .total_seconds;
    t.row()
        .add(m.name)
        .add(needed > 0 ? std::to_string(needed) : std::string("unreachable"))
        .add(needed > 0 ? at_needed : 0.0, 1)
        .add(at128, 1);
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}
