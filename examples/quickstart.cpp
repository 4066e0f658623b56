// Quickstart: run a small Airshed scenario, print the diurnal ozone cycle,
// then replay the run on three simulated parallel machines.
//
//   $ ./quickstart [hours]
#include <cstdio>
#include <cstdlib>

#include <airshed/airshed.h>

int main(int argc, char** argv) {
  using namespace airshed;
  const int hours = argc > 1 ? std::atoi(argv[1]) : 12;

  // 1. Build a scenario: synthetic geography, meteorology and emissions.
  Dataset ds = test_basin_dataset();
  std::printf("dataset %s: %zu grid points, %zu triangles, %d layers, %d species\n",
              ds.name().c_str(), ds.points(), ds.mesh().triangle_count(),
              ds.layers(), kSpeciesCount);

  // 2. Run the physics (the Fig 1 loop): hourly inputs, operator-split
  //    transport / chemistry steps, hourly outputs.
  ModelOptions opts;
  opts.hours = hours;
  AirshedModel model(ds, opts);
  std::printf("\n%-6s %-12s %-12s %-12s\n", "hour", "max O3 (ppm)",
              "mean O3", "mean NO2");
  ModelRunResult run = model.run([](const HourlyStats& st,
                                    const ConcentrationField&) {
    std::printf("%-6d %-12.4f %-12.4f %-12.5f\n", st.hour,
                st.max_surface_o3_ppm, st.mean_surface_o3_ppm,
                st.mean_surface_no2_ppm);
  });

  // 3. Replay the run on simulated parallel machines (paper Figs 2-4).
  std::printf("\nsimulated execution (data-parallel):\n");
  Table t({"machine", "P", "total", "chemistry", "transport", "I/O", "comm"});
  for (const MachineModel& m : {intel_paragon(), cray_t3d(), cray_t3e()}) {
    for (int p : {4, 16, 64}) {
      const RunReport rep = simulate_execution(
          run.trace, ExecutionConfig{.machine = m, .nodes = p});
      t.row()
          .add(m.name)
          .add(p)
          .add(rep.total_seconds, 2)
          .add(rep.ledger.category_seconds(PhaseCategory::Chemistry), 2)
          .add(rep.ledger.category_seconds(PhaseCategory::Transport), 2)
          .add(rep.ledger.category_seconds(PhaseCategory::IoProcessing), 2)
          .add(rep.ledger.category_seconds(PhaseCategory::Communication), 3);
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
