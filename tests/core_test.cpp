// Tests for the Airshed model driver, the work trace, and the parallel
// execution simulator — the scaling properties the paper's figures rest on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "airshed/aerosol/aerosol.hpp"
#include "airshed/core/executor.hpp"
#include "airshed/core/model.hpp"
#include "airshed/core/uniform_model.hpp"
#include "airshed/core/worktrace.hpp"
#include "airshed/io/dataset.hpp"
#include "airshed/util/error.hpp"

namespace airshed {
namespace {

/// One shared short physics run for all executor tests (the numerics are
/// deterministic, so sharing is sound and keeps the suite fast).
const ModelRunResult& shared_run() {
  static const ModelRunResult run = [] {
    Dataset ds = test_basin_dataset();
    ModelOptions opts;
    opts.hours = 4;  // enough hours for the pipeline tests to have depth
    return AirshedModel(ds, opts).run();
  }();
  return run;
}

TEST(Model, TraceHasExpectedShape) {
  const WorkTrace& t = shared_run().trace;
  EXPECT_EQ(t.dataset, "TEST");
  EXPECT_EQ(t.species, static_cast<std::size_t>(kSpeciesCount));
  EXPECT_EQ(t.layers, 3u);
  EXPECT_GT(t.points, 100u);
  ASSERT_EQ(t.hours.size(), 4u);
  for (const HourTrace& h : t.hours) {
    EXPECT_GT(h.input_work, 0.0);
    EXPECT_GT(h.pretrans_work, 0.0);
    EXPECT_GT(h.output_work, 0.0);
    EXPECT_GE(static_cast<int>(h.steps.size()),
              InputGenerator::kMinStepsPerHour);
    EXPECT_LE(static_cast<int>(h.steps.size()),
              InputGenerator::kMaxStepsPerHour);
    for (const StepTrace& s : h.steps) {
      EXPECT_EQ(s.transport1_layer_work.size(), t.layers);
      EXPECT_EQ(s.transport2_layer_work.size(), t.layers);
      EXPECT_EQ(s.chem_column_work.size(), t.points);
      EXPECT_GT(s.aerosol_work, 0.0);
      for (double w : s.chem_column_work) EXPECT_GT(w, 0.0);
    }
  }
}

TEST(Model, OutputsAreFiniteAndPlausible) {
  const RunOutputs& out = shared_run().outputs;
  for (double c : out.conc.flat()) {
    EXPECT_TRUE(std::isfinite(c));
    EXPECT_GE(c, 0.0);
    EXPECT_LT(c, 10.0);  // nothing exceeds 10 ppm in a plausible episode
  }
  ASSERT_EQ(out.hourly.size(), 4u);
  for (const HourlyStats& st : out.hourly) {
    EXPECT_GT(st.max_surface_o3_ppm, 0.0);
    EXPECT_LT(st.max_surface_o3_ppm, 1.0);
    EXPECT_GE(st.max_surface_o3_ppm, st.mean_surface_o3_ppm);
  }
}

TEST(Model, InitialConditionsAreBackground) {
  Dataset ds = test_basin_dataset();
  const ConcentrationField c = AirshedModel::initial_conditions(ds);
  EXPECT_EQ(c.dim0(), static_cast<std::size_t>(kSpeciesCount));
  EXPECT_DOUBLE_EQ(c(index_of(Species::O3), 0, 0),
                   background_ppm(Species::O3));
}

// ------------------------------------------- one hour loop, two grids

/// Both public drivers run the same Fig 1 loop; these cases pin the
/// behaviour the two used to disagree on.
struct MultiscaleCase {
  using Model = AirshedModel;
  static Dataset dataset() { return test_basin_dataset(); }
  static std::string name(const Dataset& ds) { return ds.name(); }
};
struct UniformCase {
  using Model = UniformAirshedModel;
  static UniformDataset dataset() {
    return build_uniform_dataset(test_basin_spec(), 6, 6);
  }
  static std::string name(const UniformDataset& ds) { return ds.name; }
};

template <typename Case>
class DriverDrift : public ::testing::Test {};
using DriverGrids = ::testing::Types<MultiscaleCase, UniformCase>;
TYPED_TEST_SUITE(DriverDrift, DriverGrids);

TYPED_TEST(DriverDrift, ChemistryErrorNamesGridPointsLayerAndHour) {
  const auto ds = TypeParam::dataset();
  ModelOptions opts;
  opts.hours = 2;
  opts.host_threads = 2;
  opts.oversubscribe = true;  // pooled chemistry even on a 1-core host
  typename TypeParam::Model model(ds, opts);

  // A checkpoint whose surface ozone survives transport but overflows the
  // chemistry solver.
  CheckpointRecord rec;
  rec.dataset = TypeParam::name(ds);
  rec.next_hour = 1;
  rec.conc = TypeParam::Model::initial_conditions(ds);
  rec.pm = Array3<double>(kPmComponents, rec.conc.dim1(), rec.conc.dim2(), 0.0);
  rec.conc(static_cast<std::size_t>(index_of(Species::O3)), 0, 5) = 1e300;
  try {
    model.resume(rec);
    FAIL() << "overflowing checkpoint survived the run";
  } catch (const NumericalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("(grid points ["), std::string::npos) << msg;
    EXPECT_NE(msg.find(", layer 0, hour 1)"), std::string::npos) << msg;
  }
}

TEST(UniformDrift, ProfileHasSetupAndCounters) {
  const UniformDataset ds = UniformCase::dataset();
  HostProfile prof;
  ModelOptions opts;
  opts.hours = 1;
  opts.profile = &prof;
  (void)UniformAirshedModel(ds, opts).run();
  EXPECT_GT(prof.setup_s, 0.0);
  EXPECT_GT(prof.rate_evals, 0);
  EXPECT_GT(prof.chem_substeps, 0);
}

TEST(WorkTraceIo, SaveLoadRoundTrip) {
  const WorkTrace& t = shared_run().trace;
  const std::string path =
      (std::filesystem::temp_directory_path() / "airshed_trace_test.trace")
          .string();
  t.save(path);
  const WorkTrace loaded = WorkTrace::load(path);
  EXPECT_EQ(loaded.dataset, t.dataset);
  EXPECT_EQ(loaded.points, t.points);
  EXPECT_EQ(loaded.hours.size(), t.hours.size());
  EXPECT_DOUBLE_EQ(loaded.total_chemistry_work(), t.total_chemistry_work());
  EXPECT_DOUBLE_EQ(loaded.total_transport_work(), t.total_transport_work());
  EXPECT_DOUBLE_EQ(loaded.total_io_work(), t.total_io_work());
  EXPECT_EQ(loaded.total_steps(), t.total_steps());
  std::filesystem::remove(path);
}

TEST(WorkTraceIo, CachedGeneratesOnceThenLoads) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "airshed_cached_test.trace")
          .string();
  std::filesystem::remove(path);
  int calls = 0;
  auto produce = [&] {
    ++calls;
    return shared_run().trace;
  };
  const WorkTrace a = WorkTrace::cached(path, produce);
  const WorkTrace b = WorkTrace::cached(path, produce);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(a.points, b.points);
  std::filesystem::remove(path);
}

TEST(WorkTraceIo, LoadRejectsBadFile) {
  EXPECT_THROW(WorkTrace::load("/nonexistent/path.trace"), Error);
}

// ----------------------------------------------------------------- executor

TEST(Executor, SingleNodeHasNoNetworkCommunication) {
  const RunReport r = simulate_execution(
      shared_run().trace, ExecutionConfig{.machine = cray_t3e(), .nodes = 1});
  // P=1: redistributions degenerate to local copies (H-cost only).
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_GT(r.comm.phases, 0);
}

TEST(Executor, TimeDecreasesWithNodesThenSaturates) {
  const WorkTrace& t = shared_run().trace;
  double prev = 1e18;
  for (int p : {1, 2, 4, 8, 16, 32}) {
    const RunReport r = simulate_execution(
        t, ExecutionConfig{.machine = cray_t3e(), .nodes = p});
    EXPECT_LT(r.total_seconds, prev * 1.001) << "P=" << p;
    prev = r.total_seconds;
  }
  // Saturation: sequential I/O + transport bound the speedup.
  const double t64 =
      simulate_execution(t, ExecutionConfig{.machine = cray_t3e(), .nodes = 64})
          .total_seconds;
  const double t128 =
      simulate_execution(t,
                         ExecutionConfig{.machine = cray_t3e(), .nodes = 128})
          .total_seconds;
  EXPECT_GT(t128 / t64, 0.85) << "no meaningful speedup left at 128 nodes";
}

TEST(Executor, MachineRatiosCarryOver) {
  // §3: the machine ratios are roughly independent of node count.
  const WorkTrace& t = shared_run().trace;
  for (int p : {4, 16, 64}) {
    const double paragon =
        simulate_execution(
            t, ExecutionConfig{.machine = intel_paragon(), .nodes = p})
            .total_seconds;
    const double t3e =
        simulate_execution(t,
                           ExecutionConfig{.machine = cray_t3e(), .nodes = p})
            .total_seconds;
    const double ratio = paragon / t3e;
    EXPECT_GT(ratio, 6.0) << "P=" << p;
    EXPECT_LT(ratio, 14.0) << "P=" << p;
  }
}

TEST(Executor, TransportPhaseSaturatesAtLayerCount) {
  const WorkTrace& t = shared_run().trace;  // 3 layers
  const auto trans = [&](int p) {
    return simulate_execution(
               t, ExecutionConfig{.machine = cray_t3e(), .nodes = p})
        .ledger.category_seconds(PhaseCategory::Transport);
  };
  EXPECT_GT(trans(1), trans(3) * 1.5);
  EXPECT_DOUBLE_EQ(trans(3), trans(16));
  EXPECT_DOUBLE_EQ(trans(3), trans(128));
}

TEST(Executor, IoPhaseIsConstantInNodes) {
  const WorkTrace& t = shared_run().trace;
  const auto io = [&](int p) {
    return simulate_execution(
               t, ExecutionConfig{.machine = cray_t3e(), .nodes = p})
        .ledger.category_seconds(PhaseCategory::IoProcessing);
  };
  EXPECT_DOUBLE_EQ(io(1), io(16));
  EXPECT_DOUBLE_EQ(io(1), io(128));
}

TEST(Executor, ChemistryScalesNearlyLinearlyAtSmallP) {
  const WorkTrace& t = shared_run().trace;
  const auto chem = [&](int p) {
    return simulate_execution(
               t, ExecutionConfig{.machine = cray_t3e(), .nodes = p})
        .ledger.category_seconds(PhaseCategory::Chemistry);
  };
  EXPECT_NEAR(chem(2) / chem(4), 2.0, 0.35);
  EXPECT_NEAR(chem(4) / chem(8), 2.0, 0.35);
}

TEST(Executor, CommPhaseCountsMatchLoopStructure) {
  const WorkTrace& t = shared_run().trace;
  const RunReport r =
      simulate_execution(t, ExecutionConfig{.machine = cray_t3e(), .nodes = 8});
  // Per hour: 3 per step (D_Trans->D_Chem, D_Chem->D_Repl, D_Repl->D_Trans
  // after aerosol) + first-step D_Repl->D_Trans + hour-end D_Trans->D_Repl.
  long long expect = 0;
  for (const HourTrace& h : t.hours) {
    expect += 3 * static_cast<long long>(h.steps.size()) + 2;
  }
  EXPECT_EQ(r.comm.phases, expect);
  EXPECT_GT(r.comm.chem_to_repl_s, r.comm.repl_to_trans_s);
  EXPECT_NEAR(r.comm.total(),
              r.ledger.category_seconds(PhaseCategory::Communication), 1e-9);
}

TEST(Executor, TotalEqualsLedgerForDataParallel) {
  const WorkTrace& t = shared_run().trace;
  const RunReport r = simulate_execution(
      t, ExecutionConfig{.machine = cray_t3d(), .nodes = 16});
  EXPECT_NEAR(r.total_seconds, r.ledger.total_seconds(), 1e-9);
}

TEST(Executor, TaskParallelBeatsDataParallelAtScale) {
  // The Fig 9 claim: pipelined I/O helps at large node counts where the
  // sequential I/O stages dominate. P = 34 keeps the chemistry block size
  // identical between 34 and 32 (= 34 - 2 I/O) nodes on the 128-column
  // test grid, so the comparison isolates the pipelining benefit from the
  // HPF ceil-block quantization.
  const WorkTrace& t = shared_run().trace;
  const double dp =
      simulate_execution(
          t, ExecutionConfig{.machine = intel_paragon(), .nodes = 34})
          .total_seconds;
  const double tp =
      simulate_execution(
          t, ExecutionConfig{.machine = intel_paragon(), .nodes = 34,
                             .strategy = Strategy::TaskAndDataParallel})
          .total_seconds;
  EXPECT_LT(tp, dp);
}

TEST(Executor, TaskParallelNeverLosesToDataParallel) {
  // The task mapper falls back to the data-parallel schedule when the
  // dedicated I/O subgroups don't pay (paper Fig 9: the curves coincide at
  // small node counts).
  const WorkTrace& t = shared_run().trace;
  for (int p : {4, 8, 16, 64, 128}) {
    const double dp =
        simulate_execution(
            t, ExecutionConfig{.machine = intel_paragon(), .nodes = p})
            .total_seconds;
    const double tp =
        simulate_execution(
            t, ExecutionConfig{.machine = intel_paragon(), .nodes = p,
                               .strategy = Strategy::TaskAndDataParallel})
            .total_seconds;
    EXPECT_LE(tp, dp * 1.0000001) << "P=" << p;
  }
}

TEST(Executor, TaskParallelNeedsThreeNodes) {
  EXPECT_THROW(
      simulate_execution(
          shared_run().trace,
          ExecutionConfig{.machine = cray_t3e(), .nodes = 2,
                          .strategy = Strategy::TaskAndDataParallel}),
      Error);
}

TEST(Executor, PipelineStageTimesMatchHourMainSeconds) {
  const WorkTrace& t = shared_run().trace;
  const MachineModel m = cray_t3e();
  const HourStageTimes st = pipeline_stage_times(t, m, 8);
  ASSERT_EQ(st.main_s.size(), t.hours.size());
  for (std::size_t h = 0; h < t.hours.size(); ++h) {
    EXPECT_NEAR(st.main_s[h], hour_main_seconds(t, h, m, 8, nullptr, nullptr),
                1e-9);
    EXPECT_DOUBLE_EQ(
        st.input_s[h],
        m.compute_time(t.hours[h].input_work + t.hours[h].pretrans_work));
  }
}

TEST(Executor, RejectsBadConfig) {
  EXPECT_THROW(
      simulate_execution(shared_run().trace,
                         ExecutionConfig{.machine = cray_t3e(), .nodes = 0}),
      Error);
  ExecutionConfig too_big{.machine = cray_t3e(), .nodes = 100000};
  EXPECT_THROW(simulate_execution(shared_run().trace, too_big), Error);
}

TEST(Executor, StrategyNames) {
  EXPECT_EQ(to_string(Strategy::DataParallel), "data-parallel");
  EXPECT_EQ(to_string(Strategy::TaskAndDataParallel), "task+data-parallel");
}

}  // namespace
}  // namespace airshed
