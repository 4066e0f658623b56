// The Fig 1 hour loop, shared by both model drivers (private to src/core).
//
//   inputhour -> (transport Lxy dt/2, chemistry Lcz dt, aerosol,
//                 transport Lxy dt/2) x nsteps -> outputhour
//
// run_hours is a template over two small policies:
//  - a Grid policy (core/model.cpp: the multiscale mesh, core/
//    uniform_model.cpp: the uniform grid) supplying the points, layers,
//    drivers, per-thread layer transport operator, hourly statistics and
//    transport_row_parallelism;
//  - a Kernel policy: BlockedKernel (the production cell-batched SoA path)
//    or ScalarKernel (the cell-at-a-time reference oracle behind
//    run_scalar_oracle). Both are bit-identical at every block size and
//    thread count; the oracle exists to prove it.
// Everything else — the worker pool (own or enclosing) and its thread cap,
// per-thread solver state, rate epochs, HostProfile, trace spans, the
// block-commit tripwire and checkpoints — exists once, here.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "airshed/aerosol/aerosol.hpp"
#include "airshed/chem/yb_block.hpp"
#include "airshed/core/model.hpp"
#include "airshed/kernel/cellblock.hpp"
#include "airshed/par/pool.hpp"
#include "airshed/util/error.hpp"
#include "airshed/vert/vertical.hpp"

namespace airshed::fig1 {

/// Per-thread scratch of the chemistry + vertical phase: the cell panel
/// plus the per-lane side arrays, sized once per run (allocation never
/// happens inside the hour loop).
struct ChemBlockScratch {
  explicit ChemBlockScratch(std::size_t block)
      : cells(kSpeciesCount, static_cast<int>(block)), temps(block),
        res(block), colwork(block), elev(block) {}

  kernel::CellBlock cells;
  std::vector<double> temps;
  std::vector<YoungBorisResult> res;
  std::vector<double> colwork;
  std::vector<const double*> elev;
};

/// Adds the solver's chemistry counters to `prof` (solvers are built per
/// run, so their lifetime totals are this run's counts).
inline void add_counters(HostProfile& prof, const YoungBorisSolver& yb) {
  prof.rate_cache_hits += yb.rate_cache_hits();
  prof.rate_evals += yb.rate_evals();
  prof.rate_cache_evictions += yb.rate_cache_evictions();
  prof.lane_evals_dense += yb.lane_evals_dense();
  prof.lane_evals_live += yb.lane_evals_live();
  prof.block_rounds += yb.block_rounds();
  prof.chem_substeps += yb.substeps_total();
}

/// Production kernels: species-blocked transport layers and SoA cell-block
/// chemistry / vertical transport. In both kernel policies transport()
/// forwards the advance_layer arguments to the layer operator, and
/// chemistry() (layer `k`) and vertical() integrate the columns
/// [v0, v0 + bw), adding each column's work to scr.colwork.
struct BlockedKernel {
  static TransportStepResult transport(auto& op, auto&&... layer_args) {
    return op.advance_layer_blocked(layer_args..., kTransportSpeciesBlock);
  }

  static void chemistry(YoungBorisBlockSolver& chem, ChemBlockScratch& scr,
                        ConcentrationField& conc, std::size_t k,
                        std::size_t v0, std::size_t bw, double dt_min,
                        double sun) {
    scr.cells.gather(conc, k, v0, static_cast<int>(bw));
    chem.integrate_block(scr.cells, dt_min,
                         std::span<const double>(scr.temps).first(bw), sun,
                         std::span<YoungBorisResult>(scr.res).first(bw));
    scr.cells.scatter(conc, k, v0);
    for (std::size_t i = 0; i < bw; ++i) scr.colwork[i] += scr.res[i].work_flops;
  }

  static void vertical(VerticalTransport& vert, ChemBlockScratch& scr,
                       ConcentrationField& conc, std::size_t v0,
                       std::size_t bw, const HourlyInputs& in,
                       std::span<const double> deposition, double dt_min) {
    const double work =
        vert.advance_columns(conc, v0, bw, in.kz_m2s, in.surface_flux,
                             deposition,
                             std::span<const double* const>(scr.elev.data(), bw),
                             dt_min)
            .work_flops;
    for (std::size_t i = 0; i < bw; ++i) scr.colwork[i] += work;
  }
};

/// The scalar reference oracle: unblocked transport layers, one cell at a
/// time through YoungBorisSolver::integrate and one column at a time
/// through VerticalTransport::advance_column.
struct ScalarKernel {
  static TransportStepResult transport(auto& op, auto&&... layer_args) {
    return op.advance_layer(layer_args...);
  }

  static void chemistry(YoungBorisBlockSolver& chem, ChemBlockScratch& scr,
                        ConcentrationField& conc, std::size_t k,
                        std::size_t v0, std::size_t bw, double dt_min,
                        double sun) {
    std::array<double, kSpeciesCount> cell{};
    for (std::size_t i = 0; i < bw; ++i) {
      for (int s = 0; s < kSpeciesCount; ++s) cell[s] = conc(s, k, v0 + i);
      scr.colwork[i] +=
          chem.scalar().integrate(cell, dt_min, scr.temps[i], sun).work_flops;
      for (int s = 0; s < kSpeciesCount; ++s) conc(s, k, v0 + i) = cell[s];
    }
  }

  static void vertical(VerticalTransport& vert, ChemBlockScratch& scr,
                       ConcentrationField& conc, std::size_t v0,
                       std::size_t bw, const HourlyInputs& in,
                       std::span<const double> deposition, double dt_min) {
    const std::size_t flat =
        static_cast<std::size_t>(kSpeciesCount) * conc.dim1();
    std::array<double, kSpeciesCount> column_flux{};
    for (std::size_t i = 0; i < bw; ++i) {
      for (int s = 0; s < kSpeciesCount; ++s) {
        column_flux[s] = in.surface_flux(s, v0 + i);
      }
      const std::span<const double> elevated(scr.elev[i],
                                             scr.elev[i] ? flat : 0);
      scr.colwork[i] += vert.advance_column(conc, v0 + i, in.kz_m2s,
                                            column_flux, deposition, elevated,
                                            dt_min)
                            .work_flops;
    }
  }
};

/// Uniform background initial conditions.
inline ConcentrationField background_field(int layers, std::size_t points) {
  ConcentrationField conc(kSpeciesCount, layers, points);
  for (int s = 0; s < kSpeciesCount; ++s) {
    const double bg = background_ppm(static_cast<Species>(s));
    for (int k = 0; k < layers; ++k) std::ranges::fill(conc.slice(s, k), bg);
  }
  return conc;
}

/// Runs the Fig 1 loop from hour 0 and background fields, or — when
/// `from` is set — resumes from that checkpoint (ConfigError unless it
/// names this grid's dataset, matches its field shapes and lies inside the
/// run horizon).
template <typename Kernel, typename Grid>
ModelRunResult run_hours(const Grid& grid, const ModelOptions& opts,
                         const CheckpointRecord* from,
                         const HourCallback& on_hour,
                         const CheckpointCallback& on_checkpoint) {
  using Transport = typename Grid::Transport;
  const std::size_t nv = grid.xy().size();
  const int nl = grid.layers();
  if (from) {
    const std::string prefix =
        std::string(Grid::kModel) + "::resume: checkpoint ";
    if (from->dataset != grid.name()) {
      throw ConfigError(prefix + "is for dataset '" + from->dataset +
                        "', model is bound to '" + grid.name() + "'");
    }
    const auto shaped = [&](const Array3<double>& a, std::size_t dim0) {
      return a.dim0() == dim0 && a.dim1() == static_cast<std::size_t>(nl) &&
             a.dim2() == nv;
    };
    if (!shaped(from->conc, kSpeciesCount) ||
        !shaped(from->pm, kPmComponents)) {
      throw ConfigError(prefix + "field shape does not match dataset '" +
                        grid.name() + "'");
    }
    if (from->next_hour < 0 || from->next_hour > opts.hours) {
      throw ConfigError(prefix + "next_hour " +
                        std::to_string(from->next_hour) +
                        " outside run horizon of " +
                        std::to_string(opts.hours) + " hours");
    }
  }

  ModelRunResult result;
  result.trace.dataset = grid.name();
  result.trace.species = kSpeciesCount;
  result.trace.layers = static_cast<std::size_t>(nl);
  result.trace.points = nv;
  result.trace.transport_row_parallelism = grid.row_parallelism();

  ConcentrationField& conc = result.outputs.conc;
  Array3<double>& pm = result.outputs.pm;
  if (from) {
    conc = from->conc;
    pm = from->pm;
  } else {
    conc = background_field(nl, nv);
    pm = Array3<double>(kPmComponents, nl, nv, 0.0);
  }

  AerosolModule aerosol;

  // Virtual-node kernels run pooled over host threads: transport over
  // layers, chemistry + vertical transport over blocks of columns. Each
  // thread owns its solver instances (scratch is stateful), each item its
  // output slot, so results are bit-identical for every thread count. A
  // run that is itself a pool item (a batch scenario) runs its phases as
  // nested jobs of that enclosing pool, so idle threads of the batch help
  // it; any other run builds its own pool.
  const auto setup_start = std::chrono::steady_clock::now();
  const par::WorkerPool::Current enclosing = par::WorkerPool::current();
  std::optional<par::WorkerPool> own_pool;
  if (!enclosing.pool) {
    int requested = par::resolve_threads(opts.host_threads);
    if (!opts.oversubscribe) {
      // Compute-bound pools gain nothing past the core count;
      // oversubscribing just adds contention (EXPERIMENTS.md). Results are
      // thread-count independent, so the cap cannot change any output.
      requested = std::min(requested, par::hardware_threads());
    }
    own_pool.emplace(requested);
  }
  par::WorkerPool& pool = enclosing.pool ? *enclosing.pool : *own_pool;
  const int self = enclosing.thread;  // this run's serial-phase lane
  const int nthreads = pool.threads();
  const kernel::KernelOptions& ko = opts.kernel;
  const std::size_t cell_block =
      static_cast<std::size_t>(std::max(1, ko.block));

  // One instance of every stateful operator per pool thread, built on the
  // thread's first item of this run. Rate constants frozen on (temp, sun)
  // are reusable within the hour: a solver built mid-run starts in the
  // current hour's epoch.
  int rate_epoch = from ? from->next_hour : 0;
  par::PerThread<Transport> transport_ops(
      nthreads, [&] { return grid.transport(opts.transport); });
  par::PerThread<YoungBorisBlockSolver> chem_solvers(nthreads, [&] {
    YoungBorisBlockSolver solver(Mechanism::cb4_condensed(), opts.chem,
                                 ko.lane_mode);
    solver.set_rate_epoch(rate_epoch);
    return solver;
  });
  par::PerThread<VerticalTransport> vert_ops(
      nthreads, [&] { return VerticalTransport(grid.layer_dz_m()); });
  par::PerThread<ChemBlockScratch> scratch(
      nthreads, [&] { return ChemBlockScratch(cell_block); });
  HostProfile* prof = opts.profile;
  if (prof) {
    *prof = HostProfile{};
    prof->threads = nthreads;
    prof->setup_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - setup_start)
                        .count();
  }
  obs::TraceRecorder* rec = opts.trace;
  if (rec) {
    AIRSHED_REQUIRE(rec->threads() >= nthreads,
                    "ModelOptions::trace recorder has fewer lanes than the "
                    "resolved host thread count");
  }

  std::array<double, kSpeciesCount> background{};
  std::array<double, kSpeciesCount> deposition{};
  for (int s = 0; s < kSpeciesCount; ++s) {
    background[s] = background_ppm(static_cast<Species>(s));
    deposition[s] = deposition_velocity_ms(static_cast<Species>(s));
  }
  const double lapse = grid.met().params().lapse_k_per_layer;
  const double output_work =
      opts.io_work.output_flops_per_element *
      (static_cast<double>(kSpeciesCount) * static_cast<double>(nl) *
       static_cast<double>(nv));

  for (int h = from ? from->next_hour : 0; h < opts.hours; ++h) {
    const double hour_start = opts.start_hour + h;
    rate_epoch = h;
    chem_solvers.each_built(
        [h](YoungBorisBlockSolver& solver) { solver.set_rate_epoch(h); });
    const HourlyInputs in = [&] {
      par::PhaseTimer timer(prof ? &prof->io_s : nullptr);
      obs::ObsSpan span(rec, self, "inputhour", PhaseCategory::IoProcessing, h);
      HourlyInputs sampled =
          sample_hourly_inputs(grid.xy(), nl, grid.met(), grid.emissions(),
                               opts.io_work, static_cast<int>(hour_start));
      sampled.nsteps = cfl_steps_per_hour(transport_ops[self], sampled);
      return sampled;
    }();

    HourTrace hour_trace;
    hour_trace.input_work = in.input_work_flops;
    hour_trace.pretrans_work = in.pretrans_work_flops;

    const double dt_hours = 1.0 / in.nsteps;
    for (int j = 0; j < in.nsteps; ++j) {
      const double t_step = hour_start + j * dt_hours;
      StepTrace step;
      step.transport1_layer_work.resize(nl);
      step.transport2_layer_work.resize(nl);
      step.chem_column_work.assign(nv, 0.0);

      // Layers are independent (both transport operators are
      // layer-local); each layer is one pool item, advanced with the
      // running thread's own operator.
      auto transport_half = [&](std::vector<double>& layer_work) {
        par::PhaseTimer timer(prof ? &prof->transport_s : nullptr);
        obs::ObsSpan phase(rec, self, "transport Lxy",
                           PhaseCategory::Transport, h);
        pool.for_each(
            static_cast<std::size_t>(nl),
            [&](int t, std::size_t k) {
              obs::ObsSpan layer(rec, t, "transport layer",
                                 PhaseCategory::Transport, h);
              layer_work[k] =
                  Kernel::transport(transport_ops[t], conc, k, in.wind_kmh[k],
                                    in.kh_km2h, 0.5 * dt_hours, background)
                      .work_flops;
            });
      };

      // ---- Transport, first half step (Lxy, dt/2) ----------------------
      transport_half(step.transport1_layer_work);

      // ---- Chemistry + vertical transport (Lcz, dt) ---------------------
      // Contiguous blocks of columns; each block is one pool item owning
      // one output range, so results stay bit-identical at every thread
      // count and block size whichever thread claims it.
      {
        const double t_mid = t_step + 0.5 * dt_hours;
        const double sun = grid.met().photolysis_factor(t_mid);
        const double dt_min = dt_hours * 60.0;
        par::PhaseTimer timer(prof ? &prof->chemistry_s : nullptr);
        obs::ObsSpan phase(rec, self, "chemistry Lcz",
                           PhaseCategory::Chemistry, h);
        const std::size_t nblocks = (nv + cell_block - 1) / cell_block;
        pool.for_each(nblocks, [&](int t, std::size_t blk) {
          obs::ObsSpan block(rec, t, "chem block", PhaseCategory::Chemistry, h);
          ChemBlockScratch& scr = scratch[t];
          const std::size_t v0 = blk * cell_block;
          const std::size_t bw = std::min(cell_block, nv - v0);
          for (std::size_t i = 0; i < bw; ++i) {
            scr.colwork[i] = 0.0;
            const auto it = in.elevated_flux.find(v0 + i);
            scr.elev[i] =
                it != in.elevated_flux.end() ? it->second.data() : nullptr;
          }
          for (int k = 0; k < nl; ++k) {
            for (std::size_t i = 0; i < bw; ++i) {
              scr.temps[i] = in.vertex_temp_k[v0 + i] - lapse * k;
            }
            try {
              Kernel::chemistry(chem_solvers[t], scr, conc,
                                static_cast<std::size_t>(k), v0, bw, dt_min,
                                sun);
            } catch (const NumericalError& e) {
              // The solvers are cell-local; attach the grid location here.
              throw NumericalError(std::string(e.what()) + " (grid points [" +
                                   std::to_string(v0) + ", " +
                                   std::to_string(v0 + bw) + "), layer " +
                                   std::to_string(k) + ", hour " +
                                   std::to_string(h) + ")");
            }
          }
          Kernel::vertical(vert_ops[t], scr, conc, v0, bw, in, deposition,
                           dt_min);
          // Block commit: everything this block writes (chemistry +
          // vertical transport) is now in the field — last chance to catch
          // poisoned state where it entered rather than hours downstream.
          kernel::check_block_finite(conc, v0, bw, h, static_cast<int>(blk));
          for (std::size_t i = 0; i < bw; ++i) {
            step.chem_column_work[v0 + i] = scr.colwork[i];
          }
        });
      }

      // ---- Aerosol (sequential, replicated) ------------------------------
      {
        par::PhaseTimer timer(prof ? &prof->aerosol_s : nullptr);
        obs::ObsSpan span(rec, self, "aerosol", PhaseCategory::Aerosol, h);
        step.aerosol_work =
            aerosol.equilibrate(conc, pm, in.layer_temp_k).work_flops;
      }

      // ---- Transport, second half step (Lxy, dt/2) -----------------------
      transport_half(step.transport2_layer_work);

      hour_trace.steps.push_back(std::move(step));
    }

    // ---- outputhour ------------------------------------------------------
    const HourlyStats stats = [&] {
      par::PhaseTimer timer(prof ? &prof->io_s : nullptr);
      obs::ObsSpan span(rec, self, "outputhour", PhaseCategory::IoProcessing,
                        h);
      return grid.stats(conc, pm, static_cast<int>(hour_start));
    }();
    hour_trace.output_work = output_work;
    result.outputs.hourly.push_back(stats);
    result.trace.hours.push_back(std::move(hour_trace));
    if (on_hour) on_hour(stats, conc);
    if (on_checkpoint) {
      obs::ObsSpan span(rec, self, "checkpoint", PhaseCategory::Recovery, h);
      CheckpointRecord record;
      record.dataset = grid.name();
      record.next_hour = h + 1;
      record.conc = conc;
      record.pm = pm;
      on_checkpoint(record);
    }
  }

  if (prof) {
    // An enclosing pool's busy time is shared with the other runs on it.
    if (own_pool) prof->thread_busy_s = own_pool->busy_seconds();
    chem_solvers.each_built([prof](YoungBorisBlockSolver& solver) {
      add_counters(*prof, solver.scalar());
    });
  }
  return result;
}

}  // namespace airshed::fig1
