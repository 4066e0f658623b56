// Work traces: the per-phase, per-entity computational work of a physics
// run, recorded by the sequential model and replayed by the parallel
// executor for any machine / node count / strategy.
//
// This separation mirrors the paper's §4 observation that a parallelizing
// compiler, knowing the work metadata of each phase, can predict execution
// time for any node count: the physics (identical regardless of machine)
// runs once; machine/P sweeps replay its trace through the partitioner and
// cost model.
#pragma once

#include <string>
#include <vector>

namespace airshed {

/// Work of one model step (transport / chemistry / transport, Fig 1).
struct StepTrace {
  /// SUPG work of each layer in the first half-step (flop units).
  std::vector<double> transport1_layer_work;
  /// SUPG work of each layer in the second half-step.
  std::vector<double> transport2_layer_work;
  /// Chemistry + vertical transport (Lcz) work of each grid column.
  std::vector<double> chem_column_work;
  /// Replicated aerosol work (total).
  double aerosol_work = 0.0;

  friend bool operator==(const StepTrace&, const StepTrace&) = default;
};

/// Work of one simulated hour.
struct HourTrace {
  double input_work = 0.0;     ///< inputhour (sequential)
  double pretrans_work = 0.0;  ///< pretrans (sequential)
  double output_work = 0.0;    ///< outputhour (sequential)
  std::vector<StepTrace> steps;

  friend bool operator==(const HourTrace&, const HourTrace&) = default;
};

/// Complete work trace of a physics run.
struct WorkTrace {
  std::string dataset;
  std::size_t species = 0;
  std::size_t layers = 0;
  std::size_t points = 0;
  /// Within-layer parallelism of the transport operator: 1 for the 2-D
  /// multiscale SUPG operator (a layer is indivisible), min(nx, ny) for
  /// the 1-D operator-split baseline (rows of a sweep are independent).
  std::size_t transport_row_parallelism = 1;
  std::vector<HourTrace> hours;

  /// Totals (sequential-work summaries used by the performance model).
  double total_transport_work() const;
  double total_chemistry_work() const;
  double total_aerosol_work() const;
  double total_io_work() const;
  long long total_steps() const;

  /// Serialization; used to cache expensive physics runs between bench
  /// invocations. save() writes the durable framed container atomically
  /// (per-hour CRC32C sections). load() reads only that container: a
  /// missing, corrupt or non-container file (including the retired v1/v2
  /// plain-text traces) throws durable::StorageError (path, section, byte
  /// offset).
  void save(const std::string& path) const;
  static WorkTrace load(const std::string& path);

  friend bool operator==(const WorkTrace&, const WorkTrace&) = default;

  /// Loads from `path` when present, otherwise calls `produce()`, saves the
  /// result to `path`, and returns it.
  template <typename Fn>
  static WorkTrace cached(const std::string& path, Fn&& produce);
};

bool trace_file_exists(const std::string& path);

template <typename Fn>
WorkTrace WorkTrace::cached(const std::string& path, Fn&& produce) {
  if (trace_file_exists(path)) {
    return load(path);
  }
  WorkTrace t = produce();
  t.save(path);
  return t;
}

}  // namespace airshed
