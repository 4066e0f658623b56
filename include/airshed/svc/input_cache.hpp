// airshed::svc — content-addressed cache of immutable scenario inputs.
//
// A batch of emission-control scenarios resolves to very few distinct
// dataset *bases* (mesh + meteorology + layer structure): every scenario
// differing only in controls, perturbations or extra stacks shares one.
// The cache keys bases on the FNV-1a digest of the base-relevant
// DatasetSpec fields (io/dataset.hpp: dataset_base_digest) and publishes
// each as shared_ptr<const DatasetBase> — immutable by type, shared by
// address.
//
// Concurrency: any number of threads may request any key. Exactly one
// build ever runs per distinct digest (the first requester builds while
// holding a per-key future; later requesters block on it), so the hit and
// miss counts are deterministic at every thread count: misses == distinct
// bases requested, hits == total requests - misses.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "airshed/io/dataset.hpp"

namespace airshed::svc {

class SharedInputCache {
 public:
  /// Returns the base for `spec`, building it on first request. Thread
  /// safe; a build failure rethrows to every waiter and is not cached.
  std::shared_ptr<const DatasetBase> get(const DatasetSpec& spec);

  /// Requests served from an already built (or in-flight) base.
  long long hits() const;
  /// Requests that triggered a build (== distinct digests requested).
  long long misses() const;
  /// Distinct bases currently held.
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t,
                     std::shared_future<std::shared_ptr<const DatasetBase>>>
      entries_;
  long long hits_ = 0;
  long long misses_ = 0;
};

}  // namespace airshed::svc
