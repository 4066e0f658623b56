#include "airshed/svc/journal.hpp"

#include <utility>

#include "airshed/util/hash.hpp"

namespace airshed::svc {

using durable::PayloadReader;
using durable::PayloadWriter;
using durable::StorageError;

const char* to_string(BatchJournal::FailDecision decision) {
  switch (decision) {
    case BatchJournal::FailDecision::Retry: return "retry";
    case BatchJournal::FailDecision::Degrade: return "degrade";
    case BatchJournal::FailDecision::Quarantine: return "quarantine";
  }
  return "?";
}

namespace {

// Spec codec — mirrors the archive's result-container layout so a spec
// round-trips identically through either file.
void put_spec(PayloadWriter& w, const ScenarioSpec& s) {
  w.u32(static_cast<std::uint32_t>(s.id))
      .str(s.name)
      .str(s.dataset)
      .u32(static_cast<std::uint32_t>(s.hours))
      .f64(s.controls.nox_scale)
      .f64(s.controls.voc_scale)
      .f64(s.controls.co_scale)
      .f64(s.controls.so2_scale)
      .f64(s.controls.nh3_scale)
      .f64(s.emission_perturbation);
}

ScenarioSpec get_spec(PayloadReader& r) {
  ScenarioSpec s;
  s.id = static_cast<int>(r.u32());
  s.name = r.str();
  s.dataset = r.str();
  s.hours = static_cast<int>(r.u32());
  s.controls.nox_scale = r.f64();
  s.controls.voc_scale = r.f64();
  s.controls.co_scale = r.f64();
  s.controls.so2_scale = r.f64();
  s.controls.nh3_scale = r.f64();
  s.emission_perturbation = r.f64();
  return s;
}

// The decision-relevant option fields plus the full spec list, in one
// canonical blob. Everything that can change a supervision decision is in
// here; everything that cannot (threads, backoff_scale, paths, observer
// sinks) is deliberately out, so a resume may differ in those freely.
std::string encode_decisions(const BatchOptions& o,
                             const std::vector<ScenarioSpec>& specs) {
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(o.max_attempts))
      .f64(o.backoff_base_ms)
      .f64(o.backoff_cap_ms)
      .f64(o.deadline_factor)
      .u32(static_cast<std::uint32_t>(o.breaker_threshold))
      .u32(static_cast<std::uint32_t>(o.breaker_cooldown_rounds))
      .u32(o.degrade ? 1u : 0u)
      .u64(o.degrade_nx)
      .u64(o.degrade_ny)
      .f64(o.watchdog_budget_factor)
      .u32(static_cast<std::uint32_t>(o.max_queue_depth))
      .u32(static_cast<std::uint32_t>(o.max_in_flight))
      // Throughput decisions: the schedule changes dispatch order, and
      // sharing is pinned so a resume runs under the exact input
      // configuration the journal's history was produced with.
      .u32(static_cast<std::uint32_t>(o.schedule))
      .u32(o.share_inputs ? 1u : 0u);
  const ChaosOptions& c = o.chaos;
  w.f64(c.node_death)
      .f64(c.straggler)
      .f64(c.storage_fault)
      .f64(c.payload_corruption)
      .f64(c.numerics)
      .f64(c.hang)
      .f64(c.straggler_alpha)
      .f64(c.straggler_cap)
      .u64(c.poison_scenarios.size());
  for (int id : c.poison_scenarios) w.u32(static_cast<std::uint32_t>(id));
  w.u64(specs.size());
  for (const ScenarioSpec& s : specs) put_spec(w, s);
  return std::move(w).take();
}

void decode_decisions(PayloadReader& r, BatchOptions& o,
                      std::vector<ScenarioSpec>& specs) {
  o.max_attempts = static_cast<int>(r.u32());
  o.backoff_base_ms = r.f64();
  o.backoff_cap_ms = r.f64();
  o.deadline_factor = r.f64();
  o.breaker_threshold = static_cast<int>(r.u32());
  o.breaker_cooldown_rounds = static_cast<int>(r.u32());
  o.degrade = r.u32() != 0;
  o.degrade_nx = static_cast<std::size_t>(r.u64());
  o.degrade_ny = static_cast<std::size_t>(r.u64());
  o.watchdog_budget_factor = r.f64();
  o.max_queue_depth = static_cast<int>(r.u32());
  o.max_in_flight = static_cast<int>(r.u32());
  o.schedule = static_cast<Schedule>(r.u32());
  o.share_inputs = r.u32() != 0;
  ChaosOptions& c = o.chaos;
  c.node_death = r.f64();
  c.straggler = r.f64();
  c.storage_fault = r.f64();
  c.payload_corruption = r.f64();
  c.numerics = r.f64();
  c.hang = r.f64();
  c.straggler_alpha = r.f64();
  c.straggler_cap = r.f64();
  std::uint64_t np = r.u64();
  if (np > (1u << 20)) r.fail("implausible poison-scenario count");
  c.poison_scenarios.clear();
  c.poison_scenarios.reserve(static_cast<std::size_t>(np));
  for (std::uint64_t i = 0; i < np; ++i) {
    c.poison_scenarios.push_back(static_cast<int>(r.u32()));
  }
  std::uint64_t ns = r.u64();
  if (ns > (1u << 20)) r.fail("implausible spec count");
  specs.clear();
  specs.reserve(static_cast<std::size_t>(ns));
  for (std::uint64_t i = 0; i < ns; ++i) specs.push_back(get_spec(r));
}

std::string encode_header(std::uint64_t batch_seed, const BatchOptions& opts,
                          const std::vector<ScenarioSpec>& specs) {
  const std::string blob = encode_decisions(opts, specs);
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(BatchJournal::RecordType::Header))
      .u64(batch_seed)
      .u64(fnv1a_bytes(blob))
      .str(blob);
  return std::move(w).take();
}

std::string encode_record(const BatchJournal::Record& r) {
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(r.type))
      .u32(static_cast<std::uint32_t>(r.id))
      .u32(static_cast<std::uint32_t>(r.attempt))
      .u32(static_cast<std::uint32_t>(r.round))
      .u32(r.degraded ? 1u : 0u);
  switch (r.type) {
    case BatchJournal::RecordType::Start:
      break;
    case BatchJournal::RecordType::Commit:
      w.u32(static_cast<std::uint32_t>(r.fault))
          .f64(r.slowdown)
          .u32(static_cast<std::uint32_t>(r.wait))
          .u64(r.checksum)
          .str(r.file);
      break;
    case BatchJournal::RecordType::Failed:
      w.u32(static_cast<std::uint32_t>(r.fault))
          .f64(r.slowdown)
          .u32(static_cast<std::uint32_t>(r.wait))
          .u32(r.infra ? 1u : 0u)
          .u32(r.watchdog ? 1u : 0u)
          .str(r.error)
          .u32(static_cast<std::uint32_t>(r.decision))
          .f64(r.backoff_ms);
      break;
    default:
      break;
  }
  return std::move(w).take();
}

}  // namespace

std::uint64_t BatchJournal::options_digest(
    const BatchOptions& opts, const std::vector<ScenarioSpec>& specs) {
  const std::string blob = encode_decisions(opts, specs);
  return fnv1a_bytes(blob);
}

BatchJournal::Replay BatchJournal::replay(const std::string& path) {
  Replay out;
  out.raw = durable::replay_journal(path, kFormat);
  if (!out.raw.existed) return out;
  if (out.raw.version != kVersion) {
    throw StorageError(path, "journal header", 0,
                       "batch journal version " +
                           std::to_string(out.raw.version) +
                           " does not match this build's version " +
                           std::to_string(kVersion) +
                           "; finish or discard the batch with the matching "
                           "build");
  }
  out.torn_tail = out.raw.torn_tail;
  if (out.raw.records.empty()) {
    // Header frame landed but the first record (the batch header payload)
    // never did — treat like an interrupted creation: start fresh.
    out.raw.records.clear();
    return out;
  }
  for (std::size_t i = 0; i < out.raw.records.size(); ++i) {
    const std::string& payload = out.raw.records[i];
    PayloadReader r(payload, path, "record " + std::to_string(i), 0);
    const auto type = static_cast<RecordType>(r.u32());
    if (i == 0) {
      if (type != RecordType::Header) {
        r.fail("first journal record is not a batch header");
      }
      out.batch_seed = r.u64();
      out.options_digest = r.u64();
      const std::string blob = r.str(1 << 24);
      if (fnv1a_bytes(blob) != out.options_digest) {
        r.fail("batch header digest mismatch");
      }
      PayloadReader br(blob, path, "header decisions", 0);
      decode_decisions(br, out.options, out.specs);
      br.expect_end();
      r.expect_end();
      out.existed = true;
      out.options.batch_seed = out.batch_seed;
      continue;
    }
    if (type == RecordType::Sealed) {
      // Totals are recorded for forensics; replay only needs the flag —
      // the report is rebuilt from the per-scenario records.
      r.u32();
      r.u32();
      r.u32();
      r.u32();
      r.expect_end();
      out.sealed = true;
      continue;
    }
    Record rec;
    rec.type = type;
    rec.id = static_cast<int>(r.u32());
    rec.attempt = static_cast<int>(r.u32());
    rec.round = static_cast<int>(r.u32());
    rec.degraded = r.u32() != 0;
    switch (type) {
      case RecordType::Start:
        break;
      case RecordType::Commit:
        rec.fault = static_cast<FaultClass>(r.u32());
        rec.slowdown = r.f64();
        rec.wait = static_cast<int>(r.u32());
        rec.checksum = r.u64();
        rec.file = r.str();
        break;
      case RecordType::Failed:
        rec.fault = static_cast<FaultClass>(r.u32());
        rec.slowdown = r.f64();
        rec.wait = static_cast<int>(r.u32());
        rec.infra = r.u32() != 0;
        rec.watchdog = r.u32() != 0;
        rec.error = r.str();
        rec.decision = static_cast<FailDecision>(r.u32());
        rec.backoff_ms = r.f64();
        break;
      default:
        r.fail("unknown journal record type");
    }
    r.expect_end();
    out.records.push_back(std::move(rec));
  }
  return out;
}

BatchJournal::BatchJournal(std::string path, const BatchOptions& opts,
                           const std::vector<ScenarioSpec>& specs)
    : writer_(std::move(path), kFormat, kVersion) {
  writer_.append(encode_header(opts.batch_seed, opts, specs));
}

BatchJournal::BatchJournal(std::string path, const Replay& replay)
    : writer_(std::move(path), replay.raw) {}

void BatchJournal::start(int id, int attempt, int round, bool degraded) {
  Record r;
  r.type = RecordType::Start;
  r.id = id;
  r.attempt = attempt;
  r.round = round;
  r.degraded = degraded;
  writer_.append(encode_record(r));
}

void BatchJournal::commit(const Record& r) {
  Record c = r;
  c.type = RecordType::Commit;
  writer_.append(encode_record(c));
}

void BatchJournal::failed(const Record& r) {
  Record f = r;
  f.type = RecordType::Failed;
  writer_.append(encode_record(f));
}

void BatchJournal::seal(int completed, int degraded, int quarantined,
                        int shed) {
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(RecordType::Sealed))
      .u32(static_cast<std::uint32_t>(completed))
      .u32(static_cast<std::uint32_t>(degraded))
      .u32(static_cast<std::uint32_t>(quarantined))
      .u32(static_cast<std::uint32_t>(shed));
  writer_.append(std::move(w).take());
}

}  // namespace airshed::svc
