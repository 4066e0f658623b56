// airshed::svc — durable write-ahead batch journal.
//
// The supervisor's missing robustness layer before PR 8: it survived every
// fault *inside* a run but died with its batch — SIGKILL the process and
// completed scenarios re-ran from scratch. The batch journal fixes that
// with classic WAL discipline over durable::JournalWriter:
//
//   header          batch_seed, digest of the decision-relevant options +
//                   specs (so a resume cannot silently run a different
//                   batch), and the full options/specs themselves (so
//                   `airshed_cli batch --resume <dir>` needs nothing else)
//   scenario_start  appended (fsync'd) BEFORE an attempt executes: marks
//                   that the archive may hold uncommitted bytes for it
//   scenario_commit appended AFTER the artifact is durably written and
//                   read-back-validated: the exactly-once marker replay
//                   trusts (subject to digest re-verification)
//   scenario_failed the attempt's outcome AND the supervision decision
//                   taken (retry / degrade / quarantine), so a resumed run
//                   reconstructs the exact retry ladder position
//   batch_sealed    appended after the manifest lands: the batch is closed
//
// Every supervision decision is already pure in (batch_seed, scenario,
// attempt), so replay + re-execution of only the unfinished work yields an
// archive and manifest byte-identical to an uninterrupted run — at any
// thread count, killed at any record boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "airshed/durable/journal.hpp"
#include "airshed/svc/supervisor.hpp"

namespace airshed::svc {

class BatchJournal {
 public:
  static constexpr const char* kFormat = "airshed-batch-journal";
  /// v2: decision blob gains schedule / share_inputs / resident; Commit
  /// and Failed records gain the attempt's queue wait (rounds).
  /// v3: `resident` leaves the decision blob (resident mode is gone).
  /// Version is checked on replay — an older journal cannot silently
  /// resume under newer decisions (and vice versa).
  static constexpr std::uint32_t kVersion = 3;

  enum class RecordType : std::uint32_t {
    Header = 1,
    Start = 2,
    Commit = 3,
    Failed = 4,
    Sealed = 5,
  };

  /// The supervision decision a failed attempt resolved to (recorded so a
  /// resume re-enters the retry ladder exactly where the crash left it).
  enum class FailDecision : std::uint32_t {
    Retry = 0,
    Degrade = 1,
    Quarantine = 2,
  };

  /// One decoded journal record (Start / Commit / Failed; the header and
  /// seal are surfaced through Replay fields instead).
  struct Record {
    RecordType type = RecordType::Start;
    int id = -1;
    int attempt = 0;
    int round = 0;
    /// Rounds the attempt waited after becoming dispatchable (Commit and
    /// Failed records; resume reconstructs the wait histogram from it).
    int wait = 0;
    bool degraded = false;  ///< the attempt ran the coarse fallback grid
    FaultClass fault = FaultClass::None;
    double slowdown = 1.0;
    // Commit only.
    std::uint64_t checksum = 0;
    std::string file;  ///< artifact file name relative to the archive dir
    // Failed only.
    bool infra = false;
    bool watchdog = false;  ///< the hung-scenario watchdog fired
    std::string error;
    FailDecision decision = FailDecision::Retry;
    double backoff_ms = 0.0;
  };

  /// The durably committed batch state recovered from a journal.
  struct Replay {
    bool existed = false;    ///< header record present and intact
    bool sealed = false;     ///< batch_sealed present: the batch completed
    bool torn_tail = false;  ///< a torn append was truncated away
    std::uint64_t batch_seed = 0;
    /// Digest of the decision-relevant options + specs at header time;
    /// resume refuses to run under different decisions.
    std::uint64_t options_digest = 0;
    BatchOptions options;  ///< decision fields only (no paths/threads/sinks)
    std::vector<ScenarioSpec> specs;
    std::vector<Record> records;  ///< Start/Commit/Failed, journal order
    durable::JournalReplay raw;   ///< valid prefix handed to the writer
  };

  /// Replays the valid prefix of the journal at `path`. Missing file or
  /// interrupted header creation -> existed = false. Genuine corruption
  /// (bad header CRC, undecodable committed record) throws StorageError.
  static Replay replay(const std::string& path);

  /// FNV-1a digest over the canonical encoding of the decision-relevant
  /// option fields and the full spec list. Excludes threads, backoff_scale,
  /// archive/journal paths and observer sinks: anything that cannot change
  /// a supervision decision may differ between the original run and the
  /// resume.
  static std::uint64_t options_digest(const BatchOptions& opts,
                                      const std::vector<ScenarioSpec>& specs);

  /// Fresh journal: writes the header record (options + specs + digest).
  BatchJournal(std::string path, const BatchOptions& opts,
               const std::vector<ScenarioSpec>& specs);
  /// Resuming journal: truncates the torn tail and appends after the
  /// replayed prefix.
  BatchJournal(std::string path, const Replay& replay);

  void start(int id, int attempt, int round, bool degraded);
  void commit(const Record& r);
  void failed(const Record& r);
  void seal(int completed, int degraded, int quarantined, int shed);

  /// Records appended by this writer in this process (header included).
  std::uint64_t appended() const { return writer_.appended(); }

 private:
  durable::JournalWriter writer_;
};

const char* to_string(BatchJournal::FailDecision decision);

}  // namespace airshed::svc
