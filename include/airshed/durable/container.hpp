// airshed::durable — corruption-tolerant on-disk framing.
//
// PR 1 made restart correctness hinge on checkpoint files; this layer makes
// those files trustworthy. Every durable artifact (checkpoint, archive,
// work trace, manifest) is a versioned, length-prefixed binary container:
//
//   header:   8-byte magic "ASHDUR1\n"
//             format tag (length-prefixed string, e.g. "checkpoint")
//             format version (u32), section count (u32)
//   section:  name (length-prefixed), payload length (u64),
//             payload bytes, CRC32C(payload) (u32)
//   footer:   FNV-1a digest of every byte before the footer (u64),
//             8-byte trailer magic "ASHDEND\n"
//
// All integers are little-endian regardless of host. The layered checks
// guarantee that ANY truncation or single-bit flip is rejected with a typed
// StorageError naming the file, the section and the byte offset: payload
// flips fail the section CRC, framing flips fail the footer digest, footer
// flips fail the digest or trailer check, and length-field flips are
// bounds-checked against the file size before any allocation.
//
// Writes are atomic: encode in memory, write to "<path>.tmp.<pid>", flush,
// then rename over the final path — a crash mid-write never clobbers the
// previous good file (the torn temp file is simply ignored).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "airshed/util/error.hpp"

namespace airshed::durable {

/// Thrown by every durable reader on a malformed, truncated or corrupt
/// file. Carries the failing file, the section being parsed ("header",
/// "footer", or a payload section name) and the absolute byte offset at
/// which the damage was detected.
class StorageError : public Error {
 public:
  StorageError(std::string path, std::string section, std::uint64_t offset,
               const std::string& what);

  const std::string& path() const { return path_; }
  const std::string& section() const { return section_; }
  std::uint64_t offset() const { return offset_; }

 private:
  std::string path_;
  std::string section_;
  std::uint64_t offset_ = 0;
};

/// Consecutive zero-progress write attempts tolerated by atomic_write_file
/// before it gives up. Transient EINTR / EAGAIN / short writes within the
/// budget are retried silently; the budget resets on any progress.
inline constexpr int kMaxWriteRetries = 8;

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// write with bounded retry of transient EINTR/short-write failures,
/// fsync, rename over the target, then fsync the parent DIRECTORY so the
/// committed rename survives power loss, not just process death. Throws
/// StorageError (section "atomic-write", offset = bytes landed) on
/// persistent I/O failure; the temp file is removed and the previous
/// `path` content is untouched.
void atomic_write_file(const std::string& path, std::string_view bytes);

/// Test seam: replaces the write(2) call inside atomic_write_file. The
/// hook receives (fd, buf, len) and returns bytes written, 0 for a
/// zero-progress short write, or -1 with errno set (e.g. EINTR). Pass an
/// empty function to restore the real write(2). Not thread-safe: install
/// only from single-threaded test setup.
using AtomicWriteHook = std::function<long(int fd, const void* buf,
                                           std::size_t len)>;
void set_atomic_write_hook(AtomicWriteHook hook);

// ---------------------------------------------------------------------------
// Payload codec: little-endian primitives inside a section payload.
// ---------------------------------------------------------------------------

/// Appends little-endian primitives to a growing payload buffer.
class PayloadWriter {
 public:
  PayloadWriter& u32(std::uint32_t v);
  PayloadWriter& u64(std::uint64_t v);
  PayloadWriter& i64(std::int64_t v);
  PayloadWriter& f64(double v);
  /// Length-prefixed string (u32 length + bytes).
  PayloadWriter& str(std::string_view s);
  /// Count-prefixed vector of doubles (u64 count + raw values).
  PayloadWriter& doubles(std::span<const double> values);

  std::string take() && { return std::move(out_); }
  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

/// Reads little-endian primitives from a section payload, reporting
/// underruns and bound violations as StorageError with the absolute file
/// offset (section base + cursor).
class PayloadReader {
 public:
  PayloadReader(std::string_view payload, std::string path,
                std::string section, std::uint64_t base_offset);

  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str(std::size_t max_len = 1 << 20);
  /// Reads a count-prefixed vector of doubles into `out` (resized). The
  /// count is bounds-checked against the remaining payload before any
  /// allocation.
  void doubles(std::vector<double>& out);
  /// Reads exactly `out.size()` raw doubles (for pre-shaped arrays).
  void doubles_into(std::span<double> out);

  std::size_t remaining() const { return payload_.size() - pos_; }
  /// Throws if any payload bytes are left unconsumed.
  void expect_end() const;

  [[noreturn]] void fail(const std::string& what) const;

 private:
  void need(std::size_t n, const char* what) const;

  std::string_view payload_;
  std::string path_;
  std::string section_;
  std::uint64_t base_ = 0;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Container writer / reader.
// ---------------------------------------------------------------------------

/// Builds a framed container in memory; write_atomic() lands it on disk in
/// one rename.
class ContainerWriter {
 public:
  ContainerWriter(std::string format, std::uint32_t version);

  void add_section(std::string name, std::string payload);

  /// Full container bytes (header + sections + footer).
  std::string encode() const;
  /// encode() + atomic_write_file().
  void write_atomic(const std::string& path) const;

 private:
  std::string format_;
  std::uint32_t version_ = 0;
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// One parsed section: the payload plus its absolute position (for error
/// reporting and the CLI `verify` listing).
struct SectionView {
  std::string name;
  std::string payload;
  std::uint64_t payload_offset = 0;  ///< absolute offset of the payload
  std::uint32_t crc = 0;             ///< stored (and verified) CRC32C
};

/// Parses and fully validates a container: framing, every section CRC and
/// the footer digest. Any defect throws StorageError — a reader that
/// constructed successfully holds verified data.
class ContainerReader {
 public:
  /// Reads and validates `path`. When `expect_format` is non-empty, a
  /// mismatching format tag is rejected (a trace file is not an archive).
  static ContainerReader read_file(const std::string& path,
                                   std::string_view expect_format = {});
  /// Same validation over in-memory bytes (`path` used for errors only).
  static ContainerReader parse(std::string bytes, const std::string& path,
                               std::string_view expect_format = {});

  const std::string& path() const { return path_; }
  const std::string& format() const { return format_; }
  std::uint32_t version() const { return version_; }
  std::uint64_t footer_digest() const { return digest_; }

  std::size_t section_count() const { return sections_.size(); }
  const SectionView& section(std::size_t i) const;
  const SectionView* find(std::string_view name) const;
  /// Throws StorageError when the section is missing.
  const SectionView& require(std::string_view name) const;
  /// PayloadReader over a required section.
  PayloadReader open(std::string_view name) const;

 private:
  std::string path_;
  std::string format_;
  std::uint32_t version_ = 0;
  std::uint64_t digest_ = 0;
  std::vector<SectionView> sections_;
};

/// Reads a whole file into memory; throws StorageError when unreadable.
std::string read_file_bytes(const std::string& path);

/// True when `path` starts with the container magic (cheap sniff, e.g. to
/// skip foreign files in a directory scan).
bool looks_like_container(const std::string& path);

// ---------------------------------------------------------------------------
// Storage-fault injection on real files (test / bench harness side of the
// FaultPlan storage-fault class).
// ---------------------------------------------------------------------------

/// The three storage failure modes production file systems exhibit.
enum class StorageFaultKind {
  None,
  TornWrite,   ///< the file was truncated at byte k mid-write
  BitFlip,     ///< a single bit flipped at some offset
  LostRename,  ///< the final rename never landed: the file is gone
};

std::string to_string(StorageFaultKind kind);

/// Applies `kind` to the file at `path`, deterministically in `seed`
/// (truncation point / flipped bit are seed-derived). No-op for None.
void inject_storage_fault(const std::string& path, StorageFaultKind kind,
                          std::uint64_t seed);

}  // namespace airshed::durable
