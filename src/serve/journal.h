// Durable append-only job journal for `statsize serve --journal <dir>` —
// the crash-safety substrate of DESIGN.md §13.
//
// The journal is one file (<dir>/journal.jsonl) of length+checksum framed
// JSON records:
//
//   SJ1 <payload-bytes> <fnv1a64-hex16> <payload>\n
//
// The decimal length makes the framing self-delimiting even when a payload
// carries embedded newlines (job results are pretty-printed JSON); the
// checksum makes a torn or bit-rotted tail detectable. Replay walks records
// front to back and stops at the first frame that is short, malformed, or
// checksum-mismatched: everything before it is trusted, everything from its
// start offset on is truncated away (a torn tail is the expected artifact of
// a crash mid-append, never an error).
//
// Record payloads are JSON objects with a "kind" discriminator:
//   circuit  — a fresh upload (key, format, name, text) so recovery can
//              rebuild the cache without re-uploads
//   patch    — a PATCH-derived entry (base key, derived key, edits) replayed
//              against the recovered base
//   admit    — job admission (id, type, circuit key, idempotency key, params)
//   start    — the job was claimed to run (by an executor, or for ssta/sta
//              by the thread that admitted it)
//   end      — terminal transition (state done|cancelled|failed, result or
//              error)
//
// Write durability is a policy knob: kNone trusts the page cache (fast, loses
// the last instants of work on power failure but never corrupts — the frame
// checksums catch partial flushes), kAlways fsyncs after every record (what
// an admission ack should mean on a box that can lose power).
//
// Torn-write injection: the `serve.journal.write` fault site makes one append
// write only a prefix of its frame and then fail (JournalWriteError). The
// journal repairs its tail before the next append (the torn bytes are
// overwritten/truncated), modeling a write error the process survived; a
// crash right after the torn write leaves the torn tail for replay to
// truncate, modeling a crash mid-append.

#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"

namespace statsize::serve {

/// Thrown by Journal::append when the write fails (injected torn write or a
/// real I/O error). The admission path maps it to a 503 so the client retries
/// against an un-acknowledged, un-journaled submission — nothing is lost.
class JournalWriteError : public std::runtime_error {
 public:
  explicit JournalWriteError(const std::string& what) : std::runtime_error(what) {}
};

enum class FsyncPolicy {
  kNone,    ///< rely on the page cache; checksums catch partial flushes
  kAlways,  ///< fsync after every record: an ack means durable
};

/// Parses "none" | "always"; throws std::invalid_argument otherwise.
FsyncPolicy parse_fsync_policy(const std::string& name);

struct JournalOptions {
  std::string dir;  ///< journal directory (created if absent)
  FsyncPolicy fsync = FsyncPolicy::kNone;
};

class Journal {
 public:
  /// One replayed record: the parsed payload plus its "kind" discriminator.
  struct Record {
    std::string kind;
    util::JsonValue doc;
  };

  /// Opens (creating dir/file as needed) and scans the existing journal:
  /// valid records are parsed into replay(), a torn/corrupt tail is truncated
  /// in place (truncated_bytes() reports how much). Throws std::runtime_error
  /// when the directory or file cannot be created/opened.
  explicit Journal(JournalOptions options);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one framed record; `payload` must be a JSON object with a
  /// "kind" member (not re-validated here — writers are trusted code).
  /// Thread-safe. Throws JournalWriteError on write failure (including the
  /// injected serve.journal.write torn write); the tail is repaired on the
  /// next append.
  void append(const std::string& payload);

  /// Records recovered by the startup scan, in file order.
  const std::vector<Record>& replay() const { return replay_; }

  /// Bytes of torn/corrupt tail discarded by the startup scan (0 = clean).
  std::int64_t truncated_bytes() const { return truncated_bytes_; }

  /// Records appended (successfully) since open.
  std::int64_t records_written() const;

  const std::string& path() const { return path_; }

 private:
  void repair_tail_locked();

  const JournalOptions options_;
  std::string path_;
  int fd_ = -1;

  mutable std::mutex mu_;
  std::int64_t good_offset_ = 0;  ///< file is valid exactly up to here
  std::int64_t file_size_ = 0;    ///< current physical size (>= good_offset_ after a torn write)
  std::int64_t records_written_ = 0;

  std::vector<Record> replay_;
  std::int64_t truncated_bytes_ = 0;
};

}  // namespace statsize::serve
