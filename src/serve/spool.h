// SpoolDir: the serve daemon's durable session store.
//
// One directory holds one record file per spooled session (`<sid>.spool`,
// the SimSession::spoolSave container byte for byte) plus an append-only
// NDJSON journal (`spool.journal`) mapping session ids to their records:
// {"event":"spool","sid":...} when a session first gains a record,
// {"event":"close","sid":...} when it is removed.
//
// Crash-safety discipline: the journal line is appended and fsynced BEFORE
// the record's atomic temp-fsync-rename, so no crash window can leave a
// journaled-live session whose durable record a recovery scan would treat
// as an orphan and delete. The worst a crash leaves is a live journal entry
// with no record yet (reported and dropped) or a doomed `.tmp` (removed).
//
// recover() replays the journal, verifies every live record's container
// (magic, version, kind, declared length, CRC), quarantines damaged records
// by renaming them to `<file>.corrupt` with a structured warning — never
// aborting — compacts orphans (un-journaled records, stale temps) and
// rewrites the journal to one line per surviving session.
//
// Ephemeral mode (the service's private temp dir): same record format, no
// journal, no recovery — the directory dies with the process.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace esl::serve {

class SpoolDir {
 public:
  struct Recovered {
    std::string sid;
    std::string path;
  };

  SpoolDir() = default;

  /// Binds to `dir` (created if missing). Persistent mode maintains the
  /// journal and supports recover(); ephemeral mode is record files only.
  void open(const std::string& dir, bool persistent);

  const std::string& dir() const { return dir_; }
  bool persistent() const { return persistent_; }

  std::string recordPath(const std::string& sid) const {
    return dir_ + "/" + sid + ".spool";
  }

  /// Writes the session's record (spoolSave bytes) atomically through fault
  /// point "spool-write", journaling the sid first if it has no record yet.
  /// Throws EslError when the journal or record cannot be written.
  void writeRecord(const std::string& sid,
                   const std::vector<std::uint8_t>& record);

  /// Reads a record as written; SimSession::spoolLoad verifies it.
  std::vector<std::uint8_t> readRecord(const std::string& sid) const;

  /// Removes the record (if any) and journals the close in persistent mode.
  void removeRecord(const std::string& sid);

  /// Startup recovery scan (persistent mode): returns the sessions whose
  /// records verified clean. Damaged or other-version records are renamed
  /// `.corrupt` and reported through `warnings`; orphans and temps are
  /// deleted; the journal is compacted. `quarantined` counts renamed records.
  std::vector<Recovered> recover(std::vector<std::string>& warnings,
                                 std::uint64_t* quarantined = nullptr);

 private:
  std::string journalPath() const { return dir_ + "/spool.journal"; }
  /// Appends one fsynced journal line; compacts when the journal has grown
  /// well past the live-session count.
  void journalAppend(const std::string& event, const std::string& sid);
  /// Rewrites the journal as one "spool" line per live sid (atomic).
  void journalCompactLocked();

  std::string dir_;
  bool persistent_ = false;

  mutable std::mutex m_;
  std::set<std::string> journaled_;  ///< sids with a live journal entry
  std::uint64_t journalLines_ = 0;   ///< appended since the last compaction
};

}  // namespace esl::serve
