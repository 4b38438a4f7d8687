// SpoolDir: the serve daemon's durable session store.
//
// One directory holds one record file per spooled session (`<sid>.spool`,
// the SimSession::spoolSave container byte for byte). The directory is its
// own index: every record lands through an atomic temp-fsync-rename, so the
// listing names exactly the sessions that have a durable record. A crash at
// any instant leaves a session's previous record (or none, if it never had
// one) plus at most a doomed `.tmp`.
//
// removeRecord() unlinks the record and, in persistent mode, fsyncs the
// directory, so a closed session stays closed across a crash.
//
// recover() is one scan in name order: temps are deleted, every `*.spool`
// record has its container verified (magic, version, kind, declared length,
// CRC), damaged records are quarantined by renaming them to
// `<file>.corrupt` with a structured warning — never aborting — and every
// other file is left alone.
//
// Ephemeral mode (the service's private temp dir): same record format, no
// directory fsync on removal, no recovery — the directory dies with the
// process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace esl::serve {

class SpoolDir {
 public:
  SpoolDir() = default;

  /// Binds to `dir` (created if missing). Persistent mode makes removals
  /// durable and supports recover(); ephemeral mode is record files only.
  void open(const std::string& dir, bool persistent);

  const std::string& dir() const { return dir_; }
  bool persistent() const { return persistent_; }

  std::string recordPath(const std::string& sid) const {
    return dir_ + "/" + sid + ".spool";
  }

  /// Writes the session's record (spoolSave bytes) atomically through fault
  /// point "spool-write". Throws EslError when it cannot be written.
  void writeRecord(const std::string& sid,
                   const std::vector<std::uint8_t>& record);

  /// Reads a record as written; SimSession::spoolLoad verifies it.
  std::vector<std::uint8_t> readRecord(const std::string& sid) const;

  /// Removes the record (if any); durable in persistent mode.
  void removeRecord(const std::string& sid);

  /// Startup recovery scan (persistent mode): returns, in name order, the
  /// ids of the sessions whose records verified clean. Damaged or
  /// other-version records are renamed `.corrupt` and reported through
  /// `warnings`; temps are deleted. `quarantined` counts renamed records.
  std::vector<std::string> recover(std::vector<std::string>& warnings,
                                   std::uint64_t* quarantined = nullptr);

 private:
  std::string dir_;
  bool persistent_ = false;
};

}  // namespace esl::serve
