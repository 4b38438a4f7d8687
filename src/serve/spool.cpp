#include "serve/spool.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "base/error.h"
#include "elastic/state_io.h"
#include "serve/json.h"
#include "sim/state_file.h"

namespace esl::serve {

namespace {

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Appends `line` (which must end in '\n') to `path` and fsyncs it so the
/// journal entry is durable before its record is renamed into place.
void appendSynced(const std::string& path, const std::string& line) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0600);
  ESL_CHECK(fd >= 0,
            "cannot append to '" + path + "': " + std::strerror(errno));
  sim::writeSyncedAndClose(fd, line.data(), line.size(), path);
}

std::string journalLine(const std::string& event, const std::string& sid) {
  json::Value line = json::Value::object();
  line.set("event", json::Value::str(event));
  line.set("sid", json::Value::str(sid));
  return line.dump() + "\n";
}

}  // namespace

void SpoolDir::open(const std::string& dir, bool persistent) {
  ESL_CHECK(!dir.empty(), "spool directory path is empty");
  if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST)
    throw EslError("cannot create spool directory '" + dir +
                   "': " + std::strerror(errno));
  dir_ = dir;
  persistent_ = persistent;
}

void SpoolDir::writeRecord(const std::string& sid,
                           const std::vector<std::uint8_t>& record) {
  if (persistent_) journalAppend("spool", sid);
  sim::writeFileAtomic(recordPath(sid), record, "spool-write");
}

std::vector<std::uint8_t> SpoolDir::readRecord(const std::string& sid) const {
  return sim::readFileBytes(recordPath(sid));
}

void SpoolDir::removeRecord(const std::string& sid) {
  std::remove(recordPath(sid).c_str());
  if (persistent_) journalAppend("close", sid);
}

void SpoolDir::journalAppend(const std::string& event, const std::string& sid) {
  std::lock_guard<std::mutex> lk(m_);
  if (event == "spool") {
    if (!journaled_.insert(sid).second) return;  // already journaled live
  } else {
    if (journaled_.erase(sid) == 0) return;  // never journaled: nothing to do
  }
  appendSynced(journalPath(), journalLine(event, sid));
  ++journalLines_;
  // A long-lived daemon churning sessions grows the journal without bound;
  // fold it back to one line per live session once the slack dominates.
  if (journalLines_ > 64 && journalLines_ > 4 * journaled_.size())
    journalCompactLocked();
}

void SpoolDir::journalCompactLocked() {
  std::string text;
  for (const std::string& sid : journaled_) text += journalLine("spool", sid);
  // The atomic writer also fsyncs the directory, so lines appended after the
  // compaction never hang on a rename that is not yet durable.
  sim::writeFileAtomic(journalPath(),
                       std::vector<std::uint8_t>(text.begin(), text.end()));
  journalLines_ = journaled_.size();
}

std::vector<SpoolDir::Recovered> SpoolDir::recover(
    std::vector<std::string>& warnings, std::uint64_t* quarantined) {
  ESL_CHECK(persistent_, "recover() needs a persistent spool directory");
  std::lock_guard<std::mutex> lk(m_);

  // Replay the journal into the live set. A torn final line (crash mid-append)
  // is expected damage: report it and keep everything before it.
  std::set<std::string> live;
  {
    FILE* f = std::fopen(journalPath().c_str(), "rb");
    if (f != nullptr) {
      std::string text;
      char buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
      std::fclose(f);
      std::size_t start = 0;
      while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos) {
          warnings.push_back("journal '" + journalPath() +
                             "': discarding torn trailing line");
          break;
        }
        const std::string lineText = text.substr(start, nl - start);
        start = nl + 1;
        if (lineText.empty()) continue;
        try {
          const json::Value line = json::Value::parse(lineText, journalPath());
          const json::Value* event = line.find("event");
          const json::Value* sid = line.find("sid");
          if (event == nullptr || sid == nullptr) continue;
          if (event->asString() == "spool")
            live.insert(sid->asString());
          else if (event->asString() == "close")
            live.erase(sid->asString());
        } catch (const EslError&) {
          warnings.push_back("journal '" + journalPath() +
                             "': discarding unparsable line");
        }
      }
    }
  }

  // Scan the directory: validate live records, quarantine damage, compact
  // orphans (un-journaled records from a pre-crash write race) and temps.
  std::vector<Recovered> recovered;
  DIR* d = ::opendir(dir_.c_str());
  ESL_CHECK(d != nullptr, "cannot scan spool directory '" + dir_ +
                              "': " + std::strerror(errno));
  std::vector<std::string> names;
  while (const dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);

  for (const std::string& name : names) {
    const std::string path = dir_ + "/" + name;
    if (name == "spool.journal" || endsWith(name, ".corrupt")) continue;
    if (endsWith(name, ".tmp")) {
      // A doomed temp from an interrupted atomic write.
      std::remove(path.c_str());
      continue;
    }
    if (!endsWith(name, ".spool")) continue;
    const std::string sid = name.substr(0, name.size() - 6);
    if (live.count(sid) == 0) {
      warnings.push_back("spool record '" + path +
                         "' has no journal entry; compacted");
      std::remove(path.c_str());
      continue;
    }
    live.erase(sid);
    try {
      StateReader::open(sim::readFileBytes(path), StateKind::kSession, "'" + path + "'");
      recovered.push_back(Recovered{sid, path});
    } catch (const EslError& e) {
      const std::string quarantine = path + ".corrupt";
      std::rename(path.c_str(), quarantine.c_str());
      warnings.push_back("session '" + sid + "': " + e.what() +
                         "; quarantined as '" + quarantine + "'");
      if (quarantined != nullptr) ++*quarantined;
    }
  }
  // Journaled sessions whose record never landed (crash between the journal
  // append and the record rename).
  for (const std::string& sid : live)
    warnings.push_back("session '" + sid +
                       "': journaled but no spool record found; dropped");

  journaled_.clear();
  for (const Recovered& r : recovered) journaled_.insert(r.sid);
  journalCompactLocked();
  return recovered;
}

}  // namespace esl::serve
