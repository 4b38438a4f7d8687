#include "serve/spool.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "base/error.h"
#include "elastic/state_io.h"
#include "sim/state_file.h"

namespace esl::serve {

namespace {

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
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
  sim::writeFileAtomic(recordPath(sid), record, "spool-write");
}

std::vector<std::uint8_t> SpoolDir::readRecord(const std::string& sid) const {
  return sim::readFileBytes(recordPath(sid));
}

void SpoolDir::removeRecord(const std::string& sid) {
  if (std::remove(recordPath(sid).c_str()) == 0 && persistent_)
    sim::syncDirectory(dir_);
}

std::vector<std::string> SpoolDir::recover(std::vector<std::string>& warnings,
                                           std::uint64_t* quarantined) {
  ESL_CHECK(persistent_, "recover() needs a persistent spool directory");
  DIR* d = ::opendir(dir_.c_str());
  ESL_CHECK(d != nullptr, "cannot scan spool directory '" + dir_ +
                              "': " + std::strerror(errno));
  std::vector<std::string> names;
  while (const dirent* ent = ::readdir(d)) names.push_back(ent->d_name);
  ::closedir(d);
  std::sort(names.begin(), names.end());

  std::vector<std::string> recovered;
  for (const std::string& name : names) {
    const std::string path = dir_ + "/" + name;
    if (endsWith(name, ".tmp")) {
      // A doomed temp from an interrupted atomic write.
      std::remove(path.c_str());
      continue;
    }
    if (!endsWith(name, ".spool")) continue;
    const std::string sid = name.substr(0, name.size() - 6);
    try {
      StateReader::open(sim::readFileBytes(path), StateKind::kSession,
                        "'" + path + "'");
      recovered.push_back(sid);
    } catch (const EslError& e) {
      const std::string quarantine = path + ".corrupt";
      std::rename(path.c_str(), quarantine.c_str());
      warnings.push_back("session '" + sid + "': " + e.what() +
                         "; quarantined as '" + quarantine + "'");
      if (quarantined != nullptr) ++*quarantined;
    }
  }
  return recovered;
}

}  // namespace esl::serve
