#include "base/error.h"

namespace esl::detail {

void throwInternal(const char* cond, const char* file, int line) {
  throw InternalError(std::string("internal invariant failed: ") + cond + " at " +
                      file + ":" + std::to_string(line));
}

void throwCheck(const std::string& msg) { throw EslError(msg); }

}  // namespace esl::detail
