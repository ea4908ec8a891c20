#include "common/env.h"

#include <cerrno>
#include <cstdlib>
#include <string>

namespace eslev {

Result<std::optional<int64_t>> GetEnvInt64(const char* name, int64_t min_value,
                                           int64_t max_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::optional<int64_t>{};
  const std::string text(raw);
  const auto range = [&] {
    return "accepted range is [" + std::to_string(min_value) + ", " +
           std::to_string(max_value) + "]";
  };
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') {
    return Status::Invalid(std::string(name) + "='" + text +
                           "' is not an integer; " + range());
  }
  if (errno == ERANGE || parsed < min_value || parsed > max_value) {
    return Status::Invalid(std::string(name) + "='" + text +
                           "' is out of range; " + range());
  }
  return std::optional<int64_t>{static_cast<int64_t>(parsed)};
}

Result<size_t> ResolveBatchSize(size_t configured) {
  if (configured < 1 || configured > static_cast<size_t>(kMaxBatchSize)) {
    return Status::Invalid("batch_size=" + std::to_string(configured) +
                           " is out of range; accepted range is [1, " +
                           std::to_string(kMaxBatchSize) + "]");
  }
  auto env = GetEnvInt64(kBatchSizeEnvVar, 1, kMaxBatchSize);
  if (!env.ok()) return env.status();
  if (env->has_value()) return static_cast<size_t>(**env);
  return configured;
}

}  // namespace eslev
