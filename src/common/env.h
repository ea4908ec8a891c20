// Environment-variable parsing with range validation. Every runtime knob
// read from the environment goes through these helpers so malformed
// values are rejected with a clear error instead of being silently
// ignored or truncated by ad-hoc atoi/getenv calls.

#ifndef ESLEV_COMMON_ENV_H_
#define ESLEV_COMMON_ENV_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/result.h"

namespace eslev {

/// \brief Read `name` as a base-10 integer in [min_value, max_value].
/// Returns nullopt when the variable is unset or empty; an Invalid status
/// naming the variable, the offending text, and the accepted range when
/// the value does not parse cleanly (trailing garbage included) or falls
/// outside the range.
Result<std::optional<int64_t>> GetEnvInt64(const char* name,
                                           int64_t min_value,
                                           int64_t max_value);

/// \brief The batch-size knob: ESLEV_BATCH_SIZE overrides `configured`
/// when set (DESIGN.md §13). Accepts 1..1048576; 0, negatives, and
/// garbage are rejected — batch size 1 *is* tuple-at-a-time execution,
/// so there is no "disabled" spelling to accept.
Result<size_t> ResolveBatchSize(size_t configured);

/// \brief Name of the batch-size environment variable (tests, docs).
inline constexpr const char* kBatchSizeEnvVar = "ESLEV_BATCH_SIZE";

/// \brief Upper bound accepted by ResolveBatchSize.
inline constexpr int64_t kMaxBatchSize = 1 << 20;

}  // namespace eslev

#endif  // ESLEV_COMMON_ENV_H_
