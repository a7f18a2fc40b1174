#ifndef T3_COMMON_FILE_UTIL_H_
#define T3_COMMON_FILE_UTIL_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace t3 {

/// Reads a whole file; NotFound/Unavailable on error. Shared by the model
/// and corpus loaders, the tools and the tests.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes (truncates) a whole file.
Status WriteStringToFile(const std::string& path, std::string_view content);

}  // namespace t3

#endif  // T3_COMMON_FILE_UTIL_H_
