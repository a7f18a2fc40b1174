#include "common/file_util.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/string_util.h"

namespace t3 {

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return NotFoundError(StrFormat("cannot open %s: %s", path.c_str(),
                                   std::strerror(errno)));
  }
  // A regular file is read in one call into a string of its size; the loop
  // reads what a non-regular file holds, or what a file grew by meanwhile.
  std::string content;
  struct stat info;
  if (fstat(fileno(file), &info) == 0 && S_ISREG(info.st_mode)) {
    content.resize(static_cast<size_t>(info.st_size));
    content.resize(std::fread(content.data(), 1, content.size(), file));
  }
  char buffer[1 << 16];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, read);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return UnavailableError(StrFormat("read error on %s", path.c_str()));
  }
  return content;
}

Status WriteStringToFile(const std::string& path, std::string_view content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return UnavailableError(StrFormat("cannot create %s: %s", path.c_str(),
                                      std::strerror(errno)));
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  const bool failed = std::fclose(file) != 0 || written != content.size();
  if (failed) {
    return UnavailableError(StrFormat("write error on %s", path.c_str()));
  }
  return Status::OK();
}

}  // namespace t3
