#include "common/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>

namespace rfidcep::common {

namespace {

// The directory holding `path`: "." for a bare file name.
std::string ParentDirectory(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  return dir.empty() ? "." : dir;
}

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("cannot write '" + path + "'");
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::Ok();
}

}  // namespace

Status SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("cannot open directory '" + dir + "'");
  Status status;
  if (::fsync(fd) != 0) status = Errno("fsync '" + dir + "'");
  ::close(fd);
  return status;
}

Status ReplaceFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("cannot create '" + tmp + "'");
  Status status = WriteAll(fd, bytes, tmp);
  if (status.ok() && ::fsync(fd) != 0) status = Errno("fsync '" + tmp + "'");
  if (::close(fd) != 0 && status.ok()) {
    status = Errno("cannot close '" + tmp + "'");
  }
  if (!status.ok()) return status;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("cannot rename '" + tmp + "' over '" + path + "'");
  }
  return SyncDirectory(ParentDirectory(path));
}

}  // namespace rfidcep::common
