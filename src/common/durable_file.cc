#include "common/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <vector>

namespace rfidcep::common {

namespace {

namespace fs = std::filesystem;

// The directory holding `path`: "." for a bare file name.
std::string ParentDirectory(const std::string& path) {
  std::string dir = fs::path(path).parent_path().string();
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

Status CreateDirectories(const std::string& dir) {
  // The missing directories, deepest first.
  fs::path target = fs::path(dir).lexically_normal();
  if (target.filename().empty()) target = target.parent_path();  // "a/b/".
  std::vector<fs::path> missing;
  std::error_code ec;
  for (fs::path p = target; !p.empty() && !fs::exists(p, ec);
       p = p.parent_path()) {
    missing.push_back(p);
    if (p == p.parent_path()) break;
  }
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
    const std::string path = it->string();
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Errno("cannot create directory '" + path + "'");
    }
    RFIDCEP_RETURN_IF_ERROR(SyncDirectory(ParentDirectory(path)));
  }
  if (!fs::is_directory(dir, ec)) {
    return Status::Internal("'" + dir + "' is not a directory");
  }
  return Status::Ok();
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

Status ReadFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file '" + path + "'");
    return Errno("cannot open '" + path + "'");
  }
  Status status;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    status = Errno("cannot stat '" + path + "'");
  } else {
    out->resize(static_cast<size_t>(st.st_size));
    size_t done = 0;
    while (status.ok() && done < out->size()) {
      const ssize_t n = ::read(fd, out->data() + done, out->size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        status = Errno("cannot read '" + path + "'");
      } else if (n == 0) {
        status = Status::Internal("short read of '" + path + "': " +
                                  std::to_string(done) + " of " +
                                  std::to_string(out->size()) + " bytes");
      } else {
        done += static_cast<size_t>(n);
      }
    }
  }
  ::close(fd);
  return status;
}

}  // namespace rfidcep::common
