#include "util/durable_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <system_error>

#include "util/failpoint.hpp"

namespace ferex::util {

namespace {

[[noreturn]] void fail(const std::string& path, const char* what) {
  throw std::system_error(errno, std::generic_category(),
                          std::string(what) + ": " + path);
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail(dir, "open dir");
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail(dir, "fsync dir");
  }
  ::close(fd);
}

/// Closes on scope exit unless release()d — keeps the error paths (and
/// throwing failpoint actions in tests) from leaking descriptors.
struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
  void release() { fd = -1; }
};

void write_all(int fd, const std::uint8_t* data, std::size_t size,
               const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ::ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(path, "write");
    }
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return false;
    fail(path, "open");
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[1 << 16];
  for (;;) {
    const ::ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail(path, "read");
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  ::close(fd);
  out = std::move(bytes);
  return true;
}

void atomic_write_file(const std::string& path, const std::uint8_t* data,
                       std::size_t size) {
  const std::string temp = path + ".tmp";
  const int fd =
      ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail(temp, "open");
  FdCloser closer{fd};
  write_all(fd, data, size, temp);
  failpoint_hit("durable.atomic.before_temp_sync");
  if (::fsync(fd) != 0) fail(temp, "fsync");
  ::close(fd);
  closer.release();
  failpoint_hit("durable.atomic.before_rename");
  if (::rename(temp.c_str(), path.c_str()) != 0) fail(path, "rename");
  failpoint_hit("durable.atomic.before_dir_sync");
  fsync_dir(parent_dir(path));
}

void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& data) {
  atomic_write_file(path, data.data(), data.size());
}

bool path_exists(const std::string& path) {
  struct ::stat info {};
  if (::stat(path.c_str(), &info) == 0) return true;
  if (errno != ENOENT) fail(path, "stat");
  return false;
}

void truncate_file(const std::string& path, std::uint64_t size) {
  if (::truncate(path.c_str(), static_cast<::off_t>(size)) != 0) {
    fail(path, "truncate");
  }
  fsync_dir(parent_dir(path));
}

void remove_file(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) fail(path, "unlink");
}

AppendFile::AppendFile(const std::string& path, SyncPolicy policy)
    : path_(path), policy_(policy) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) fail(path, "open");
  struct ::stat info{};
  if (::fstat(fd_, &info) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail(path, "fstat");
  }
  size_ = static_cast<std::uint64_t>(info.st_size);
}

AppendFile::~AppendFile() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; an explicit close() reports failures.
  }
}

void AppendFile::append(const std::uint8_t* data, std::size_t size) {
  if (fd_ < 0) fail(path_, "append to closed file");
  failpoint_hit("durable.append.before_write");
  write_all(fd_, data, size, path_);
  size_ += size;
  failpoint_hit("durable.append.before_sync");
  if (policy_ == SyncPolicy::kEveryAppend) {
    if (::fsync(fd_) != 0) fail(path_, "fsync");
  }
  failpoint_hit("durable.append.after_commit");
}

void AppendFile::sync() {
  if (fd_ < 0) return;
  if (::fsync(fd_) != 0) fail(path_, "fsync");
}

void AppendFile::close() {
  if (fd_ < 0) return;
  if (policy_ != SyncPolicy::kNever) {
    if (::fsync(fd_) != 0) {
      const int saved = errno;
      ::close(fd_);
      fd_ = -1;
      errno = saved;
      fail(path_, "fsync");
    }
  }
  if (::close(fd_) != 0) {
    fd_ = -1;
    fail(path_, "close");
  }
  fd_ = -1;
}

}  // namespace ferex::util
