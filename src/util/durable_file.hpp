// Crash-safe file primitives shared by the snapshot and WAL writers.
//
// All raw file descriptors live here: the serving and encode layers are
// forbidden (by the `raw-file-io` lint rule) from opening files directly,
// so every byte that must survive a crash funnels through this module and
// inherits its fsync discipline.
//
//  - atomic_write_file(): write-temp + fsync + rename + fsync(parent dir).
//    A crash at any instant leaves either the complete old file or the
//    complete new file visible — never a torn hybrid.
//  - AppendFile: append-only handle with an explicit fsync policy, used
//    for the write-ahead log.
//  - read_file()/path_exists()/truncate_file()/remove_file(): the
//    recovery-side counterparts.
//
// Failures surface as std::system_error carrying errno and the path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ferex::util {

/// When an AppendFile pushes bytes to stable storage.
enum class SyncPolicy {
  kNever,        ///< no fsync at all (benchmarks; crash loses the tail)
  kOnClose,      ///< one fsync when the handle closes
  kEveryAppend,  ///< fsync after every append (commit == durable)
};

/// Reads the whole file into `out`. Returns false (out untouched) if the
/// file does not exist; throws std::system_error on any other failure.
bool read_file(const std::string& path, std::vector<std::uint8_t>& out);

/// Atomically replaces `path` with `data`: writes `path + ".tmp"`, fsyncs
/// it, renames over `path`, then fsyncs the parent directory so the
/// rename itself is durable. Rename-over-existing is the normal case.
void atomic_write_file(const std::string& path, const std::uint8_t* data,
                       std::size_t size);
void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& data);

/// True when `path` names an existing file or directory; throws
/// std::system_error on any failure other than its absence.
bool path_exists(const std::string& path);

/// Truncates `path` to `size` bytes (used to drop a torn WAL tail).
void truncate_file(const std::string& path, std::uint64_t size);

/// Removes `path` if it exists; throws only on a real failure.
void remove_file(const std::string& path);

/// Append-only file handle for the WAL. Creates the file if missing and
/// always appends at the end. Not copyable; closing (or destruction)
/// applies the kOnClose sync.
class AppendFile {
 public:
  AppendFile(const std::string& path, SyncPolicy policy);
  ~AppendFile();

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Appends `size` bytes; under kEveryAppend the call returns only after
  /// the bytes (and on first growth, the parent directory entry) are
  /// fsynced.
  void append(const std::uint8_t* data, std::size_t size);

  /// Explicit fsync, independent of policy.
  void sync();

  /// Closes the handle (idempotent); fsyncs first under kOnClose.
  void close();

  /// Current size in bytes (file offset after the last append).
  std::uint64_t size() const noexcept { return size_; }

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  SyncPolicy policy_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
};

}  // namespace ferex::util
