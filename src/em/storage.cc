#include "em/storage.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/metrics.h"

namespace trienum::em {

namespace {

// Real-I/O latency seams. The histograms live in the process-wide registry
// and are resolved once; observing is a relaxed atomic bump around the
// actual transfer — never inside the counted charge sequence, which lives
// a layer up in the cache.
obs::Histogram& FileReadHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      obs::metric_names::kFileReadNs);
  return h;
}
obs::Histogram& FileWriteHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      obs::metric_names::kFileWriteNs);
  return h;
}
// Shared amortized-doubling capacity policy: both backends must grow
// identically so allocation behavior never depends on the backend.
std::size_t GrownCapacity(std::size_t current, std::size_t want) {
  std::size_t grown = current == 0 ? 1024 : current;
  while (grown < want) grown *= 2;
  return grown;
}

}  // namespace

// ---------------------------------------------------------------------------
// MemoryBackend

Status MemoryBackend::EnsureSize(std::size_t words) {
  if (words <= storage_.size()) return Status::OK();
  storage_.resize(GrownCapacity(storage_.size(), words), 0);
  ++grow_calls_;
  return Status::OK();
}

Status MemoryBackend::ReadWords(Addr addr, std::size_t words, Word* out) {
  // Reads past the current size yield zeros, matching a zero-initialized
  // store (the staged cache may fetch a whole line whose tail was never
  // allocated).
  std::size_t avail =
      addr < storage_.size()
          ? std::min(words, storage_.size() - static_cast<std::size_t>(addr))
          : 0;
  if (avail > 0) {
    std::memcpy(out, storage_.data() + addr, avail * sizeof(Word));
  }
  if (avail < words) std::memset(out + avail, 0, (words - avail) * sizeof(Word));
  ++telemetry_.read_calls;
  telemetry_.bytes_read += words * sizeof(Word);
  return Status::OK();
}

Status MemoryBackend::WriteWords(Addr addr, std::size_t words, const Word* in) {
  TRIENUM_RETURN_NOT_OK(EnsureSize(static_cast<std::size_t>(addr) + words));
  std::memcpy(storage_.data() + addr, in, words * sizeof(Word));
  ++telemetry_.write_calls;
  telemetry_.bytes_written += words * sizeof(Word);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FileBackend

#ifndef _WIN32

// The file backend exists to hold devices far beyond RAM; a 32-bit off_t
// would silently wrap offsets past 2GB. Build with _FILE_OFFSET_BITS=64 on
// 32-bit platforms.
static_assert(sizeof(off_t) >= 8, "FileBackend needs 64-bit file offsets");

FileBackend::FileBackend(std::string dir) {
  if (dir.empty()) {
    const char* t = std::getenv("TMPDIR");
    dir = (t != nullptr && *t != '\0') ? t : "/tmp";
  }
  std::string tmpl_str = dir + "/trienum-device-XXXXXX";
  std::vector<char> tmpl(tmpl_str.begin(), tmpl_str.end());
  tmpl.push_back('\0');
  fd_ = ::mkstemp(tmpl.data());
  if (fd_ < 0) {
    // Constructors cannot return a Status; latch it and fail every later
    // operation. Callers check init_status() before first use.
    init_status_ = Status::IoError("FileBackend: mkstemp in '" + dir +
                                   "' failed: " + std::strerror(errno) +
                                   " (check --temp-dir)");
    return;
  }
  path_.assign(tmpl.data());
  // Unlink immediately: the fd keeps the storage alive, and the OS reclaims
  // it even if the process crashes.
  ::unlink(tmpl.data());
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileBackend::EnsureSize(std::size_t words) {
  TRIENUM_RETURN_NOT_OK(init_status_);
  if (words <= size_words_) return Status::OK();
  std::size_t grown = GrownCapacity(size_words_, words);
  if (::ftruncate(fd_, static_cast<off_t>(grown * sizeof(Word))) != 0) {
    return Status::IoError(std::string("FileBackend: ftruncate failed: ") +
                           std::strerror(errno));
  }
  size_words_ = grown;
  ++grow_calls_;
  return Status::OK();
}

Status FileBackend::ReadWords(Addr addr, std::size_t words, Word* out) {
  TRIENUM_RETURN_NOT_OK(init_status_);
  obs::LatencyTimer timer(FileReadHist());
  std::size_t nbytes = words * sizeof(Word);
  off_t off = static_cast<off_t>(addr * sizeof(Word));
  char* dst = reinterpret_cast<char*>(out);
  while (nbytes > 0) {
    ssize_t got = ::pread(fd_, dst, nbytes, off);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      return Status::IoError(std::string("FileBackend: pread failed: ") +
                             std::strerror(errno));
    }
    ++telemetry_.read_calls;
    if (got == 0) {
      // Past EOF: never-written words read as zero (ftruncate holes do the
      // same in-range, so the whole address space is zero-initialized).
      std::memset(dst, 0, nbytes);
      break;
    }
    telemetry_.bytes_read += static_cast<std::uint64_t>(got);
    dst += got;
    off += got;
    nbytes -= static_cast<std::size_t>(got);
  }
  return Status::OK();
}

Status FileBackend::WriteWords(Addr addr, std::size_t words, const Word* in) {
  TRIENUM_RETURN_NOT_OK(init_status_);
  obs::LatencyTimer timer(FileWriteHist());
  std::size_t nbytes = words * sizeof(Word);
  off_t off = static_cast<off_t>(addr * sizeof(Word));
  const char* src = reinterpret_cast<const char*>(in);
  // pwrite may legally write a short count (or 0 on some filesystems when
  // interrupted); loop on progress and only treat *persistent* zero-progress
  // or a hard errno as failure.
  int zero_progress = 0;
  while (nbytes > 0) {
    ssize_t put = ::pwrite(fd_, src, nbytes, off);
    if (put < 0 && errno == EINTR) continue;
    if (put < 0) {
      return Status::IoError(std::string("FileBackend: pwrite failed: ") +
                             std::strerror(errno));
    }
    if (put == 0) {
      if (++zero_progress >= 8) {
        return Status::IoError(
            "FileBackend: pwrite made no progress after 8 attempts");
      }
      continue;
    }
    zero_progress = 0;
    ++telemetry_.write_calls;
    telemetry_.bytes_written += static_cast<std::uint64_t>(put);
    src += put;
    off += put;
    nbytes -= static_cast<std::size_t>(put);
  }
  return Status::OK();
}

#else  // _WIN32

FileBackend::FileBackend(std::string) {
  init_status_ = Status::IoError("FileBackend requires a POSIX platform");
}
FileBackend::~FileBackend() = default;
Status FileBackend::EnsureSize(std::size_t) { return init_status_; }
Status FileBackend::ReadWords(Addr, std::size_t, Word*) { return init_status_; }
Status FileBackend::WriteWords(Addr, std::size_t, const Word*) {
  return init_status_;
}

#endif  // _WIN32

std::unique_ptr<StorageBackend> MakeStorageBackend(const EmConfig& cfg) {
  std::unique_ptr<StorageBackend> backend;
  switch (cfg.storage) {
    case StorageKind::kFile:
      backend = std::make_unique<FileBackend>(cfg.temp_dir);
      break;
    case StorageKind::kMemory:
      backend = std::make_unique<MemoryBackend>();
      break;
  }
  if (cfg.wrap_backend) backend = cfg.wrap_backend(std::move(backend));
  return backend;
}

}  // namespace trienum::em
