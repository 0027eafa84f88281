#include "common/env.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/temp_dir.h"

namespace netmark {

namespace {

Status ErrnoStatus(const std::string& path, const char* op, int err) {
  std::string msg =
      StringPrintf("%s: %s failed: %s", path.c_str(), op, std::strerror(err));
  if (err == ENOSPC || err == EDQUOT) return Status::CapacityExceeded(std::move(msg));
  return Status::IOError(std::move(msg));
}

class PosixFile : public File {
 public:
  PosixFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t len, void* buf) override {
    auto* out = static_cast<uint8_t*>(buf);
    size_t done = 0;
    while (done < len) {
      ssize_t n = ::pread(fd_, out + done, len - done,
                          static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus(path_, "pread", errno);
      }
      if (n == 0) {
        return Status::IOError(StringPrintf(
            "%s: short read: got %zu of %zu bytes at offset %llu", path_.c_str(),
            done, len, static_cast<unsigned long long>(offset)));
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Write(uint64_t offset, const void* buf, size_t len) override {
    const auto* in = static_cast<const uint8_t*>(buf);
    size_t done = 0;
    while (done < len) {
      ssize_t n = ::pwrite(fd_, in + done, len - done,
                           static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus(path_, "pwrite", errno);
      }
      done += static_cast<size_t>(n);  // short write: keep going
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) return ErrnoStatus(path_, "fdatasync", errno);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    int rc;
    do {
      rc = ::ftruncate(fd_, static_cast<off_t>(size));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) return ErrnoStatus(path_, "ftruncate", errno);
    return Status::OK();
  }

  Result<uint64_t> Size() override {
    off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) return ErrnoStatus(path_, "lseek", errno);
    return static_cast<uint64_t>(end);
  }

  const std::string& path() const override { return path_; }

 private:
  std::string path_;
  int fd_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         bool create) override {
    int flags = O_RDWR | O_CLOEXEC;
    if (create) flags |= O_CREAT;
    int fd;
    do {
      fd = ::open(path.c_str(), flags, 0644);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return ErrnoStatus(path, "open", errno);
    return std::unique_ptr<File>(new PosixFile(path, fd));
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    // Through PosixFile::Read so a failed or short read is an error, never a
    // silently shorter string (a WAL scan would take that for a torn tail).
    int fd;
    do {
      fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return ErrnoStatus(path, "open", errno);
    PosixFile file(path, fd);
    NETMARK_ASSIGN_OR_RETURN(uint64_t size, file.Size());
    std::string out(static_cast<size_t>(size), '\0');
    NETMARK_RETURN_NOT_OK(file.Read(0, out.size(), out.data()));
    return out;
  }

  Status WriteFileAtomic(const std::string& path,
                         std::string_view contents) override {
    return netmark::WriteFileAtomic(std::filesystem::path(path), contents);
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

Result<FaultSpec> FaultSpec::Parse(std::string_view text) {
  FaultSpec spec;
  std::string_view kind = text;
  size_t colon = text.find(':');
  if (colon != std::string_view::npos) {
    kind = text.substr(0, colon);
    std::string nth_text(text.substr(colon + 1));
    char* end = nullptr;
    unsigned long long n = std::strtoull(nth_text.c_str(), &end, 10);
    if (end == nth_text.c_str() || *end != '\0' || n == 0) {
      return Status::InvalidArgument("bad fault op index: " + nth_text);
    }
    spec.nth = n;
  }
  if (kind == "read_eio") {
    spec.kind = Kind::kReadEio;
  } else if (kind == "write_eio") {
    spec.kind = Kind::kWriteEio;
    spec.sticky = true;
  } else if (kind == "write_enospc") {
    spec.kind = Kind::kWriteEnospc;
    spec.sticky = true;
  } else if (kind == "write_short") {
    spec.kind = Kind::kWriteShort;
  } else if (kind == "write_torn") {
    spec.kind = Kind::kWriteTorn;
  } else if (kind == "fsync_fail") {
    spec.kind = Kind::kFsyncFail;
    spec.sticky = true;
  } else {
    return Status::InvalidArgument("unknown fault kind: " + std::string(kind));
  }
  return spec;
}

namespace internal {
struct FaultCounters {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> faults{0};
};
}  // namespace internal

namespace {

bool IsWriteFault(FaultSpec::Kind k) {
  return k == FaultSpec::Kind::kWriteEio || k == FaultSpec::Kind::kWriteEnospc ||
         k == FaultSpec::Kind::kWriteShort || k == FaultSpec::Kind::kWriteTorn;
}

/// Whether the fault fires on the operation that advanced its category
/// counter to `count` (counts are 1-based).
bool Fires(const FaultSpec& spec, uint64_t count) {
  return spec.sticky ? count >= spec.nth : count == spec.nth;
}

class FaultFile : public File {
 public:
  FaultFile(std::unique_ptr<File> base, FaultSpec spec,
            std::shared_ptr<internal::FaultCounters> counters)
      : base_(std::move(base)), spec_(spec), counters_(std::move(counters)) {}

  Status Read(uint64_t offset, size_t len, void* buf) override {
    uint64_t n = counters_->reads.fetch_add(1) + 1;
    if (spec_.kind == FaultSpec::Kind::kReadEio && Fires(spec_, n)) {
      counters_->faults.fetch_add(1);
      return Status::IOError(StringPrintf("%s: pread failed: %s (injected)",
                                          path().c_str(), std::strerror(EIO)));
    }
    return base_->Read(offset, len, buf);
  }

  Status Write(uint64_t offset, const void* buf, size_t len) override {
    uint64_t n = counters_->writes.fetch_add(1) + 1;
    if (IsWriteFault(spec_.kind) && Fires(spec_, n)) {
      counters_->faults.fetch_add(1);
      switch (spec_.kind) {
        case FaultSpec::Kind::kWriteEio:
          return Status::IOError(StringPrintf("%s: pwrite failed: %s (injected)",
                                              path().c_str(),
                                              std::strerror(EIO)));
        case FaultSpec::Kind::kWriteEnospc:
          return Status::CapacityExceeded(
              StringPrintf("%s: pwrite failed: %s (injected)", path().c_str(),
                           std::strerror(ENOSPC)));
        case FaultSpec::Kind::kWriteShort: {
          // The kernel accepted only part of the write; a correct caller (or
          // a correct File impl) completes the rest. Both halves go through,
          // so this fault is invisible unless someone stops retrying.
          size_t part = len / 2 == 0 ? len : len / 2;
          NETMARK_RETURN_NOT_OK(base_->Write(offset, buf, part));
          if (part < len) {
            NETMARK_RETURN_NOT_OK(
                base_->Write(offset + part,
                             static_cast<const uint8_t*>(buf) + part,
                             len - part));
          }
          return Status::OK();
        }
        case FaultSpec::Kind::kWriteTorn: {
          // Power loss mid-write: persist a garbled prefix, then die without
          // running any cleanup. Recovery must detect the tear.
          size_t part = len / 2 == 0 ? len : len / 2;
          std::vector<uint8_t> garbled(static_cast<const uint8_t*>(buf),
                                       static_cast<const uint8_t*>(buf) + part);
          for (size_t i = 0; i < garbled.size(); i += 37) garbled[i] ^= 0xA5;
          (void)base_->Write(offset, garbled.data(), garbled.size());
          (void)base_->Sync();
          ::_exit(41);
        }
        default:
          break;
      }
    }
    return base_->Write(offset, buf, len);
  }

  Status Sync() override {
    uint64_t n = counters_->syncs.fetch_add(1) + 1;
    if (spec_.kind == FaultSpec::Kind::kFsyncFail && Fires(spec_, n)) {
      counters_->faults.fetch_add(1);
      return Status::IOError(StringPrintf("%s: fdatasync failed: %s (injected)",
                                          path().c_str(), std::strerror(EIO)));
    }
    return base_->Sync();
  }

  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Result<uint64_t> Size() override { return base_->Size(); }
  const std::string& path() const override { return base_->path(); }

 private:
  std::unique_ptr<File> base_;
  FaultSpec spec_;
  std::shared_ptr<internal::FaultCounters> counters_;
};

}  // namespace

FaultInjectingEnv::FaultInjectingEnv(FaultSpec spec, Env* base)
    : spec_(spec),
      base_(base != nullptr ? base : Env::Default()),
      counters_(std::make_shared<internal::FaultCounters>()) {}

Result<std::unique_ptr<File>> FaultInjectingEnv::OpenFile(
    const std::string& path, bool create) {
  NETMARK_ASSIGN_OR_RETURN(std::unique_ptr<File> base,
                           base_->OpenFile(path, create));
  return std::unique_ptr<File>(
      new FaultFile(std::move(base), spec_, counters_));
}

Result<std::string> FaultInjectingEnv::ReadFileToString(
    const std::string& path) {
  uint64_t n = counters_->reads.fetch_add(1) + 1;
  if (spec_.kind == FaultSpec::Kind::kReadEio && Fires(spec_, n)) {
    counters_->faults.fetch_add(1);
    return Status::IOError(StringPrintf("%s: read failed: %s (injected)",
                                        path.c_str(), std::strerror(EIO)));
  }
  return base_->ReadFileToString(path);
}

Status FaultInjectingEnv::WriteFileAtomic(const std::string& path,
                                          std::string_view contents) {
  uint64_t n = counters_->writes.fetch_add(1) + 1;
  if ((spec_.kind == FaultSpec::Kind::kWriteEio ||
       spec_.kind == FaultSpec::Kind::kWriteEnospc) &&
      Fires(spec_, n)) {
    counters_->faults.fetch_add(1);
    int err = spec_.kind == FaultSpec::Kind::kWriteEio ? EIO : ENOSPC;
    return ErrnoStatus(path, "write", err);
  }
  return base_->WriteFileAtomic(path, contents);
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

uint64_t FaultInjectingEnv::reads() const { return counters_->reads.load(); }
uint64_t FaultInjectingEnv::writes() const { return counters_->writes.load(); }
uint64_t FaultInjectingEnv::syncs() const { return counters_->syncs.load(); }
uint64_t FaultInjectingEnv::faults_injected() const {
  return counters_->faults.load();
}

std::unique_ptr<Env> MaybeFaultInjectingEnvFromEnvironment() {
  const char* text = std::getenv("NETMARK_DISK_FAULT");
  if (text == nullptr || text[0] == '\0') return nullptr;
  auto spec = FaultSpec::Parse(text);
  if (!spec.ok()) {
    NETMARK_LOG(Warning) << "ignoring NETMARK_DISK_FAULT '" << text
                         << "': " << spec.status().ToString();
    return nullptr;
  }
  return std::make_unique<FaultInjectingEnv>(*spec);
}

}  // namespace netmark
