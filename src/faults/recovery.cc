#include "faults/recovery.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics.h"

namespace trienum::faults {

namespace {

// Wall time lost to retry backoff sleeps: invisible to every counted
// metric (retries are uncounted by design), so the histogram is the only
// place this latency shows up.
obs::Histogram& BackoffHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      obs::metric_names::kRecoveryBackoffNs);
  return h;
}

// FNV-1a over the line's words: cheap, order-sensitive, and good enough to
// catch any single-bit flip (the threat model is torn/corrupt blocks, not an
// adversary).
std::uint64_t LineCrc(const em::Word* data, std::size_t words) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < words; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

RecoveringBackend::RecoveringBackend(std::unique_ptr<em::StorageBackend> inner,
                                     RetryPolicy policy,
                                     std::size_t block_words)
    : inner_(std::move(inner)), policy_(policy), block_words_(block_words) {
  name_ = std::string(inner_->name()) + "+recovery";
}

template <typename Op>
Status RecoveringBackend::Retry(const Op& op) {
  Status st = op();
  for (int attempt = 0; !st.ok() && attempt < policy_.max_retries; ++attempt) {
    if (policy_.backoff_ms > 0) {
      obs::LatencyTimer timer(BackoffHist());
      std::this_thread::sleep_for(
          std::chrono::milliseconds(policy_.backoff_ms) * (1 << attempt));
    }
    ++retries_;
    st = op();
  }
  return st;
}

Status RecoveringBackend::EnsureSize(std::size_t words) {
  return Retry([&] { return inner_->EnsureSize(words); });
}

bool RecoveringBackend::ChecksumsOk(em::Addr addr, std::size_t words,
                                    const em::Word* data) {
  const std::uint64_t first = addr / block_words_;
  const std::uint64_t count = words / block_words_;
  for (std::uint64_t i = 0; i < count; ++i) {
    auto it = line_crc_.find(first + i);
    if (it == line_crc_.end()) continue;  // never written: nothing to check
    if (LineCrc(data + i * block_words_, block_words_) != it->second) {
      ++checksum_failures_;
      return false;
    }
  }
  return true;
}

Status RecoveringBackend::ReadWords(em::Addr addr, std::size_t words,
                                    em::Word* out) {
  const bool verifiable = policy_.verify_checksums && block_words_ > 0 &&
                          addr % block_words_ == 0 && words % block_words_ == 0;
  return Retry([&]() -> Status {
    TRIENUM_RETURN_NOT_OK(inner_->ReadWords(addr, words, out));
    if (verifiable && !ChecksumsOk(addr, words, out)) {
      // A corrupt block reads "successfully" with wrong bits; surface it as
      // a transient fault so the retry loop re-reads it.
      return Status::IoError("checksum mismatch on read");
    }
    return Status::OK();
  });
}

void RecoveringBackend::RecordWrite(em::Addr addr, std::size_t words,
                                    const em::Word* in) {
  const em::Addr end = addr + words;
  const std::uint64_t first = addr / block_words_;
  const std::uint64_t last = (end - 1) / block_words_;
  std::vector<em::Word> full(block_words_);
  std::vector<em::Word> again(block_words_);
  for (std::uint64_t line = first; line <= last; ++line) {
    const em::Addr base = static_cast<em::Addr>(line) * block_words_;
    if (addr <= base && base + block_words_ <= end) {
      line_crc_[line] = LineCrc(in + (base - addr), block_words_);
      continue;
    }
    // Partially covered boundary line (only uncounted ingest traffic is ever
    // unaligned): the new checksum must cover the merged contents, so read
    // the full line back. The read-back has no prior checksum to verify
    // against, and silent corruption striking it would poison the recorded
    // CRC forever — so require two consecutive reads to agree before
    // trusting the contents (a flip corrupts each read differently). On
    // persistent failure drop the entry: losing verification for one line,
    // never correctness.
    Status st = Retry([&]() -> Status {
      TRIENUM_RETURN_NOT_OK(inner_->ReadWords(base, block_words_, full.data()));
      TRIENUM_RETURN_NOT_OK(
          inner_->ReadWords(base, block_words_, again.data()));
      if (std::memcmp(full.data(), again.data(),
                      block_words_ * sizeof(em::Word)) != 0) {
        return Status::IoError("read-back mismatch");
      }
      return Status::OK();
    });
    if (st.ok()) {
      line_crc_[line] = LineCrc(full.data(), block_words_);
    } else {
      line_crc_.erase(line);
    }
  }
}

Status RecoveringBackend::WriteWords(em::Addr addr, std::size_t words,
                                     const em::Word* in) {
  Status st = Retry([&] { return inner_->WriteWords(addr, words, in); });
  if (st.ok() && policy_.verify_checksums && block_words_ > 0 && words > 0) {
    RecordWrite(addr, words, in);
  }
  return st;
}

em::RecoveryStats RecoveringBackend::recovery() const {
  em::RecoveryStats r = inner_->recovery();
  r.retries += retries_;
  r.checksum_failures += checksum_failures_;
  return r;
}

Status ApplyFaultConfig(em::EmConfig& cfg) {
  const bool wrap = !cfg.fault_spec.empty() || cfg.verify_checksums;
  if (!wrap) {
    cfg.wrap_backend = nullptr;
    return Status::OK();
  }
  TRIENUM_ASSIGN_OR_RETURN(std::vector<FaultClause> clauses,
                           ParseFaultSpec(cfg.fault_spec));
  // Nothing downstream of the store checks the data it reads back, so an
  // unchecked flip would corrupt the graph silently (or trip an internal
  // check). Only checksums turn it into a recoverable fault.
  if (!cfg.verify_checksums) {
    for (const FaultClause& c : clauses) {
      if (c.kind == FaultKind::kFlip) {
        return Status::InvalidArgument(
            "fault clause 'read:flip' needs checksums (--verify-checksums): "
            "without them a flipped bit is silent corruption, not a "
            "recoverable fault");
      }
    }
  }
  if (cfg.io_retries < 0) {
    return Status::InvalidArgument("io_retries must be >= 0");
  }
  if (cfg.io_retry_backoff_ms < 0) {
    return Status::InvalidArgument("io_retry_backoff_ms must be >= 0");
  }
  RetryPolicy policy;
  policy.max_retries = cfg.io_retries;
  policy.backoff_ms = cfg.io_retry_backoff_ms;
  policy.verify_checksums = cfg.verify_checksums;
  const std::uint64_t seed = cfg.seed;
  const std::size_t block = cfg.block_words;
  // By-value captures: the hook outlives this call and may wrap several
  // stores (each gets its own injector/recovery state).
  cfg.wrap_backend = [clauses, policy, seed,
                      block](std::unique_ptr<em::StorageBackend> inner)
      -> std::unique_ptr<em::StorageBackend> {
    std::unique_ptr<em::StorageBackend> stack = std::move(inner);
    if (!clauses.empty()) {
      stack = std::make_unique<FaultInjectingBackend>(std::move(stack), clauses,
                                                      seed, block);
    }
    return std::make_unique<RecoveringBackend>(std::move(stack), policy, block);
  };
  return Status::OK();
}

FaultInjectingBackend* FindInjector(em::StorageBackend& backend) {
  em::StorageBackend* b = &backend;
  while (b != nullptr) {
    if (auto* inj = dynamic_cast<FaultInjectingBackend*>(b)) return inj;
    if (auto* rec = dynamic_cast<RecoveringBackend*>(b)) {
      b = &rec->inner();
      continue;
    }
    return nullptr;
  }
  return nullptr;
}

}  // namespace trienum::faults
