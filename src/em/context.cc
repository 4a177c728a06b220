#include "em/context.h"

#include <string>
#include <utility>

namespace trienum::em {

GraphStore::GraphStore(const EmConfig& cfg)
    : cfg_(cfg),
      device_(MakeStorageBackend(cfg)),
      cache_(cfg.memory_words, cfg.block_words, device_.staging_backend(),
             cfg.line_map_dense_limit) {
  TRIENUM_CHECK_MSG(cfg.memory_words >= cfg.block_words,
                    "internal memory must hold at least one block");
}

ScratchLease::ScratchLease(QuerySession* session, std::size_t words)
    : session_(session), words_(words) {
  const std::size_t m = session_->memory_words();
  if (words_ > m - session_->scratch_used_) {
    // Nothing is recorded yet, so the throw leaves the session's budget
    // exactly as it was.
    std::string msg = "host scratch lease of ";
    msg += std::to_string(words_);
    msg += " words exceeds internal memory M=";
    msg += std::to_string(m);
    msg += " (";
    msg += std::to_string(session_->scratch_used_);
    msg += " already leased)";
    throw Status::InvalidArgument(std::move(msg));
  }
  session_->scratch_used_ += words_;
}

ScratchLease::~ScratchLease() {
  if (session_ != nullptr) session_->scratch_used_ -= words_;
}

ScratchLease::ScratchLease(ScratchLease&& o) noexcept
    : session_(o.session_), words_(o.words_) {
  o.session_ = nullptr;
  o.words_ = 0;
}

ScratchLease& ScratchLease::operator=(ScratchLease&& o) noexcept {
  if (this != &o) {
    if (session_ != nullptr) session_->scratch_used_ -= words_;
    session_ = o.session_;
    words_ = o.words_;
    o.session_ = nullptr;
    o.words_ = 0;
  }
  return *this;
}

DeviceRegion::DeviceRegion(GraphStore* store)
    : store_(store), mark_(store->device().Mark()) {}

DeviceRegion::~DeviceRegion() { store_->device().Release(mark_); }

}  // namespace trienum::em
