#include "em/context.h"

#include <string>
#include <utility>

namespace trienum::em {
namespace {

/// The backend of a recording view: a read-only alias of a memory-resident
/// backend. DirectView forwards, so a view's reads cost a memcpy from the
/// same words the source holds.
class AliasBackend final : public StorageBackend {
 public:
  explicit AliasBackend(StorageBackend& source) : source_(&source) {}
  Status EnsureSize(std::size_t words) override {
    return words <= source_->size_words()
               ? Status::OK()
               : Status::Internal("a recording view cannot grow its device");
  }
  std::size_t size_words() const override { return source_->size_words(); }
  bool memory_resident() const override { return true; }
  Word* DirectView() override { return source_->DirectView(); }
  const Word* DirectView() const override {
    return std::as_const(*source_).DirectView();
  }
  Status ReadWords(Addr addr, std::size_t words, Word* out) override {
    return source_->ReadWords(addr, words, out);
  }
  Status WriteWords(Addr, std::size_t, const Word*) override {
    return Status::Internal("a recording view is read-only");
  }
  const char* name() const override { return "view"; }

 private:
  StorageBackend* source_;
};

}  // namespace

GraphStore::GraphStore(const EmConfig& cfg)
    : cfg_(cfg),
      device_(MakeStorageBackend(cfg)),
      cache_(cfg.memory_words, cfg.block_words, device_.staging_backend(),
             cfg.line_map_dense_limit) {
  TRIENUM_CHECK_MSG(cfg.memory_words >= cfg.block_words,
                    "internal memory must hold at least one block");
}

GraphStore::GraphStore(GraphStore& source, std::size_t line_words)
    : cfg_(source.cfg_),
      device_(std::make_unique<AliasBackend>(source.device_.backend())),
      cache_(line_words, line_words) {
  cache_.set_counting(source.cache_.counting());
}

std::unique_ptr<GraphStore> GraphStore::RecordingView() {
  TRIENUM_CHECK_MSG(!cache_.staged(),
                    "recording views need a memory-resident store");
  return std::unique_ptr<GraphStore>(new GraphStore(*this, cfg_.block_words));
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

DeviceRegion::~DeviceRegion() { store_->Release(mark_); }

void GraphStore::Release(Addr mark) {
  const Addr top = device_.Mark();
  if (mark < top) {
    // Lines starting at or above the mark; the top line's tail is dead too.
    const Addr b = cache_.block_words();
    cache_.DropDirty(static_cast<std::int64_t>((mark + b - 1) / b),
                     static_cast<std::int64_t>((top + b - 1) / b));
  }
  device_.Release(mark);
}

void GraphStore::DropLines(Addr addr, std::size_t words) {
  const Addr b = cache_.block_words();
  cache_.DropLines(static_cast<std::int64_t>((addr + b - 1) / b),
                   static_cast<std::int64_t>((addr + words) / b));
}

}  // namespace trienum::em
