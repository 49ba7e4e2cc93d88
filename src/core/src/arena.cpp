#include "mtsched/core/arena.hpp"

#include <algorithm>

#include "mtsched/core/error.hpp"

namespace mtsched::core {

namespace {
constexpr std::size_t kMinBlockBytes = 1 << 12;

std::size_t align_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}
}  // namespace

Arena::Arena(std::size_t first_block_bytes) {
  const std::size_t size = std::max(first_block_bytes, kMinBlockBytes);
  blocks_.push_back(
      Block{std::make_unique_for_overwrite<std::byte[]>(size), size});
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  MTSCHED_INVARIANT(align != 0 && (align & (align - 1)) == 0,
                    "arena alignment must be a power of two");
  for (;;) {
    Block& b = blocks_[current_];
    const std::size_t start = align_up(used_, align);
    if (start + bytes <= b.size) {
      used_ = start + bytes;
      return b.data.get() + start;
    }
    // Current block exhausted: move to the next chained block if it fits,
    // otherwise chain a fresh one (geometric growth keeps the chain short).
    if (current_ + 1 < blocks_.size() &&
        bytes + align <= blocks_[current_ + 1].size) {
      ++current_;
      used_ = 0;
      continue;
    }
    const std::size_t grown = std::max(blocks_.back().size * 2, bytes + align);
    blocks_.insert(
        blocks_.begin() + static_cast<std::ptrdiff_t>(current_) + 1,
        Block{std::make_unique_for_overwrite<std::byte[]>(grown), grown});
    ++current_;
    used_ = 0;
  }
}

void Arena::rewind(const Mark& m) {
  MTSCHED_INVARIANT(m.block < blocks_.size(), "arena mark out of range");
  current_ = m.block;
  used_ = m.used;
}

void Arena::reset() {
  if (blocks_.size() > 1) {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    blocks_.clear();
    blocks_.push_back(
        Block{std::make_unique_for_overwrite<std::byte[]>(total), total});
  }
  current_ = 0;
  used_ = 0;
}

std::size_t Arena::bytes_in_use() const {
  std::size_t n = used_;
  for (std::size_t i = 0; i < current_; ++i) n += blocks_[i].size;
  return n;
}

std::size_t Arena::bytes_reserved() const {
  std::size_t n = 0;
  for (const Block& b : blocks_) n += b.size;
  return n;
}

Arena& scratch_arena() {
  thread_local Arena arena(1 << 20);
  return arena;
}

}  // namespace mtsched::core
