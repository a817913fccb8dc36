#include "util/payload.h"

#include <cstring>
#include <new>

namespace p2p::util {

Payload Payload::allocate(std::size_t n) {
  // Empty payloads carry no Rep at all, so they stay allocation-free.
  if (n == 0) return Payload();
  void* block = ::operator new(sizeof(Rep) + n);
  return Payload(new (block) Rep(n));
}

Payload Payload::copy(std::span<const std::uint8_t> data) {
  Payload out = allocate(data.size());
  if (!data.empty()) std::memcpy(out.rep_->bytes(), data.data(), data.size());
  return out;
}

void Payload::destroy(Rep* rep) noexcept {
  rep->~Rep();
  ::operator delete(rep);
}

Payload& Payload::operator=(const Payload& other) noexcept {
  // Retain-before-release so self-assignment and shared-rep assignment
  // never drop the count to zero in between.
  if (rep_ != other.rep_) {
    Rep* old = rep_;
    rep_ = other.rep_;
    retain();
    if (old != nullptr && old->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      destroy(old);
    }
  }
  return *this;
}

Payload& Payload::operator=(Payload&& other) noexcept {
  if (this != &other) {
    release();
    rep_ = std::exchange(other.rep_, nullptr);
  }
  return *this;
}

std::span<std::uint8_t> Payload::mutate() {
  if (rep_ == nullptr) return {};
  if (rep_->refs.load(std::memory_order_acquire) != 1) *this = copy(span());
  return {rep_->bytes(), rep_->size};
}

std::uint32_t Payload::use_count() const noexcept {
  return rep_ != nullptr ? rep_->refs.load(std::memory_order_relaxed) : 0;
}

void Payload::release() noexcept {
  if (rep_ != nullptr &&
      rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    destroy(rep_);
  }
  rep_ = nullptr;
}

namespace detail {

namespace {
thread_local ByteWriter t_scratch;
}  // namespace

ByteWriter& scratch_writer() {
  t_scratch.clear();
  return t_scratch;
}

Payload finish_scratch(ByteView tail) {
  const Bytes& head = t_scratch.data();
  Payload out = Payload::allocate(head.size() + tail.size());
  if (!head.empty()) std::memcpy(out.rep_->bytes(), head.data(), head.size());
  if (!tail.empty()) std::memcpy(out.rep_->bytes() + head.size(), tail.data(), tail.size());
  return out;
}

}  // namespace detail

}  // namespace p2p::util
