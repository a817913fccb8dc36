#include "util/payload.h"

namespace p2p::util {

namespace {
// The canonical empty buffer: default-constructed payloads carry no Rep at
// all, so empty messages stay allocation-free.
constexpr std::uint8_t* kNoData = nullptr;
}  // namespace

Payload::Payload(Bytes bytes) {
  if (!bytes.empty()) rep_ = new Rep(std::move(bytes));
}

Payload Payload::copy(std::span<const std::uint8_t> data) {
  if (data.empty()) return Payload();
  return Payload(new Rep(Bytes(data.begin(), data.end())));
}

Payload& Payload::operator=(const Payload& other) noexcept {
  // Retain-before-release so self-assignment and shared-rep assignment
  // never drop the count to zero in between.
  if (rep_ != other.rep_) {
    Rep* old = rep_;
    rep_ = other.rep_;
    retain();
    if (old != nullptr && old->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete old;
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

const std::uint8_t* Payload::data() const noexcept {
  return rep_ != nullptr ? rep_->bytes.data() : kNoData;
}

std::size_t Payload::size() const noexcept {
  return rep_ != nullptr ? rep_->bytes.size() : 0;
}

std::span<std::uint8_t> Payload::mutate() {
  if (rep_ == nullptr) return {};
  if (rep_->refs.load(std::memory_order_acquire) != 1) {
    Rep* clone = new Rep(Bytes(rep_->bytes));
    release();
    rep_ = clone;
  }
  return {rep_->bytes.data(), rep_->bytes.size()};
}

std::uint32_t Payload::use_count() const noexcept {
  return rep_ != nullptr ? rep_->refs.load(std::memory_order_relaxed) : 0;
}

void Payload::release() noexcept {
  if (rep_ != nullptr &&
      rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete rep_;
  }
  rep_ = nullptr;
}

}  // namespace p2p::util
