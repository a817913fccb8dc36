// util::Payload — ref-counted immutable byte buffer for the message hot
// path.
//
// A Gnutella query broadcast used to serialize once per neighbor and the
// network layer copied the vector again per scheduled delivery, so one
// logical message cost O(neighbors) full buffer copies. Payload makes the
// buffer shared: serialize once, hand the same bytes to N sends, and every
// copy is a refcount bump. The buffer is immutable through the const API;
// the one writer in the system — the fault layer's corruption hook — goes
// through mutate(), which clones only when the buffer is actually shared
// (copy-on-write), so corrupting one delivery never alters the broadcast
// siblings or the duplicate copy of the same message.
//
// The refcount is atomic: payloads never cross threads today (each sweep
// replication owns its network), but the sweep runner destroys whole
// studies on pool threads, and an atomic count keeps the type safe under
// the TSan tier without a measurable cost on the single-threaded path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>

#include "util/bytes.h"

namespace p2p::util {

class Payload;

namespace detail {
/// The calling thread's encode buffer, cleared.
ByteWriter& scratch_writer();
/// One block holding the scratch writer's bytes followed by `tail`.
Payload finish_scratch(ByteView tail);
}  // namespace detail

class Payload {
 public:
  Payload() noexcept = default;

  /// Copies the vector's bytes into a fresh block. Implicit on purpose:
  /// call sites that build a message as Bytes (handshake text, tests) keep
  /// passing it straight to send().
  Payload(const Bytes& bytes) : Payload(copy(bytes)) {}  // NOLINT(google-explicit-constructor)

  /// Braced literals (`send(cid, id, {0x01, 0x02})`) worked when send took
  /// Bytes; keep them working.
  Payload(std::initializer_list<std::uint8_t> bytes)
      : Payload(copy({bytes.begin(), bytes.size()})) {}

  /// Copies `data` into a fresh buffer.
  static Payload copy(std::span<const std::uint8_t> data);

  Payload(const Payload& other) noexcept : rep_(other.rep_) { retain(); }
  Payload(Payload&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  Payload& operator=(const Payload& other) noexcept;
  Payload& operator=(Payload&& other) noexcept;
  ~Payload() { release(); }

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return rep_ != nullptr ? rep_->bytes() : nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return rep_ != nullptr ? rep_->size : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return {data(), size()};
  }
  // Payloads flow into ByteReader / std::span parameters everywhere the
  // old Bytes did; converting implicitly keeps those call sites unchanged.
  operator std::span<const std::uint8_t>() const noexcept {  // NOLINT
    return span();
  }

  [[nodiscard]] const std::uint8_t& operator[](std::size_t i) const {
    return data()[i];
  }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return data() + size();
  }

  /// Copy-on-write access: returns a mutable view of a uniquely-owned
  /// buffer, cloning the bytes first iff they are shared. Only the fault
  /// layer's corruption hook writes payloads; everything else treats them
  /// as immutable.
  [[nodiscard]] std::span<std::uint8_t> mutate();

  /// Copies the bytes out into an owned vector (legacy interop).
  [[nodiscard]] Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// Number of Payload handles sharing this buffer (0 for the empty
  /// payload). Exact on the single-threaded sim path; advisory elsewhere.
  [[nodiscard]] std::uint32_t use_count() const noexcept;

  [[nodiscard]] bool operator==(const Payload& other) const noexcept {
    return rep_ == other.rep_ ||
           (size() == other.size() &&
            std::equal(begin(), end(), other.begin()));
  }

 private:
  // The block's header; `size` bytes follow it in the same allocation.
  struct Rep {
    explicit Rep(std::size_t n) noexcept : size(n) {}
    std::uint8_t* bytes() noexcept { return reinterpret_cast<std::uint8_t*>(this + 1); }
    std::atomic<std::uint32_t> refs{1};
    std::size_t size;
  };

  explicit Payload(Rep* rep) noexcept : rep_(rep) {}
  friend Payload detail::finish_scratch(ByteView tail);

  /// A uniquely owned block of `n` bytes with unspecified contents.
  static Payload allocate(std::size_t n);

  void retain() noexcept {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() noexcept;
  static void destroy(Rep* rep) noexcept;

  Rep* rep_ = nullptr;
};

/// Encodes a message as one Payload: `encode(ByteWriter&)` writes it into
/// the calling thread's reused writer (which stops growing once it has
/// seen its largest message), then the bytes, followed by `tail`, are
/// copied into a single block. `tail` carries a transfer's file body, which
/// goes straight into the block and never through the writer. Not
/// reentrant: `encode` must not itself call encode_payload.
template <typename Encode>
[[nodiscard]] Payload encode_payload(Encode&& encode, ByteView tail = {}) {
  encode(detail::scratch_writer());
  return detail::finish_scratch(tail);
}

}  // namespace p2p::util
