// Value types for shared files: metadata (what a query hit carries) and
// content (what a download delivers). A content's bytes and its digests
// live together in one shared body, so aliases of one file share both.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "files/file_types.h"
#include "files/hash.h"
#include "util/bytes.h"

namespace p2p::files {

/// Content id used across the framework: SHA-1 of bytes.
using ContentId = Digest20;

/// A concrete file with bytes. Logically immutable after construction.
/// An alias (a second name for the same bytes, e.g. a trojan copied under
/// many names) shares its source's body: no byte copy, one digest of each
/// kind per body. Digests are computed lazily on first access:
/// each protocol stack keys content by exactly one digest (Gnutella by
/// SHA-1, OpenFT by MD5), and eagerly hashing every generated file with
/// both algorithms used to be the single largest cost of study setup
/// (~75% of a --quick run's wall time went to SHA-1+MD5 over the synthetic
/// corpus). call_once keeps the cached digests safe to share across sweep
/// worker threads.
class FileContent {
 public:
  FileContent(std::string name, util::Bytes bytes)
      : name_(std::move(name)), body_(std::make_shared<Body>(std::move(bytes))) {}
  /// An alias: `name` over `source`'s bytes and digests.
  FileContent(std::string name, const FileContent& source)
      : name_(std::move(name)), body_(source.body_) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const util::Bytes& bytes() const { return body_->bytes; }
  [[nodiscard]] std::uint64_t size() const { return body_->bytes.size(); }
  [[nodiscard]] const Digest20& sha1() const {
    std::call_once(body_->sha1_once, [b = body_.get()] { b->sha1 = files::sha1(b->bytes); });
    return body_->sha1;
  }
  [[nodiscard]] const Digest16& md5() const {
    std::call_once(body_->md5_once, [b = body_.get()] { b->md5 = files::md5(b->bytes); });
    return body_->md5;
  }
  [[nodiscard]] FileType type_by_extension() const {
    return classify_extension(name_);
  }
  [[nodiscard]] FileType type_by_magic() const {
    return classify_magic(body_->bytes);
  }

 private:
  struct Body {
    explicit Body(util::Bytes b) : bytes(std::move(b)) {}
    const util::Bytes bytes;
    std::once_flag sha1_once;
    std::once_flag md5_once;
    Digest20 sha1{};
    Digest16 md5{};
  };

  std::string name_;
  std::shared_ptr<Body> body_;
};

/// Metadata-only view used in protocol result sets (no bytes).
struct FileMeta {
  std::string name;
  std::uint64_t size = 0;
  Digest20 sha1{};

  [[nodiscard]] FileType type() const { return classify_extension(name); }
};

}  // namespace p2p::files
