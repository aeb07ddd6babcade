#pragma once
// Buffer: the raw byte container every channel serializes into and
// deserializes from (paper Fig. 2/3). A Buffer is single-owner: a worker
// writes its outbox buffers, the exchange hands them to the peer, and the
// peer reads them front-to-back.
//
// Framing (DESIGN.md section 1): the exchange wraps each channel's payload
// in a ChannelFrame header and bounds the reader with a read limit, so a
// channel that reads past its own payload throws ProtocolError instead of
// silently consuming the next channel's bytes.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace pregel::runtime {

/// A trivially-copyable type can be written to a Buffer byte-for-byte.
template <typename T>
concept TriviallySerializable =
    std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>;

/// Raised when reads and writes disagree about the byte stream: reading
/// past the end of a buffer, or past the active frame limit. The framed
/// exchange protocol refines this into FrameMismatchError (exchange.hpp).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `size` narrowed to a u32 length or count field. A size that does not
/// fit throws ProtocolError naming `what`: truncating it would make the
/// reader misparse every byte after the field.
[[nodiscard]] inline std::uint32_t checked_u32(std::uint64_t size,
                                               const char* what) {
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    throw ProtocolError(std::string(what) + ": " + std::to_string(size) +
                        " does not fit a u32 field");
  }
  return static_cast<std::uint32_t>(size);
}

/// Growable byte buffer with a read cursor and an optional read limit.
///
/// Writing appends at the end; reading consumes from the front. `rewind()`
/// resets the cursor (used when a buffer flips from outbox to inbox);
/// `clear()` also drops the contents (used when it flips back to outbox)
/// but KEEPS the allocation, so round buffers reach a high-water capacity
/// once and stop reallocating. `shrink()` releases memory explicitly.
class Buffer {
 public:
  Buffer() = default;

  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;
  Buffer(const Buffer&) = default;
  Buffer& operator=(const Buffer&) = default;

  /// Drop contents and reset the cursor; capacity is preserved.
  void clear() noexcept {
    data_.clear();
    read_pos_ = 0;
    read_limit_ = kNoLimit;
  }

  /// Release the allocation (explicit memory give-back; clear() never
  /// shrinks).
  void shrink() {
    data_.clear();
    data_.shrink_to_fit();
    read_pos_ = 0;
    read_limit_ = kNoLimit;
  }

  void rewind() noexcept {
    read_pos_ = 0;
    read_limit_ = kNoLimit;
  }

  /// Move-based swap: exchanges contents, cursors and limits without
  /// copying bytes.
  void swap(Buffer& other) noexcept {
    data_.swap(other.data_);
    std::swap(read_pos_, other.read_pos_);
    std::swap(read_limit_, other.read_limit_);
  }
  friend void swap(Buffer& a, Buffer& b) noexcept { a.swap(b); }

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return data_.capacity();
  }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Bytes not yet consumed by read() (bounded by the active read limit).
  [[nodiscard]] std::size_t remaining() const noexcept {
    return readable_end() - read_pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

  [[nodiscard]] std::size_t read_pos() const noexcept { return read_pos_; }

  void reserve(std::size_t n) { data_.reserve(n); }

  // ---- read limits (frame boundaries) -----------------------------------

  /// Forbid reads past absolute position `end` until clear_read_limit().
  /// The framed exchange sets this to the end of the current channel frame.
  void set_read_limit(std::size_t end) noexcept { read_limit_ = end; }
  void clear_read_limit() noexcept { read_limit_ = kNoLimit; }
  [[nodiscard]] bool has_read_limit() const noexcept {
    return read_limit_ != kNoLimit;
  }

  // ---- scalar I/O -------------------------------------------------------

  template <TriviallySerializable T>
  void write(const T& v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    data_.insert(data_.end(), p, p + sizeof(T));
  }

  template <TriviallySerializable T>
  T read() {
    check_readable(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + read_pos_, sizeof(T));
    read_pos_ += sizeof(T);
    return v;
  }

  template <TriviallySerializable T>
  [[nodiscard]] T peek() const {
    check_readable(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + read_pos_, sizeof(T));
    return v;
  }

  // ---- bulk I/O ---------------------------------------------------------

  void write_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    data_.insert(data_.end(), b, b + n);
  }

  /// Append `n` value-initialized bytes and return a pointer to them, so a
  /// producer (e.g. a socket receive) can fill the buffer in place instead
  /// of staging through a scratch array.
  std::byte* extend(std::size_t n) {
    data_.resize(data_.size() + n);
    return data_.data() + (data_.size() - n);
  }

  void read_bytes(void* p, std::size_t n) {
    check_readable(n);
    std::memcpy(p, data_.data() + read_pos_, n);
    read_pos_ += n;
  }

  /// Pointer to the next unread byte. Parallel delivery records a payload
  /// span with this + skip(), then parses it from worker threads with
  /// their own local cursors (the Buffer itself is not touched again
  /// until the span is fully consumed).
  [[nodiscard]] const std::byte* read_ptr() const noexcept {
    return data_.data() + read_pos_;
  }

  /// Advance the read cursor over `n` bytes without copying them out
  /// (bounds- and frame-checked like a read).
  void skip(std::size_t n) {
    check_readable(n);
    read_pos_ += n;
  }

  /// Length-prefixed vector of trivially-copyable elements.
  template <TriviallySerializable T>
  void write_vector(const std::vector<T>& v) {
    write<std::uint32_t>(checked_u32(v.size(), "Buffer::write_vector"));
    if (!v.empty()) write_bytes(v.data(), v.size() * sizeof(T));
  }

  template <TriviallySerializable T>
  std::vector<T> read_vector() {
    const auto n = read<std::uint32_t>();
    check_readable(std::size_t{n} * sizeof(T));
    std::vector<T> v(n);
    if (n != 0) read_bytes(v.data(), std::size_t{n} * sizeof(T));
    return v;
  }

  void write_string(const std::string& s) {
    write<std::uint32_t>(checked_u32(s.size(), "Buffer::write_string"));
    if (!s.empty()) write_bytes(s.data(), s.size());
  }

  std::string read_string() {
    const auto n = read<std::uint32_t>();
    check_readable(n);
    std::string s(n, '\0');
    if (n != 0) read_bytes(s.data(), n);
    return s;
  }

  // ---- patching (length frames written before content is known) ---------

  /// Reserve a u32 slot and return its offset for a later patch_u32().
  std::size_t reserve_u32() {
    const std::size_t off = data_.size();
    write<std::uint32_t>(0);
    return off;
  }

  void patch_u32(std::size_t offset, std::uint32_t value) {
    if (offset + sizeof(value) > data_.size()) {
      throw ProtocolError("Buffer: patch_u32 past end of buffer");
    }
    std::memcpy(data_.data() + offset, &value, sizeof(value));
  }

  [[nodiscard]] const std::byte* data() const noexcept { return data_.data(); }

 private:
  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t readable_end() const noexcept {
    return read_limit_ < data_.size() ? read_limit_ : data_.size();
  }

  void check_readable(std::size_t n) const {
    if (read_pos_ + n > data_.size()) {
      throw ProtocolError("Buffer: read past end of buffer");
    }
    if (read_pos_ + n > read_limit_) {
      throw ProtocolError(
          "Buffer: read past frame boundary (channel read more than its "
          "frame holds)");
    }
  }

  std::vector<std::byte> data_;
  std::size_t read_pos_ = 0;
  std::size_t read_limit_ = kNoLimit;
};

}  // namespace pregel::runtime
