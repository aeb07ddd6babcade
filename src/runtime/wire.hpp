#pragma once
// The packed (u32 index, value) wire (DESIGN.md section 7): the one codec
// of every index-keyed message path — CombinedMessage's push wires and
// sparse pull rounds, DirectMessage, the Propagation updates,
// MirrorScatter's direct pairs, and the Pregel+/Blogel baselines'
// message, ghost and response wires.
//
// In memory those paths stage an IndexedValue, which the compiler pads to
// the value's alignment: 16 bytes for (u32, double), 4 of them padding
// whose content the language does not fix. On the wire the two fields go
// back to back instead — 12 bytes for a double, and every byte is data —
// so the stride of a wire span is PackedWire<T>::kSize, never sizeof of a
// struct.

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "runtime/buffer.hpp"

namespace pregel::runtime {

/// One (local index, value) record as the message paths stage it.
template <TriviallySerializable T>
struct IndexedValue {
  std::uint32_t lidx;
  T value;
};

/// Field-by-field codec of an (u32 index, T value) pair.
template <TriviallySerializable T>
struct PackedWire {
  static constexpr std::size_t kSize = sizeof(std::uint32_t) + sizeof(T);

  static void store(std::byte* p, std::uint32_t index, const T& value) {
    std::memcpy(p, &index, sizeof(index));
    std::memcpy(p + sizeof(index), &value, sizeof(T));
  }

  [[nodiscard]] static IndexedValue<T> load(const std::byte* p) {
    IndexedValue<T> w;
    std::memcpy(&w.lidx, p, sizeof(w.lidx));
    std::memcpy(&w.value, p + sizeof(w.lidx), sizeof(T));
    return w;
  }

  /// Append room for `n` wires to `out`; returns where the first goes.
  static std::byte* append(Buffer& out, std::size_t n) {
    return out.extend(n * kSize);
  }

  /// Append a u32 count, then every record of `records` as a wire.
  template <typename Records>
  static void write_all(Buffer& out, const Records& records,
                        const char* what) {
    out.write<std::uint32_t>(checked_u32(records.size(), what));
    std::byte* p = append(out, records.size());
    for (const auto& [index, value] : records) {
      store(p, index, value);
      p += kSize;
    }
  }

  /// Consume `n` wires from `in` (bounds- and frame-checked); returns the
  /// first, for a span walk of stride kSize.
  static const std::byte* skip(Buffer& in, std::uint32_t n) {
    const std::byte* p = in.read_ptr();
    in.skip(std::size_t{n} * kSize);
    return p;
  }

  static IndexedValue<T> read(Buffer& in) { return load(skip(in, 1)); }
};

}  // namespace pregel::runtime
