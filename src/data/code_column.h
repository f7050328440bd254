#ifndef FDX_DATA_CODE_COLUMN_H_
#define FDX_DATA_CODE_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace fdx {

/// Width-tagged dictionary code columns. A column of dense codes in
/// [0, cardinality) plus a null code is kept at the narrowest of 1, 2 or
/// 4 bytes per code that holds them all:
///
///  * 1 byte when cardinality <= 255, 2 bytes when <= 65,535, else 4;
///  * the null code is the width's all-ones value: 255, 65,535, or
///    0xFFFFFFFF (EncodedTable::kNullCode = -1 read as int32) at 4.
///
/// Code values never depend on the width, only their storage does. The
/// counting-sort key `code + 1` taken modulo 2^(8·width) puts the null
/// code in bucket 0 at every width, so sorts, equality tests and every
/// moment built from them are identical whether a column is viewed at
/// 1, 2 or 4 bytes. The width is chosen once per column, never per cell.

/// Bytes per code of a column with `cardinality` distinct non-null codes.
inline unsigned CodeWidthFor(size_t cardinality) {
  if (cardinality <= 0xFF) return 1;
  if (cardinality <= 0xFFFF) return 2;
  return 4;
}

/// The null code at `width` as a code widened to int32 reads: 255,
/// 65535 or -1.
inline int32_t NullCodeAt(unsigned width) {
  return width == 1 ? 0xFF : width == 2 ? 0xFFFF : -1;
}

/// Calls fn(T{}) with T = uint8_t, uint16_t or uint32_t for width 1, 2 or
/// 4: the one place a kernel turns a width tag into a code type.
template <typename Fn>
decltype(auto) DispatchCodeWidth(unsigned width, Fn&& fn) {
  if (width == 1) return fn(uint8_t{});
  if (width == 2) return fn(uint16_t{});
  return fn(uint32_t{});
}

/// Code `i` of a column of T-wide codes at `data` (any alignment).
template <typename T>
inline T LoadCode(const uint8_t* data, size_t i) {
  T code;
  std::memcpy(&code, data + i * sizeof(T), sizeof(T));
  return code;
}

/// Stores code `i` of a column of T-wide codes at `data`.
template <typename T>
inline void StoreCode(uint8_t* data, size_t i, T code) {
  std::memcpy(data + i * sizeof(T), &code, sizeof(T));
}

/// A read-only column of `size` codes of `width` bytes each. Views an
/// EncodedTable int32 column at width 4 implicitly (like string_view
/// from string, the vector must outlive the view).
struct CodeView {
  const uint8_t* data = nullptr;
  size_t size = 0;
  unsigned width = 4;

  CodeView() = default;
  CodeView(const uint8_t* bytes, size_t n, unsigned code_width)
      : data(bytes), size(n), width(code_width) {}
  CodeView(const std::vector<int32_t>& codes)  // NOLINT: implicit by design
      : data(reinterpret_cast<const uint8_t*>(codes.data())),
        size(codes.size()),
        width(4) {}
};

/// An owned column of codes at one width: what ChunkedTable decodes.
class CodeColumn {
 public:
  /// Empties the column and sizes it for `n` codes of `width` bytes
  /// (contents unspecified until written). Keeps the allocation.
  void Reset(unsigned width, size_t n) {
    width_ = width;
    size_ = n;
    bytes_.resize(n * width);
  }

  unsigned width() const { return width_; }
  size_t size() const { return size_; }
  uint8_t* mutable_data() { return bytes_.data(); }
  CodeView view() const { return CodeView(bytes_.data(), size_, width_); }

  /// The codes widened to int32, nulls as -1 (tests and small callers).
  std::vector<int32_t> ToInt32() const {
    std::vector<int32_t> out(size_);
    DispatchCodeWidth(width_, [&](auto zero) {
      using T = decltype(zero);
      const T null = static_cast<T>(~T{0});
      for (size_t i = 0; i < size_; ++i) {
        const T code = LoadCode<T>(bytes_.data(), i);
        out[i] = code == null ? -1 : static_cast<int32_t>(code);
      }
    });
    return out;
  }

 private:
  std::vector<uint8_t> bytes_;
  size_t size_ = 0;
  unsigned width_ = 4;
};

}  // namespace fdx

#endif  // FDX_DATA_CODE_COLUMN_H_
