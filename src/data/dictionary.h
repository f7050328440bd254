#ifndef FDX_DATA_DICTIONARY_H_
#define FDX_DATA_DICTIONARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/value.h"

namespace fdx {

/// Hashes std::string keys and std::string_view probes alike, so a map
/// keyed on std::string is probed without building one.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>()(s);
  }
};

/// The dictionary of one column: the single code-assignment rule behind
/// EncodedTable::Encode, the CSV reader and the chunk store. Each
/// distinct non-null value gets two codes.
///
///  * Storage code — the exact value. int 3, double 3.0 and string "3"
///    are distinct, and doubles key on their bit pattern, so -0.0, 0.0
///    and every NaN payload keep their own entry. value(code) returns
///    the value bit for bit.
///  * Transform code — the EncodedTable contract. Numerics merge on
///    their double value (3 == 3.0, -0.0 == 0.0), every NaN shares one
///    code that no number has, and strings key on their bytes. First
///    appearance assigns the next dense code.
///
/// Both code spaces count up from 0 in order of first appearance.
class ColumnDictionary {
 public:
  /// Storage code of an exact value, interned on first appearance.
  int32_t InternInt(int64_t value);
  int32_t InternDouble(double value);
  int32_t InternString(std::string_view value);
  /// Same, for a non-null Value.
  int32_t Intern(const Value& value);

  /// Forgets every value from storage code `size` on, and the transform
  /// codes only they held: the dictionary is then exactly what interning
  /// its first `size` values gave (the chunk store's undo of a failed
  /// append).
  void Truncate(size_t size);

  /// Distinct exact values (storage codes in use).
  size_t size() const { return values_.size(); }
  /// Distinct transform codes.
  size_t cardinality() const { return static_cast<size_t>(next_transform_); }

  const Value& value(int32_t storage) const { return values_[storage]; }
  int32_t transform_code(int32_t storage) const {
    return to_transform_[storage];
  }

 private:
  /// Records a new exact value whose transform code is `transform`.
  int32_t Add(Value value, int32_t transform);
  /// Transform code of a numeric value (see the class comment).
  int32_t NumericTransformCode(double value);

  std::vector<Value> values_;  ///< by storage code
  std::vector<int32_t> to_transform_;  ///< storage code -> transform code
  std::unordered_map<int64_t, int32_t> by_int_;
  std::unordered_map<uint64_t, int32_t> by_double_bits_;
  /// Strings key both code spaces on their bytes, so one map serves.
  std::unordered_map<std::string, int32_t, TransparentStringHash,
                     std::equal_to<>>
      by_string_;
  /// Canonical double bits (one zero, one NaN) -> transform code.
  std::unordered_map<uint64_t, int32_t> numeric_transform_;
  int32_t next_transform_ = 0;
};

}  // namespace fdx

#endif  // FDX_DATA_DICTIONARY_H_
