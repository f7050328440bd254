#include "data/dictionary.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace fdx {

namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Transform key of a numeric value: its bit pattern, with -0.0 folded
/// onto 0.0 and every NaN onto one pattern, so equal numbers share a key
/// and NaN compares equal only to NaN.
uint64_t CanonicalBits(double value) {
  if (std::isnan(value)) return 0x7ff8000000000000ULL;
  if (value == 0.0) return 0;
  return DoubleBits(value);
}

}  // namespace

int32_t ColumnDictionary::Add(Value value, int32_t transform) {
  values_.push_back(std::move(value));
  to_transform_.push_back(transform);
  return static_cast<int32_t>(values_.size() - 1);
}

int32_t ColumnDictionary::NumericTransformCode(double value) {
  auto [it, inserted] =
      numeric_transform_.try_emplace(CanonicalBits(value), next_transform_);
  if (inserted) ++next_transform_;
  return it->second;
}

int32_t ColumnDictionary::InternInt(int64_t value) {
  const auto [it, inserted] =
      by_int_.try_emplace(value, static_cast<int32_t>(values_.size()));
  if (inserted) {
    Add(Value(value), NumericTransformCode(static_cast<double>(value)));
  }
  return it->second;
}

int32_t ColumnDictionary::InternDouble(double value) {
  const auto [it, inserted] = by_double_bits_.try_emplace(
      DoubleBits(value), static_cast<int32_t>(values_.size()));
  if (inserted) Add(Value(value), NumericTransformCode(value));
  return it->second;
}

int32_t ColumnDictionary::InternString(std::string_view value) {
  const auto found = by_string_.find(value);
  if (found != by_string_.end()) return found->second;
  const int32_t storage = Add(Value(std::string(value)), next_transform_++);
  by_string_.emplace(std::string(value), storage);
  return storage;
}

void ColumnDictionary::Truncate(size_t size) {
  if (size >= values_.size()) return;
  // Transform codes count up in order of first appearance too, so the
  // kept values hold exactly the codes below their largest.
  int32_t next_transform = 0;
  for (size_t s = 0; s < size; ++s) {
    next_transform = std::max(next_transform, to_transform_[s] + 1);
  }
  for (size_t s = size; s < values_.size(); ++s) {
    const Value& value = values_[s];
    double number = 0.0;
    if (value.type() == ValueType::kInt) {
      by_int_.erase(value.AsInt());
      number = static_cast<double>(value.AsInt());
    } else if (value.type() == ValueType::kDouble) {
      by_double_bits_.erase(DoubleBits(value.AsDouble()));
      number = value.AsDouble();
    } else {
      by_string_.erase(value.AsString());
      continue;
    }
    if (to_transform_[s] >= next_transform) {
      numeric_transform_.erase(CanonicalBits(number));
    }
  }
  values_.resize(size);
  to_transform_.resize(size);
  next_transform_ = next_transform;
}

int32_t ColumnDictionary::Intern(const Value& value) {
  switch (value.type()) {
    case ValueType::kInt:
      return InternInt(value.AsInt());
    case ValueType::kDouble:
      return InternDouble(value.AsDouble());
    default:
      return InternString(value.AsString());
  }
}

}  // namespace fdx
