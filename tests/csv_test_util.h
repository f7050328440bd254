#ifndef FDX_TESTS_CSV_TEST_UTIL_H_
#define FDX_TESTS_CSV_TEST_UTIL_H_

// Shared by the CSV reader tests: thread-count and block-size scoping,
// and exact comparisons of decoded and encoded tables.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "data/csv_reader.h"
#include "data/table.h"

namespace fdx::testing_csv {

/// Sets FDX_THREADS for the scope (the reader and the transform resolve
/// their thread count from it), restoring the previous value after.
class ScopedThreads {
 public:
  explicit ScopedThreads(size_t threads) {
    const char* old = std::getenv("FDX_THREADS");
    if (old != nullptr) old_ = old;
    ::setenv("FDX_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~ScopedThreads() {
    if (old_) {
      ::setenv("FDX_THREADS", old_->c_str(), 1);
    } else {
      ::unsetenv("FDX_THREADS");
    }
  }

 private:
  std::optional<std::string> old_;
};

/// Forces the reader's block size through its test seam for the scope.
class ScopedBlockBytes {
 public:
  explicit ScopedBlockBytes(size_t bytes)
      : old_(internal::SetCsvBlockBytesForTesting(bytes)) {}
  ~ScopedBlockBytes() { internal::SetCsvBlockBytesForTesting(old_); }

 private:
  size_t old_;
};

/// Same type and the same payload, doubles compared by bit pattern.
inline bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.AsInt() == b.AsInt();
    case ValueType::kDouble: {
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

inline void ExpectSameTable(const Table& want, const Table& got) {
  ASSERT_EQ(want.schema().names(), got.schema().names());
  ASSERT_EQ(want.num_columns(), got.num_columns());
  ASSERT_EQ(want.num_rows(), got.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    for (size_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_TRUE(SameValue(want.cell(r, c), got.cell(r, c)))
          << "row " << r << " col " << c << ": want '"
          << want.cell(r, c).ToString() << "' got '"
          << got.cell(r, c).ToString() << "'";
    }
  }
}

inline void ExpectSameCodes(const EncodedTable& want, const EncodedTable& got) {
  ASSERT_EQ(want.schema().names(), got.schema().names());
  ASSERT_EQ(want.num_rows(), got.num_rows());
  ASSERT_EQ(want.num_columns(), got.num_columns());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    ASSERT_EQ(want.column_codes(c), got.column_codes(c)) << "col " << c;
    ASSERT_EQ(want.Cardinality(c), got.Cardinality(c)) << "col " << c;
    ASSERT_EQ(want.NullCount(c), got.NullCount(c)) << "col " << c;
  }
}

/// `text` with control and non-ASCII bytes escaped, for failure traces.
inline std::string Escaped(const std::string& text) {
  std::string out;
  for (unsigned char ch : text) {
    if (ch == '\n') {
      out += "\\n";
    } else if (ch == '\r') {
      out += "\\r";
    } else if (ch == '\\') {
      out += "\\\\";
    } else if (ch < 0x20 || ch >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", ch);
      out += buf;
    } else {
      out += static_cast<char>(ch);
    }
  }
  return out;
}

}  // namespace fdx::testing_csv

#endif  // FDX_TESTS_CSV_TEST_UTIL_H_
