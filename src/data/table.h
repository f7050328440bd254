#ifndef FDX_DATA_TABLE_H_
#define FDX_DATA_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/value.h"
#include "util/rng.h"
#include "util/status.h"

namespace fdx {

/// Attribute names of a relation. Attribute indices used across the
/// library refer to positions in this schema.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<std::string> names) : names_(std::move(names)) {}

  size_t size() const { return names_.size(); }
  const std::string& name(size_t i) const { return names_[i]; }
  const std::vector<std::string>& names() const { return names_; }

  /// Index of the attribute called `name`, or -1 if absent.
  int Find(const std::string& name) const;

 private:
  std::vector<std::string> names_;
};

/// A columnar relation instance. Cells are dynamically typed Values;
/// missing values are nulls. This is the input format of every FD
/// discovery method in the library.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema)
      : schema_(std::move(schema)), columns_(schema_.size()) {}
  /// Precondition: one column per schema name, all of equal length.
  Table(Schema schema, std::vector<std::vector<Value>> columns)
      : schema_(std::move(schema)), columns_(std::move(columns)) {}

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t num_columns() const { return columns_.size(); }

  const Value& cell(size_t row, size_t col) const {
    return columns_[col][row];
  }
  void set_cell(size_t row, size_t col, Value v) {
    columns_[col][row] = std::move(v);
  }

  const std::vector<Value>& column(size_t col) const { return columns_[col]; }

  /// Appends a row. Precondition: row.size() == num_columns().
  void AppendRow(std::vector<Value> row);

  /// Rebinds the attribute names, keeping cell data. Precondition:
  /// schema.size() == num_columns(), or the table holds no rows.
  void ReplaceSchema(Schema schema);

  /// Returns a copy with rows shuffled by `rng` (Alg. 2 shuffles before
  /// building pairs).
  Table ShuffleRows(Rng* rng) const;

  /// Returns a copy restricted to the first `n` rows.
  Table Head(size_t n) const;

  /// Returns a copy restricted to the given columns, in order.
  Table SelectColumns(const std::vector<size_t>& cols) const;

 private:
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
};

/// A dictionary-encoded view of a table: every column becomes an array
/// of int32 codes in [0, cardinality) with kNullCode for missing cells.
/// All discovery algorithms run on this representation — equality of
/// cells is equality of codes, which makes partition refinement (TANE),
/// entropy estimation (RFI) and the FDX pair transform cache friendly.
///
/// Contract: the non-null codes of column c are *dense* in
/// [0, Cardinality(c)) — every value in that range occurs (codes are
/// assigned by a first-appearance counter). The pair transform's
/// counting sort keys on this: Cardinality(c) + 1 buckets (one extra
/// for kNullCode) cover every possible key, so a per-attribute sort
/// pass costs O(n + cardinality) instead of O(n log n).
class EncodedTable {
 public:
  static constexpr int32_t kNullCode = -1;

  /// Encodes `table` under the ColumnDictionary transform-code rule
  /// (data/dictionary.h): codes follow first appearance, numerics merge
  /// on their double value, and every NaN shares one code.
  static EncodedTable Encode(const Table& table);

  /// Assembles an encoded table from columns that already honour the
  /// contract above (the CSV reader's output).
  static EncodedTable FromColumns(Schema schema, size_t num_rows,
                                  std::vector<std::vector<int32_t>> codes,
                                  std::vector<size_t> cardinalities,
                                  std::vector<size_t> null_counts);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return codes_.size(); }

  /// Distinct non-null values in column `col`.
  size_t Cardinality(size_t col) const { return cardinalities_[col]; }

  /// All per-column cardinalities (see the dense-code contract above).
  const std::vector<size_t>& cardinalities() const { return cardinalities_; }

  /// Number of null cells in column `col`.
  size_t NullCount(size_t col) const { return null_counts_[col]; }

  int32_t code(size_t row, size_t col) const { return codes_[col][row]; }
  const std::vector<int32_t>& column_codes(size_t col) const {
    return codes_[col];
  }

 private:
  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<std::vector<int32_t>> codes_;
  std::vector<size_t> cardinalities_;
  std::vector<size_t> null_counts_;
};

}  // namespace fdx

#endif  // FDX_DATA_TABLE_H_
