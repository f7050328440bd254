#include "data/table.h"

#include <cassert>
#include <numeric>

#include "data/dictionary.h"

namespace fdx {

int Schema::Find(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void Table::ReplaceSchema(Schema schema) {
  assert(schema.size() == columns_.size() || num_rows() == 0);
  columns_.resize(schema.size());
  schema_ = std::move(schema);
}

void Table::AppendRow(std::vector<Value> row) {
  assert(row.size() == columns_.size());
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
}

Table Table::ShuffleRows(Rng* rng) const {
  std::vector<size_t> order(num_rows());
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  Table out(schema_);
  out.columns_.assign(num_columns(), {});
  for (size_t c = 0; c < num_columns(); ++c) {
    out.columns_[c].reserve(num_rows());
    for (size_t r : order) out.columns_[c].push_back(columns_[c][r]);
  }
  return out;
}

Table Table::Head(size_t n) const {
  const size_t rows = std::min(n, num_rows());
  Table out(schema_);
  out.columns_.assign(num_columns(), {});
  for (size_t c = 0; c < num_columns(); ++c) {
    out.columns_[c].assign(columns_[c].begin(), columns_[c].begin() + rows);
  }
  return out;
}

Table Table::SelectColumns(const std::vector<size_t>& cols) const {
  std::vector<std::string> names;
  names.reserve(cols.size());
  for (size_t c : cols) names.push_back(schema_.name(c));
  Table out{Schema(std::move(names))};
  out.columns_.clear();
  for (size_t c : cols) out.columns_.push_back(columns_[c]);
  return out;
}

EncodedTable EncodedTable::Encode(const Table& table) {
  const size_t k = table.num_columns();
  std::vector<std::vector<int32_t>> codes(k);
  std::vector<size_t> cardinalities(k);
  std::vector<size_t> null_counts(k, 0);
  for (size_t c = 0; c < k; ++c) {
    ColumnDictionary dict;
    codes[c].reserve(table.num_rows());
    for (const Value& v : table.column(c)) {
      if (v.is_null()) {
        codes[c].push_back(kNullCode);
        ++null_counts[c];
      } else {
        codes[c].push_back(dict.transform_code(dict.Intern(v)));
      }
    }
    cardinalities[c] = dict.cardinality();
  }
  return FromColumns(table.schema(), table.num_rows(), std::move(codes),
                     std::move(cardinalities), std::move(null_counts));
}

EncodedTable EncodedTable::FromColumns(
    Schema schema, size_t num_rows, std::vector<std::vector<int32_t>> codes,
    std::vector<size_t> cardinalities, std::vector<size_t> null_counts) {
  EncodedTable out;
  out.schema_ = std::move(schema);
  out.num_rows_ = num_rows;
  out.codes_ = std::move(codes);
  out.cardinalities_ = std::move(cardinalities);
  out.null_counts_ = std::move(null_counts);
  return out;
}

}  // namespace fdx
