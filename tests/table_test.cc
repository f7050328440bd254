#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "data/table.h"

namespace fdx {
namespace {

Table MakeTable() {
  Table t{Schema({"a", "b", "c"})};
  t.AppendRow({Value(int64_t{1}), Value(std::string("x")), Value::Null()});
  t.AppendRow({Value(int64_t{2}), Value(std::string("y")), Value(1.5)});
  t.AppendRow({Value(int64_t{1}), Value(std::string("x")), Value(1.5)});
  return t;
}

TEST(SchemaTest, FindByName) {
  Schema s({"alpha", "beta"});
  EXPECT_EQ(s.Find("alpha"), 0);
  EXPECT_EQ(s.Find("beta"), 1);
  EXPECT_EQ(s.Find("gamma"), -1);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.name(1), "beta");
}

TEST(TableTest, DimensionsAndCells) {
  Table t = MakeTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.cell(0, 0).AsInt(), 1);
  EXPECT_TRUE(t.cell(0, 2).is_null());
  t.set_cell(0, 2, Value(9.0));
  EXPECT_DOUBLE_EQ(t.cell(0, 2).AsDouble(), 9.0);
}

TEST(TableTest, ShuffleRowsPreservesRowIntegrity) {
  Table t = MakeTable();
  Rng rng(5);
  Table shuffled = t.ShuffleRows(&rng);
  EXPECT_EQ(shuffled.num_rows(), 3u);
  // Each original (a, b) pairing must survive as a row.
  std::set<std::string> original, after;
  for (size_t r = 0; r < 3; ++r) {
    original.insert(t.cell(r, 0).ToString() + "|" + t.cell(r, 1).ToString());
    after.insert(shuffled.cell(r, 0).ToString() + "|" +
                 shuffled.cell(r, 1).ToString());
  }
  EXPECT_EQ(original, after);
}

TEST(TableTest, HeadTruncates) {
  Table t = MakeTable();
  EXPECT_EQ(t.Head(2).num_rows(), 2u);
  EXPECT_EQ(t.Head(99).num_rows(), 3u);
  EXPECT_EQ(t.Head(0).num_rows(), 0u);
}

TEST(TableTest, SelectColumns) {
  Table t = MakeTable();
  Table sel = t.SelectColumns({2, 0});
  EXPECT_EQ(sel.num_columns(), 2u);
  EXPECT_EQ(sel.schema().name(0), "c");
  EXPECT_EQ(sel.schema().name(1), "a");
  EXPECT_EQ(sel.cell(1, 1).AsInt(), 2);
}

TEST(EncodedTableTest, CodesAndCardinalities) {
  Table t = MakeTable();
  EncodedTable e = EncodedTable::Encode(t);
  EXPECT_EQ(e.num_rows(), 3u);
  EXPECT_EQ(e.num_columns(), 3u);
  // Column a: values 1, 2, 1 -> codes 0, 1, 0.
  EXPECT_EQ(e.code(0, 0), e.code(2, 0));
  EXPECT_NE(e.code(0, 0), e.code(1, 0));
  EXPECT_EQ(e.Cardinality(0), 2u);
  // Column c has a null.
  EXPECT_EQ(e.code(0, 2), EncodedTable::kNullCode);
  EXPECT_EQ(e.NullCount(2), 1u);
  EXPECT_EQ(e.Cardinality(2), 1u);  // 1.5 twice
  EXPECT_EQ(e.code(1, 2), e.code(2, 2));
}

TEST(EncodedTableTest, NumericCrossTypeShareCodes) {
  Table t{Schema({"x"})};
  t.AppendRow({Value(int64_t{3})});
  t.AppendRow({Value(3.0)});
  EncodedTable e = EncodedTable::Encode(t);
  EXPECT_EQ(e.code(0, 0), e.code(1, 0));
  EXPECT_EQ(e.Cardinality(0), 1u);
}

/// A one-column table of ints and doubles, "nan" as a NaN double.
Table NumericColumn(const std::vector<std::string>& cells) {
  Table t{Schema({"x"})};
  for (const std::string& cell : cells) {
    t.AppendRow({cell == "nan" ? Value(std::nan(""))
                               : Value(int64_t{std::stoi(cell)})});
  }
  return t;
}

// Every NaN shares one code that no number has. std::map<double> keyed
// the old dictionaries; NaN broke its ordering, so NaN took 1's code in
// the first column and the second collapsed to a single code.
TEST(EncodedTableTest, NanCellsGetOneCodeDistinctFromNumbers) {
  EncodedTable first =
      EncodedTable::Encode(NumericColumn({"1", "nan", "2", "nan", "1"}));
  EXPECT_EQ(first.column_codes(0), (std::vector<int32_t>{0, 1, 2, 1, 0}));
  EXPECT_EQ(first.Cardinality(0), 3u);
  EncodedTable second =
      EncodedTable::Encode(NumericColumn({"nan", "1", "nan", "2"}));
  EXPECT_EQ(second.column_codes(0), (std::vector<int32_t>{0, 1, 0, 2}));
  EXPECT_EQ(second.Cardinality(0), 3u);
}

TEST(EncodedTableTest, SignedZerosShareACode) {
  Table t{Schema({"x"})};
  t.AppendRow({Value(-0.0)});
  t.AppendRow({Value(int64_t{0})});
  t.AppendRow({Value(0.0)});
  EncodedTable e = EncodedTable::Encode(t);
  EXPECT_EQ(e.column_codes(0), (std::vector<int32_t>{0, 0, 0}));
}

TEST(EncodedTableTest, EmptyTable) {
  Table t{Schema({"x"})};
  EncodedTable e = EncodedTable::Encode(t);
  EXPECT_EQ(e.num_rows(), 0u);
  EXPECT_EQ(e.Cardinality(0), 0u);
}

}  // namespace
}  // namespace fdx
