#include <gtest/gtest.h>

#include "datasets/real_world.h"
#include "fd/fd.h"

namespace fdx {
namespace {

struct DatasetSpec {
  const char* name;
  size_t rows;
  size_t columns;
  bool exact_rows;
};

// Without a printer gtest shows the raw bytes, including the address of
// `name`, which moves with every build and would rename the test cases.
void PrintTo(const DatasetSpec& spec, std::ostream* os) { *os << spec.name; }

class DatasetShapeTest : public ::testing::TestWithParam<DatasetSpec> {};

RealWorldDataset MakeByName(const std::string& name) {
  if (name == "Australian") return MakeAustralianDataset();
  if (name == "Hospital") return MakeHospitalDataset();
  if (name == "Mammographic") return MakeMammographicDataset();
  if (name == "NYPD") return MakeNypdDataset();
  if (name == "Thoracic") return MakeThoracicDataset();
  return MakeTicTacToeDataset();
}

TEST_P(DatasetShapeTest, MatchesPaperTable3) {
  const DatasetSpec& spec = GetParam();
  RealWorldDataset ds = MakeByName(spec.name);
  EXPECT_EQ(ds.name, spec.name);
  if (spec.exact_rows) {
    EXPECT_EQ(ds.table.num_rows(), spec.rows);
  } else {
    // Tic-Tac-Toe enumerates terminal boards; allow a small shortfall.
    EXPECT_GE(ds.table.num_rows(), spec.rows * 9 / 10);
    EXPECT_LE(ds.table.num_rows(), spec.rows);
  }
  EXPECT_EQ(ds.table.num_columns(), spec.columns);
  EXPECT_FALSE(ds.embedded_fds.empty());
}

INSTANTIATE_TEST_SUITE_P(
    PaperDatasets, DatasetShapeTest,
    ::testing::Values(DatasetSpec{"Australian", 690, 15, true},
                      DatasetSpec{"Hospital", 1000, 17, true},
                      DatasetSpec{"Mammographic", 830, 6, true},
                      DatasetSpec{"NYPD", 34382, 17, true},
                      DatasetSpec{"Thoracic", 470, 17, true},
                      DatasetSpec{"Tic-Tac-Toe", 958, 10, false}),
    [](const auto& info) {
      std::string name = info.param.name;
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(DatasetsTest, EmbeddedFdsApproximatelyHold) {
  for (const auto& maker :
       {MakeHospitalDataset, MakeMammographicDataset, MakeNypdDataset}) {
    RealWorldDataset ds = maker(101);
    EncodedTable encoded = EncodedTable::Encode(ds.table);
    for (const auto& fd : ds.embedded_fds) {
      EXPECT_LT(FdG3Error(encoded, fd), 0.08)
          << ds.name << ": " << fd.ToString(ds.table.schema());
    }
  }
}

TEST(DatasetsTest, HospitalHasMissingValuesAndSkewedState) {
  RealWorldDataset ds = MakeHospitalDataset();
  size_t nulls = 0;
  for (size_t c = 0; c < ds.table.num_columns(); ++c) {
    for (size_t r = 0; r < ds.table.num_rows(); ++r) {
      if (ds.table.cell(r, c).is_null()) ++nulls;
    }
  }
  EXPECT_GT(nulls, 100u);  // ~2% of 17k cells
  // The State column is ~89% one value (paper §5.4's explanation of why
  // FDX leaves State unconnected).
  const int state = ds.table.schema().Find("State");
  ASSERT_GE(state, 0);
  size_t al = 0, non_null = 0;
  for (size_t r = 0; r < ds.table.num_rows(); ++r) {
    const Value& v = ds.table.cell(r, static_cast<size_t>(state));
    if (v.is_null()) continue;
    ++non_null;
    if (v.ToString() == "AL") ++al;
  }
  const double fraction =
      static_cast<double>(al) / static_cast<double>(non_null);
  EXPECT_GT(fraction, 0.8);
  EXPECT_LT(fraction, 0.96);
}

TEST(DatasetsTest, TicTacToeClassIsFunctionOfBoard) {
  RealWorldDataset ds = MakeTicTacToeDataset();
  EncodedTable encoded = EncodedTable::Encode(ds.table);
  std::vector<size_t> board;
  for (size_t i = 0; i < 9; ++i) board.push_back(i);
  EXPECT_TRUE(FdHoldsExactly(encoded, FunctionalDependency(board, 9)));
  // But no single square determines the outcome.
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_FALSE(FdHoldsExactly(encoded, FunctionalDependency({i}, 9)));
  }
}

TEST(DatasetsTest, DeterministicForSeed) {
  RealWorldDataset a = MakeMammographicDataset(77);
  RealWorldDataset b = MakeMammographicDataset(77);
  ASSERT_EQ(a.table.num_rows(), b.table.num_rows());
  for (size_t r = 0; r < a.table.num_rows(); ++r) {
    for (size_t c = 0; c < a.table.num_columns(); ++c) {
      const Value& va = a.table.cell(r, c);
      const Value& vb = b.table.cell(r, c);
      EXPECT_EQ(va.is_null(), vb.is_null());
      if (!va.is_null()) {
        EXPECT_TRUE(va.EqualsStrict(vb));
      }
    }
  }
}

TEST(DatasetsTest, MakeAllReturnsSixInPaperOrder) {
  auto all = MakeAllRealWorldDatasets();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].name, "Australian");
  EXPECT_EQ(all[5].name, "Tic-Tac-Toe");
}

}  // namespace
}  // namespace fdx
