#include "sparse/csr_matrix.h"

#include <cmath>

#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "util/rng.h"

namespace layergcn::sparse {
namespace {

CooMatrix SmallCoo() {
  // 3x4:
  //   [1 0 2 0]
  //   [0 0 0 3]
  //   [4 5 0 0]
  CooMatrix coo;
  coo.rows = 3;
  coo.cols = 4;
  coo.entries = {{0, 0, 1}, {0, 2, 2}, {1, 3, 3}, {2, 0, 4}, {2, 1, 5}};
  return coo;
}

TEST(CsrTest, FromCooBasicLayout) {
  CsrMatrix m = CsrMatrix::FromCoo(SmallCoo());
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 5);
  EXPECT_EQ(m.RowNnz(0), 2);
  EXPECT_EQ(m.RowNnz(1), 1);
  EXPECT_EQ(m.RowNnz(2), 2);
  EXPECT_EQ(m.At(0, 0), 1.f);
  EXPECT_EQ(m.At(0, 1), 0.f);
  EXPECT_EQ(m.At(0, 2), 2.f);
  EXPECT_EQ(m.At(1, 3), 3.f);
  EXPECT_EQ(m.At(2, 1), 5.f);
}

TEST(CsrTest, FromCooUnorderedEntries) {
  CooMatrix coo = SmallCoo();
  std::swap(coo.entries[0], coo.entries[4]);
  std::swap(coo.entries[1], coo.entries[3]);
  CsrMatrix m = CsrMatrix::FromCoo(coo);
  EXPECT_EQ(m.At(2, 1), 5.f);
  EXPECT_EQ(m.At(0, 2), 2.f);
}

TEST(CsrTest, FromCooCoalescesDuplicates) {
  CooMatrix coo;
  coo.rows = 2;
  coo.cols = 2;
  coo.entries = {{0, 1, 1.f}, {0, 1, 2.f}, {1, 0, 3.f}};
  CsrMatrix m = CsrMatrix::FromCoo(coo);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_EQ(m.At(0, 1), 3.f);
}

TEST(CsrTest, EmptyMatrix) {
  CooMatrix coo;
  coo.rows = 3;
  coo.cols = 3;
  CsrMatrix m = CsrMatrix::FromCoo(coo);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_EQ(m.At(1, 1), 0.f);
  tensor::Matrix x(3, 2, 1.f);
  EXPECT_TRUE(m.Multiply(x).Equals(tensor::Matrix(3, 2)));
}

TEST(CsrTest, MultiplyMatchesDenseReference) {
  CsrMatrix m = CsrMatrix::FromCoo(SmallCoo());
  tensor::Matrix x = tensor::Matrix::FromRows(
      {{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  tensor::Matrix y = m.Multiply(x);
  // Dense: row0 = 1*[1,2] + 2*[5,6] = [11,14]; row1 = 3*[7,8] = [21,24];
  // row2 = 4*[1,2] + 5*[3,4] = [19,28].
  EXPECT_TRUE(
      y.Equals(tensor::Matrix::FromRows({{11, 14}, {21, 24}, {19, 28}})));
}

TEST(CsrTest, MultiplyRandomAgainstDense) {
  util::Rng rng(99);
  CooMatrix coo;
  coo.rows = 40;
  coo.cols = 30;
  for (int k = 0; k < 200; ++k) {
    coo.entries.push_back({rng.NextInt(0, 40), rng.NextInt(0, 30),
                           static_cast<float>(rng.NextGaussian())});
  }
  CsrMatrix m = CsrMatrix::FromCoo(coo);
  tensor::Matrix x(30, 8);
  x.UniformInit(&rng, -1.f, 1.f);
  tensor::Matrix got = m.Multiply(x);
  // Dense reference.
  tensor::Matrix dense(40, 30);
  for (const auto& e : coo.entries) dense(e.row, e.col) += e.value;
  tensor::Matrix want = tensor::MatMul(dense, x);
  EXPECT_TRUE(got.AllClose(want, 1e-4f));
}

// Above the serial cutoff (nnz * cols >= 131072) the product runs one
// block per nnz-balanced row range, one range per pool worker. How many
// ranges there are must not change a bit.
TEST(CsrTest, MultiplyBitIdenticalAcrossPoolWidths) {
  util::Rng rng(101);
  CooMatrix coo;
  coo.rows = 3001;
  coo.cols = 2000;
  for (int k = 0; k < 40000; ++k) {
    // A quarter of the entries crowd into the first 40 rows, so the
    // nnz-balanced ranges differ from row-count-balanced ones.
    const int32_t row = k % 4 == 0 ? rng.NextInt(0, 40) : rng.NextInt(0, 3001);
    coo.entries.push_back({row, rng.NextInt(0, 2000),
                           static_cast<float>(rng.NextGaussian())});
  }
  const CsrMatrix m = CsrMatrix::FromCoo(coo);
  tensor::Matrix x(coo.cols, 16);
  x.UniformInit(&rng, -1.f, 1.f);
  ASSERT_GE(m.nnz() * x.cols(), 131072);
  const auto outs =
      layergcn::testing::AtPoolWidths([&] { return m.Multiply(x); });
  for (size_t w = 1; w < outs.size(); ++w) {
    EXPECT_TRUE(layergcn::testing::SameBits(outs[w], outs[0])) << w;
  }
}

// Multiply keeps 32-column panels of an output row in registers and runs
// the leftover columns in the row itself; every element must still sum
// w·x in ascending nonzero order from +0. The widths cover a panel's
// remainders, and 6000 nonzeros put t >= 22 above the serial cutoff.
TEST(CsrTest, MultiplyMatchesScalarReferenceBitForBit) {
  util::Rng rng(103);
  CooMatrix coo;
  coo.rows = 601;  // row 600 stays empty
  coo.cols = 400;
  for (int k = 0; k < 6000; ++k) {
    coo.entries.push_back({rng.NextInt(0, 600), rng.NextInt(0, 400),
                           static_cast<float>(rng.NextGaussian())});
  }
  const CsrMatrix m = CsrMatrix::FromCoo(coo);
  for (int64_t t : {1, 17, 32, 33, 64, 100}) {
    const tensor::Matrix x =
        layergcn::testing::RandomMatrix(coo.cols, t, &rng);
    tensor::Matrix want(coo.rows, t);
    for (int64_t r = 0; r < m.rows(); ++r) {
      for (int64_t p = m.row_ptr()[r]; p < m.row_ptr()[r + 1]; ++p) {
        const float w = m.values()[static_cast<size_t>(p)];
        const int32_t col = m.col_idx()[static_cast<size_t>(p)];
        for (int64_t c = 0; c < t; ++c) want(r, c) += w * x(col, c);
      }
    }
    const auto outs =
        layergcn::testing::AtPoolWidths([&] { return m.Multiply(x); });
    for (size_t w = 0; w < outs.size(); ++w) {
      EXPECT_TRUE(layergcn::testing::SameBits(outs[w], want))
          << "t=" << t << " width index " << w;
    }
  }
}

TEST(CsrTest, TransposeCorrect) {
  CsrMatrix m = CsrMatrix::FromCoo(SmallCoo());
  CsrMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.nnz(), 5);
  EXPECT_EQ(t.At(0, 0), 1.f);
  EXPECT_EQ(t.At(0, 2), 4.f);
  EXPECT_EQ(t.At(1, 2), 5.f);
  EXPECT_EQ(t.At(3, 1), 3.f);
  EXPECT_EQ(t.At(2, 0), 2.f);
}

TEST(CsrTest, RowSums) {
  CsrMatrix m = CsrMatrix::FromCoo(SmallCoo());
  const auto sums = m.RowSums();
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
  EXPECT_DOUBLE_EQ(sums[1], 3.0);
  EXPECT_DOUBLE_EQ(sums[2], 9.0);
}

TEST(CsrTest, IsSymmetric) {
  CooMatrix coo;
  coo.rows = 3;
  coo.cols = 3;
  coo.entries = {{0, 1, 2.f}, {1, 0, 2.f}, {2, 2, 1.f}};
  EXPECT_TRUE(CsrMatrix::FromCoo(coo).IsSymmetric());
  coo.entries.push_back({0, 2, 1.f});
  EXPECT_FALSE(CsrMatrix::FromCoo(coo).IsSymmetric());
}

TEST(SymmetricNormalizeTest, BipartiteAdjacencyValues) {
  // Users {0,1}, items {2,3}: edges 0-2, 0-3, 1-2. Degrees: d0=2, d1=1,
  // d2=2, d3=1. Normalized entry (0,2) = 1/sqrt(2*2) = 0.5, (0,3) =
  // 1/sqrt(2*1), (1,2) = 1/sqrt(1*2).
  CooMatrix coo;
  coo.rows = 4;
  coo.cols = 4;
  auto add_sym = [&](int32_t a, int32_t b) {
    coo.entries.push_back({a, b, 1.f});
    coo.entries.push_back({b, a, 1.f});
  };
  add_sym(0, 2);
  add_sym(0, 3);
  add_sym(1, 2);
  CsrMatrix norm = SymmetricNormalize(coo);
  EXPECT_NEAR(norm.At(0, 2), 0.5f, 1e-6f);
  EXPECT_NEAR(norm.At(0, 3), 1.f / std::sqrt(2.f), 1e-6f);
  EXPECT_NEAR(norm.At(1, 2), 1.f / std::sqrt(2.f), 1e-6f);
  EXPECT_TRUE(norm.IsSymmetric(1e-6f));
}

TEST(SymmetricNormalizeTest, SpectralRadiusAtMostOne) {
  // Power iteration on Â must not blow up: ‖Âx‖ <= ‖x‖ for the normalized
  // adjacency of any graph (its eigenvalues lie in [-1, 1]).
  util::Rng rng(7);
  CooMatrix coo;
  coo.rows = 30;
  coo.cols = 30;
  for (int k = 0; k < 60; ++k) {
    const int32_t a = rng.NextInt(0, 15);
    const int32_t b = rng.NextInt(15, 30);
    coo.entries.push_back({a, b, 1.f});
    coo.entries.push_back({b, a, 1.f});
  }
  CsrMatrix norm = SymmetricNormalize(coo);
  tensor::Matrix x(30, 1);
  x.UniformInit(&rng, -1.f, 1.f);
  double prev = std::sqrt(tensor::SumSquares(x));
  for (int it = 0; it < 10; ++it) {
    x = norm.Multiply(x);
    const double cur = std::sqrt(tensor::SumSquares(x));
    EXPECT_LE(cur, prev * (1.0 + 1e-5));
    prev = cur;
  }
}

TEST(SymmetricNormalizeTest, IsolatedNodeRowsAreZero) {
  CooMatrix coo;
  coo.rows = 3;
  coo.cols = 3;
  coo.entries = {{0, 1, 1.f}, {1, 0, 1.f}};  // node 2 isolated
  CsrMatrix norm = SymmetricNormalize(coo);
  EXPECT_EQ(norm.RowNnz(2), 0);
  EXPECT_NEAR(norm.At(0, 1), 1.f, 1e-6f);
}

TEST(CsrDeathTest, OutOfRangeEntryAborts) {
  CooMatrix coo;
  coo.rows = 2;
  coo.cols = 2;
  coo.entries = {{0, 2, 1.f}};
  EXPECT_DEATH((void)CsrMatrix::FromCoo(coo), "out of");
}

}  // namespace
}  // namespace layergcn::sparse
