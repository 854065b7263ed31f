#include "tensor/ops.h"

#include <cmath>

#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"

namespace layergcn::tensor {
namespace {

Matrix Rand(int64_t r, int64_t c, uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.UniformInit(&rng, -2.f, 2.f);
  return m;
}

TEST(ElementwiseTest, AddSubScaleHadamard) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  EXPECT_TRUE(Add(a, b).Equals(Matrix::FromRows({{6, 8}, {10, 12}})));
  EXPECT_TRUE(Sub(b, a).Equals(Matrix::FromRows({{4, 4}, {4, 4}})));
  EXPECT_TRUE(Scale(a, 2.f).Equals(Matrix::FromRows({{2, 4}, {6, 8}})));
  EXPECT_TRUE(Hadamard(a, b).Equals(Matrix::FromRows({{5, 12}, {21, 32}})));
  EXPECT_TRUE(AddScalar(a, 1.f).Equals(Matrix::FromRows({{2, 3}, {4, 5}})));
  EXPECT_TRUE(Negate(a).Equals(Matrix::FromRows({{-1, -2}, {-3, -4}})));
}

TEST(ElementwiseTest, InPlaceVariants) {
  Matrix a = Matrix::FromRows({{1, 2}});
  AddInPlace(&a, Matrix::FromRows({{1, 1}}));
  EXPECT_TRUE(a.Equals(Matrix::FromRows({{2, 3}})));
  AxpyInPlace(&a, 2.f, Matrix::FromRows({{1, 0}}));
  EXPECT_TRUE(a.Equals(Matrix::FromRows({{4, 3}})));
  ScaleInPlace(&a, 0.5f);
  EXPECT_TRUE(a.Equals(Matrix::FromRows({{2, 1.5f}})));
  HadamardInPlace(&a, Matrix::FromRows({{2, 2}}));
  EXPECT_TRUE(a.Equals(Matrix::FromRows({{4, 3}})));
}

TEST(ElementwiseDeathTest, ShapeMismatchAborts) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_DEATH((void)Add(a, b), "shape mismatch");
}

TEST(MatMulTest, HandComputed) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  EXPECT_TRUE(MatMul(a, b).Equals(Matrix::FromRows({{19, 22}, {43, 50}})));
}

TEST(MatMulTest, AllTransposeLayoutsAgree) {
  // Reference: C = A·B with A 3x4, B 4x5.
  Matrix a = Rand(3, 4, 1);
  Matrix b = Rand(4, 5, 2);
  Matrix ref = MatMul(a, b, false, false);
  Matrix at = Transpose(a);
  Matrix bt = Transpose(b);
  EXPECT_TRUE(MatMul(at, b, true, false).AllClose(ref, 1e-5f));
  EXPECT_TRUE(MatMul(a, bt, false, true).AllClose(ref, 1e-5f));
  EXPECT_TRUE(MatMul(at, bt, true, true).AllClose(ref, 1e-5f));
}

// Above the parallel cutoff the output rows run as one block per pool
// worker. A block boundary that is not a multiple of the 4-row tile moves
// rows between full and edge tiles; neither may change a bit.
TEST(MatMulTest, BitIdenticalAcrossPoolWidths) {
  const Matrix a = Rand(203, 37, 11);
  const Matrix b = Rand(37, 71, 12);
  const Matrix bt = Transpose(b);
  ASSERT_GE(a.rows() * a.cols() * b.cols(), 1 << 18);  // kParallelFlops
  const auto plain =
      layergcn::testing::AtPoolWidths([&] { return MatMul(a, b); });
  const auto trans_b =
      layergcn::testing::AtPoolWidths([&] { return MatMul(a, bt, false, true); });
  for (size_t w = 1; w < plain.size(); ++w) {
    EXPECT_TRUE(layergcn::testing::SameBits(plain[w], plain[0])) << w;
    EXPECT_TRUE(layergcn::testing::SameBits(trans_b[w], trans_b[0])) << w;
  }
}

TEST(MatMulDeathTest, InnerDimMismatchAborts) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_DEATH((void)MatMul(a, b), "inner dimension");
}

TEST(TransposeTest, Involution) {
  Matrix a = Rand(4, 7, 3);
  EXPECT_TRUE(Transpose(Transpose(a)).Equals(a));
  Matrix t = Transpose(a);
  EXPECT_EQ(t.rows(), 7);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t(2, 3), a(3, 2));
}

TEST(GatherScatterTest, GatherRows) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix g = GatherRows(a, {2, 0, 2});
  EXPECT_TRUE(g.Equals(Matrix::FromRows({{5, 6}, {1, 2}, {5, 6}})));
}

TEST(GatherScatterTest, ScatterAddAccumulatesDuplicates) {
  Matrix dst(3, 2);
  Matrix src = Matrix::FromRows({{1, 1}, {2, 2}, {4, 4}});
  ScatterAddRows(&dst, {1, 1, 0}, src);
  EXPECT_TRUE(dst.Equals(Matrix::FromRows({{4, 4}, {3, 3}, {0, 0}})));
}

TEST(GatherScatterDeathTest, OutOfRangeRowAborts) {
  Matrix a(2, 2);
  EXPECT_DEATH((void)GatherRows(a, {2}), "row 2");
}

TEST(RowOpsTest, ScaleRows) {
  Matrix x = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix s = Matrix::FromRows({{2}, {-1}});
  EXPECT_TRUE(ScaleRows(x, s).Equals(Matrix::FromRows({{2, 4}, {-3, -4}})));
}

TEST(RowOpsTest, RowDotsAndNorms) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix d = RowDots(a, b);
  EXPECT_FLOAT_EQ(d(0, 0), 17.f);
  EXPECT_FLOAT_EQ(d(1, 0), 53.f);
  Matrix n = RowL2Norms(a);
  EXPECT_NEAR(n(0, 0), std::sqrt(5.f), 1e-6f);
  EXPECT_NEAR(n(1, 0), 5.f, 1e-6f);
}

TEST(RowOpsTest, RowwiseCosineBasics) {
  Matrix a = Matrix::FromRows({{1, 0}, {1, 1}, {2, 0}});
  Matrix b = Matrix::FromRows({{0, 1}, {1, 1}, {-1, 0}});
  Matrix c = RowwiseCosine(a, b, 1e-8f);
  EXPECT_NEAR(c(0, 0), 0.f, 1e-6f);   // orthogonal
  EXPECT_NEAR(c(1, 0), 1.f, 1e-6f);   // identical direction
  EXPECT_NEAR(c(2, 0), -1.f, 1e-6f);  // opposite
}

TEST(RowOpsTest, RowwiseCosineEpsGuardOnZeroVector) {
  Matrix a = Matrix::FromRows({{0, 0}});
  Matrix b = Matrix::FromRows({{1, 1}});
  Matrix c = RowwiseCosine(a, b, 1e-8f);
  EXPECT_EQ(c(0, 0), 0.f);  // 0/eps rather than NaN
  EXPECT_FALSE(std::isnan(c(0, 0)));
}

TEST(RowOpsTest, NormalizeRowsL2) {
  Matrix x = Matrix::FromRows({{3, 4}, {0, 0}});
  Matrix n = NormalizeRowsL2(x);
  EXPECT_NEAR(n(0, 0), 0.6f, 1e-6f);
  EXPECT_NEAR(n(0, 1), 0.8f, 1e-6f);
  EXPECT_EQ(n(1, 0), 0.f);  // zero row stays zero
}

TEST(RowOpsTest, RowColSumsAndAddRowVector) {
  Matrix x = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_TRUE(RowSums(x).Equals(Matrix::FromRows({{3}, {7}})));
  EXPECT_TRUE(ColSums(x).Equals(Matrix::FromRows({{4, 6}})));
  Matrix b = Matrix::FromRows({{10, 20}});
  EXPECT_TRUE(
      AddRowVector(x, b).Equals(Matrix::FromRows({{11, 22}, {13, 24}})));
}

TEST(ActivationTest, SigmoidValuesAndStability) {
  Matrix x = Matrix::FromRows({{0.f, 100.f, -100.f}});
  Matrix s = Sigmoid(x);
  EXPECT_NEAR(s(0, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(s(0, 1), 1.f, 1e-6f);
  EXPECT_NEAR(s(0, 2), 0.f, 1e-6f);
  EXPECT_FALSE(std::isnan(s(0, 1)));
  EXPECT_FALSE(std::isnan(s(0, 2)));
}

TEST(ActivationTest, SoftplusStableAndCorrect) {
  Matrix x = Matrix::FromRows({{0.f, 50.f, -50.f, 1.f}});
  Matrix s = Softplus(x);
  EXPECT_NEAR(s(0, 0), std::log(2.f), 1e-6f);
  EXPECT_NEAR(s(0, 1), 50.f, 1e-4f);          // ~x for large x
  EXPECT_NEAR(s(0, 2), 0.f, 1e-6f);           // ~0 for very negative
  EXPECT_NEAR(s(0, 3), std::log1p(std::exp(1.f)), 1e-6f);
}

TEST(ActivationTest, ReluAndLeaky) {
  Matrix x = Matrix::FromRows({{-2, 0, 3}});
  EXPECT_TRUE(Relu(x).Equals(Matrix::FromRows({{0, 0, 3}})));
  Matrix l = LeakyRelu(x, 0.1f);
  EXPECT_NEAR(l(0, 0), -0.2f, 1e-6f);
  EXPECT_EQ(l(0, 2), 3.f);
}

TEST(ActivationTest, ExpLogSqrtSquareTanh) {
  Matrix x = Matrix::FromRows({{1.f, 4.f}});
  EXPECT_NEAR(Exp(x)(0, 0), std::exp(1.f), 1e-5f);
  EXPECT_NEAR(Log(x)(0, 1), std::log(4.f), 1e-6f);
  EXPECT_NEAR(Sqrt(x)(0, 1), 2.f, 1e-6f);
  EXPECT_NEAR(Square(x)(0, 1), 16.f, 1e-6f);
  EXPECT_NEAR(Tanh(x)(0, 0), std::tanh(1.f), 1e-6f);
}

TEST(SoftmaxTest, RowsSumToOneAndStable) {
  Matrix x = Matrix::FromRows({{1000.f, 1000.f, 1000.f}, {0.f, 1.f, 2.f}});
  Matrix s = SoftmaxRows(x);
  for (int64_t r = 0; r < 2; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_FALSE(std::isnan(s(r, c)));
      sum += s(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  EXPECT_NEAR(s(0, 0), 1.f / 3.f, 1e-5f);
  EXPECT_GT(s(1, 2), s(1, 1));
}

TEST(SoftmaxTest, LogSoftmaxMatchesLogOfSoftmax) {
  Matrix x = Rand(3, 5, 11);
  Matrix ls = LogSoftmaxRows(x);
  Matrix s = SoftmaxRows(x);
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 5; ++c) {
      EXPECT_NEAR(ls(r, c), std::log(s(r, c)), 1e-5f);
    }
  }
}

TEST(ReductionTest, SumMeanMaxSumSquares) {
  Matrix x = Matrix::FromRows({{1, -2}, {3, 4}});
  EXPECT_DOUBLE_EQ(SumAll(x), 6.0);
  EXPECT_DOUBLE_EQ(MeanAll(x), 1.5);
  EXPECT_EQ(MaxAll(x), 4.f);
  EXPECT_DOUBLE_EQ(SumSquares(x), 1 + 4 + 9 + 16);
}

TEST(ConcatSliceTest, RoundTrip) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5}, {6}});
  Matrix c = ConcatCols({&a, &b});
  EXPECT_TRUE(c.Equals(Matrix::FromRows({{1, 2, 5}, {3, 4, 6}})));
  EXPECT_TRUE(SliceCols(c, 0, 2).Equals(a));
  EXPECT_TRUE(SliceCols(c, 2, 3).Equals(b));
  EXPECT_EQ(SliceCols(c, 1, 1).cols(), 0);
}

TEST(ConcatSliceDeathTest, RowMismatchAborts) {
  Matrix a(2, 1), b(3, 1);
  EXPECT_DEATH((void)ConcatCols({&a, &b}), "row mismatch");
}

// Property sweep: SpMM-sized GEMMs agree with a naive triple loop.
class MatMulPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatMulPropertyTest, MatchesNaiveReference) {
  const int n = GetParam();
  Matrix a = Rand(n, n + 1, static_cast<uint64_t>(n));
  Matrix b = Rand(n + 1, n + 2, static_cast<uint64_t>(n) + 100);
  Matrix got = MatMul(a, b);
  for (int64_t i = 0; i < got.rows(); ++i) {
    for (int64_t j = 0; j < got.cols(); ++j) {
      double acc = 0;
      for (int64_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      EXPECT_NEAR(got(i, j), acc, 1e-4) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatMulPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33));

}  // namespace
}  // namespace layergcn::tensor
