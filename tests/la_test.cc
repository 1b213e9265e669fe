// Unit and property tests for the linear-algebra substrate: dense matrices,
// sparse vectors, the Jacobi eigensolver, and the SVD engines behind LSI.

#include <gtest/gtest.h>

#include <cmath>

#include "la/matrix.h"
#include "la/sparse_vector.h"
#include "la/svd.h"
#include "util/rng.h"

namespace wikimatch {
namespace la {
namespace {

// ------------------------------------------------------------------ Matrix

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 1.5);
  m(0, 0) = -2.0;
  EXPECT_EQ(m(0, 0), -2.0);
}

TEST(MatrixTest, FromRowsAndIdentity) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m(1, 0), 3.0);
  Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id(0, 0), 1.0);
  EXPECT_EQ(id(0, 1), 0.0);
}

TEST(MatrixTest, Multiply) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.Multiply(b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyByIdentityIsNoop) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix c = a.Multiply(Matrix::Identity(3));
  EXPECT_EQ(c.MaxAbsDiff(a), 0.0);
}

TEST(MatrixTest, TransposedTwiceIsIdentity) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(a.Transposed().Transposed().MaxAbsDiff(a), 0.0);
  EXPECT_EQ(a.Transposed()(2, 1), 6.0);
}

TEST(MatrixTest, GramOfRowsSymmetric) {
  Matrix a = Matrix::FromRows({{1, 0, 2}, {0, 3, 1}});
  Matrix g = a.GramOfRows();
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_EQ(g(0, 0), 5.0);
  EXPECT_EQ(g(0, 1), 2.0);
  EXPECT_EQ(g(1, 0), g(0, 1));
}

TEST(MatrixTest, RowColFrobenius) {
  Matrix a = Matrix::FromRows({{3, 4}});
  EXPECT_EQ(a.Row(0), (std::vector<double>{3, 4}));
  EXPECT_EQ(a.Col(1), (std::vector<double>{4}));
  EXPECT_NEAR(a.FrobeniusNorm(), 5.0, 1e-12);
}

TEST(DenseVectorTest, DotNormCosine) {
  std::vector<double> a = {1, 0};
  std::vector<double> b = {0, 1};
  EXPECT_EQ(Dot(a, b), 0.0);
  EXPECT_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_NEAR(CosineSimilarity({1, 1}, {2, 2}), 1.0, 1e-12);
  EXPECT_EQ(CosineSimilarity({0, 0}, {1, 1}), 0.0);
}

// ------------------------------------------------------------ SparseVector

TEST(SparseVectorTest, AddGetNorm) {
  SparseVector v;
  EXPECT_TRUE(v.empty());
  v.Add(3, 2.0);
  v.Add(3, 1.0);
  v.Set(7, 4.0);
  EXPECT_EQ(v.Get(3), 3.0);
  EXPECT_EQ(v.Get(99), 0.0);
  EXPECT_EQ(v.NumNonZero(), 2u);
  EXPECT_NEAR(v.Norm(), 5.0, 1e-12);
  EXPECT_EQ(v.Sum(), 7.0);
}

TEST(SparseVectorTest, DotAndCosine) {
  SparseVector a;
  a.Set(1, 1.0);
  a.Set(2, 2.0);
  SparseVector b;
  b.Set(2, 3.0);
  b.Set(9, 5.0);
  EXPECT_EQ(a.Dot(b), 6.0);
  EXPECT_NEAR(a.Cosine(a), 1.0, 1e-12);
  SparseVector zero;
  EXPECT_EQ(a.Cosine(zero), 0.0);
}

TEST(SparseVectorTest, NormalizedHasUnitNorm) {
  SparseVector v;
  v.Set(0, 3.0);
  v.Set(5, 4.0);
  EXPECT_NEAR(v.Normalized().Norm(), 1.0, 1e-12);
  EXPECT_TRUE(SparseVector().Normalized().empty());
}

TEST(TermDictionaryTest, InternsAndLooksUp) {
  TermDictionary dict;
  uint32_t a = dict.GetOrAdd("alpha");
  uint32_t b = dict.GetOrAdd("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.GetOrAdd("alpha"), a);
  EXPECT_EQ(dict.Lookup("beta"), b);
  EXPECT_EQ(dict.Lookup("gamma"), TermDictionary::kNotFound);
  EXPECT_EQ(dict.TermOf(a), "alpha");
  EXPECT_EQ(dict.size(), 2u);
}

// ------------------------------------------------------------------- Eigen

TEST(JacobiEigenTest, DiagonalMatrix) {
  Matrix a = Matrix::FromRows({{3, 0}, {0, 1}});
  auto eig = JacobiEigenSymmetric(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
}

TEST(JacobiEigenTest, KnownSymmetric) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});
  auto eig = JacobiEigenSymmetric(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  double x = eig.vectors(0, 0);
  double y = eig.vectors(1, 0);
  EXPECT_NEAR(std::fabs(x), std::sqrt(0.5), 1e-8);
  EXPECT_NEAR(x, y, 1e-8);
}

// The eigensolver cannot fail on a square input, and its only callers pass
// a Gram matrix; a non-square one is a bug, so it aborts in every build.
TEST(JacobiEigenDeathTest, AbortsOnNonSquare) {
  Matrix a(2, 3);
  EXPECT_DEATH(JacobiEigenSymmetric(a), "matrix must be square, got 2x3");
}

TEST(JacobiEigenTest, ReconstructsMatrix) {
  util::Rng rng(5);
  const size_t n = 8;
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double v = rng.NextDouble() - 0.5;
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  auto eig = JacobiEigenSymmetric(a);
  // Rebuild V diag(lambda) V^T.
  Matrix vl(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < n; ++k) {
      vl(i, k) = eig.vectors(i, k) * eig.values[k];
    }
  }
  Matrix rebuilt = vl.Multiply(eig.vectors.Transposed());
  EXPECT_LT(rebuilt.MaxAbsDiff(a), 1e-8);
}

// --------------------------------------------------------------------- SVD

TEST(SvdTest, DiagonalSingularValues) {
  Matrix a = Matrix::FromRows({{3, 0, 0}, {0, 2, 0}});
  auto svd = ComputeSvd(a);
  ASSERT_EQ(svd.singular_values.size(), 2u);
  EXPECT_NEAR(svd.singular_values[0], 3.0, 1e-10);
  EXPECT_NEAR(svd.singular_values[1], 2.0, 1e-10);
}

TEST(SvdTest, ReconstructionTallAndWide) {
  util::Rng rng(17);
  for (auto [rows, cols] : {std::pair<size_t, size_t>{6, 15},
                            std::pair<size_t, size_t>{15, 6}}) {
    Matrix a(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) a(i, j) = rng.NextDouble();
    }
    auto svd = ComputeSvd(a);
    EXPECT_LT(svd.Reconstruct().MaxAbsDiff(a), 1e-7)
        << rows << "x" << cols;
  }
}

TEST(SvdTest, SingularValuesSortedNonNegative) {
  util::Rng rng(23);
  Matrix a(7, 20);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      a(i, j) = rng.NextBool(0.4) ? 1.0 : 0.0;
    }
  }
  auto svd = ComputeSvd(a);
  for (size_t k = 0; k < svd.singular_values.size(); ++k) {
    EXPECT_GE(svd.singular_values[k], 0.0);
    if (k > 0) {
      EXPECT_LE(svd.singular_values[k], svd.singular_values[k - 1]);
    }
  }
}

TEST(SvdTest, OrthonormalFactors) {
  util::Rng rng(29);
  Matrix a(5, 12);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.NextGaussian();
  }
  auto svd = ComputeSvd(a);
  Matrix utu = svd.u.Transposed().Multiply(svd.u);
  Matrix vtv = svd.v.Transposed().Multiply(svd.v);
  size_t k = svd.singular_values.size();
  EXPECT_LT(utu.MaxAbsDiff(Matrix::Identity(k)), 1e-7);
  EXPECT_LT(vtv.MaxAbsDiff(Matrix::Identity(k)), 1e-7);
}

TEST(SvdTest, RankDeficientMatrixDropsZeroSingularValues) {
  // Rank 1: every row a multiple of the first.
  Matrix a = Matrix::FromRows({{1, 2, 3}, {2, 4, 6}, {3, 6, 9}});
  auto svd = ComputeSvd(a);
  EXPECT_EQ(svd.singular_values.size(), 1u);
  EXPECT_LT(svd.Reconstruct().MaxAbsDiff(a), 1e-8);
}

TEST(SvdTest, EmptyAndZeroMatrices) {
  auto empty = ComputeSvd(Matrix());
  EXPECT_TRUE(empty.singular_values.empty());
  auto zero = ComputeSvd(Matrix(3, 4, 0.0));
  EXPECT_TRUE(zero.singular_values.empty());
}

TEST(TruncatedSvdTest, KeepsTopF) {
  util::Rng rng(31);
  Matrix a(8, 30);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      a(i, j) = rng.NextBool(0.3) ? 1.0 : 0.0;
    }
  }
  auto full = ComputeSvd(a);
  auto truncated = ComputeTruncatedSvd(a, 3);
  ASSERT_EQ(truncated.singular_values.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(truncated.singular_values[k], full.singular_values[k],
                1e-9);
  }
  // Truncation is the best rank-3 approximation; its error is bounded by
  // the dropped singular values.
  double err = truncated.Reconstruct().MaxAbsDiff(a);
  EXPECT_LT(err, full.singular_values[3] + 1e-9);
}

TEST(TruncatedSvdTest, FZeroOrLargeGivesFull) {
  Matrix a = Matrix::FromRows({{1, 0}, {0, 2}});
  auto t0 = ComputeTruncatedSvd(a, 0);
  auto t9 = ComputeTruncatedSvd(a, 9);
  EXPECT_EQ(t0.singular_values.size(), 2u);
  EXPECT_EQ(t9.singular_values.size(), 2u);
}

TEST(SvdResultTest, ScaledRowVector) {
  Matrix a = Matrix::FromRows({{2, 0}, {0, 5}});
  auto svd = ComputeSvd(a);
  auto row0 = svd.ScaledRowVector(0);
  // Row 0's representation has magnitude equal to its row norm (2).
  EXPECT_NEAR(Norm(row0), 2.0, 1e-9);
  EXPECT_NEAR(Norm(svd.ScaledRowVector(1)), 5.0, 1e-9);
}

// Property sweep: reconstruction across shapes.
class SvdShapeTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(SvdShapeTest, Reconstructs) {
  auto [rows, cols] = GetParam();
  util::Rng rng(rows * 131 + cols);
  Matrix a(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) a(i, j) = rng.NextDouble() - 0.3;
  }
  auto svd = ComputeSvd(a);
  EXPECT_LT(svd.Reconstruct().MaxAbsDiff(a), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeTest,
    ::testing::Values(std::make_pair<size_t, size_t>(1, 1),
                      std::make_pair<size_t, size_t>(1, 9),
                      std::make_pair<size_t, size_t>(9, 1),
                      std::make_pair<size_t, size_t>(4, 4),
                      std::make_pair<size_t, size_t>(10, 40),
                      std::make_pair<size_t, size_t>(40, 10)));

}  // namespace
}  // namespace la
}  // namespace wikimatch
