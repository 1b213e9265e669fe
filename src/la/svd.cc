#include "la/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "util/logging.h"

namespace wikimatch {
namespace la {

namespace {

// Frobenius norm of the strictly-off-diagonal part.
double OffDiagonalNorm(const Matrix& a) {
  double s = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (i != j) s += a(i, j) * a(i, j);
    }
  }
  return std::sqrt(s);
}

}  // namespace

EigenDecomposition JacobiEigenSymmetric(const Matrix& a, int max_sweeps,
                                        double tol) {
  WIKIMATCH_CHECK(a.rows() == a.cols(),
                  "JacobiEigenSymmetric: matrix must be square, got " +
                      std::to_string(a.rows()) + "x" +
                      std::to_string(a.cols()));
  const size_t n = a.rows();
  if (n == 0) {
    return EigenDecomposition{{}, Matrix()};
  }
  // Work on a symmetrized copy to tolerate tiny asymmetries from upstream
  // floating-point accumulation.
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) m(i, j) = 0.5 * (a(i, j) + a(j, i));
  }
  Matrix v = Matrix::Identity(n);
  const double scale = std::max(m.FrobeniusNorm(), 1e-300);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (OffDiagonalNorm(m) <= tol * scale) break;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        double apq = m(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        double app = m(p, p);
        double aqq = m(q, q);
        // Classical Jacobi rotation.
        double theta = (aqq - app) / (2.0 * apq);
        double t = (theta >= 0.0 ? 1.0 : -1.0) /
                   (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        double c = 1.0 / std::sqrt(t * t + 1.0);
        double s = t * c;
        // Apply rotation to rows/cols p, q of m.
        for (size_t k = 0; k < n; ++k) {
          double mkp = m(k, p);
          double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (size_t k = 0; k < n; ++k) {
          double mpk = m(p, k);
          double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        // Accumulate eigenvectors.
        for (size_t k = 0; k < n; ++k) {
          double vkp = v(k, p);
          double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Extract and sort by descending eigenvalue.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = m(i, i);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return diag[x] > diag[y]; });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (size_t k = 0; k < n; ++k) {
    out.values[k] = diag[order[k]];
    for (size_t i = 0; i < n; ++i) out.vectors(i, k) = v(i, order[k]);
  }
  return out;
}

Matrix SvdResult::Reconstruct() const {
  const size_t k = singular_values.size();
  Matrix us(u.rows(), k);
  for (size_t i = 0; i < u.rows(); ++i) {
    for (size_t j = 0; j < k; ++j) us(i, j) = u(i, j) * singular_values[j];
  }
  return us.Multiply(v.Transposed());
}

std::vector<double> SvdResult::ScaledRowVector(size_t i) const {
  const size_t k = singular_values.size();
  std::vector<double> out(k);
  for (size_t j = 0; j < k; ++j) out[j] = u(i, j) * singular_values[j];
  return out;
}

SvdResult ComputeSvd(const Matrix& a, double rank_tol) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  if (m == 0 || n == 0) {
    return SvdResult{Matrix(m, 0), {}, Matrix(n, 0)};
  }
  const bool rows_short = m <= n;
  // Gram matrix over the shorter side.
  Matrix gram = rows_short ? a.GramOfRows() : a.Transposed().GramOfRows();
  EigenDecomposition eig = JacobiEigenSymmetric(gram);

  const size_t short_dim = rows_short ? m : n;
  double sigma_max = std::sqrt(std::max(eig.values.empty() ? 0.0 : eig.values[0], 0.0));
  // Count numerically significant singular values.
  size_t k = 0;
  for (size_t i = 0; i < short_dim; ++i) {
    double sigma = std::sqrt(std::max(eig.values[i], 0.0));
    if (sigma > rank_tol * std::max(sigma_max, 1e-300)) ++k;
  }
  if (k == 0) {
    return SvdResult{Matrix(m, 0), {}, Matrix(n, 0)};
  }

  SvdResult out;
  out.singular_values.resize(k);
  Matrix short_vecs(short_dim, k);
  for (size_t j = 0; j < k; ++j) {
    out.singular_values[j] = std::sqrt(std::max(eig.values[j], 0.0));
    for (size_t i = 0; i < short_dim; ++i) short_vecs(i, j) = eig.vectors(i, j);
  }

  // Recover the long-side factor: long = A^T * short * S^{-1} (or A * ...).
  if (rows_short) {
    out.u = short_vecs;                     // m x k
    Matrix at_u = a.Transposed().Multiply(short_vecs);  // n x k
    out.v = Matrix(n, k);
    for (size_t j = 0; j < k; ++j) {
      double inv = 1.0 / out.singular_values[j];
      for (size_t i = 0; i < n; ++i) out.v(i, j) = at_u(i, j) * inv;
    }
  } else {
    out.v = short_vecs;                     // n x k
    Matrix a_v = a.Multiply(short_vecs);    // m x k
    out.u = Matrix(m, k);
    for (size_t j = 0; j < k; ++j) {
      double inv = 1.0 / out.singular_values[j];
      for (size_t i = 0; i < m; ++i) out.u(i, j) = a_v(i, j) * inv;
    }
  }
  return out;
}

SvdResult ComputeTruncatedSvd(const Matrix& a, size_t f, double rank_tol) {
  SvdResult full = ComputeSvd(a, rank_tol);
  const size_t k = full.singular_values.size();
  if (f == 0 || f >= k) return full;

  SvdResult out;
  out.singular_values.assign(full.singular_values.begin(),
                             full.singular_values.begin() + static_cast<long>(f));
  out.u = Matrix(full.u.rows(), f);
  out.v = Matrix(full.v.rows(), f);
  for (size_t j = 0; j < f; ++j) {
    for (size_t i = 0; i < full.u.rows(); ++i) out.u(i, j) = full.u(i, j);
    for (size_t i = 0; i < full.v.rows(); ++i) out.v(i, j) = full.v(i, j);
  }
  return out;
}

}  // namespace la
}  // namespace wikimatch
