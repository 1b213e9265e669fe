// Singular value decomposition engines for LSI (Deerwester et al. 1990,
// applied to attribute/infobox occurrence matrices per Section 3.2 of the
// paper).
//
// Three routes, all deterministic:
//  * JacobiEigenSymmetric — cyclic Jacobi eigensolver for symmetric
//    matrices; the building block of the other two.
//  * ComputeSvd — exact thin SVD via the Gram matrix of the shorter side.
//    Occurrence matrices are short-and-wide (tens-to-hundreds of attributes
//    x thousands of dual infoboxes), so the Gram matrix is small.
//  * ComputeTruncatedSvd — rank-f truncation, keeping the f largest
//    singular triplets; this is LSI's dimensionality reduction.
//
// None of them can fail: every matrix has an SVD, and the one precondition
// (a square input to the eigensolver) is checked in every build.

#ifndef WIKIMATCH_LA_SVD_H_
#define WIKIMATCH_LA_SVD_H_

#include <cstddef>
#include <vector>

#include "la/matrix.h"

namespace wikimatch {
namespace la {

/// \brief Eigen-decomposition of a symmetric matrix.
struct EigenDecomposition {
  /// Eigenvalues, descending.
  std::vector<double> values;
  /// Column k of `vectors` is the eigenvector for values[k].
  Matrix vectors;
};

/// \brief Cyclic Jacobi eigensolver.
///
/// \param a square, symmetric matrix (symmetry is enforced by averaging);
///        a non-square one aborts with a message.
/// \param max_sweeps upper bound on full Jacobi sweeps.
/// \param tol convergence threshold on the off-diagonal Frobenius norm,
///        relative to the matrix norm.
EigenDecomposition JacobiEigenSymmetric(const Matrix& a, int max_sweeps = 64,
                                        double tol = 1e-12);

/// \brief Thin SVD A = U S V^T.
struct SvdResult {
  Matrix u;                           ///< rows(A) x k, orthonormal columns
  std::vector<double> singular_values;  ///< k values, descending, >= 0
  Matrix v;                           ///< cols(A) x k, orthonormal columns

  /// \brief Reconstructs U S V^T (for testing).
  Matrix Reconstruct() const;

  /// \brief Row i of U scaled by the singular values — the LSI "concept
  /// space" representation of row entity i when A is row-entity x document.
  std::vector<double> ScaledRowVector(size_t i) const;
};

/// \brief Exact thin SVD of an arbitrary dense matrix.
///
/// Internally eigen-decomposes the Gram matrix of the shorter dimension;
/// singular values below `rank_tol` times the largest are dropped.
SvdResult ComputeSvd(const Matrix& a, double rank_tol = 1e-7);

/// \brief Rank-f truncated SVD (the f largest triplets).
///
/// If `f` is zero or exceeds the numerical rank, the full thin SVD is
/// returned.
SvdResult ComputeTruncatedSvd(const Matrix& a, size_t f,
                              double rank_tol = 1e-7);

}  // namespace la
}  // namespace wikimatch

#endif  // WIKIMATCH_LA_SVD_H_
