/* Compiled pair-counting kernel for the DBSCOUT engines.
 *
 * Every function reproduces the repository's exact float contract
 * (see repro/core/kernels/base.py): squared distances accumulate one
 * dimension at a time in order --
 *
 *     acc = 0.0;
 *     for (dim = 0; dim < n_dims; dim++) {
 *         delta = p[dim] - q[dim];
 *         acc += delta * delta;       // round mul, then round add
 *     }
 *
 * -- and a candidate is a neighbor iff acc <= eps_sq.  The build MUST
 * disable FP contraction (-ffp-contract=off) so no compiler fuses the
 * multiply-add into an FMA with a different rounding; repro's
 * c_kernel.py passes the flag and the parity test suite enforces
 * bit-identity against the NumPy kernel.  Counts are exact integers,
 * so results are independent of batching or vectorization across
 * pairs (each pair's own op sequence is fixed by the dependency
 * chain above, which compilers cannot legally reassociate without
 * -ffast-math).
 */

#include <stdint.h>

/* Count, for each member point of each cell segment, the candidates
 * within sqrt(eps_sq).  Layout matches the NumPy kernel: members and
 * cands are flat cell-segmented index arrays into the (n, d) points
 * matrix; m_sizes / c_sizes give the per-cell segment lengths.
 * counts_out is aligned with members.  Returns the total number of
 * pairs tested (the distance_computations counter delta). */
int64_t repro_segmented_pair_counts(
    const double *points,
    int64_t n_dims,
    const int64_t *members,
    const int64_t *m_sizes,
    const int64_t *cands,
    const int64_t *c_sizes,
    int64_t n_cells,
    double eps_sq,
    int64_t *counts_out)
{
    int64_t total_pairs = 0;
    const int64_t *cell_members = members;
    const int64_t *cell_cands = cands;
    int64_t *out = counts_out;
    int64_t cell;
    for (cell = 0; cell < n_cells; cell++) {
        const int64_t m = m_sizes[cell];
        const int64_t c = c_sizes[cell];
        int64_t i;
        for (i = 0; i < m; i++) {
            const double *p = points + cell_members[i] * n_dims;
            int64_t count = 0;
            int64_t j;
            for (j = 0; j < c; j++) {
                const double *q = points + cell_cands[j] * n_dims;
                double acc = 0.0;
                int64_t dim;
                for (dim = 0; dim < n_dims; dim++) {
                    const double delta = p[dim] - q[dim];
                    acc += delta * delta;
                }
                if (acc <= eps_sq) {
                    count++;
                }
            }
            out[i] = count;
        }
        total_pairs += m * c;
        cell_members += m;
        cell_cands += c;
        out += m;
    }
    return total_pairs;
}

/* Scalar squared distance; the distributed engine's record-at-a-time
 * SparkLite tasks call this through Kernel.sq_dist. */
double repro_sq_dist(const double *p, const double *q, int64_t n_dims)
{
    double acc = 0.0;
    int64_t dim;
    for (dim = 0; dim < n_dims; dim++) {
        const double delta = p[dim] - q[dim];
        acc += delta * delta;
    }
    return acc;
}
