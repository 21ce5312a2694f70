/* The thermal step of pbfopt.thermal, compiled on first use and loaded
 * through ctypes: one call advances a lockstep block of runs through the
 * steps [start, stop) of one deposit chunk.
 *
 * A block's fields are float, one run's (z, x) cells after another, x
 * fastest and row 0 at the bottom; the runs are sorted by step count, so
 * those still stepping are a leading prefix.  Each cell takes the float
 * operations of the numpy step this replaces, in their order, so the bits
 * do not depend on the block or the build: faces across a wall carry no
 * flux, and nothing here is contracted into a fused multiply-add
 * (-ffp-contract=off).  Every helper is static: glibc exports a legacy
 * step() of its own.
 */
#include <stdint.h>
#include <string.h>

/* One row of one run: its x faces into fx (nx + 1, zero walls), its up faces
 * into up (zero on the top row), the rate with the deposit dep (or none) and,
 * on the top row, the radiation, then T += rate / (rho cp / dt) in place and
 * the peak.  down holds the row below's up faces, computed before that row's
 * update, so no later row reads this row's old T. */
static void step_row(int64_t nx, int top, float *restrict t, float *restrict peak,
                     const float *restrict kap, float *restrict fx,
                     float *restrict up, const float *restrict down,
                     const float *restrict dep, float a0, float a1, float a2,
                     float wz, float kelvin, float tc4, float rad)
{
    for (int64_t x = 0; x + 1 < nx; x++)
        fx[x + 1] = (kap[x + 1] + kap[x]) * (t[x + 1] - t[x]);
    if (top)
        memset(up, 0, (size_t)nx * sizeof *up);
    else
        for (int64_t x = 0; x < nx; x++)
            up[x] = ((kap[x + nx] + kap[x]) * wz) * (t[x + nx] - t[x]);
    for (int64_t x = 0; x < nx; x++) {
        float rate = ((fx[x + 1] - fx[x]) + up[x]) - down[x];
        if (dep)
            rate += dep[x];
        if (top) {
            float s = t[x] + kelvin;
            s *= s;
            rate -= (s * s - tc4) * rad;
        }
        float T = t[x];
        float next = T + rate / ((a2 * T + a1) * T + a0);
        t[x] = next;
        /* nan-propagating, as numpy's maximum */
        peak[x] = (peak[x] >= next || peak[x] != peak[x]) ? peak[x] : next;
    }
}

/* Steps start to stop - 1 of a block of runs, n of them stepping at start:
 * n_steps holds each run's step count, heat the per-run rho cp / dt
 * coefficients as (3, runs), deposit the chunk's beam per (step, run, row
 * from j0, x), corners the probe's four cells within a run; each step's
 * corner temperatures of every run go to chunk as (step, 4, runs).  kap takes
 * kappa' over the block, rows 3 nx + 1 floats of face buffers. */
void pbfopt_step_chunk(int64_t nx, int64_t nz, int64_t j0, int64_t runs, int64_t n,
                       int64_t start, int64_t stop, const int64_t *n_steps,
                       float *T, float *peak, float *kap, float *rows,
                       const float *heat, const float *deposit,
                       const int64_t *corners, float *chunk,
                       float c0, float c1, float c2, float wz,
                       float kelvin, float tc4, float rad)
{
    const int64_t cells = nx * nz, beam = (nz - j0) * nx;
    float *fx = rows, *up = rows + nx + 1, *down = up + nx;
    fx[0] = fx[nx] = 0.0f;
    for (int64_t step = start; step < stop; step++) {
        while (n_steps[n - 1] < step)
            n--;
        const float *dep = deposit + (step - start) * runs * beam;
        for (int64_t k = 0; k < n * cells; k++)
            kap[k] = (c2 * T[k] + c1) * T[k] + c0;
        for (int64_t r = 0; r < n; r++) {
            float *below = down, *above = up;
            memset(below, 0, (size_t)nx * sizeof *below);
            for (int64_t j = 0; j < nz; j++) {
                int64_t at = r * cells + j * nx;
                step_row(nx, j == nz - 1, T + at, peak + at, kap + at, fx, above,
                         below, j >= j0 ? dep + r * beam + (j - j0) * nx : NULL,
                         heat[r], heat[runs + r], heat[2 * runs + r],
                         wz, kelvin, tc4, rad);
                float *swap = below;
                below = above;
                above = swap;
            }
        }
        float *probe = chunk + (step - start) * 4 * runs;
        for (int64_t c = 0; c < 4; c++)
            for (int64_t r = 0; r < runs; r++)
                probe[c * runs + r] = T[r * cells + corners[c]];
    }
}
