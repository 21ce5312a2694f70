/* The thermal step of pbfopt.thermal, compiled on first use and loaded
 * through ctypes: one call advances a lockstep block of runs through the
 * steps [start, stop) of one chunk, the beam deposit included.
 *
 * A block's fields are float, one run's (z, x) cells after another, x
 * fastest and row 0 at the bottom; the runs are sorted by step count, so
 * those still stepping are a leading prefix.  Each cell takes the float
 * operations of the numpy step this replaces, in their order, so the bits
 * do not depend on the block or the build: faces across a wall carry no
 * flux, and nothing here is contracted into a fused multiply-add
 * (-ffp-contract=off).  The beam deposit is computed here, in double with
 * libm's erf, and cast to float per cell; none is stored.  Every helper is
 * static: glibc exports a legacy step() of its own.
 *
 * CLONES has GCC emit the step three times, for x86-64-v4 (AVX-512),
 * x86-64-v3 (AVX2) and the portable default, and glibc's loader picks one for
 * the CPU when the library is opened (an ifunc).  The row takes it too: it is
 * not inlined, and each clone of the step then calls its own clone of the row.
 * Only GCC 11 or later on an x86-64 ELF target with glibc does this; anywhere
 * else CLONES is empty and the one body is portable.  The bits do not depend
 * on the clone: float add, multiply and divide and the double deposit product
 * with its cast round the same at any vector width, nothing is reassociated or
 * fused, and every clone calls libm's scalar erf.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) && __GNUC__ >= 11 && !defined(__clang__) && defined(__x86_64__) \
    && defined(__ELF__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

/* One row of one run: its x faces into fx (nx + 1, zero walls), its up faces
 * into up (zero on the top row), the rate with the deposit gx * amp (or none)
 * and, on the top row, the radiation, then T += rate / (rho cp / dt) in place
 * and the peak.  down holds the row below's up faces, computed before that
 * row's update, so no later row reads this row's old T. */
CLONES
static void step_row(int64_t nx, int top, float *restrict t, float *restrict peak,
                     const float *restrict kap, float *restrict fx,
                     float *restrict up, const float *restrict down,
                     const double *restrict gx, double amp, float a0, float a1,
                     float a2, float wz, float kelvin, float tc4, float rad)
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
        if (gx)
            rate += (float)(gx[x] * amp);
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
 * coefficients as (3, runs), v and dt each run's speed and step, gz_amp its
 * beam amplitude per row from j0 as (runs, rows), corners the probe's four
 * cells within a run; each step's corner temperatures of every run go to
 * chunk as (step, 4, runs).  kap takes kappa' over the block, rows 3 nx + 1
 * floats of face buffers and gx nx + 1 doubles of the beam's row: a beam of
 * radius spot at b puts sqrt(pi / 8) (spot / dx) (erf(sqrt 2 (x1 - b) / spot)
 * - erf(sqrt 2 (x0 - b) / spot)) on the cell [x0, x1]. */
CLONES
void pbfopt_step_chunk(int64_t nx, int64_t nz, int64_t j0, int64_t runs, int64_t n,
                       int64_t start, int64_t stop, const int64_t *n_steps,
                       float *T, float *peak, float *kap, float *rows,
                       const float *heat, const double *v, const double *dt,
                       const double *gz_amp, double *gx,
                       const int64_t *corners, float *chunk,
                       float c0, float c1, float c2, float wz,
                       float kelvin, float tc4, float rad, double dx, double spot)
{
    const int64_t cells = nx * nz, beam = nz - j0;
    const double gain = sqrt(3.14159265358979323846 / 8.0) * (spot / dx);
    float *fx = rows, *up = rows + nx + 1, *down = up + nx;
    fx[0] = fx[nx] = 0.0f;
    for (int64_t step = start; step < stop; step++) {
        while (n_steps[n - 1] < step)
            n--;
        for (int64_t k = 0; k < n * cells; k++)
            kap[k] = (c2 * T[k] + c1) * T[k] + c0;
        for (int64_t r = 0; r < n; r++) {
            double b = v[r] * ((double)(step - 1) * dt[r]);
            for (int64_t e = 0; e <= nx; e++)
                gx[e] = erf((sqrt(2.0) * ((double)e * dx - b)) / spot);
            for (int64_t x = 0; x < nx; x++)
                gx[x] = gain * (gx[x + 1] - gx[x]);
            float *below = down, *above = up;
            memset(below, 0, (size_t)nx * sizeof *below);
            for (int64_t j = 0; j < nz; j++) {
                int64_t at = r * cells + j * nx;
                int lit = j >= j0;
                step_row(nx, j == nz - 1, T + at, peak + at, kap + at, fx, above, below,
                         lit ? gx : NULL, lit ? gz_amp[r * beam + j - j0] : 0.0,
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
