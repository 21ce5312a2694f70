/* The thermal step of pbfopt.thermal, compiled on first use and loaded
 * through ctypes: one call steps a block of runs, each from step 1 to its own
 * last step, the beam deposit and the probe trace included.
 *
 * A block's fields are float, one run's (z, x) cells after another, x
 * fastest and row 0 at the bottom.  A run's step makes flat passes over a
 * band of its rows at a time: kappa, the x faces (those across a row end then
 * set to zero), the z faces (a zero row padded below and above the run) and
 * the update, one loop for the rows the beam misses, one per row it
 * reaches below the top and one for the top row.  Each cell takes the float
 * operations of the numpy step this replaces, in their order, so the bits do
 * not depend on the block, the band or the build: faces across a wall carry
 * no flux, and nothing here is contracted into a fused multiply-add
 * (-ffp-contract=off).  The beam deposit is computed here, in double with
 * libm's erf, and cast to float per cell; none is stored.  After each step
 * the probe's four corners are blended in double, in thermal._bilinear's
 * order.  Nothing is allocated here: the caller passes one run's scratch, so
 * calls on other threads share nothing.
 *
 * CLONES has GCC emit the step three times, for x86-64-v4 (AVX-512),
 * x86-64-v3 (AVX2) and the portable default, and glibc's loader picks one for
 * the CPU when the library is opened (an ifunc).  The helpers are always
 * inlined, so each clone vectorizes its own copy of their loops.  Only GCC 11
 * or later on an x86-64 ELF target with glibc does this; anywhere else CLONES
 * is empty and the one body is portable.  The bits do not depend on the
 * clone: float add, multiply and divide and the double deposit product with
 * its cast round the same at any vector width, nothing is reassociated or
 * fused, and every clone calls libm's scalar erf.  Every helper is static:
 * glibc exports a legacy step() of its own.
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

#if defined(__GNUC__)
#define INLINE inline __attribute__((always_inline))
#else
#define INLINE inline
#endif

/* A run's step goes over bands of rows of at most BAND_CELLS cells, or of one
 * row: a band's five float arrays, 20 KiB, stay in a 32 KiB L1 data cache. */
#define BAND_CELLS 1024

/* The float constants of a step: kappa' = (c2 T + c1) T + c0, the z faces'
 * weight wz = dx^2 / dz^2 and the top row's radiation rad (T_K^4 - tc4) with
 * T_K = T + kelvin; and the run's rho cp / dt = (a2 T + a1) T + a0. */
struct coeffs {
    float c0, c1, c2, wz, kelvin, tc4, rad, a0, a1, a2;
};

/* Cells [0, m) of a run from its faces: x faces fx (fx[k] left of cell k),
 * z faces fz (fz[k] below cell k, fz[k + nx] above), the deposit gx[x] amp on
 * a row the beam reaches (gx not null) and the radiation on the top row (top),
 * then T += rate / (rho cp / dt) in place and the peak. */
static INLINE void update(int64_t m, int64_t nx, float *restrict t, float *restrict peak,
                          const float *restrict fx, const float *restrict fz,
                          const double *restrict gx, double amp, int top, struct coeffs c)
{
    for (int64_t k = 0; k < m; k++) {
        float rate = ((fx[k + 1] - fx[k]) + fz[k + nx]) - fz[k];
        if (gx)
            rate += (float)(gx[k] * amp);
        if (top) {
            float s = t[k] + c.kelvin;
            s *= s;
            rate -= (s * s - c.tc4) * c.rad;
        }
        float T = t[k];
        float next = T + rate / ((c.a2 * T + c.a1) * T + c.a0);
        t[k] = next;
        /* nan-propagating, as numpy's maximum */
        peak[k] = (peak[k] >= next || peak[k] != peak[k]) ? peak[k] : next;
    }
}

/* Rows [ja, jb) of a run's step, t its field and peak its peak: kappa' of the
 * rows and the row above, whose T is still old (the band below took row ja),
 * the x faces, those across a row end set to zero, the z faces above the rows
 * (those below row ja are the band below's, or the bottom wall's) and the
 * update, with the deposit gx amp[j - j0] on each row j from j0. */
static INLINE void step_band(int64_t nx, int64_t nz, int64_t j0, int64_t ja, int64_t jb,
                             float *restrict t, float *restrict peak, float *restrict kap,
                             float *restrict fx, float *restrict fz,
                             const double *restrict gx, const double *restrict amp,
                             struct coeffs c)
{
    for (int64_t k = (ja ? ja + 1 : 0) * nx; k < (jb < nz ? jb + 1 : nz) * nx; k++)
        kap[k] = (c.c2 * t[k] + c.c1) * t[k] + c.c0;
    for (int64_t k = ja * nx; k + 1 < jb * nx; k++)
        fx[k + 1] = (kap[k + 1] + kap[k]) * (t[k + 1] - t[k]);
    for (int64_t j = ja; j <= jb; j++)
        fx[j * nx] = 0.0f;
    for (int64_t k = ja * nx; k < (jb < nz ? jb : nz - 1) * nx; k++)
        fz[k + nx] = ((kap[k + nx] + kap[k]) * c.wz) * (t[k + nx] - t[k]);
    int64_t at = ja * nx;
    if (ja < j0)
        update((jb < j0 ? jb : j0) * nx - at, nx, t + at, peak + at, fx + at, fz + at,
               NULL, 0.0, 0, c);
    for (int64_t j = ja > j0 ? ja : j0; j < jb && j < nz - 1; j++) {
        at = j * nx;
        update(nx, nx, t + at, peak + at, fx + at, fz + at, gx, amp[j - j0], 0, c);
    }
    if (jb == nz) {
        at = (nz - 1) * nx;
        update(nx, nx, t + at, peak + at, fx + at, fz + at, gx, amp[nz - 1 - j0], 1, c);
    }
}

/* Steps each run r of a block from step 1 to its n_steps[r], or to its first
 * step with its probe outside [lo[r], hi], which goes to fail[r], zero on
 * entry; returns the run-steps taken.  heat holds the per-run rho cp / dt
 * coefficients as (3, runs), v and dt each run's speed and step, gz_amp its
 * beam amplitude per row from j0 as (runs, rows), which reach the top row, and
 * corners the probe's four cells within a run, x and z offsets 00, 01, 10, 11.
 * Each step's probe, the corners blended with weights px along x and pz along
 * z, goes to trace as (step, runs).  scratch takes one run's kappa', x faces
 * and z faces, 3 nx nz + nx + 1 floats, and gx nx + 1 doubles of the beam's
 * row: a beam of radius spot at b puts sqrt(pi / 8) (spot / dx) (erf(sqrt 2
 * (x1 - b) / spot) - erf(sqrt 2 (x0 - b) / spot)) on the cell [x0, x1]. */
CLONES
int64_t pbfopt_step_block(int64_t nx, int64_t nz, int64_t j0, int64_t runs,
                          const int64_t *n_steps, float *T, float *peak, float *scratch,
                          const float *heat, const double *v, const double *dt,
                          const double *gz_amp, double *gx, const int64_t *corners,
                          const double *lo, double *trace, int64_t *fail,
                          float c0, float c1, float c2, float wz, float kelvin, float tc4,
                          float rad, double dx, double spot, double px, double pz, double hi)
{
    const int64_t cells = nx * nz, beam = nz - j0;
    const int64_t band = BAND_CELLS / nx > 1 ? BAND_CELLS / nx : 1;
    const double gain = sqrt(3.14159265358979323846 / 8.0) * (spot / dx);
    const double qx = 1.0 - px, qz = 1.0 - pz;
    float *kap = scratch, *fx = kap + cells, *fz = fx + cells + 1;
    memset(fz, 0, (size_t)nx * sizeof *fz);
    memset(fz + cells, 0, (size_t)nx * sizeof *fz);
    int64_t taken = 0;
    for (int64_t r = 0; r < runs; r++) {
        float *t = T + r * cells, *pk = peak + r * cells;
        struct coeffs c = {c0, c1, c2, wz, kelvin, tc4, rad,
                           heat[r], heat[runs + r], heat[2 * runs + r]};
        int64_t step = 1;
        for (; step <= n_steps[r] && !fail[r]; step++) {
            double b = v[r] * ((double)(step - 1) * dt[r]);
            for (int64_t e = 0; e <= nx; e++)
                gx[e] = erf((sqrt(2.0) * ((double)e * dx - b)) / spot);
            for (int64_t x = 0; x < nx; x++)
                gx[x] = gain * (gx[x + 1] - gx[x]);
            for (int64_t ja = 0; ja < nz; ja += band)
                step_band(nx, nz, j0, ja, ja + band < nz ? ja + band : nz, t, pk, kap, fx,
                          fz, gx, gz_amp + r * beam, c);
            double probe = (double)t[corners[0]] * qx * qz + (double)t[corners[2]] * px * qz
                           + (double)t[corners[1]] * qx * pz + (double)t[corners[3]] * px * pz;
            trace[step * runs + r] = probe;
            if (!(lo[r] <= probe && probe <= hi))
                fail[r] = step;
        }
        taken += step - 1;
    }
    return taken;
}
