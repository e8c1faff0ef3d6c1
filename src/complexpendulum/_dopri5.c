/* Compiled Dormand-Prince 5(4) loop for the four built-in models.
 *
 * This is integrator._dopri's accept/reject/PI/landing loop written out
 * in C.  It must give the Python loop's results bit for bit, so every
 * expression mirrors the arithmetic CPython 3.11 performs on the Python
 * source, in the same order:
 *
 *   - a float times a complex is promoted to a full complex product,
 *     (a + 0j) * z = (a*zr - 0.0*zi, a*zi + 0.0*zr);
 *   - complex + float promotes the float: -grad + F = (-gr + F, -gi + 0.0);
 *   - cmath.sin(z) is sinh(-Im z + i Re z) rotated back, from libm's
 *     sin, cos, sinh and cosh as in CPython's cmath module;
 *   - Python's min/max are conditionals that keep the first argument on
 *     ties and on NaN, and ** is pow.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add or a reassociation changes the rounding.
 *
 * A step whose arithmetic could leave the plain finite path (a
 * non-finite stage argument, |Im x| past the point where cmath switches
 * formula, an overflowing sin, a non-finite new state or error) is not
 * taken: the run stops with DOPRI5_HAND_BACK and the state at the start
 * of that step, which the Python loop then redoes.
 */
#include <float.h>
#include <math.h>

enum { PENDULUM = 0, HARMONIC = 1, CUBIC_I = 2, DRIVEN_PENDULUM = 3 };

enum {
    DOPRI5_FULL = 0,       /* the row buffer is full; call again */
    DOPRI5_HORIZON = 1,
    DOPRI5_MAX_STEPS = 2,
    DOPRI5_STEP_UNDERFLOW = 3,
    DOPRI5_HAND_BACK = 4,  /* redo the next step in the Python loop */
};

typedef struct { double re, im; } cplx;

/* Read-only settings of one run. */
typedef struct {
    int kind;
    double gr, gi;          /* pendulum field strength g */
    double epsilon, omega;  /* drive eps * sin(omega * t) */
    const double *stops;    /* landing times; the last one ends the run */
    double t_end, direction;
    double rel_tol, abs_tol, max_step, min_step, max_steps;
} Run;

/* The loop's state between calls: the current point and the field there,
 * the controller's memory and the index of the next stop. */
typedef struct {
    double t;
    cplx x, p, kx, kp;
    double h_mag, facold, accepted;
    long i;
    int status;
} State;

/* CPython's CM_LOG_LARGE_DOUBLE: past it cmath's sinh uses another formula */
#define LOG_LARGE_DOUBLE (log(DBL_MAX / 4.0))

static const double C2 = 1.0 / 5.0, C3 = 3.0 / 10.0, C4 = 4.0 / 5.0, C5 = 8.0 / 9.0;
static const double A21 = 1.0 / 5.0;
static const double A31 = 3.0 / 40.0, A32 = 9.0 / 40.0;
static const double A41 = 44.0 / 45.0, A42 = -56.0 / 15.0, A43 = 32.0 / 9.0;
static const double A51 = 19372.0 / 6561.0, A52 = -25360.0 / 2187.0, A53 = 64448.0 / 6561.0,
                    A54 = -212.0 / 729.0;
static const double A61 = 9017.0 / 3168.0, A62 = -355.0 / 33.0, A63 = 46732.0 / 5247.0,
                    A64 = 49.0 / 176.0, A65 = -5103.0 / 18656.0;
static const double B1 = 35.0 / 384.0, B3 = 500.0 / 1113.0, B4 = 125.0 / 192.0,
                    B5 = -2187.0 / 6784.0, B6 = 11.0 / 84.0;
static const double E1 = 71.0 / 57600.0, E3 = -71.0 / 16695.0, E4 = 71.0 / 1920.0,
                    E5 = -17253.0 / 339200.0, E6 = 22.0 / 525.0, E7 = -1.0 / 40.0;

static const double SAFE = 0.9, BETA = 0.04, EXPO1 = 0.2 - 0.75 * 0.04;
static const double FAC_SHRINK = 5.0, FAC_GROW = 10.0;

static inline cplx add(cplx a, cplx b)
{
    cplx r = {a.re + b.re, a.im + b.im};
    return r;
}

static inline cplx mul(cplx a, cplx b)
{
    cplx r = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    return r;
}

/* float * complex, promoted */
static inline cplx scale(double a, cplx z)
{
    cplx r = {a * z.re - 0.0 * z.im, a * z.im + 0.0 * z.re};
    return r;
}

static inline int is_finite(cplx z)
{
    return isfinite(z.re) && isfinite(z.im);
}

/* dp/dt at (t, x); returns 0 where CPython would take another path */
static int force(const Run *run, double t, cplx x, cplx *kp)
{
    cplx grad;
    double f = 0.0;
    if (!is_finite(x))
        return 0;
    switch (run->kind) {
    case HARMONIC:
        grad = x;
        break;
    case CUBIC_I: {
        cplx three_i = {0.0, 3.0};
        grad = mul(mul(three_i, x), x);
        break;
    }
    default: {
        /* g * cmath.sin(x), sin(x) = -i sinh(i x) */
        double sr = -x.im, si = x.re;
        cplx s, g = {run->gr, run->gi};
        if (fabs(sr) > LOG_LARGE_DOUBLE)
            return 0;
        s.re = cos(si) * sinh(sr);
        s.im = sin(si) * cosh(sr);
        if (isinf(s.re) || isinf(s.im))
            return 0;
        cplx sin_x = {s.im, -s.re};
        grad = mul(g, sin_x);
        if (run->kind == DRIVEN_PENDULUM) {
            double arg = run->omega * t;
            if (!isfinite(arg))
                return 0;
            f = run->epsilon * sin(arg);
        }
    }
    }
    kp->re = -grad.re + f;
    kp->im = -grad.im + 0.0;
    return 1;
}

/* one error-norm term: e / (abs_tol + rel_tol * max(|old|, |new|)) */
static inline double ratio(const Run *run, double e, double old, double new)
{
    double a = fabs(old), b = fabs(new);
    return e / (run->abs_tol + run->rel_tol * (b > a ? b : a));
}

/* Steps from st until the run stops or cap rows are written.  Row n holds
 * the accepted time in ts[n] and x, p, kx, kp in zs[n], zs[cap + n],
 * zs[2*cap + n] and zs[3*cap + n].  Returns the number of rows; the
 * reason for returning is left in st->status. */
int dopri5_steps(const Run *run, State *st, double *ts, cplx *zs, int cap)
{
    const double dir = run->direction;
    const double *stops = run->stops;
    cplx x = st->x, p = st->p, k1x = st->kx, k1p = st->kp;
    double t = st->t;
    int n = 0;

    while ((run->t_end - t) * dir > 0.0) {
        if (n == cap) {
            st->status = DOPRI5_FULL;
            goto out;
        }
        if (st->accepted >= run->max_steps) {
            st->status = DOPRI5_MAX_STEPS;
            goto out;
        }
        while ((stops[st->i] - t) * dir <= 0.0)
            st->i++;
        double h = dir * st->h_mag;
        double remaining = stops[st->i] - t;
        int landed = 0;
        if (fabs(remaining) <= st->h_mag) {
            h = remaining;
            landed = 1;
        } else if (fabs(remaining) < 2.0 * st->h_mag) {
            h = 0.5 * remaining;
        }

        cplx k2x, k2p, k3x, k3p, k4x, k4p, k5x, k5p, k6x, k6p, k7x, k7p, xs;
        k2x = add(p, scale(h, scale(A21, k1p)));
        xs = add(x, scale(h, scale(A21, k1x)));
        if (!is_finite(k2x) || !force(run, t + C2 * h, xs, &k2p))
            goto hand_back;
        k3x = add(p, scale(h, add(scale(A31, k1p), scale(A32, k2p))));
        xs = add(x, scale(h, add(scale(A31, k1x), scale(A32, k2x))));
        if (!is_finite(k3x) || !force(run, t + C3 * h, xs, &k3p))
            goto hand_back;
        k4x = add(p, scale(h, add(add(scale(A41, k1p), scale(A42, k2p)), scale(A43, k3p))));
        xs = add(x, scale(h, add(add(scale(A41, k1x), scale(A42, k2x)), scale(A43, k3x))));
        if (!is_finite(k4x) || !force(run, t + C4 * h, xs, &k4p))
            goto hand_back;
        k5x = add(p, scale(h, add(add(add(scale(A51, k1p), scale(A52, k2p)), scale(A53, k3p)),
                                  scale(A54, k4p))));
        xs = add(x, scale(h, add(add(add(scale(A51, k1x), scale(A52, k2x)), scale(A53, k3x)),
                                 scale(A54, k4x))));
        if (!is_finite(k5x) || !force(run, t + C5 * h, xs, &k5p))
            goto hand_back;
        k6x = add(p, scale(h, add(add(add(add(scale(A61, k1p), scale(A62, k2p)), scale(A63, k3p)),
                                      scale(A64, k4p)),
                                  scale(A65, k5p))));
        xs = add(x, scale(h, add(add(add(add(scale(A61, k1x), scale(A62, k2x)), scale(A63, k3x)),
                                     scale(A64, k4x)),
                                 scale(A65, k5x))));
        if (!is_finite(k6x) || !force(run, t + h, xs, &k6p))
            goto hand_back;
        cplx x1 = add(x, scale(h, add(add(add(add(scale(B1, k1x), scale(B3, k3x)), scale(B4, k4x)),
                                          scale(B5, k5x)),
                                      scale(B6, k6x))));
        cplx p1 = add(p, scale(h, add(add(add(add(scale(B1, k1p), scale(B3, k3p)), scale(B4, k4p)),
                                          scale(B5, k5p)),
                                      scale(B6, k6p))));
        k7x = p1;
        if (!is_finite(x1) || !is_finite(p1) || !force(run, t + h, x1, &k7p))
            goto hand_back;
        cplx ex = scale(h, add(add(add(add(add(scale(E1, k1x), scale(E3, k3x)), scale(E4, k4x)),
                                       scale(E5, k5x)),
                                   scale(E6, k6x)),
                               scale(E7, k7x)));
        cplx ep = scale(h, add(add(add(add(add(scale(E1, k1p), scale(E3, k3p)), scale(E4, k4p)),
                                       scale(E5, k5p)),
                                   scale(E6, k6p)),
                               scale(E7, k7p)));
        if (!is_finite(ex) || !is_finite(ep))
            goto hand_back;
        double rxr = ratio(run, ex.re, x.re, x1.re);
        double rxi = ratio(run, ex.im, x.im, x1.im);
        double rpr = ratio(run, ep.re, p.re, p1.re);
        double rpi = ratio(run, ep.im, p.im, p1.im);
        double err = sqrt(0.25 * (rxr * rxr + rxi * rxi + rpr * rpr + rpi * rpi));
        if (!isfinite(err))
            goto hand_back;
        if (err > 1.0) {
            /* _reject_h: h / min(FAC_SHRINK, err**EXPO1 / SAFE) */
            double fac = pow(err, EXPO1) / SAFE;
            st->h_mag = fabs(h / (fac < FAC_SHRINK ? fac : FAC_SHRINK));
            if (st->h_mag < run->min_step) {
                st->status = DOPRI5_STEP_UNDERFLOW;
                goto out;
            }
            continue;
        }

        t = landed ? stops[st->i] : t + h;
        x = x1;
        p = p1;
        k1x = k7x;
        k1p = k7p;
        ts[n] = t;
        zs[n] = x;
        zs[cap + n] = p;
        zs[2 * cap + n] = k1x;
        zs[3 * cap + n] = k1p;
        n++;
        st->accepted += 1.0;

        /* _next_h, then facold = max(err, 1e-4) */
        double fac = err > 0.0 ? pow(err, EXPO1) / pow(st->facold, BETA) : 0.0;
        fac = fac / SAFE;
        fac = fac < FAC_SHRINK ? fac : FAC_SHRINK;
        fac = fac > 1.0 / FAC_GROW ? fac : 1.0 / FAC_GROW;
        double hnew = fabs(h / fac);
        st->facold = 1e-4 > err ? 1e-4 : err;
        if (!(landed || fabs(h) < st->h_mag)) {
            st->h_mag = run->max_step < hnew ? run->max_step : hnew;
            if (st->h_mag < run->min_step) {
                st->status = DOPRI5_STEP_UNDERFLOW;
                goto out;
            }
        }
    }
    st->status = DOPRI5_HORIZON;
    goto out;

hand_back:
    st->status = DOPRI5_HAND_BACK;
out:
    st->t = t;
    st->x = x;
    st->p = p;
    st->kx = k1x;
    st->kp = k1p;
    return n;
}
