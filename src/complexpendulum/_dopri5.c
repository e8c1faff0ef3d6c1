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
 *
 * dopri5_advance runs one whole landing run of event polishing,
 * integrator._advance, from _initial_step on; a run it cannot finish as
 * Python would is redone whole in Python.
 *
 * energy_rows computes Trajectory's energy column the same way, and
 * stops at the first row it cannot mirror, which Python then computes.
 * quad_panel computes the node sums of one quadrature panel, and hands
 * the whole panel back to Python when one node cannot be mirrored.
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
 * the accepted state: t in ts[n], x in zs[n] and p in zs[cap + n].  The
 * field there stays in st for the next step.  Returns the number of rows;
 * the reason for returning is left in st->status. */
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

static inline cplx sub(cplx a, cplx b)
{
    cplx r = {a.re - b.re, a.im - b.im};
    return r;
}

/* integrator._scaled_norm: sqrt(0.25 * sum of (v / sc) ** 2), each square
 * as float_pow takes it, pow(|v / sc|, 2.0); 0 for a non-finite term or
 * result, and where ** would raise OverflowError */
static int scaled_norm(const Run *run, cplx x, cplx p, cplx xref, cplx pref, double *norm)
{
    const double v[4] = {x.re, x.im, p.re, p.im}, w[4] = {xref.re, xref.im, pref.re, pref.im};
    volatile double two = 2.0;  /* see energy_rows */
    double s = 0.0;
    for (int k = 0; k < 4; k++) {
        double q = fabs(v[k] / (run->abs_tol + run->rel_tol * fabs(w[k])));
        if (!isfinite(q))
            return 0;
        double square = pow(q, two);
        if (isinf(square))
            return 0;
        s += square;
    }
    *norm = sqrt(0.25 * s);
    return isfinite(*norm);
}

/* integrator._initial_step from (t, x, p) with field (k1x, k1p) there;
 * 0 where Python would raise or a value is not finite */
static int initial_step(const Run *run, double t, cplx x, cplx p, cplx k1x, cplx k1p, double *h_mag)
{
    const double dir = run->direction;
    volatile double fifth = 0.2;
    double d0, d1, d2, h1;
    cplx k2p;
    if (!scaled_norm(run, x, p, x, p, &d0) || !scaled_norm(run, k1x, k1p, x, p, &d1))
        return 0;
    double h0 = d0 < 1e-5 || d1 < 1e-5 ? 1e-6 : 0.01 * d0 / d1;
    h0 = run->max_step < h0 ? run->max_step : h0;
    cplx xe = add(x, scale(h0 * dir, k1x));
    cplx pe = add(p, scale(h0 * dir, k1p));
    /* the field there is (pe, k2p); h0 == 0 divides by zero in Python */
    if (h0 == 0.0 || !force(run, t + h0 * dir, xe, &k2p) ||
        !scaled_norm(run, sub(pe, k1x), sub(k2p, k1p), x, p, &d2))
        return 0;
    d2 = d2 / h0;
    double dm = d2 > d1 ? d2 : d1;
    if (dm <= 1e-15)
        h1 = h0 * 1e-3 > 1e-6 ? h0 * 1e-3 : 1e-6;
    else
        h1 = pow(0.01 / dm, fifth);
    double h = 100.0 * h0;
    h = h1 < h ? h1 : h;
    *h_mag = run->max_step < h ? run->max_step : h;
    return isfinite(*h_mag);
}

/* integrator._advance in one call: the event-free run from (t, x, p),
 * given in xp[0..3], landing exactly on t_target, from _initial_step to
 * the landing, with max_steps unbounded.  On success, xp[0..7] holds the
 * landed x and p and the field (kx, kp) there, and 1 is returned.  It
 * returns 0, and Python redoes the whole call, where the run cannot be
 * mirrored: a step handed back, a non-finite value, a ** that would
 * raise, or a run that does not land (Python raises there). */
int dopri5_advance(int kind, double gr, double gi, double epsilon, double omega, double t, double t_target,
                   double rel_tol, double abs_tol, double max_step, double min_step, double *xp)
{
    const double dir = t_target > t ? 1.0 : -1.0;
    const Run run = {kind, gr, gi, epsilon, omega, &t_target, t_target, dir,
                     rel_tol, abs_tol, max_step, min_step, INFINITY};
    const cplx x = {xp[0], xp[1]}, p = {xp[2], xp[3]};
    cplx kp;
    enum { ROWS = 64 };  /* the rows are not read: st holds the last one */
    double h_mag, ts[ROWS];
    cplx zs[2 * ROWS];
    if (!force(&run, t, x, &kp) || !initial_step(&run, t, x, p, p, kp, &h_mag))
        return 0;
    State st = {t, x, p, p, kp, h_mag, 1e-4, 0.0, 0, DOPRI5_FULL};
    do
        dopri5_steps(&run, &st, ts, zs, ROWS);
    while (st.status == DOPRI5_FULL);
    if (st.status != DOPRI5_HORIZON || st.t != t_target)
        return 0;
    /* the last step's k7 is the field at t + h, which only a driven
     * model tells from the field at t_target */
    if (kind == DRIVEN_PENDULUM && !force(&run, t_target, st.x, &st.kp))
        return 0;
    const cplx landed[4] = {st.x, st.p, st.kx, st.kp};
    for (int k = 0; k < 4; k++) {
        xp[2 * k] = landed[k].re;
        xp[2 * k + 1] = landed[k].im;
    }
    return 1;
}

/* V(x) as the model's potential computes it: -g * cmath.cos(x),
 * 0.5 * x * x or 1j * x * x * x, each product a full complex one, with
 * cmath.cos(x) = cosh(-Im x + i Re x).  neg_g is complex(-g), whose zero
 * imaginary part keeps the sign Python gives it.  Returns 0 where cmath
 * would take another path or raise. */
static int potential(int kind, cplx neg_g, cplx x, cplx *v)
{
    const cplx half = {0.5, 0.0}, i1 = {0.0, 1.0};
    if (!is_finite(x))
        return 0;
    switch (kind) {
    case HARMONIC:
        *v = mul(mul(half, x), x);
        return 1;
    case CUBIC_I:
        *v = mul(mul(mul(i1, x), x), x);
        return 1;
    default: {
        double cr = -x.im, ci = x.re;
        if (fabs(cr) > LOG_LARGE_DOUBLE)
            return 0;
        cplx c = {cos(ci) * cosh(cr), sin(ci) * sinh(cr)};
        if (isinf(c.re) || isinf(c.im))
            return 0;
        *v = mul(neg_g, c);
        return 1;
    }
    }
}

/* Trajectory's energy columns for rows 0..n-1 of x and p: v = V(x),
 * h = 0.5 * p * p + v and scale = 0.5 * abs(p) ** 2 + abs(v), the local
 * scale of energy_drift, with abs the libm hypot.  Returns the number of
 * rows filled, the rows before the first whose potential() is 0. */
long energy_rows(int kind, double ngr, double ngi, long n, const cplx *x, const cplx *p, cplx *v, cplx *h,
                 double *scale)
{
    const cplx neg_g = {ngr, ngi}, half = {0.5, 0.0};
    /* volatile: gcc folds pow(a, 2.0) into a * a, which rounds otherwise */
    volatile double two = 2.0;
    long k;
    for (k = 0; k < n; k++) {
        cplx vk;
        if (!potential(kind, neg_g, x[k], &vk))
            break;
        v[k] = vk;
        h[k] = add(mul(mul(half, p[k]), p[k]), vk);
        scale[k] = 0.5 * pow(hypot(p[k].re, p[k].im), two) + hypot(vk.re, vk.im);
    }
    return k;
}

/* Quadrature panels.  quad_panel evaluates quadrature._panel's two
 * Gauss-Legendre sums for the integrands of _branch_integral and
 * escape_time_real_form, node by node as Python does, with CPython's
 * cmath.sqrt, cmath.exp and complex division written out below. */

enum { BRANCH = 0, REAL_FORM = 1 };
enum { RAY = 0, EDGE = 1, CAP = 2 };

/* One integrand on one piece of a path (see quadrature._pieces). */
typedef struct {
    int integrand, kind, piece;
    cplx neg_g, energy;
    cplx c0, c1, c2;      /* the piece's constants, see piece_at */
    double phi0;          /* a cap's start angle */
    const double *nodes;  /* (xi, wi) of the 15 nodes, then of the 31 */
    const cplx *guide;    /* the branch guide, n_guide entries */
    long first, n_guide;  /* this piece's first entry, and the count */
    double s0, h;         /* the piece's start and guide cell width */
} Integrand;

/* cmath.exp(z) for finite z; 0 where cmath takes another path or raises */
static int py_exp(cplx z, cplx *r)
{
    if (!is_finite(z) || z.re > LOG_LARGE_DOUBLE)
        return 0;
    double l = exp(z.re);
    r->re = l * cos(z.im);
    r->im = l * sin(z.im);
    return !isinf(r->re) && !isinf(r->im);
}

/* cmath.sqrt(z); 0 for a non-finite z and where |Re z| and |Im z| are
 * both below DBL_MIN, which cmath rescales first */
static int py_sqrt(cplx z, cplx *r)
{
    double ax = fabs(z.re), ay = fabs(z.im);
    if (!is_finite(z) || (ax < DBL_MIN && ay < DBL_MIN))
        return 0;
    ax /= 8.0;
    double s = 2.0 * sqrt(ax + hypot(ax, ay / 8.0));
    double d = ay / (2.0 * s);
    if (z.re >= 0.0) {
        r->re = s;
        r->im = copysign(d, z.im);
    } else {
        r->re = d;
        r->im = copysign(s, z.im);
    }
    return 1;
}

/* a / b as CPython 3.11's _Py_c_quot, for a finite non-zero b */
static cplx quot(cplx a, cplx b)
{
    cplx r;
    if (fabs(b.re) >= fabs(b.im)) {
        double ratio = b.im / b.re;
        double denom = b.re + b.im * ratio;
        r.re = (a.re + a.im * ratio) / denom;
        r.im = (a.im - a.re * ratio) / denom;
    } else {
        double ratio = b.re / b.im;
        double denom = b.re * ratio + b.im;
        r.re = (a.re * ratio + a.im) / denom;
        r.im = (a.im * ratio - a.re) / denom;
    }
    return r;
}

/* z(s) and dz(s) of a piece, as its lambdas in _pieces compute them:
 *   ray   z0 + 1j * sgn * (u * u), 2.0j * sgn * u: c0 = z0, c1 = 1j * sgn,
 *         c2 = 2.0j * sgn;
 *   edge  start + d * s, d: c0 = start, c1 = d;
 *   cap   center + offset * u * e, 1j * math.pi * offset * u * e, with
 *         e = cmath.exp(1j * (phi0 + math.pi * s)): c0 = center,
 *         c1 = offset * u, c2 = 1j * math.pi * offset * u. */
static int piece_at(const Integrand *f, double s, cplx *z, cplx *dz)
{
    switch (f->piece) {
    case RAY:
        *z = add(f->c0, scale(s * s, f->c1));
        *dz = scale(s, f->c2);
        return 1;
    case EDGE:
        *z = add(f->c0, scale(s, f->c1));
        *dz = f->c1;
        return 1;
    default: {
        const cplx i1 = {0.0, 1.0};
        cplx e;
        if (!py_exp(scale(f->phi0 + M_PI * s, i1), &e))
            return 0;
        *z = add(f->c0, mul(f->c1, e));
        *dz = mul(f->c2, e);
        return 1;
    }
    }
}

/* The branch integrand at s: w = cmath.sqrt(2.0 * (E - V(z))), turned to
 * the root nearer its guide entry, then 1.0 / w * dz. */
static int branch_term(const Integrand *f, double s, cplx *out)
{
    const cplx one = {1.0, 0.0};
    cplx z, dz, v, r;
    if (!piece_at(f, s, &z, &dz) || !potential(f->kind, f->neg_g, z, &v) ||
        !py_sqrt(scale(2.0, sub(f->energy, v)), &r))
        return 0;
    /* guide[first + int((s - s0) / h)]; a negative index wraps in Python */
    double cell = (s - f->s0) / f->h;
    if (!(fabs(cell) < 1e15))
        return 0;
    long j = f->first + (long)cell;
    if (j < 0 || j >= f->n_guide)
        return 0;
    cplx ref = f->guide[j];
    double flipped = hypot(-r.re - ref.re, -r.im - ref.im), kept = hypot(r.re - ref.re, r.im - ref.im);
    if (!isfinite(flipped) || !isfinite(kept))
        return 0;
    if (flipped < kept) {
        r.re = -r.re;
        r.im = -r.im;
    }
    *out = mul(quot(one, r), dz);
    return is_finite(*out);
}

/* The real-form integrand at u: 2.0 * u / math.sqrt(q.real) with
 * q = 2.0 * (V(z) - E); 0 where Python raises DomainError or overflows. */
static int real_form_term(const Integrand *f, double u, double *out)
{
    cplx z, dz, v;
    if (!piece_at(f, u, &z, &dz) || !potential(f->kind, f->neg_g, z, &v))
        return 0;
    cplx q = scale(2.0, sub(v, f->energy));
    double size = hypot(q.re, q.im);
    if (!isfinite(size) || fabs(q.im) > 1e-9 * (1.0 + size) || !(q.re > 0.0))
        return 0;
    *out = 2.0 * u / sqrt(q.re);
    return isfinite(*out);
}

/* sums[0..1] and sums[2..3]: the 15- and 31-node sums of wi * f(mid +
 * half * xi) over [a, b], each from 0j in node order.  Returns 0 when a
 * node's value cannot be mirrored; Python then computes the panel. */
int quad_panel(const Integrand *f, double a, double b, double *sums)
{
    double half = 0.5 * (b - a), mid = 0.5 * (a + b);
    for (int rule = 0; rule < 2; rule++) {
        const double *node = f->nodes + (rule ? 30 : 0);
        int count = rule ? 31 : 15;
        cplx acc = {0.0, 0.0};
        for (int k = 0; k < count; k++) {
            double s = mid + half * node[2 * k], wi = node[2 * k + 1];
            if (f->integrand == REAL_FORM) {
                /* float terms: complex + float adds 0.0 to the imaginary part */
                double term;
                if (!real_form_term(f, s, &term))
                    return 0;
                acc.re = acc.re + wi * term;
                acc.im = acc.im + 0.0;
            } else {
                cplx term;
                if (!branch_term(f, s, &term))
                    return 0;
                acc = add(acc, scale(wi, term));
            }
        }
        sums[2 * rule] = acc.re;
        sums[2 * rule + 1] = acc.im;
    }
    return 1;
}
