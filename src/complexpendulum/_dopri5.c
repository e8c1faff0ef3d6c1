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
 * dopri5_steps is the one stepping entry point.  It starts a run itself,
 * the field and _initial_step at its start included, and a call without
 * row buffers runs to the run's end keeping no rows: one landing run of
 * event polishing, integrator._advance, whose only stop is t_end.
 *
 * A main run of integrator.integrate watches each accepted row for the
 * run's events with integrate's tests in integrate's order: the overflow
 * guard, the escape radius, then the closure rule's dip of the squared
 * distance to the start against its running maximum.  Where one fires the
 * run stops there and is polished here, as integrator._locate_escape and
 * integrator.locate_return do it, each landing run a direct call of
 * dopri5_steps; a closure the acceptance test rejects runs on.  The last
 * two rows stay pending in the State, unwritten, because a closure cuts
 * the rows after its refined return, and an escape or a closure writes
 * its refined end as the run's last row: the rows written are the rows
 * kept.  A polish the kernel cannot mirror, or one the Python side asks
 * for, is left to Python: the run stops at the event's row, the last one
 * written, and can go on from there.  locate_return's ends (a g of 0 at a
 * sampled row) and its parabolic vertex (no sign change of g across the
 * dip) are Python-only: the kernel leaves such a return to Python.
 *
 * energy_rows computes Trajectory's energy columns, H and (where asked)
 * energy_drift's local scale, the same way, each row's V(x) a local, and
 * stops at the first row it cannot mirror, which Python then computes.
 *
 * quad_op runs one public entry point of turning or quadrature whole,
 * for the built-in models: turning_points' search (closed-form seeds,
 * turning._newton's polish, the window filter, the merge and the sort),
 * refine_root, and the escape and period integrals from their root
 * checks to the integral: the branch guide, built by the rule of
 * quadrature._guide, then every piece's adaptive refinement, each
 * panel's midpoint evaluated once for both rules.  cmath.acos, cmath.log,
 * cmath.exp and cmath.sqrt are written out as CPython computes them.  It
 * runs Python's success path only, and hands the whole operation back
 * wherever Python would raise, warn or take a path not mirrored here;
 * adaptive_quad over an empty interval, which no path here has, is
 * Python-only.
 * Its integrals' potential evaluations keep the last trig pair of Re x
 * and of Im x (see Trig): the same double in gives the same libm result
 * out, so reusing them is exact.
 *
 * Every entry point reads the model from one Model record, built by
 * _dopri5.model_params, and quad_op builds each path piece of its ray
 * and stadium as its one description in quadrature._pieces (see piece_at
 * and escape_op).  Every record the library reads (Model, Run, the
 * stops and quad_op's call record after its Model in one) arrives const,
 * packed by _dopri5.py, and it writes only into numpy arrays the caller
 * owns: State, the row buffers and out, and into the stack records of
 * its own landing runs.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { PENDULUM = 0, HARMONIC = 1, CUBIC_I = 2, DRIVEN_PENDULUM = 3 };

enum {
    DOPRI5_FULL = 0,       /* the row buffer is full; call again */
    DOPRI5_HORIZON = 1,
    DOPRI5_MAX_STEPS = 2,
    DOPRI5_STEP_UNDERFLOW = 3,
    DOPRI5_HAND_BACK = 4,  /* redo the next step in the Python loop */
    DOPRI5_OVERFLOW = 5,   /* the events that end a watched run */
    DOPRI5_ESCAPE = 6,
    DOPRI5_CLOSURE = 7,
    /* a flag: the last row written is an event left to Python, and the
     * other bits tell how the run goes on, DOPRI5_FULL to call again */
    DOPRI5_AT_EVENT = 8,
};

/* Run.watch: what a main run watches (none, 0, for a landing run) */
enum {
    WATCH_OVERFLOW = 1,
    WATCH_ESCAPE = 2,
    WATCH_CLOSURE = 4,
    WATCH_POLISH = 8,  /* escapes and closures are polished here */
};

typedef struct { double re, im; } cplx;

/* One model, as _dopri5.model_params describes it: its kind, the field
 * strength g and complex(-g), whose zero imaginary part keeps the sign
 * Python gives it, and the drive eps * sin(omega * t). */
typedef struct {
    int kind;
    cplx g, neg_g;
    double epsilon, omega;
} Model;

/* Read-only settings of one run: t_end is the last of its stops.  A
 * watched run also carries integrate's event settings, its start (t0, x0,
 * p0) and the (rel_tol, abs_tol, max_step, min_step) of its polishing. */
typedef struct {
    double t_end, direction;
    double rel_tol, abs_tol, max_step, min_step, max_steps;
    int watch;
    double guard, radius, closure_tol, min_period;
    double t0;
    cplx x0, p0;
    double polish[4];
} Run;

/* A row of a run, with d2, its squared distance to the start. */
typedef struct {
    double t;
    cplx x, p;
    double d2;
} Row;

/* The loop's state between calls, one numpy record (_dopri5._STATE): the
 * current point and dp/dt there (dx/dt is p itself), the controller's
 * memory and the index of the next stop.  h_mag == 0 marks a run not yet
 * started, whose kp and facold the kernel sets.  The watch's memory is
 * the running maximum of d2 and the last two rows, the newest last, of
 * which the newest `pending` are not yet written. */
typedef struct {
    double t;
    cplx x, p, kp;
    double h_mag, facold, accepted;
    long i;
    int status, pending;
    double dmax;
    Row rows[2];
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

/* V'(x) as the model's gradient computes it: x, 3j * x * x or, for the
 * pendulum kinds, g * cmath.sin(x) with sin(x) = -i sinh(i x); returns 0
 * where CPython would take another path.  Below the switch |sinh| and
 * |cosh| stay under DBL_MAX / 8, so the sine is finite and cmath raises no
 * OverflowError.  inline: force() is the
 * stepping loop's inner call, and with this out of line the loop ran
 * 10-15% slower (gcc 12, -O2). */
static inline int gradient(const Model *m, cplx x, cplx *grad)
{
    if (!is_finite(x))
        return 0;
    switch (m->kind) {
    case HARMONIC:
        *grad = x;
        return 1;
    case CUBIC_I: {
        const cplx three_i = {0.0, 3.0};
        *grad = mul(mul(three_i, x), x);
        return 1;
    }
    default: {
        double sr = -x.im, si = x.re;
        cplx s;
        if (fabs(sr) > LOG_LARGE_DOUBLE)
            return 0;
        s.re = cos(si) * sinh(sr);
        s.im = sin(si) * cosh(sr);
        cplx sin_x = {s.im, -s.re};
        *grad = mul(m->g, sin_x);
        return 1;
    }
    }
}

/* dp/dt at (t, x): -V'(x), plus the drive for the driven pendulum;
 * returns 0 where CPython would take another path */
static int force(const Model *m, double t, cplx x, cplx *kp)
{
    cplx grad;
    double f = 0.0;
    if (!gradient(m, x, &grad))
        return 0;
    if (m->kind == DRIVEN_PENDULUM) {
        double arg = m->omega * t;
        if (!isfinite(arg))
            return 0;
        f = m->epsilon * sin(arg);
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

/* integrator._initial_step from (t, x, p) with field (p, k1p) there; 0
 * where Python returns 0 or raises, or a value is not finite */
static double initial_step(const Model *model, const Run *run, double t, cplx x, cplx p, cplx k1p)
{
    const double dir = run->direction;
    volatile double fifth = 0.2;
    double d0, d1, d2, h1;
    cplx k2p;
    if (!scaled_norm(run, x, p, x, p, &d0) || !scaled_norm(run, p, k1p, x, p, &d1))
        return 0.0;
    double h0 = d0 < 1e-5 || d1 < 1e-5 ? 1e-6 : 0.01 * d0 / d1;
    h0 = run->max_step < h0 ? run->max_step : h0;
    cplx xe = add(x, scale(h0 * dir, p));
    cplx pe = add(p, scale(h0 * dir, k1p));
    /* the field there is (pe, k2p); Python returns 0 where h0 == 0 */
    if (h0 == 0.0 || !force(model, t + h0 * dir, xe, &k2p) ||
        !scaled_norm(run, sub(pe, p), sub(k2p, k1p), x, p, &d2))
        return 0.0;
    d2 = d2 / h0;
    double dm = d2 > d1 ? d2 : d1;
    if (dm <= 1e-15)
        h1 = h0 * 1e-3 > 1e-6 ? h0 * 1e-3 : 1e-6;
    else
        h1 = pow(0.01 / dm, fifth);
    double h = 100.0 * h0;
    h = h1 < h ? h1 : h;
    h = run->max_step < h ? run->max_step : h;
    return isfinite(h) ? h : 0.0;
}

int dopri5_steps(const Model *model, const Run *run, const double *stops, State *st, double *ts, cplx *zs, int cap);

/* integrator._advance from row to target under the run's polish record:
 * (x, p) at target from one rowless run, as _dopri5.land runs it (at the
 * row's own time, the row itself: a run that takes no step); 0 where that
 * run does not land, which Python then redoes. */
static int advance(const Model *model, const Run *run, const Row *row, double target, cplx *x, cplx *p)
{
    const Run landing = {.t_end = target, .direction = target > row->t ? 1.0 : -1.0, .rel_tol = run->polish[0],
                         .abs_tol = run->polish[1], .max_step = run->polish[2], .min_step = run->polish[3],
                         .max_steps = INFINITY};
    State s = {.t = row->t, .x = row->x, .p = row->p};
    dopri5_steps(model, &landing, NULL, &s, NULL, NULL, 0);
    *x = s.x;
    *p = s.p;
    return s.status == DOPRI5_HORIZON;
}

/* integrator._locate_escape: bisects the |Im x| = radius crossing in
 * (a->t, tb], then lands on it; end is the crossing.  0 where a landing
 * is not mirrored. */
static int locate_escape(const Model *model, const Run *run, const Row *a, double tb, Row *end)
{
    double lo = a->t, hi = tb;
    for (int k = 0; k < 80; k++) {
        double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi)
            break;
        if (!advance(model, run, a, mid, &end->x, &end->p))
            return 0;
        if (fabs(end->x.im) >= run->radius)
            hi = mid;
        else
            lo = mid;
    }
    end->t = hi;
    return advance(model, run, a, hi, &end->x, &end->p);
}

/* locate_return's g = <s - s0, f(s)>, with the field f = (p, kp) */
static double g_of(const Run *run, cplx x, cplx p, cplx kp)
{
    cplx dx = sub(x, run->x0), dp = sub(p, run->p0);
    return dx.re * p.re + dx.im * p.im + dp.re * kp.re + dp.im * kp.im;
}

/* locate_return's state_at: (x, p) and dp/dt at tau, landed from a or c,
 * whichever is nearer */
static int state_at(const Model *model, const Run *run, const Row *a, const Row *c, double tau, cplx *x, cplx *p,
                    cplx *kp)
{
    const Row *base = fabs(tau - a->t) <= fabs(tau - c->t) ? a : c;
    return advance(model, run, base, tau, x, p) && force(model, tau, *x, kp);
}

/* integrator.locate_return from the rows a and c around a sampled dip:
 * end is the refined return, dist its distance to the start over scale,
 * and aligned whether the flow there runs along the flow at the start.
 * Only a sign change of g from a to c is refined here, by Illinois false
 * position; a g of 0 at a or c and the parabolic vertex taken without a
 * sign change are left to Python.  0 where Python would raise, g does not
 * change sign or a landing is not mirrored. */
static int locate_return(const Model *model, const Run *run, const Row *a, const Row *c, double scale, Row *end,
                         double *dist, int *aligned)
{
    cplx ka, kc, kp, k0p;
    if (!force(model, a->t, a->x, &ka) || !force(model, c->t, c->x, &kc))
        return 0;
    double g_lo = g_of(run, a->x, a->p, ka), g_hi = g_of(run, c->x, c->p, kc);
    if (!((g_lo < 0.0 && g_hi > 0.0) || (g_lo > 0.0 && g_hi < 0.0)))
        return 0;
    double lo = a->t, g_a = g_lo, hi = c->t, g_b = g_hi, widest = 1.0;
    int side = 0;
    if (fabs(a->t) > widest)
        widest = fabs(a->t);
    if (fabs(c->t) > widest)
        widest = fabs(c->t);
    double t_res = 4.0 * DBL_EPSILON * widest;
    for (int k = 0; k < 60; k++) {
        if (fabs(hi - lo) <= t_res)
            break;
        double den = g_b - g_a;
        double mid = den == 0.0 ? 0.5 * (lo + hi) : (lo * g_b - hi * g_a) / den;
        if (!((hi < lo ? hi : lo) < mid && mid < (hi > lo ? hi : lo)))
            mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi)
            break;
        cplx xm, pm;
        if (!state_at(model, run, a, c, mid, &xm, &pm, &kp))
            return 0;
        double gm = g_of(run, xm, pm, kp);
        if (gm == 0.0) {
            lo = hi = mid;
            break;
        }
        if ((gm < 0.0) == (g_a < 0.0)) {
            lo = mid;
            g_a = gm;
            if (side == -1)
                g_b *= 0.5;
            side = -1;
        } else {
            hi = mid;
            g_b = gm;
            if (side == 1)
                g_a *= 0.5;
            side = 1;
        }
    }
    double t_star = 0.5 * (lo + hi);
    if (!state_at(model, run, a, c, t_star, &end->x, &end->p, &kp) || !force(model, run->t0, run->x0, &k0p))
        return 0;
    end->t = t_star;
    *aligned = end->p.re * run->p0.re + end->p.im * run->p0.im + kp.re * k0p.re + kp.im * k0p.im > 0.0;
    cplx dx = sub(end->x, run->x0), dp = sub(end->p, run->p0);
    *dist = sqrt(dx.re * dx.re + dx.im * dx.im + dp.re * dp.re + dp.im * dp.im) / scale;
    return 1;
}

static void put(const Row *row, double *ts, cplx *zs, int cap, int *n)
{
    ts[*n] = row->t;
    zs[*n] = row->x;
    zs[cap + *n] = row->p;
    ++*n;
}

/* writes the pending rows, oldest first */
static void flush(State *st, double *ts, cplx *zs, int cap, int *n)
{
    for (int k = 2 - st->pending; k < 2; k++)
        put(&st->rows[k], ts, zs, cap, n);
    st->pending = 0;
}

/* The accepted row of a main run: integrate's tests of it, in its order,
 * the overflow guard, the escape radius, then a dip at the row before it
 * (_is_dip against the running maximum of d2, min_period after the start),
 * and the event's polish.  Returns 0 where the run goes on, with the row
 * pending and the oldest pending row written once two are, else the
 * status the run stops with, its kept rows and refined end written. */
static int watch_row(const Model *model, const Run *run, State *st, Row *row, double *ts, cplx *zs, int cap, int *n)
{
    const Row *a = &st->rows[0], *b = &st->rows[1];
    const double guard = run->guard;
    double dmax = st->dmax;
    int event = 0;
    if (run->watch & WATCH_CLOSURE) {
        cplx dx = sub(row->x, run->x0), dp = sub(row->p, run->p0);
        row->d2 = dx.re * dx.re + dx.im * dx.im + dp.re * dp.re + dp.im * dp.im;
        dmax = fmax(dmax, row->d2);
    }
    if ((run->watch & WATCH_OVERFLOW) && (fabs(row->x.re) > guard || fabs(row->x.im) > guard ||
                                          fabs(row->p.re) > guard || fabs(row->p.im) > guard)) {
        flush(st, ts, zs, cap, n);
        put(row, ts, zs, cap, n);
        return DOPRI5_OVERFLOW;
    }
    if ((run->watch & WATCH_ESCAPE) && fabs(row->x.im) >= run->radius) {
        Row end;
        if ((run->watch & WATCH_POLISH) && locate_escape(model, run, b, row->t, &end)) {
            flush(st, ts, zs, cap, n);
            put(&end, ts, zs, cap, n);
            return DOPRI5_ESCAPE;
        }
        event = 1;
    } else if ((run->watch & WATCH_CLOSURE) && b->d2 < a->d2 && b->d2 <= row->d2 && b->d2 < 0.25 * dmax &&
               (b->t - run->t0) * run->direction >= run->min_period) {
        Row end;
        double dist = 0.0;
        int aligned = 0;
        /* a cut may drop either row before this one: both must be pending */
        event = !(run->watch & WATCH_POLISH) || st->pending != 2 ||
                !locate_return(model, run, a, row, sqrt(dmax), &end, &dist, &aligned);
        if (!event && dist <= run->closure_tol && aligned) {
            /* the rows before the refined return stay */
            int before = ((a->t - end.t) * run->direction < 0.0) + ((b->t - end.t) * run->direction < 0.0);
            for (int k = 0; k < before; k++)
                put(&st->rows[k], ts, zs, cap, n);
            put(&end, ts, zs, cap, n);
            st->pending = 0;
            return DOPRI5_CLOSURE;
        }
    }
    if (event)  /* left to Python: the rows up to this one are written */
        flush(st, ts, zs, cap, n);
    else if (st->pending == 2)
        put(a, ts, zs, cap, n);
    st->rows[0] = st->rows[1];
    st->rows[1] = *row;
    st->pending = event ? 0 : st->pending < 2 ? st->pending + 1 : 2;
    st->dmax = dmax;
    if (event)
        put(row, ts, zs, cap, n);
    return event ? DOPRI5_AT_EVENT : 0;
}

/* Steps from st, landing on each of the stops (the last is run->t_end),
 * until the run stops or the row buffers fill.  Row n holds a settled
 * state: t in ts[n], x in zs[n] and p in zs[cap + n].  The field at the
 * current state stays in st for the next step.  Each stage's x-slope is
 * that stage's p, so the Python loop's k1x and k7x are p and p1 here.  A
 * st with h_mag == 0 starts the run: the field, _initial_step and facold
 * at its start, as _dopri sets them, or a hand-back with h_mag still 0
 * where they cannot be mirrored.  The last two accepted rows stay pending
 * (see watch_row) until the run stops, and a call returns with room for
 * three rows, the most one step writes, left.  With ts NULL the call
 * keeps no rows and runs on to the run's end, and with stops NULL its
 * only stop is t_end.  Returns the number of rows written; the reason for
 * returning is left in st->status. */
int dopri5_steps(const Model *model, const Run *run, const double *stops, State *st, double *ts, cplx *zs, int cap)
{
    const double dir = run->direction;
    cplx x = st->x, p = st->p, k1p = st->kp;
    double t = st->t;
    int n = 0;

    if (stops == NULL)
        stops = &run->t_end;
    if (st->h_mag == 0.0) {
        const Row start = {t, x, p, 0.0};
        st->rows[0] = st->rows[1] = start;
        st->pending = 0;
        st->dmax = 0.0;
        if (!force(model, t, x, &k1p))
            goto hand_back;
        st->h_mag = initial_step(model, run, t, x, p, k1p);
        if (st->h_mag == 0.0)
            goto hand_back;
        st->facold = 1e-4;
    }
    while ((run->t_end - t) * dir > 0.0) {
        if (ts != NULL && n > cap - 3) {
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

        cplx k2x, k2p, k3x, k3p, k4x, k4p, k5x, k5p, k6x, k6p, k7p, xs;
        k2x = add(p, scale(h, scale(A21, k1p)));
        xs = add(x, scale(h, scale(A21, p)));
        if (!is_finite(k2x) || !force(model, t + C2 * h, xs, &k2p))
            goto hand_back;
        k3x = add(p, scale(h, add(scale(A31, k1p), scale(A32, k2p))));
        xs = add(x, scale(h, add(scale(A31, p), scale(A32, k2x))));
        if (!is_finite(k3x) || !force(model, t + C3 * h, xs, &k3p))
            goto hand_back;
        k4x = add(p, scale(h, add(add(scale(A41, k1p), scale(A42, k2p)), scale(A43, k3p))));
        xs = add(x, scale(h, add(add(scale(A41, p), scale(A42, k2x)), scale(A43, k3x))));
        if (!is_finite(k4x) || !force(model, t + C4 * h, xs, &k4p))
            goto hand_back;
        k5x = add(p, scale(h, add(add(add(scale(A51, k1p), scale(A52, k2p)), scale(A53, k3p)),
                                  scale(A54, k4p))));
        xs = add(x, scale(h, add(add(add(scale(A51, p), scale(A52, k2x)), scale(A53, k3x)),
                                 scale(A54, k4x))));
        if (!is_finite(k5x) || !force(model, t + C5 * h, xs, &k5p))
            goto hand_back;
        k6x = add(p, scale(h, add(add(add(add(scale(A61, k1p), scale(A62, k2p)), scale(A63, k3p)),
                                      scale(A64, k4p)),
                                  scale(A65, k5p))));
        xs = add(x, scale(h, add(add(add(add(scale(A61, p), scale(A62, k2x)), scale(A63, k3x)),
                                     scale(A64, k4x)),
                                 scale(A65, k5x))));
        if (!is_finite(k6x) || !force(model, t + h, xs, &k6p))
            goto hand_back;
        cplx x1 = add(x, scale(h, add(add(add(add(scale(B1, p), scale(B3, k3x)), scale(B4, k4x)),
                                          scale(B5, k5x)),
                                      scale(B6, k6x))));
        cplx p1 = add(p, scale(h, add(add(add(add(scale(B1, k1p), scale(B3, k3p)), scale(B4, k4p)),
                                          scale(B5, k5p)),
                                      scale(B6, k6p))));
        if (!is_finite(x1) || !is_finite(p1) || !force(model, t + h, x1, &k7p))
            goto hand_back;
        cplx ex = scale(h, add(add(add(add(add(scale(E1, p), scale(E3, k3x)), scale(E4, k4x)),
                                       scale(E5, k5x)),
                                   scale(E6, k6x)),
                               scale(E7, p1)));
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
        k1p = k7p;
        st->accepted += 1.0;

        /* _next_h, then facold = max(err, 1e-4) */
        double fac = err > 0.0 ? pow(err, EXPO1) / pow(st->facold, BETA) : 0.0;
        fac = fac / SAFE;
        fac = fac < FAC_SHRINK ? fac : FAC_SHRINK;
        fac = fac > 1.0 / FAC_GROW ? fac : 1.0 / FAC_GROW;
        double hnew = fabs(h / fac);
        st->facold = 1e-4 > err ? 1e-4 : err;
        /* the controller itself wants sub-floor steps: the local timescale
         * has collapsed (approaching a singularity); clipped steps say
         * nothing about the error-optimal size */
        int underflow = 0;
        if (!(landed || fabs(h) < st->h_mag)) {
            st->h_mag = run->max_step < hnew ? run->max_step : hnew;
            underflow = st->h_mag < run->min_step;
        }
        if (ts != NULL) {
            Row row = {t, x, p, 0.0};
            int event = watch_row(model, run, st, &row, ts, zs, cap, &n);
            if (event == DOPRI5_AT_EVENT)
                event |= underflow ? DOPRI5_STEP_UNDERFLOW : DOPRI5_FULL;
            if (event) {
                st->status = event;
                goto out;
            }
        }
        if (underflow) {
            st->status = DOPRI5_STEP_UNDERFLOW;
            goto out;
        }
    }
    st->status = DOPRI5_HORIZON;
    goto out;

hand_back:
    st->status = DOPRI5_HAND_BACK;
out:
    if (ts != NULL && st->status != DOPRI5_FULL)
        flush(st, ts, zs, cap, &n);
    st->t = t;
    st->x = x;
    st->p = p;
    st->kp = k1p;
    return n;
}

/* The last arguments and results of potential()'s two trig pairs, keyed
 * on the exact double, -0.0 apart from 0.0: the bits of Re x for cos and
 * sin, of -Im x for cosh and sinh.  The same double in gives the same libm
 * result out, so a pair is computed only when its argument changes: along
 * a vertical ray Re x stays put, along a horizontal edge Im x does. */
typedef struct {
    uint64_t re, im;
    double cos_re, sin_re, cosh_im, sinh_im;
} Trig;

/* an empty key: the bits of a NaN, which potential() never takes */
#define NO_KEY UINT64_C(0x7ff8000000000001)
#define EMPTY_TRIG {NO_KEY, NO_KEY, 0.0, 0.0, 0.0, 0.0}

static inline uint64_t bits(double v)
{
    uint64_t b;
    memcpy(&b, &v, sizeof b);
    return b;
}

/* V(x) as the model's potential computes it: -g * cmath.cos(x), as
 * neg_g times the cosine, 0.5 * x * x or 1j * x * x * x, each product a
 * full complex one, with cmath.cos(x) = cosh(-Im x + i Re x), finite below
 * the switch as the sine in gradient().  Returns 0 where cmath would take
 * another path. */
static int potential(const Model *m, cplx x, cplx *v, Trig *trig)
{
    const cplx half = {0.5, 0.0}, i1 = {0.0, 1.0};
    if (!is_finite(x))
        return 0;
    switch (m->kind) {
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
        if (bits(ci) != trig->re) {
            trig->re = bits(ci);
            trig->cos_re = cos(ci);
            trig->sin_re = sin(ci);
        }
        if (bits(cr) != trig->im) {
            trig->im = bits(cr);
            trig->cosh_im = cosh(cr);
            trig->sinh_im = sinh(cr);
        }
        cplx c = {trig->cos_re * trig->cosh_im, trig->sin_re * trig->sinh_im};
        *v = mul(m->neg_g, c);
        return 1;
    }
    }
}

/* Trajectory's energy columns for rows 0..n-1 of x and p: h = 0.5 * p * p
 * + v and, unless scale is NULL, scale = 0.5 * abs(p) ** 2 + abs(v), the
 * local scale of energy_drift, with v = V(x) and abs the libm hypot.  v
 * is a row's local: no column of it is kept.  Returns the number of rows
 * filled, the rows before the first whose potential() is 0. */
long energy_rows(const Model *model, long n, const cplx *x, const cplx *p, cplx *h, double *scale)
{
    const cplx half = {0.5, 0.0};
    /* volatile: gcc folds pow(a, 2.0) into a * a, which rounds otherwise */
    volatile double two = 2.0;
    Trig trig = EMPTY_TRIG;
    long k;
    for (k = 0; k < n; k++) {
        cplx vk;
        if (!potential(model, x[k], &vk, &trig))
            break;
        h[k] = add(mul(mul(half, p[k]), p[k]), vk);
        if (scale)
            scale[k] = 0.5 * pow(hypot(p[k].re, p[k].im), two) + hypot(vk.re, vk.im);
    }
    return k;
}

/* Quadrature.  integral_op runs one whole integral of an operation: for
 * the branch integrand it first builds quadrature._guide's branch guide,
 * then it runs quadrature.adaptive_quad's refinement over each piece of
 * the path, and quad_panel evaluates quadrature._panel for the
 * integrands of _branch_integral and escape_time_real_form, node by node
 * as Python does, with CPython's cmath.sqrt, cmath.exp and complex
 * division written out below. */

enum { BRANCH = 0, REAL_FORM = 1 };
enum { RAY = 0, EDGE = 1, CAP = 2 };

/* One piece of a path (see quadrature._pieces) and its part of the
 * branch guide. */
typedef struct {
    int kind;
    cplx c0, c1, c2;     /* the piece's constants, see piece_at */
    double phi0;         /* a cap's start angle */
    double s0, s1, tol;  /* the parameter interval and its error target */
    long cells, first;   /* the guide's cells here, and the first one's entry */
    double h;            /* their width */
    cplx *roots;         /* the principal roots at their midpoints */
} Piece;

/* One integrand on a path. */
typedef struct {
    int integrand;
    const Model *model;
    cplx energy;
    const double *nodes;  /* (xi, wi) of the 15 nodes, then of the 31 */
    const Piece *piece;   /* the piece being integrated */
    const cplx *guide;    /* the continued branch guide, n_guide entries */
    long n_guide;
    Trig trig;
} Integrand;

/* cmath.exp(z) for the finite z the library takes it of, each with |Re z|
 * far below LOG_LARGE_DOUBLE: a cap's exp(i phi) and the cubic's seeds,
 * whose Re z is a logarithm over 3 */
static cplx py_exp(cplx z)
{
    double l = exp(z.re);
    cplx r = {l * cos(z.im), l * sin(z.im)};
    return r;
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

/* cmath.log(z) as CPython 3.11's c_log computes it: log1p((am - 1)(am + 1)
 * + an^2) / 2, am and an the larger and smaller of |Re z| and |Im z|, for
 * 0.71 <= |z| <= 1.73, log |z| otherwise, and atan2 for the imaginary
 * part; 0 for a non-finite z and where c_log rescales z first: |Re z| or
 * |Im z| above DBL_MAX / 4, or both below DBL_MIN */
static int py_log(cplx z, cplx *r)
{
    double ax = fabs(z.re), ay = fabs(z.im);
    if (!is_finite(z) || ax > DBL_MAX / 4.0 || ay > DBL_MAX / 4.0 || (ax < DBL_MIN && ay < DBL_MIN))
        return 0;
    double h = hypot(ax, ay);
    if (0.71 <= h && h <= 1.73) {
        double am = ax > ay ? ax : ay, an = ax > ay ? ay : ax;
        r->re = log1p((am - 1.0) * (am + 1.0) + an * an) / 2.0;
    } else {
        r->re = log(h);
    }
    r->im = atan2(z.im, z.re);
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

/* z(s) and dz(s) of a piece (kind, c0, c1, c2, phi0) of quadrature._pieces,
 * term for term as quadrature._curve computes them:
 *   ray   c0 + c1 * (s * s), c2 * s;
 *   edge  c0 + c1 * s, c1;
 *   cap   c0 + c1 * e, c2 * e, with e = cmath.exp(1j * (phi0 + math.pi * s)). */
static void piece_at(const Piece *p, double s, cplx *z, cplx *dz)
{
    switch (p->kind) {
    case RAY:
        *z = add(p->c0, scale(s * s, p->c1));
        *dz = scale(s, p->c2);
        return;
    case EDGE:
        *z = add(p->c0, scale(s, p->c1));
        *dz = p->c1;
        return;
    default: {
        const cplx i1 = {0.0, 1.0};
        cplx e = py_exp(scale(p->phi0 + M_PI * s, i1));
        *z = add(p->c0, mul(p->c1, e));
        *dz = mul(p->c2, e);
    }
    }
}

/* quadrature._root: w = cmath.sqrt(2.0 * (E - V(z))) at z(s) of a piece,
 * and dz(s) there */
static int root_at(Integrand *f, const Piece *p, double s, cplx *w, cplx *dz)
{
    cplx z, v;
    piece_at(p, s, &z, dz);
    return potential(f->model, z, &v, &f->trig) && py_sqrt(scale(2.0, sub(f->energy, v)), w);
}

/* quadrature._near: r turned to the root nearer ref, -r where
 * abs(-r - ref) < abs(r - ref), each abs a hypot.  Squared distances that
 * are normal and differ by far more than their rounding order the two
 * hypots alike; the hypots decide only the near ties.  r and ref are
 * square roots, below sqrt(DBL_MAX), so no hypot overflows. */
static cplx near(cplx r, cplx ref)
{
    cplx away = {-r.re - ref.re, -r.im - ref.im}, kept = {r.re - ref.re, r.im - ref.im};
    double sa = away.re * away.re + away.im * away.im, sk = kept.re * kept.re + kept.im * kept.im;
    int flip;
    if (sa > 1e-270 && sk > 1e-270 && sa < 1e300 && sk < 1e300 &&
        (sa < sk * (1.0 - 1e-12) || sk < sa * (1.0 - 1e-12))) {
        flip = sa < sk;
    } else {
        flip = hypot(away.re, away.im) < hypot(kept.re, kept.im);
    }
    cplx out = {flip ? -r.re : r.re, flip ? -r.im : r.im};
    return out;
}

/* The branch integrand at s: w turned to the root nearer its entry
 * guide[first + int((s - s0) / h)], then 1.0 / w * dz. */
static int branch_term(Integrand *f, double s, cplx *out)
{
    const cplx one = {1.0, 0.0};
    const Piece *p = f->piece;
    cplx dz, r;
    if (!root_at(f, p, s, &r, &dz))
        return 0;
    /* a negative index wraps in Python */
    double cell = (s - p->s0) / p->h;
    if (!(fabs(cell) < 1e15))
        return 0;
    long j = p->first + (long)cell;
    if (j < 0 || j >= f->n_guide)
        return 0;
    *out = mul(quot(one, near(r, f->guide[j])), dz);
    return is_finite(*out);
}

/* The real-form integrand at u: 2.0 * u / math.sqrt(q.real) with
 * q = 2.0 * (V(z) - E); 0 where Python raises DomainError or overflows. */
static int real_form_term(Integrand *f, double u, double *out)
{
    cplx z, dz, v;
    piece_at(f->piece, u, &z, &dz);
    if (!potential(f->model, z, &v, &f->trig))
        return 0;
    cplx q = scale(2.0, sub(v, f->energy));
    double size = hypot(q.re, q.im);
    if (!isfinite(size) || fabs(q.im) > 1e-9 * (1.0 + size) || !(q.re > 0.0))
        return 0;
    *out = 2.0 * u / sqrt(q.re);
    return isfinite(*out);
}

/* quadrature._panel over [a, b]: the 31-node value and its distance to
 * the 15-node one, each sum accumulated from 0j in node order and then
 * multiplied by half as a complex times a float.  The middle node of
 * each rule is the same s (both have the node 0.0), and its term is
 * computed once.  Returns 0 where a node cannot be mirrored and where
 * Python raises (a non-finite value or error, an abs that overflows);
 * Python then redoes the integral. */
static int quad_panel(Integrand *f, double a, double b, cplx *value, double *err)
{
    double half = 0.5 * (b - a), mid = 0.5 * (a + b);
    uint64_t shared_at = NO_KEY;
    cplx sums[2], shared = {0.0, 0.0};
    for (int rule = 0; rule < 2; rule++) {
        const double *node = f->nodes + (rule ? 30 : 0);
        int count = rule ? 31 : 15;
        cplx acc = {0.0, 0.0};
        for (int k = 0; k < count; k++) {
            double s = mid + half * node[2 * k], wi = node[2 * k + 1];
            cplx term = shared;
            if (bits(s) != shared_at) {
                term.im = 0.0;
                if (f->integrand == REAL_FORM ? !real_form_term(f, s, &term.re) : !branch_term(f, s, &term))
                    return 0;
                if (k == count / 2) {
                    shared = term;
                    shared_at = bits(s);
                }
            }
            if (f->integrand == REAL_FORM) {
                /* float terms: complex + float adds 0.0 to the imaginary part */
                acc.re = acc.re + wi * term.re;
                acc.im = acc.im + 0.0;
            } else {
                acc = add(acc, scale(wi, term));
            }
        }
        sums[rule] = scale(half, acc);
    }
    cplx d = sub(sums[1], sums[0]);
    *value = sums[1];
    *err = hypot(d.re, d.im);
    return is_finite(*value) && isfinite(*err);
}

/* the guide's test of two consecutive values, quadrature._apart:
 * (a * b.conjugate()).real < cosine * abs(a) * abs(b).  Each is a
 * square root, below sqrt(DBL_MAX), so no abs overflows. */
static int apart(cplx a, cplx b, double cosine)
{
    const cplx conj_b = {b.re, -b.im};
    return mul(a, conj_b).re < cosine * hypot(a.re, a.im) * hypot(b.re, b.im);
}

/* The principal roots at the midpoints of a piece's n cells into out;
 * with the roots at its n / 3 cells, coarse, each of those is the middle
 * third of a cell, and kept.  0 where a root cannot be mirrored. */
static int midpoints(Integrand *f, const Piece *p, long n, const cplx *coarse, cplx *out)
{
    double h = (p->s1 - p->s0) / (double)n;
    cplx dz;
    if (coarse == NULL) {
        for (long j = 0; j < n; j++)
            if (!root_at(f, p, p->s0 + ((double)j + 0.5) * h, &out[j], &dz))
                return 0;
        return 1;
    }
    for (long j = 0; j < n / 3; j++) {
        if (!root_at(f, p, p->s0 + ((double)(3 * j) + 0.5) * h, &out[3 * j], &dz) ||
            !root_at(f, p, p->s0 + ((double)(3 * j) + 2.5) * h, &out[3 * j + 2], &dz))
            return 0;
        out[3 * j + 1] = coarse[j];
    }
    return 1;
}

/* quadrature._guide: the branch guide of the n pieces, continued from the
 * principal root at the start of a closed loop, or at the first midpoint,
 * each piece starting with `cells` cells and tripling them, up to
 * max_cells, while two consecutive continued values are apart.  It sets
 * each piece's cells, first entry and cell width, and returns the guide,
 * with its last entry repeated, in *guide: 1, or 0 for a loop that comes
 * back onto the seed with the other sign (Python raises
 * BranchInconsistency) and where a root cannot be mirrored.  The caller
 * frees the pieces' roots and the guide. */
static int build_guide(Integrand *f, Piece *pieces, long n, int closed, long cells, long max_cells,
                       double cosine, cplx **guide)
{
    cplx seed = {0.0, 0.0}, back = seed, dz;
    long total = 0;
    int built = 0;
    char *coarse;
    /* bounds that keep every count and byte size in range */
    if (n < 1 || cells < 1 || max_cells < 0)
        return 0;
    coarse = calloc((size_t)n, 1);
    if (coarse == NULL)
        goto out;
    for (long i = 0; i < n; i++) {
        Piece *p = &pieces[i];
        p->cells = cells;
        p->roots = malloc((size_t)cells * sizeof *p->roots);
        if (p->roots == NULL || !midpoints(f, p, cells, NULL, p->roots))
            goto out;
    }
    if (closed && !root_at(f, &pieces[0], pieces[0].s0, &seed, &dz))
        goto out;
    for (;;) {
        total = 0;
        for (long i = 0; i < n; i++)
            total += pieces[i].cells;
        cplx *grown = realloc(*guide, (size_t)(total + 1) * sizeof *grown);
        if (grown == NULL)
            goto out;
        *guide = grown;
        memset(coarse, 0, (size_t)n);
        cplx prev = closed ? seed : pieces[0].roots[0];
        long k = 0;
        for (long i = 0; i < n; i++) {
            for (long j = 0; j < pieces[i].cells; j++) {
                cplx r = near(pieces[i].roots[j], prev);
                if (apart(r, prev, cosine)) {
                    coarse[i] = 1;
                    if (j == 0 && i > 0)
                        coarse[i - 1] = 1;
                }
                grown[k++] = prev = r;
            }
        }
        if (closed) {
            back = near(seed, prev);
            if (apart(back, prev, cosine))
                coarse[n - 1] = 1;
        }
        int refined = 0;
        for (long i = 0; i < n; i++) {
            Piece *p = &pieces[i];
            if (!coarse[i] || p->cells >= max_cells)
                continue;
            cplx *finer = malloc((size_t)(3 * p->cells) * sizeof *finer);
            if (finer == NULL)
                goto out;
            int ok = midpoints(f, p, 3 * p->cells, p->roots, finer);
            free(p->roots);
            p->roots = finer;
            p->cells *= 3;
            if (!ok)
                goto out;
            refined = 1;
        }
        if (!refined)
            break;
    }
    if (closed && (back.re != seed.re || back.im != seed.im))
        goto out;
    /* a node rounding onto a piece's end reads one entry on */
    (*guide)[total] = (*guide)[total - 1];
    for (long i = 0, first = 0; i < n; i++) {
        pieces[i].first = first;
        pieces[i].h = (pieces[i].s1 - pieces[i].s0) / (double)pieces[i].cells;
        first += pieces[i].cells;
    }
    f->guide = *guide;
    f->n_guide = total + 1;
    built = 1;
out:
    free(coarse);
    return built;
}

/* A panel on adaptive_quad's heap, ordered as its (-err, counter, ...)
 * tuples: the largest error first, ties in the order pushed. */
typedef struct {
    double neg_err;
    long counter;
    double lo, hi;
    cplx value;
} Entry;

static int before(const Entry *a, const Entry *b)
{
    return a->neg_err < b->neg_err || (a->neg_err == b->neg_err && a->counter < b->counter);
}

static void push(Entry *heap, long *n, Entry e)
{
    long k = (*n)++;
    while (k > 0 && before(&e, &heap[(k - 1) / 2])) {
        heap[k] = heap[(k - 1) / 2];
        k = (k - 1) / 2;
    }
    heap[k] = e;
}

static Entry pop(Entry *heap, long *n)
{
    Entry top = heap[0], last = heap[--*n];
    long k = 0, child;
    while ((child = 2 * k + 1) < *n) {
        if (child + 1 < *n && before(&heap[child + 1], &heap[child]))
            child++;
        if (!before(&heap[child], &last))
            break;
        heap[k] = heap[child];
        k = child;
    }
    heap[k] = last;
    return top;
}

/* quadrature.adaptive_quad of f over [a, b] to tol with room for
 * max_panels entries on heap: 8 starting panels, then the worst panel
 * halved until the summed error estimate is within tol.  1 with the value
 * in *value; 0 where Python raises: ToleranceNotMet for the panel budget
 * spent or the worst panel at float resolution, or anything else. */
static int refine(Integrand *f, double a, double b, double tol, long max_panels, Entry *heap, cplx *value)
{
    cplx total = {0.0, 0.0};
    double toterr = 0.0, err;
    long n = 0, counter = 0, panels = 8;
    /* Python raises ValueError, or, over an empty interval (no piece has
     * one), returns 0j */
    if (!(tol > 0.0 && isfinite(tol)) || a == b)
        return 0;
    for (int i = 0; i < 8; i++) {
        Entry e = {0.0, counter++, a + (b - a) * i / 8.0, a + (b - a) * (i + 1) / 8.0, {0.0, 0.0}};
        if (!quad_panel(f, e.lo, e.hi, &e.value, &err))
            return 0;
        e.neg_err = -err;
        push(heap, &n, e);
        total = add(total, e.value);
        toterr += err;
    }
    while (toterr > tol) {
        if (panels >= max_panels)
            return 0;
        Entry worst = pop(heap, &n);
        double size = 1.0;
        if (fabs(worst.lo) > size)
            size = fabs(worst.lo);
        if (fabs(worst.hi) > size)
            size = fabs(worst.hi);
        if (worst.hi - worst.lo <= 32.0 * DBL_EPSILON * size)
            return 0;
        total = sub(total, worst.value);
        toterr += worst.neg_err;
        double mid = 0.5 * (worst.lo + worst.hi);
        const double ends[3] = {worst.lo, mid, worst.hi};
        for (int half = 0; half < 2; half++) {
            Entry e = {0.0, counter++, ends[half], ends[half + 1], {0.0, 0.0}};
            if (!quad_panel(f, e.lo, e.hi, &e.value, &err))
                return 0;
            e.neg_err = -err;
            push(heap, &n, e);
            total = add(total, e.value);
            toterr += err;
        }
        panels++;
    }
    *value = total;
    return 1;
}

/* a count of a call record, or -1 when it is not one in [0, 2^24] */
static long count(double v)
{
    return v >= 0.0 && v <= (double)(1L << 24) && v == floor(v) ? (long)v : -1;
}

/* Turning points and whole quadrature operations.  quad_op runs one
 * public entry point of turning and quadrature in one call, for the
 * built-in models: turning_points' search, refine_root's Newton polish,
 * and the escape and period integrals from their root checks to the
 * integral, each check and each root search as Python makes it.  It runs
 * the success path only: wherever Python would raise, warn or take a
 * path not mirrored here, it hands the whole operation back. */

static const double TWO_PI = 2.0 * M_PI;  /* turning._TWO_PI */

/* the rules of turning_points' search: the Newton residual target, the
 * seed budget, how far outside the window a seed is still polished, the
 * merge distance and the Newton steps per seed */
typedef struct {
    double residual_tol, max_seeds, reach, dedupe_tol;
    long max_iter;
} Rules;

/* V(x) and V'(x) as the model's potential and gradient compute them;
 * 0 where cmath would take another path or raise */
static int vgrad(const Model *m, cplx x, cplx *v, cplx *grad)
{
    Trig trig = EMPTY_TRIG;
    return potential(m, x, v, &trig) && gradient(m, x, grad);
}

/* turning._converged: |f| within the target, or within the rounding of V
 * at z; -1 where an abs overflows, which raises in Python */
static int converged(cplx f, cplx fp, cplx z, double target)
{
    double residual = hypot(f.re, f.im);
    if (!isfinite(residual))
        return -1;
    if (residual <= target)
        return 1;
    double a = hypot(fp.re, fp.im), b = hypot(z.re, z.im);
    if (!isfinite(a) || !isfinite(b))
        return -1;
    double rounding = a * b * DBL_EPSILON;
    return residual <= rounding && rounding < INFINITY;
}

/* turning._newton from seed to the target residual_tol * max(1, |E|):
 * 1 with the root in *root, 0 where Python raises NonConvergence or
 * anything else, or where a value leaves the finite numbers. */
static int newton(const Model *m, cplx energy, cplx seed, const Rules *rules, cplx *root)
{
    double size = hypot(energy.re, energy.im);
    cplx z = seed, v, fp;
    if (!isfinite(size))
        return 0;
    double target = rules->residual_tol * (size > 1.0 ? size : 1.0);
    for (long it = 0; it < rules->max_iter; it++) {
        if (!vgrad(m, z, &v, &fp))
            return 0;
        cplx f = sub(v, energy);
        int done = converged(f, fp, z, target);
        if (done < 0)
            return 0;
        if (done) {
            /* one extra step, where f' is not zero */
            if (fp.re != 0.0 || fp.im != 0.0)
                z = sub(z, quot(f, fp));
            *root = z;
            return is_finite(z);
        }
        double slope = hypot(fp.re, fp.im);
        if (!isfinite(slope) || slope < 1e-300)
            return 0;
        z = sub(z, quot(f, fp));
    }
    if (!vgrad(m, z, &v, &fp) || converged(sub(v, energy), fp, z, target) != 1)
        return 0;
    *root = z;
    return 1;
}

/* cmath.acos(z) for finite z within CPython's CM_LARGE_DOUBLE, from its
 * own square roots: 2 atan2(Re s1, Re s2) + i asinh(Re s2 Im s1 -
 * Im s2 Re s1), s1 = sqrt(1 - z), s2 = sqrt(1 + z); 0 elsewhere */
static int py_acos(cplx z, cplx *r)
{
    cplx s1, s2;
    if (!is_finite(z) || fabs(z.re) > DBL_MAX / 4.0 || fabs(z.im) > DBL_MAX / 4.0)
        return 0;
    if (!py_sqrt((cplx){1.0 - z.re, -z.im}, &s1) || !py_sqrt((cplx){1.0 + z.re, z.im}, &s2))
        return 0;
    r->re = 2.0 * atan2(s1.re, s2.re);
    r->im = asinh(s2.re * s1.im - s2.im * s1.re);
    return 1;
}

/* turning._closed_form_seeds of the imaginary cubic into seeds: [0j] at
 * E = 0, else b, b r and b r r with b = cmath.exp(cmath.log(-1j * E) / 3.0)
 * and r = cmath.exp(2j * math.pi / 3.0), each product a full complex one
 * and each division _Py_c_quot's; their number, or -1 */
static long cubic_seeds(cplx energy, cplx seeds[3])
{
    const cplx neg_i = {-0.0, -1.0}, two_i = {0.0, 2.0}, pi = {M_PI, 0.0}, three = {3.0, 0.0};
    cplx log_e;
    if (energy.re == 0.0 && energy.im == 0.0) {
        seeds[0] = (cplx){0.0, 0.0};
        return 1;
    }
    if (!py_log(mul(neg_i, energy), &log_e))
        return -1;
    const cplx base = py_exp(quot(log_e, three)), rot = py_exp(quot(mul(two_i, pi), three));
    seeds[0] = base;
    seeds[1] = mul(base, rot);
    seeds[2] = mul(seeds[1], rot);
    return 3;
}

/* a bound on the seeds of one search, beyond any seed budget Python sets */
#define MAX_SEARCH_SEEDS (1L << 24)

/* turning._pendulum_seeds: +/- acos(-E/g) + 2 pi k for the k that cover
 * the window, less those more than the reach outside it; their number,
 * in *seeds (the caller frees it), or -1 */
static long pendulum_seeds(const Model *m, cplx energy, const double win[4], const Rules *rules, cplx **seeds)
{
    const cplx neg_e = {-energy.re, -energy.im};
    cplx alpha;
    if (!is_finite(m->g) || (m->g.re == 0.0 && m->g.im == 0.0) || !py_acos(quot(neg_e, m->g), &alpha))
        return -1;
    const double a = fabs(alpha.re);
    const double lo = (win[0] - a) / TWO_PI, hi = (win[1] + a) / TWO_PI;
    const double seed_count = 2.0 * (hi - lo + 4.0);
    if (!(seed_count <= rules->max_seeds) || !(seed_count <= (double)MAX_SEARCH_SEEDS) ||
        !(fabs(lo) < 0x1p52 && fabs(hi) < 0x1p52))
        return -1;
    const long k0 = (long)floor(lo) - 1, k1 = (long)ceil(hi) + 2;
    const double x_lo = win[0] - rules->reach, x_hi = win[1] + rules->reach;
    const double y_lo = win[2] - rules->reach, y_hi = win[3] + rules->reach;
    cplx *out = malloc((size_t)(2 * (k1 - k0)) * sizeof *out);
    long n = 0;
    if (out == NULL)
        return -1;
    for (long k = k0; k < k1; k++) {
        const double t = TWO_PI * (double)k;
        const cplx pair[2] = {{alpha.re + t, alpha.im + 0.0}, {-alpha.re + t, -alpha.im + 0.0}};
        for (int j = 0; j < 2; j++)
            if (!(pair[j].re < x_lo || pair[j].re > x_hi || pair[j].im < y_lo || pair[j].im > y_hi))
                out[n++] = pair[j];
    }
    *seeds = out;
    return n;
}

/* a polished root and its place among the polished roots */
typedef struct {
    cplx z;
    long i;
} Found;

/* (Re, Im) order, as Python sorts the roots, then polishing order */
static int by_position(const void *a, const void *b)
{
    const Found *x = a, *y = b;
    if (x->z.re != y->z.re)
        return x->z.re < y->z.re ? -1 : 1;
    if (x->z.im != y->z.im)
        return x->z.im < y->z.im ? -1 : 1;
    return (x->i > y->i) - (x->i < y->i);
}

/* turning.turning_points in the window win = (re_lo, re_hi, im_lo, im_hi)
 * for the built-in models: each closed-form seed polished by newton, the
 * roots in the window with its 1e-9 grace, less each within the merge
 * distance of one kept before it (as turning._dedupe keeps them), sorted
 * by (Re, Im).  Returns their number, in *roots (the caller frees it),
 * or -1. */
static long search(const Model *m, cplx energy, const double win[4], const Rules *rules, cplx **roots)
{
    const double grace = 1e-9, merge = rules->dedupe_tol;
    cplx *seeds = NULL;
    Found *found = NULL;
    long *place = NULL, n_seeds = -1, n = 0, kept = -1;
    char *keep = NULL;
    *roots = NULL;
    if (!(win[0] < win[1] && win[2] < win[3]) || !is_finite(energy))
        return -1;
    if (m->kind == HARMONIC) {
        cplx r;
        seeds = malloc(2 * sizeof *seeds);
        if (seeds != NULL && py_sqrt(scale(2.0, energy), &r)) {
            seeds[0] = r;
            seeds[1] = (cplx){-r.re, -r.im};
            n_seeds = 2;
        }
    } else if (m->kind == CUBIC_I) {
        seeds = malloc(3 * sizeof *seeds);
        if (seeds != NULL)
            n_seeds = cubic_seeds(energy, seeds);
    } else if (m->kind == PENDULUM || m->kind == DRIVEN_PENDULUM) {
        n_seeds = pendulum_seeds(m, energy, win, rules, &seeds);
    }
    if (n_seeds < 0)
        goto out;
    found = malloc((size_t)(n_seeds + 1) * sizeof *found);
    place = malloc((size_t)(n_seeds + 1) * sizeof *place);
    keep = calloc((size_t)(n_seeds + 1), 1);  /* only roots already merged are kept */
    if (found == NULL || place == NULL || keep == NULL)
        goto out;
    for (long j = 0; j < n_seeds; j++) {
        cplx z;
        if (!newton(m, energy, seeds[j], rules, &z))
            goto out;
        if (win[0] - grace <= z.re && z.re <= win[1] + grace && win[2] - grace <= z.im && z.im <= win[3] + grace) {
            found[n].z = z;
            found[n].i = n;
            n++;
        }
    }
    /* a root within the merge distance of another is within it in Re:
     * each root is compared with its neighbours in Re order only */
    qsort(found, (size_t)n, sizeof *found, by_position);
    for (long p = 0; p < n; p++)
        place[found[p].i] = p;
    kept = 0;
    for (long i = 0; i < n; i++) {
        const long p = place[i];
        const cplx z = found[p].z;
        int near = 0;
        for (long q = p - 1; !near && q >= 0 && z.re - found[q].z.re <= 2.0 * merge; q--)
            near = keep[q] && !(hypot(z.re - found[q].z.re, z.im - found[q].z.im) > merge);
        for (long q = p + 1; !near && q < n && found[q].z.re - z.re <= 2.0 * merge; q++)
            near = keep[q] && !(hypot(z.re - found[q].z.re, z.im - found[q].z.im) > merge);
        keep[p] = !near;
        kept += !near;
    }
    *roots = malloc((size_t)(kept + 1) * sizeof **roots);
    if (*roots == NULL) {
        kept = -1;
        goto out;
    }
    for (long p = 0, k = 0; p < n; p++)
        if (keep[p])
            (*roots)[k++] = found[p].z;
out:
    free(seeds);
    free(found);
    free(place);
    free(keep);
    return kept;
}

/* quadrature._as_root's check of x0: |V(x0) - E| within 1e-8 max(1, |E|)
 * or within the rounding of V */
static int as_root(const Model *m, cplx energy, cplx x0)
{
    cplx v, grad;
    double size = hypot(energy.re, energy.im);
    if (!isfinite(size) || !vgrad(m, x0, &v, &grad))
        return 0;
    return converged(sub(v, energy), grad, x0, 1e-8 * (size > 1.0 ? size : 1.0)) == 1;
}

/* quadrature._roots_near_segment and its caller's clearance: 1 when each
 * root of E - V in the bounding box of the segment a..b widened by pad,
 * but the ends, lies more than limit from the segment (or, with
 * or_equal, lies at least limit from it); 0 where Python raises
 * PathThroughSingularity or anything else */
static int segment_clear(const Model *m, cplx energy, const Rules *rules, cplx a, cplx b, double pad,
                         const cplx *ends, int n_ends, double limit, int or_equal)
{
    /* Python's min and max keep the first argument on ties */
    const double win[4] = {
        (b.re < a.re ? b.re : a.re) - pad,
        (b.re > a.re ? b.re : a.re) + pad,
        (b.im < a.im ? b.im : a.im) - pad,
        (b.im > a.im ? b.im : a.im) + pad,
    };
    const cplx chord = sub(b, a);
    const double length = hypot(chord.re, chord.im);
    cplx *roots;
    if (!(length > 0.0 && isfinite(length)))
        return 0;
    const cplx u = quot(chord, (cplx){length, 0.0});
    const long n = search(m, energy, win, rules, &roots);
    int clear = n >= 0;
    for (long j = 0; clear && j < n; j++) {
        const cplx z = roots[j];
        int end = 0;
        for (int e = 0; !end && e < n_ends; e++)
            end = hypot(z.re - ends[e].re, z.im - ends[e].im) <= 1e-9;
        if (end)
            continue;
        double s = quot(sub(z, a), u).re;
        s = 0.0 > s ? 0.0 : s;
        s = length < s ? length : s;
        const cplx off = sub(z, add(a, scale(s, u)));
        const double d = hypot(off.re, off.im);
        clear = isfinite(d) && (or_equal ? !(d <= limit) : !(d < limit));
    }
    free(roots);
    return clear;
}

/* The call record of quad_op after its Model: the operation, the energy
 * and the rules of the root search, then, for the integrals, the panel
 * budget and the branch guide's (cells, max_cells, cosine), then the
 * operation's own numbers:
 *   OP_TURNING   the window (re_lo, re_hi, im_lo, im_hi);
 *   OP_REFINE    the seed (re, im);
 *   OP_REAL_FORM, OP_ESCAPE   the root x0 (re, im), the ray's direction
 *                (+1 up, -1 down), its cutoff and the error target;
 *   OP_CONTOUR   the roots c1 and c2 (re, im each), the offset and the
 *                error target. */
enum { OP_TURNING, OP_REFINE, OP_REAL_FORM, OP_ESCAPE, OP_CONTOUR };
enum { OPERATION, OP_ENERGY_RE, OP_ENERGY_IM, RESIDUAL_TOL, MAX_SEEDS, SEED_REACH, DEDUPE_TOL, MAX_ITER,
       SEARCH_FIELDS };
enum { PANEL_BUDGET = SEARCH_FIELDS, GUIDE_CELLS, GUIDE_MAX_CELLS, GUIDE_COSINE, INTEGRAL_FIELDS };

static const cplx I1 = {0.0, 1.0};

/* The integral of an operation along its n pieces, as quadrature sums it:
 * for the branch integrand the guide first, built by the call's rule
 * (around a loop if closed), then the adaptive_quad value of each piece
 * added to a total from 0j, in piece order.  The total and each piece's
 * guide cells go to out; -1 for any stop, which Python then raises.  It
 * frees the pieces' guide roots. */
static long integral_op(const Model *m, const double *nodes, int integrand, int closed, cplx energy,
                        const double *call, Piece *pieces, long n, double *out)
{
    Integrand f = {integrand, m, energy, nodes, NULL, NULL, 0, EMPTY_TRIG};
    const long max_panels = count(call[PANEL_BUDGET]);
    cplx total = {0.0, 0.0}, value, *guide = NULL;
    Entry *heap = max_panels < 8 ? NULL : malloc((size_t)max_panels * sizeof *heap);
    long size = -1;
    if (heap == NULL)
        goto out;
    if (integrand == BRANCH && !build_guide(&f, pieces, n, closed, count(call[GUIDE_CELLS]),
                                            count(call[GUIDE_MAX_CELLS]), call[GUIDE_COSINE], &guide))
        goto out;
    for (long k = 0; k < n; k++) {
        out[2 + k] = (double)pieces[k].cells;
        f.piece = &pieces[k];
        if (!refine(&f, pieces[k].s0, pieces[k].s1, pieces[k].tol, max_panels, heap, &value))
            goto out;
        total = add(total, value);
    }
    out[0] = total.re;
    out[1] = total.im;
    size = 2 + n;
out:
    for (long k = 0; k < n; k++)
        free(pieces[k].roots);
    free(guide);
    free(heap);
    return size;
}

/* quadrature.escape_time (OP_ESCAPE) and escape_time_real_form
 * (OP_REAL_FORM): the root check, a pendulum root in cell k != 0 moved
 * to cell 0 and polished there, for escape_time the degenerate-root
 * check and the ray's clearance, then the integral along the ray.
 * The ray here and contour_op's stadium are quadrature._pieces' term for
 * term, built here because the ray starts at the root this operation
 * polishes, and because building them in Python cost each operation
 * more than the rest of its Python side; test_library_operations checks
 * every integral against the Python path bit for bit. */
static long escape_op(int op, const Model *m, const double *nodes, cplx energy, const Rules *rules,
                      const double *call, double *out)
{
    const double *args = call + INTEGRAL_FIELDS;
    const double direction = args[2], cutoff = args[3], tol = args[4];
    cplx x0 = {args[0], args[1]}, v, grad;
    if (!as_root(m, energy, x0))
        return -1;
    if (m->kind == PENDULUM || m->kind == DRIVEN_PENDULUM) {
        /* round() rounds half to even, as rint does */
        const double k = rint(x0.re / TWO_PI);
        if (!(fabs(k) < 0x1p52))
            return -1;
        if (k != 0.0 && !newton(m, energy, (cplx){x0.re - TWO_PI * k, x0.im - 0.0}, rules, &x0))
            return -1;
    }
    const cplx sign = {direction, 0.0}, two_i = {0.0, 2.0};
    const double umax = sqrt(cutoff);
    Piece ray = {.kind = RAY, .c0 = x0, .c1 = mul(I1, sign), .c2 = mul(two_i, sign), .phi0 = 0.0, .s0 = 0.0,
                 .s1 = umax, .tol = tol / (umax > 1.0 ? umax : 1.0)};
    if (op == OP_REAL_FORM)
        return integral_op(m, nodes, REAL_FORM, 0, energy, call, &ray, 1, out);
    if (!vgrad(m, x0, &v, &grad))
        return -1;
    const double slope = hypot(grad.re, grad.im);
    if (!isfinite(slope) || slope < 1e-8)
        return -1;
    const cplx end = add(x0, mul(mul(I1, sign), (cplx){cutoff, 0.0}));
    if (!segment_clear(m, energy, rules, x0, end, 0.25, &x0, 1, 1e-6, 0))
        return -1;
    return integral_op(m, nodes, BRANCH, 0, energy, call, &ray, 1, out);
}

/* quadrature.contour_integral: both roots checked, apart and in (Re, Im)
 * order, the stadium of quadrature._pieces around them, no other root
 * on or inside it, then the branch integral around it */
static long contour_op(const Model *m, const double *nodes, cplx energy, const Rules *rules, const double *call,
                       double *out)
{
    const double *args = call + INTEGRAL_FIELDS;
    const double offset = args[4], tol = args[5];
    cplx c1 = {args[0], args[1]}, c2 = {args[2], args[3]};
    if (!as_root(m, energy, c1) || !as_root(m, energy, c2))
        return -1;
    const cplx gap = sub(c2, c1);
    const double apart = hypot(gap.re, gap.im);
    if (!isfinite(apart) || apart < 1e-9)
        return -1;
    if (c2.re < c1.re || (c2.re == c1.re && c2.im < c1.im)) {
        const cplx t = c1;
        c1 = c2;
        c2 = t;
    }
    const cplx chord = sub(c2, c1), zero = {0.0, 0.0};
    const double length = hypot(chord.re, chord.im), arc = M_PI * offset;
    const cplx u = quot(chord, (cplx){length, 0.0});
    const cplx n = mul(I1, u);
    const double edge_tol = 0.25 * tol / (length > 1.0 ? length : 1.0);
    const double cap_tol = 0.25 * tol / (arc > 1.0 ? arc : 1.0);
    const cplx arm = scale(offset, u);
    const cplx turn = mul(mul(mul(I1, (cplx){M_PI, 0.0}), (cplx){offset, 0.0}), u);
    Piece pieces[4] = {
        {.kind = EDGE, .c0 = sub(c1, scale(offset, n)), .c1 = chord, .c2 = zero, .phi0 = 0.0, .s1 = 1.0,
         .tol = edge_tol},
        {.kind = CAP, .c0 = c2, .c1 = arm, .c2 = turn, .phi0 = -0.5 * M_PI, .s1 = 1.0, .tol = cap_tol},
        {.kind = EDGE, .c0 = add(c2, scale(offset, n)), .c1 = {-chord.re, -chord.im}, .c2 = zero, .phi0 = 0.0,
         .s1 = 1.0, .tol = edge_tol},
        {.kind = CAP, .c0 = c1, .c1 = arm, .c2 = turn, .phi0 = 0.5 * M_PI, .s1 = 1.0, .tol = cap_tol},
    };
    const cplx ends[2] = {c1, c2};
    if (!segment_clear(m, energy, rules, c1, c2, offset + 0.5, ends, 2, offset + 1e-9, 1))
        return -1;
    return integral_op(m, nodes, BRANCH, 1, energy, call, pieces, 4, out);
}

/* turning_points' roots in the window into out, 2 doubles each */
static long turning_op(const Model *m, cplx energy, const Rules *rules, const double *args, long cap, double *out)
{
    cplx *roots;
    const long n = search(m, energy, args, rules, &roots);
    for (long k = 0; k < n && 2 * n <= cap; k++) {
        out[2 * k] = roots[k].re;
        out[2 * k + 1] = roots[k].im;
    }
    free(roots);
    return n < 0 ? -1 : 2 * n;
}

/* One operation of turning or quadrature in one call, read from record:
 * the Model of a built-in model, then the call record above.  Returns
 * the number of doubles of its result, written to out when they fit in
 * its cap doubles: the roots of OP_TURNING and OP_REFINE as (re, im)
 * pairs, or an integral as (re, im) and each piece's guide cells.
 * Returns -1, and Python runs the operation, where Python raises, warns
 * or takes a path not mirrored. */
long quad_op(const void *record, const double *nodes, long cap, double *out)
{
    const Model *m = record;
    const double *call = (const double *)((const char *)record + sizeof(Model));
    const cplx energy = {call[OP_ENERGY_RE], call[OP_ENERGY_IM]};
    const Rules rules = {call[RESIDUAL_TOL], call[MAX_SEEDS], call[SEED_REACH], call[DEDUPE_TOL], count(call[MAX_ITER])};
    const double *args = call + SEARCH_FIELDS;
    double result[6];
    long n = -1;
    cplx root;
    switch (count(call[OPERATION])) {
    case OP_TURNING:
        return turning_op(m, energy, &rules, args, cap, out);
    case OP_REFINE:
        if (newton(m, energy, (cplx){args[0], args[1]}, &rules, &root)) {
            result[0] = root.re;
            result[1] = root.im;
            n = 2;
        }
        break;
    case OP_REAL_FORM:
    case OP_ESCAPE:
        n = escape_op((int)count(call[OPERATION]), m, nodes, energy, &rules, call, result);
        break;
    case OP_CONTOUR:
        n = contour_op(m, nodes, energy, &rules, call, result);
        break;
    }
    if (n > 0 && n <= cap)
        memcpy(out, result, (size_t)n * sizeof *out);
    return n;
}
