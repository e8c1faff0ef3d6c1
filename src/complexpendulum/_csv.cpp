/* Trajectory CSV rows, byte for byte as cli._write_trajectory_csv's
 * Python loop writes them.
 *
 * Each float is written as CPython's repr with float_repr_style 'short':
 * the shortest digits that round-trip (here from std::to_chars, a
 * Ryu-class formatter in libstdc++ from GCC 11 on), laid out as
 * float_repr.c's format_float_short does for repr:
 *
 *   - fixed notation when -4 < decpt <= 16, where the value is
 *     0.d1d2... * 10**decpt, with ".0" on integral values;
 *   - otherwise d.ddd e+XX, with at least two exponent digits;
 *   - inf, -inf and nan, the sign of a NaN dropped.
 *
 * The driven cell column is floor((Re x + pi) / (2 pi)) in Python's order
 * of operations, printed as the integer math.floor returns.
 */
#include <charconv>
#include <cmath>
#include <cstring>

namespace {

char *put(char *out, const char *s, int n)
{
    std::memcpy(out, s, n);
    return out + n;
}

/* repr(v) of a Python float */
char *put_float(char *out, double v)
{
    if (std::isnan(v))
        return put(out, "nan", 3);
    if (std::isinf(v))
        return v < 0 ? put(out, "-inf", 4) : put(out, "inf", 3);

    /* [-]d[.ddd]e(+|-)XX; not NUL-terminated */
    char sci[32];
    const char *end = std::to_chars(sci, sci + sizeof sci, v, std::chars_format::scientific).ptr;
    const char *s = sci;
    if (*s == '-')
        *out++ = *s++;
    char digits[17];
    int n = 0;
    for (; *s != 'e'; ++s)
        if (*s != '.')
            digits[n++] = *s;
    int exp = 0;
    for (const char *q = s + 2; q < end; ++q)
        exp = 10 * exp + (*q - '0');
    if (s[1] == '-')
        exp = -exp;

    const int decpt = exp + 1;
    if (-4 < decpt && decpt <= 16) {
        if (decpt <= 0) {
            out = put(out, "0.000", 2 - decpt);
            return put(out, digits, n);
        }
        if (decpt < n) {
            out = put(out, digits, decpt);
            *out++ = '.';
            return put(out, digits + decpt, n - decpt);
        }
        out = put(out, digits, n);
        for (int i = n; i < decpt; ++i)
            *out++ = '0';
        return put(out, ".0", 2);
    }
    *out++ = digits[0];
    if (n > 1) {
        *out++ = '.';
        out = put(out, digits + 1, n - 1);
    }
    *out++ = 'e';
    *out++ = exp < 0 ? '-' : '+';
    if (exp < 0)
        exp = -exp;
    if (exp < 10)
        *out++ = '0';
    return std::to_chars(out, out + 3, exp).ptr;
}

/* models.cell_index(x) as text */
char *put_cell(char *out, double re_x)
{
    const double cell = std::floor((re_x + M_PI) / (2.0 * M_PI));
    if (std::fabs(cell) < 0x1p63)
        return std::to_chars(out, out + 24, static_cast<long long>(cell)).ptr;
    /* an integral double's exact digits, as Python's int of it */
    return std::to_chars(out, out + 320, cell, std::chars_format::fixed, 0).ptr;
}

}  // namespace

/* Writes n rows "t,re_x,im_x,re_p,im_p,re_E,im_E[,cell]\n" to out; x, p
 * and e are complex columns stored as (re, im) pairs.  A row takes at most
 * 485 bytes: 7 floats of at most 24 characters ("-2.2250738585072014e-308"),
 * the separators, and a cell of at most 309 characters (the floor of
 * -DBL_MAX / (2 pi)); _dopri5.py gives each row 512.  Returns the number of
 * bytes written. */
extern "C" long csv_rows(long n, const double *t, const double *x, const double *p, const double *e, int driven,
                         char *out)
{
    char *const start = out;
    for (long i = 0; i < n; ++i) {
        const double row[7] = {t[i], x[2 * i], x[2 * i + 1], p[2 * i], p[2 * i + 1], e[2 * i], e[2 * i + 1]};
        out = put_float(out, row[0]);
        for (int k = 1; k < 7; ++k) {
            *out++ = ',';
            out = put_float(out, row[k]);
        }
        if (driven) {
            *out++ = ',';
            out = put_cell(out, row[1]);
        }
        *out++ = '\n';
    }
    return out - start;
}
