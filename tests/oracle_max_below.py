"""The linear two-term max-below scan, kept as the oracle of the fast kernel.

This is the original ``two_term_max_below`` of ``egy._kernels``,
unchanged: every a from the first admissible one is scanned with fresh
cross multiplications until even 1/a + 1/(a+1) cannot beat the running
best.  ``tests/test_kernels.py`` diffs the fast kernel against it, tuple
for tuple, including the iteration count.
"""


def linear_two_term_max_below(xn, xd, a_min, thr_n, thr_d, allow_equal=False,
                              max_iters=None):
    if xn <= 0:
        return (False, 0, 0, 0, 0, 0)
    a = xd // xn + 1  # smallest a with 1/a < x
    if a < a_min:
        a = a_min
    if a < 2:
        a = 2
    best_n, best_d = thr_n, thr_d
    found = False
    res_a = res_b = 0
    iters = 0
    while True:
        iters += 1
        if max_iters is not None and iters > max_iters:
            return (False, 0, 0, 0, 0, iters)
        # upper bound for this a is 1/a + 1/(a+1) = (2a+1)/(a(a+1))
        ub_cmp = (2 * a + 1) * best_d - best_n * a * (a + 1)
        if ub_cmp < 0 or (ub_cmp == 0 and (found or not allow_equal)):
            break
        num = xn * a - xd  # > 0; equals a*xd*(x - 1/a)
        b = (xd * a) // num + 1
        if b <= a:
            b = a + 1
        cn, cd = a + b, a * b
        cmp_best = cn * best_d - best_n * cd
        if cmp_best > 0 or (cmp_best == 0 and allow_equal and not found):
            best_n, best_d = cn, cd
            res_a, res_b = a, b
            found = True
        a += 1
    return (found, best_n, best_d, res_a, res_b, iters)


def linear_two_term_top(xn, xd, a_min, thr_n, thr_d, offer, max_iters=None):
    """The top-k scan of ``egy._kernels.two_term_top``, linearly: every a
    from the first admissible one, with fresh cross multiplications, until
    1/a + 1/(a+1) cannot beat the running threshold, offering each of its
    partners that beats it; each a is an iteration."""
    a = xd // xn + 1  # smallest a with 1/a < x
    if a < a_min:
        a = a_min
    tn, td = thr_n, thr_d
    iters = 0
    while True:
        iters += 1
        if max_iters is not None and iters > max_iters:
            return iters
        if (2 * a + 1) * td <= tn * a * (a + 1):
            return iters
        b = max((xd * a) // (xn * a - xd) + 1, a + 1)
        while (a + b) * td > tn * a * b:
            tn, td = offer(a, b)
            b += 1
        a += 1
