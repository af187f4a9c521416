"""Integer kernels of the seven consistency conditions of
`chains.CONDITIONS` and of the rule operand lists of `rules.RULE_SLOTS`,
and the runner that calls the latter.

Generated by tests/kernelgen.py from the condition text and the kernel
parameters in chains.py and the operand text, the known-bound table and
the chain mirror in rules.py: do not edit; run `python tests/kernelgen.py`
after changing a condition, `KERNEL_PARAMS`, an operand, a row, a known
bound or `MIRROR`.

`fired_conditions` takes a chain's `kernel_args`, the eight bounds u1..y2
as reduced int terms (n, d), the six guard flags and the three
product-false flags, and returns the numbers of the conditions that hold
as a frozenset.

Each rule kernel takes the same arguments but the product-false flags and
returns the best operand value of its list as unreduced terms (n, d) with
d > 0, plus the tags that attain it in operand order.  `run_rows` takes a
chain's `kernel_args` and runs one row per distinct slot of the chain:
the rows of `RULE_SLOTS`, then each row whose slot is not its own mirror
on the arguments of the mirrored names.  It returns `record(slot, rule,
lo_n, lo_d, lo_tags, hi_n, hi_d, hi_tags)` for every result that can
tighten the known bound of its slot, in row order.
"""


def fired_conditions(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n,
                     x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma, delta,
                     epsilon, zeta, ab_false, ac_false, bc_false):
    fired = []
    # 1: u2 < y1
    if gamma and delta:
        t0 = u2n * y1d
        t1 = y1n * u2d
        if t0 < t1:
            fired.append(1)
    # 2: u1 > y2
    if beta and epsilon:
        t2 = u1n * y2d
        t3 = y2n * u1d
        if t2 > t3:
            fired.append(2)
    # 3: u2*x2*(1-y1) < v1*y1*(1-u2)
    if gamma:
        t4 = u2n * x2n * (y1d - y1n) * v1d * y1d * u2d
        t5 = v1n * y1n * (u2d - u2n) * u2d * x2d * y1d
        if t4 < t5:
            fired.append(3)
    # 4: u1*x1*(1-y2) > v2*y2*(1-u1)
    if beta:
        t6 = u1n * x1n * (y2d - y2n) * v2d * y2d * u1d
        t7 = v2n * y2n * (u1d - u1n) * u1d * x1d * y2d
        if t6 > t7:
            fired.append(4)
    # 5: v1 > x2
    if epsilon:
        t8 = v1n * x2d
        t9 = x2n * v1d
        if t8 > t9:
            fired.append(5)
    # 6: v2 < x1
    if delta:
        t10 = v2n * x1d
        t11 = x1n * v2d
        if t10 < t11:
            fired.append(6)
    # 7: x1+v1 > 1
    if alpha:
        t12 = x1n * v1d + v1n * x1d
        t13 = x1d * v1d
        if t12 > t13:
            fired.append(7)
    return frozenset(fired)


def sharpening_b_a_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n,
                         x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma, delta,
                         epsilon, zeta):
    # u1
    bn, bd, tags = u1n, u1d, ('u1',)
    # v1y1/(v1y1+x2(1-y1))
    if gamma and v1n > 0 and y1n > 0:
        t0 = v1n * y1n
        t1 = v1d * y1d
        t2 = x2d * y1d
        t3 = t0 * t1 * t2
        t4 = t1 * (t0 * t2 + x2n * (y1d - y1n) * t1)
        if t4 <= 0:
            if not t4:
                raise ZeroDivisionError("ratio division by zero")
            t3, t4 = -t3, -t4
        t5 = t3 * bd
        t6 = bn * t4
        if t5 > t6:
            bn, bd, tags = t3, t4, ('v1y1/(v1y1+x2(1-y1))',)
        elif t5 == t6:
            tags += ('v1y1/(v1y1+x2(1-y1))',)
    # y1
    if gamma and delta:
        t7 = y1n * bd
        t8 = bn * y1d
        if t7 > t8:
            bn, bd, tags = y1n, y1d, ('y1',)
        elif t7 == t8:
            tags += ('y1',)
    return bn, bd, tags


def sharpening_b_a_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n,
                         x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma, delta,
                         epsilon, zeta):
    # u2
    bn, bd, tags = u2n, u2d, ('u2',)
    # v2y2/(v2y2+x1(1-y2))
    if beta and v2n > 0 and y2n > 0:
        t0 = v2n * y2n
        t1 = v2d * y2d
        t2 = x1d * y2d
        t3 = t0 * t1 * t2
        t4 = t1 * (t0 * t2 + x1n * (y2d - y2n) * t1)
        if t4 <= 0:
            if not t4:
                raise ZeroDivisionError("ratio division by zero")
            t3, t4 = -t3, -t4
        t5 = t3 * bd
        t6 = bn * t4
        if t5 < t6:
            bn, bd, tags = t3, t4, ('v2y2/(v2y2+x1(1-y2))',)
        elif t5 == t6:
            tags += ('v2y2/(v2y2+x1(1-y2))',)
    # y2
    if beta and epsilon:
        t7 = y2n * bd
        t8 = bn * y2d
        if t7 < t8:
            bn, bd, tags = y2n, y2d, ('y2',)
        elif t7 == t8:
            tags += ('y2',)
    return bn, bd, tags


def sharpening_a_b_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n,
                         x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma, delta,
                         epsilon, zeta):
    bn = None
    # u1x1(1-y2)/(y2(1-u1))
    if beta and u1n < u1d and u1n * y2d > y2n * u1d and y2n > 0:
        t0 = u1n * x1n * (y2d - y2n) * y2d * u1d
        t1 = u1d * x1d * y2d * y2n * (u1d - u1n)
        if t1 <= 0:
            if not t1:
                raise ZeroDivisionError("ratio division by zero")
            t0, t1 = -t0, -t1
        bn, bd, tags = t0, t1, ('u1x1(1-y2)/(y2(1-u1))',)
    # v1
    if bn is None:
        bn, bd, tags = v1n, v1d, ('v1',)
    else:
        t2 = v1n * bd
        t3 = bn * v1d
        if t2 > t3:
            bn, bd, tags = v1n, v1d, ('v1',)
        elif t2 == t3:
            tags += ('v1',)
    # x1
    if delta:
        t4 = x1n * bd
        t5 = bn * x1d
        if t4 > t5:
            bn, bd, tags = x1n, x1d, ('x1',)
        elif t4 == t5:
            tags += ('x1',)
    return bn, bd, tags


def sharpening_a_b_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n,
                         x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma, delta,
                         epsilon, zeta):
    bn = None
    # 1-x1
    if alpha:
        t0 = x1d - x1n
        bn, bd, tags = t0, x1d, ('1-x1',)
    # u2x2(1-y1)/(y1(1-u2))
    if gamma and y1n * u2d > u2n * y1d:
        t1 = u2n * x2n * (y1d - y1n) * y1d * u2d
        t2 = u2d * x2d * y1d * y1n * (u2d - u2n)
        if t2 <= 0:
            if not t2:
                raise ZeroDivisionError("ratio division by zero")
            t1, t2 = -t1, -t2
        if bn is None:
            bn, bd, tags = t1, t2, ('u2x2(1-y1)/(y1(1-u2))',)
        else:
            t3 = t1 * bd
            t4 = bn * t2
            if t3 < t4:
                bn, bd, tags = t1, t2, ('u2x2(1-y1)/(y1(1-u2))',)
            elif t3 == t4:
                tags += ('u2x2(1-y1)/(y1(1-u2))',)
    # v2
    if bn is None:
        bn, bd, tags = v2n, v2d, ('v2',)
    else:
        t5 = v2n * bd
        t6 = bn * v2d
        if t5 < t6:
            bn, bd, tags = v2n, v2d, ('v2',)
        elif t5 == t6:
            tags += ('v2',)
    # x2
    if epsilon:
        t7 = x2n * bd
        t8 = bn * x2d
        if t7 < t8:
            bn, bd, tags = x2n, x2d, ('x2',)
        elif t7 == t8:
            tags += ('x2',)
    return bn, bd, tags


def chaining_c_a_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n,
                       x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma, delta,
                       epsilon, zeta):
    # 0
    bn, bd, tags = 0, 1, ('0',)
    # u1(v1+x1-1)/v1
    if v1n * x1d + x1n * v1d > v1d * x1d:
        t0 = v1d * x1d
        t1 = u1n * (v1n * x1d + x1n * v1d - t0) * v1d
        t2 = u1d * t0 * v1n
        if t2 <= 0:
            if not t2:
                raise ZeroDivisionError("ratio division by zero")
            t1, t2 = -t1, -t2
        t3 = t1 * bd
        t4 = bn * t2
        if t3 > t4:
            bn, bd, tags = t1, t2, ('u1(v1+x1-1)/v1',)
        elif t3 == t4:
            tags += ('u1(v1+x1-1)/v1',)
    # u1
    if epsilon:
        t5 = u1n * bd
        t6 = bn * u1d
        if t5 > t6:
            bn, bd, tags = u1n, u1d, ('u1',)
        elif t5 == t6:
            tags += ('u1',)
    # u1x1/v2
    if delta and v2n > 0:
        t7 = u1n * x1n * v2d
        t8 = u1d * x1d * v2n
        if t8 <= 0:
            if not t8:
                raise ZeroDivisionError("ratio division by zero")
            t7, t8 = -t7, -t8
        t9 = t7 * bd
        t10 = bn * t8
        if t9 > t10:
            bn, bd, tags = t7, t8, ('u1x1/v2',)
        elif t9 == t10:
            tags += ('u1x1/v2',)
    # u1x1/(v2y2)
    if beta and v2n > 0 and y2n > 0:
        t11 = u1n * x1n * v2d * y2d
        t12 = u1d * x1d * v2n * y2n
        if t12 <= 0:
            if not t12:
                raise ZeroDivisionError("ratio division by zero")
            t11, t12 = -t11, -t12
        t13 = t11 * bd
        t14 = bn * t12
        if t13 > t14:
            bn, bd, tags = t11, t12, ('u1x1/(v2y2)',)
        elif t13 == t14:
            tags += ('u1x1/(v2y2)',)
    # u1/y2
    if beta and epsilon and y2n > 0:
        t15 = u1n * y2d
        t16 = u1d * y2n
        if t16 <= 0:
            if not t16:
                raise ZeroDivisionError("ratio division by zero")
            t15, t16 = -t15, -t16
        t17 = t15 * bd
        t18 = bn * t16
        if t17 > t18:
            bn, bd, tags = t15, t16, ('u1/y2',)
        elif t17 == t18:
            tags += ('u1/y2',)
    # 1
    if gamma:
        if bd > bn:
            bn, bd, tags = 1, 1, ('1',)
        elif bd == bn:
            tags += ('1',)
    return bn, bd, tags


def chaining_c_a_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n,
                       x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma, delta,
                       epsilon, zeta):
    # 1
    bn, bd, tags = 1, 1, ('1',)
    # 1-u1+u1x2/v1
    if v1n * x2d > x2n * v1d:
        t0 = u1n * x2n * v1d
        t1 = u1d * x2d * v1n
        if t1 <= 0:
            if not t1:
                raise ZeroDivisionError("ratio division by zero")
            t0, t1 = -t0, -t1
        t2 = (u1d - u1n) * t1 + t0 * u1d
        t3 = u1d * t1
        t4 = t2 * bd
        t5 = bn * t3
        if t4 < t5:
            bn, bd, tags = t2, t3, ('1-u1+u1x2/v1',)
        elif t4 == t5:
            tags += ('1-u1+u1x2/v1',)
    # u2x2/(v1y1)
    if v1n > 0 and y1n > 0:
        t6 = u2n * x2n * v1d * y1d
        t7 = u2d * x2d * v1n * y1n
        if t7 <= 0:
            if not t7:
                raise ZeroDivisionError("ratio division by zero")
            t6, t7 = -t6, -t7
        t8 = t6 * bd
        t9 = bn * t7
        if t8 < t9:
            bn, bd, tags = t6, t7, ('u2x2/(v1y1)',)
        elif t8 == t9:
            tags += ('u2x2/(v1y1)',)
    # x2/(v1y1+x2(1-y1))
    if v1n * x2d > x2n * v1d and y1n > 0:
        t10 = v1d * y1d
        t11 = x2d * y1d
        t12 = x2n * t10 * t11
        t13 = x2d * (v1n * y1n * t11 + x2n * (y1d - y1n) * t10)
        if t13 <= 0:
            if not t13:
                raise ZeroDivisionError("ratio division by zero")
            t12, t13 = -t12, -t13
        t14 = t12 * bd
        t15 = bn * t13
        if t14 < t15:
            bn, bd, tags = t12, t13, ('x2/(v1y1+x2(1-y1))',)
        elif t14 == t15:
            tags += ('x2/(v1y1+x2(1-y1))',)
    # 1-u1
    if alpha:
        t16 = u1d - u1n
        t17 = t16 * bd
        t18 = bn * u1d
        if t17 < t18:
            bn, bd, tags = t16, u1d, ('1-u1',)
        elif t17 == t18:
            tags += ('1-u1',)
    # u2-u2x2/v1+u2x2/(v1y1)
    if v1n > 0 and y1n > 0:
        t19 = u2n * x2n
        t20 = u2d * x2d
        t21 = t19 * v1d
        t22 = t20 * v1n
        if t22 <= 0:
            if not t22:
                raise ZeroDivisionError("ratio division by zero")
            t21, t22 = -t21, -t22
        t23 = t19 * v1d * y1d
        t24 = t20 * v1n * y1n
        if t24 <= 0:
            if not t24:
                raise ZeroDivisionError("ratio division by zero")
            t23, t24 = -t23, -t24
        t25 = u2d * t22
        t26 = (u2n * t22 - t21 * u2d) * t24 + t23 * t25
        t27 = t25 * t24
        t28 = t26 * bd
        t29 = bn * t27
        if t28 < t29:
            bn, bd, tags = t26, t27, ('u2-u2x2/v1+u2x2/(v1y1)',)
        elif t28 == t29:
            tags += ('u2-u2x2/v1+u2x2/(v1y1)',)
    # u2/y1
    if delta and y1n * u2d > u2n * y1d:
        t30 = u2n * y1d
        t31 = u2d * y1n
        if t31 <= 0:
            if not t31:
                raise ZeroDivisionError("ratio division by zero")
            t30, t31 = -t30, -t31
        t32 = t30 * bd
        t33 = bn * t31
        if t32 < t33:
            bn, bd, tags = t30, t31, ('u2/y1',)
        elif t32 == t33:
            tags += ('u2/y1',)
    # (1-u1)/(1-y2)
    if beta and u1n * y2d > y2n * u1d:
        t34 = (u1d - u1n) * y2d
        t35 = u1d * (y2d - y2n)
        if t35 <= 0:
            if not t35:
                raise ZeroDivisionError("ratio division by zero")
            t34, t35 = -t34, -t35
        t36 = t34 * bd
        t37 = bn * t35
        if t36 < t37:
            bn, bd, tags = t34, t35, ('(1-u1)/(1-y2)',)
        elif t36 == t37:
            tags += ('(1-u1)/(1-y2)',)
    # u2x2/v1
    if zeta and v1n * x2d > x2n * v1d:
        t38 = u2n * x2n * v1d
        t39 = u2d * x2d * v1n
        if t39 <= 0:
            if not t39:
                raise ZeroDivisionError("ratio division by zero")
            t38, t39 = -t38, -t39
        t40 = t38 * bd
        t41 = bn * t39
        if t40 < t41:
            bn, bd, tags = t38, t39, ('u2x2/v1',)
        elif t40 == t41:
            tags += ('u2x2/v1',)
    # u2
    if zeta:
        t42 = u2n * bd
        t43 = bn * u2d
        if t42 < t43:
            bn, bd, tags = u2n, u2d, ('u2',)
        elif t42 == t43:
            tags += ('u2',)
    # u2(1-y1)min(x2,1-v1)/(v1y1)
    if alpha and v1n > 0 and y1n > 0:
        t44 = v1d - v1n
        if t44 * x2d < x2n * v1d:
            t45, t46 = t44, v1d
        else:
            t45, t46 = x2n, x2d
        t47 = u2n * (y1d - y1n) * t45 * v1d * y1d
        t48 = u2d * y1d * t46 * v1n * y1n
        if t48 <= 0:
            if not t48:
                raise ZeroDivisionError("ratio division by zero")
            t47, t48 = -t47, -t48
        t49 = t47 * bd
        t50 = bn * t48
        if t49 < t50:
            bn, bd, tags = t47, t48, ('u2(1-y1)min(x2,1-v1)/(v1y1)',)
        elif t49 == t50:
            tags += ('u2(1-y1)min(x2,1-v1)/(v1y1)',)
    # 0
    if alpha and zeta:
        if 0 < bn:
            bn, bd, tags = 0, 1, ('0',)
        elif 0 == bn:
            tags += ('0',)
    # (1-y1)min(x2,1-v1)/(v1y1+(1-y1)min(x2,1-v1))
    if alpha and v1n > 0 and y1n > 0:
        t51 = y1d - y1n
        t52 = v1d - v1n
        if t52 * x2d < x2n * v1d:
            t53, t54 = t52, v1d
        else:
            t53, t54 = x2n, x2d
        t55 = t51 * t53
        t56 = y1d * t54
        t57 = v1d * y1d
        t58 = t55 * t57 * t56
        t59 = t56 * (v1n * y1n * t56 + t55 * t57)
        if t59 <= 0:
            if not t59:
                raise ZeroDivisionError("ratio division by zero")
            t58, t59 = -t58, -t59
        t60 = t58 * bd
        t61 = bn * t59
        if t60 < t61:
            bn, bd, tags = t58, t59, ('(1-y1)min(x2,1-v1)/(v1y1+(1-y1)min(x2,1-v1))',)
        elif t60 == t61:
            tags += ('(1-y1)min(x2,1-v1)/(v1y1+(1-y1)min(x2,1-v1))',)
    return bn, bd, tags


def fusion_b_ac_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n,
                      x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma, delta,
                      epsilon, zeta):
    bn = None
    # max(y1(v1+x1-1)/(y1(v1-1)+x1), u1(x1+v1-1)/(u1(x1-1)+v1))
    if x1n * v1d + v1n * x1d > x1d * v1d:
        t0 = v1d * x1d
        t1 = y1d * v1d
        t2 = y1n * (v1n * x1d + x1n * v1d - t0) * t1 * x1d
        t3 = y1d * t0 * (y1n * (v1n - v1d) * x1d + x1n * t1)
        if t3 <= 0:
            if not t3:
                raise ZeroDivisionError("ratio division by zero")
            t2, t3 = -t2, -t3
        t4 = x1d * v1d
        t5 = u1d * x1d
        t6 = u1n * (x1n * v1d + v1n * x1d - t4) * t5 * v1d
        t7 = u1d * t4 * (u1n * (x1n - x1d) * v1d + v1n * t5)
        if t7 <= 0:
            if not t7:
                raise ZeroDivisionError("ratio division by zero")
            t6, t7 = -t6, -t7
        if t6 * t3 > t2 * t7:
            t8, t9 = t6, t7
        else:
            t8, t9 = t2, t3
        bn, bd, tags = t8, t9, ('max(y1(v1+x1-1)/(y1(v1-1)+x1), u1(x1+v1-1)/(u1(x1-1)+v1))',)
    # u1
    if epsilon:
        if bn is None:
            bn, bd, tags = u1n, u1d, ('u1',)
        else:
            t10 = u1n * bd
            t11 = bn * u1d
            if t10 > t11:
                bn, bd, tags = u1n, u1d, ('u1',)
            elif t10 == t11:
                tags += ('u1',)
    # y1
    if delta:
        if bn is None:
            bn, bd, tags = y1n, y1d, ('y1',)
        else:
            t12 = y1n * bd
            t13 = bn * y1d
            if t12 > t13:
                bn, bd, tags = y1n, y1d, ('y1',)
            elif t12 == t13:
                tags += ('y1',)
    # v1y1/(v1y1+x2(1-y1))
    if epsilon and v1n > 0 and y1n > 0:
        t14 = v1n * y1n
        t15 = v1d * y1d
        t16 = x2d * y1d
        t17 = t14 * t15 * t16
        t18 = t15 * (t14 * t16 + x2n * (y1d - y1n) * t15)
        if t18 <= 0:
            if not t18:
                raise ZeroDivisionError("ratio division by zero")
            t17, t18 = -t17, -t18
        if bn is None:
            bn, bd, tags = t17, t18, ('v1y1/(v1y1+x2(1-y1))',)
        else:
            t19 = t17 * bd
            t20 = bn * t18
            if t19 > t20:
                bn, bd, tags = t17, t18, ('v1y1/(v1y1+x2(1-y1))',)
            elif t19 == t20:
                tags += ('v1y1/(v1y1+x2(1-y1))',)
    # x1u1/(x1u1+v2(1-u1))
    if delta and x1n > 0 and u1n > 0:
        t21 = x1n * u1n
        t22 = x1d * u1d
        t23 = v2d * u1d
        t24 = t21 * t22 * t23
        t25 = t22 * (t21 * t23 + v2n * (u1d - u1n) * t22)
        if t25 <= 0:
            if not t25:
                raise ZeroDivisionError("ratio division by zero")
            t24, t25 = -t24, -t25
        if bn is None:
            bn, bd, tags = t24, t25, ('x1u1/(x1u1+v2(1-u1))',)
        else:
            t26 = t24 * bd
            t27 = bn * t25
            if t26 > t27:
                bn, bd, tags = t24, t25, ('x1u1/(x1u1+v2(1-u1))',)
            elif t26 == t27:
                tags += ('x1u1/(x1u1+v2(1-u1))',)
    # 0
    if bn is None:
        bn, bd, tags = 0, 1, ('0',)
    else:
        if 0 > bn:
            bn, bd, tags = 0, 1, ('0',)
        elif 0 == bn:
            tags += ('0',)
    # 1
    if zeta:
        if bd > bn:
            bn, bd, tags = 1, 1, ('1',)
        elif bd == bn:
            tags += ('1',)
    return bn, bd, tags


def fusion_b_ac_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n,
                      x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma, delta,
                      epsilon, zeta):
    # 1
    bn, bd, tags = 1, 1, ('1',)
    # u2
    if gamma:
        t0 = u2n * bd
        t1 = bn * u2d
        if t0 < t1:
            bn, bd, tags = u2n, u2d, ('u2',)
        elif t0 == t1:
            tags += ('u2',)
    # y2
    if beta:
        t2 = y2n * bd
        t3 = bn * y2d
        if t2 < t3:
            bn, bd, tags = y2n, y2d, ('y2',)
        elif t2 == t3:
            tags += ('y2',)
    # 0
    if alpha:
        if 0 < bn:
            bn, bd, tags = 0, 1, ('0',)
        elif 0 == bn:
            tags += ('0',)
    return bn, bd, tags


def fusion_ac_b_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n,
                      x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma, delta,
                      epsilon, zeta):
    # 0
    bn, bd, tags = 0, 1, ('0',)
    # x1+v1-1
    t0 = x1d * v1d
    t1 = x1n * v1d + v1n * x1d - t0
    t2 = t1 * bd
    t3 = bn * t0
    if t2 > t3:
        bn, bd, tags = t1, t0, ('x1+v1-1',)
    elif t2 == t3:
        tags += ('x1+v1-1',)
    # x1
    if delta:
        t4 = x1n * bd
        t5 = bn * x1d
        if t4 > t5:
            bn, bd, tags = x1n, x1d, ('x1',)
        elif t4 == t5:
            tags += ('x1',)
    # v1
    if epsilon:
        t6 = v1n * bd
        t7 = bn * v1d
        if t6 > t7:
            bn, bd, tags = v1n, v1d, ('v1',)
        elif t6 == t7:
            tags += ('v1',)
    return bn, bd, tags


def fusion_ac_b_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n,
                      x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma, delta,
                      epsilon, zeta):
    # v2
    bn, bd, tags = v2n, v2d, ('v2',)
    # x2
    t0 = x2n * bd
    t1 = bn * x2d
    if t0 < t1:
        bn, bd, tags = x2n, x2d, ('x2',)
    elif t0 == t1:
        tags += ('x2',)
    # u2x2(1-y1)/(y1(1-u2))
    if gamma and y1n * u2d > u2n * y1d:
        t2 = u2n * x2n * (y1d - y1n) * y1d * u2d
        t3 = u2d * x2d * y1d * y1n * (u2d - u2n)
        if t3 <= 0:
            if not t3:
                raise ZeroDivisionError("ratio division by zero")
            t2, t3 = -t2, -t3
        t4 = t2 * bd
        t5 = bn * t3
        if t4 < t5:
            bn, bd, tags = t2, t3, ('u2x2(1-y1)/(y1(1-u2))',)
        elif t4 == t5:
            tags += ('u2x2(1-y1)/(y1(1-u2))',)
    # v2y2(1-u1)/(u1(1-y2))
    if beta and u1n * y2d > y2n * u1d:
        t6 = v2n * y2n * (u1d - u1n) * u1d * y2d
        t7 = v2d * y2d * u1d * u1n * (y2d - y2n)
        if t7 <= 0:
            if not t7:
                raise ZeroDivisionError("ratio division by zero")
            t6, t7 = -t6, -t7
        t8 = t6 * bd
        t9 = bn * t7
        if t8 < t9:
            bn, bd, tags = t6, t7, ('v2y2(1-u1)/(u1(1-y2))',)
        elif t8 == t9:
            tags += ('v2y2(1-u1)/(u1(1-y2))',)
    # 0
    if alpha:
        if 0 < bn:
            bn, bd, tags = 0, 1, ('0',)
        elif 0 == bn:
            tags += ('0',)
    return bn, bd, tags


def combination_c_ab_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d,
                           x2n, x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma,
                           delta, epsilon, zeta):
    # 0
    bn, bd, tags = 0, 1, ('0',)
    # 1-1/v1+x1/v1
    if v1n * x1d + x1n * v1d > v1d * x1d:
        t0 = v1d
        t1 = v1n
        if t1 <= 0:
            if not t1:
                raise ZeroDivisionError("ratio division by zero")
            t0, t1 = -t0, -t1
        t2 = x1n * v1d
        t3 = x1d * v1n
        if t3 <= 0:
            if not t3:
                raise ZeroDivisionError("ratio division by zero")
            t2, t3 = -t2, -t3
        t4 = (t1 - t0) * t3 + t2 * t1
        t5 = t1 * t3
        t6 = t4 * bd
        t7 = bn * t5
        if t6 > t7:
            bn, bd, tags = t4, t5, ('1-1/v1+x1/v1',)
        elif t6 == t7:
            tags += ('1-1/v1+x1/v1',)
    # 1
    if epsilon:
        if bd > bn:
            bn, bd, tags = 1, 1, ('1',)
        elif bd == bn:
            tags += ('1',)
    # x1/v2
    if delta and v2n > 0:
        t8 = x1n * v2d
        t9 = x1d * v2n
        if t9 <= 0:
            if not t9:
                raise ZeroDivisionError("ratio division by zero")
            t8, t9 = -t8, -t9
        t10 = t8 * bd
        t11 = bn * t9
        if t10 > t11:
            bn, bd, tags = t8, t9, ('x1/v2',)
        elif t10 == t11:
            tags += ('x1/v2',)
    return bn, bd, tags


def combination_c_ab_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d,
                           x2n, x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma,
                           delta, epsilon, zeta):
    # 1
    bn, bd, tags = 1, 1, ('1',)
    # y2(1-u1)/(u1(1-y2))
    if beta and u1n * y2d > y2n * u1d:
        t0 = y2n * (u1d - u1n) * u1d * y2d
        t1 = y2d * u1d * u1n * (y2d - y2n)
        if t1 <= 0:
            if not t1:
                raise ZeroDivisionError("ratio division by zero")
            t0, t1 = -t0, -t1
        t2 = t0 * bd
        t3 = bn * t1
        if t2 < t3:
            bn, bd, tags = t0, t1, ('y2(1-u1)/(u1(1-y2))',)
        elif t2 == t3:
            tags += ('y2(1-u1)/(u1(1-y2))',)
    # 0
    if alpha:
        if 0 < bn:
            bn, bd, tags = 0, 1, ('0',)
        elif 0 == bn:
            tags += ('0',)
    # x2/v1
    if v1n * x2d > x2n * v1d:
        t4 = x2n * v1d
        t5 = x2d * v1n
        if t5 <= 0:
            if not t5:
                raise ZeroDivisionError("ratio division by zero")
            t4, t5 = -t4, -t5
        t6 = t4 * bd
        t7 = bn * t5
        if t6 < t7:
            bn, bd, tags = t4, t5, ('x2/v1',)
        elif t6 == t7:
            tags += ('x2/v1',)
    return bn, bd, tags


def combination_ab_c_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d,
                           x2n, x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma,
                           delta, epsilon, zeta):
    # 0
    bn, bd, tags = 0, 1, ('0',)
    # v1y1/x1-y1/x1+y1
    if v1n * x1d + x1n * v1d > v1d * x1d:
        t0 = v1n * y1n * x1d
        t1 = v1d * y1d * x1n
        if t1 <= 0:
            if not t1:
                raise ZeroDivisionError("ratio division by zero")
            t0, t1 = -t0, -t1
        t2 = y1n * x1d
        t3 = y1d * x1n
        if t3 <= 0:
            if not t3:
                raise ZeroDivisionError("ratio division by zero")
            t2, t3 = -t2, -t3
        t4 = t1 * t3
        t5 = (t0 * t3 - t2 * t1) * y1d + y1n * t4
        t6 = t4 * y1d
        t7 = t5 * bd
        t8 = bn * t6
        if t7 > t8:
            bn, bd, tags = t5, t6, ('v1y1/x1-y1/x1+y1',)
        elif t7 == t8:
            tags += ('v1y1/x1-y1/x1+y1',)
    # y1
    if delta:
        t9 = y1n * bd
        t10 = bn * y1d
        if t9 > t10:
            bn, bd, tags = y1n, y1d, ('y1',)
        elif t9 == t10:
            tags += ('y1',)
    # u1
    if beta and epsilon:
        t11 = u1n * bd
        t12 = bn * u1d
        if t11 > t12:
            bn, bd, tags = u1n, u1d, ('u1',)
        elif t11 == t12:
            tags += ('u1',)
    # u1x1/(u1x1+v2(1-u1))
    if beta and u1n > 0 and x1n > 0:
        t13 = u1n * x1n
        t14 = u1d * x1d
        t15 = v2d * u1d
        t16 = t13 * t14 * t15
        t17 = t14 * (t13 * t15 + v2n * (u1d - u1n) * t14)
        if t17 <= 0:
            if not t17:
                raise ZeroDivisionError("ratio division by zero")
            t16, t17 = -t16, -t17
        t18 = t16 * bd
        t19 = bn * t17
        if t18 > t19:
            bn, bd, tags = t16, t17, ('u1x1/(u1x1+v2(1-u1))',)
        elif t18 == t19:
            tags += ('u1x1/(u1x1+v2(1-u1))',)
    # v1y1/x2
    if epsilon and x2n > 0:
        t20 = v1n * y1n * x2d
        t21 = v1d * y1d * x2n
        if t21 <= 0:
            if not t21:
                raise ZeroDivisionError("ratio division by zero")
            t20, t21 = -t20, -t21
        t22 = t20 * bd
        t23 = bn * t21
        if t22 > t23:
            bn, bd, tags = t20, t21, ('v1y1/x2',)
        elif t22 == t23:
            tags += ('v1y1/x2',)
    return bn, bd, tags


def combination_ab_c_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d,
                           x2n, x2d, y1n, y1d, y2n, y2d, alpha, beta, gamma,
                           delta, epsilon, zeta):
    bn = None
    # v2y2/x1
    if x1n * v2d > v2n * x1d:
        t0 = v2n * y2n * x1d
        t1 = v2d * y2d * x1n
        if t1 <= 0:
            if not t1:
                raise ZeroDivisionError("ratio division by zero")
            t0, t1 = -t0, -t1
        bn, bd, tags = t0, t1, ('v2y2/x1',)
    # u2(1-y1)/(1-u2)
    if gamma and u2n < u2d:
        t2 = u2n * (y1d - y1n) * u2d
        t3 = u2d * y1d * (u2d - u2n)
        if t3 <= 0:
            if not t3:
                raise ZeroDivisionError("ratio division by zero")
            t2, t3 = -t2, -t3
        if bn is None:
            bn, bd, tags = t2, t3, ('u2(1-y1)/(1-u2)',)
        else:
            t4 = t2 * bd
            t5 = bn * t3
            if t4 < t5:
                bn, bd, tags = t2, t3, ('u2(1-y1)/(1-u2)',)
            elif t4 == t5:
                tags += ('u2(1-y1)/(1-u2)',)
    # u2v2/(u2x1+v2(1-u2))
    if gamma and x1n * v2d > v2n * x1d and v2n > 0:
        t6 = u2d * x1d
        t7 = v2d * u2d
        t8 = u2n * v2n * t6 * t7
        t9 = u2d * v2d * (u2n * x1n * t7 + v2n * (u2d - u2n) * t6)
        if t9 <= 0:
            if not t9:
                raise ZeroDivisionError("ratio division by zero")
            t8, t9 = -t8, -t9
        if bn is None:
            bn, bd, tags = t8, t9, ('u2v2/(u2x1+v2(1-u2))',)
        else:
            t10 = t8 * bd
            t11 = bn * t9
            if t10 < t11:
                bn, bd, tags = t8, t9, ('u2v2/(u2x1+v2(1-u2))',)
            elif t10 == t11:
                tags += ('u2v2/(u2x1+v2(1-u2))',)
    # 0
    if alpha:
        if bn is None:
            bn, bd, tags = 0, 1, ('0',)
        else:
            if 0 < bn:
                bn, bd, tags = 0, 1, ('0',)
            elif 0 == bn:
                tags += ('0',)
    # y2
    if bn is None:
        bn, bd, tags = y2n, y2d, ('y2',)
    else:
        t12 = y2n * bd
        t13 = bn * y2d
        if t12 < t13:
            bn, bd, tags = y2n, y2d, ('y2',)
        elif t12 == t13:
            tags += ('y2',)
    # u2
    if gamma:
        t14 = u2n * bd
        t15 = bn * u2d
        if t14 < t15:
            bn, bd, tags = u2n, u2d, ('u2',)
        elif t14 == t15:
            tags += ('u2',)
    return bn, bd, tags


def run_rows(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n, x1d, x2n, x2d, y1n,
             y1d, y2n, y2d, alpha, beta, gamma, delta, epsilon, zeta, ab_false,
             ac_false, bc_false, record):
    out = []
    # (B|A)
    ln, ld, lt = sharpening_b_a_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d,
                                      x1n, x1d, x2n, x2d, y1n, y1d, y2n, y2d,
                                      alpha, beta, gamma, delta, epsilon, zeta)
    hn, hd, ht = sharpening_b_a_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d,
                                      x1n, x1d, x2n, x2d, y1n, y1d, y2n, y2d,
                                      alpha, beta, gamma, delta, epsilon, zeta)
    if ln * u1d > u1n * ld or hn * u2d < u2n * hd:
        out.append(record(('B', 'A'), 'sharpening', ln, ld, lt, hn, hd, ht))
    # (A|B)
    ln, ld, lt = sharpening_a_b_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d,
                                      x1n, x1d, x2n, x2d, y1n, y1d, y2n, y2d,
                                      alpha, beta, gamma, delta, epsilon, zeta)
    hn, hd, ht = sharpening_a_b_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d,
                                      x1n, x1d, x2n, x2d, y1n, y1d, y2n, y2d,
                                      alpha, beta, gamma, delta, epsilon, zeta)
    if ln * v1d > v1n * ld or hn * v2d < v2n * hd:
        out.append(record(('A', 'B'), 'sharpening', ln, ld, lt, hn, hd, ht))
    # (C|A)
    ln, ld, lt = chaining_c_a_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d,
                                    x1n, x1d, x2n, x2d, y1n, y1d, y2n, y2d,
                                    alpha, beta, gamma, delta, epsilon, zeta)
    hn, hd, ht = chaining_c_a_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d,
                                    x1n, x1d, x2n, x2d, y1n, y1d, y2n, y2d,
                                    alpha, beta, gamma, delta, epsilon, zeta)
    if ac_false:
        keep = ln > 0 or hn < 0
    elif gamma:
        keep = ln > ld or hn < hd
    else:
        keep = ln > 0 or hn < hd
    if keep:
        out.append(record(('C', 'A'), 'chaining', ln, ld, lt, hn, hd, ht))
    # (B|AC)
    if not ac_false:
        ln, ld, lt = fusion_b_ac_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d,
                                       x1n, x1d, x2n, x2d, y1n, y1d, y2n, y2d,
                                       alpha, beta, gamma, delta, epsilon,
                                       zeta)
        hn, hd, ht = fusion_b_ac_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d,
                                       x1n, x1d, x2n, x2d, y1n, y1d, y2n, y2d,
                                       alpha, beta, gamma, delta, epsilon,
                                       zeta)
        if alpha:
            keep = ln > 0 or hn < 0
        elif zeta:
            keep = ln > ld or hn < hd
        else:
            keep = ln > 0 or hn < hd
        if keep:
            out.append(record(('B', 'AC'), 'fusion', ln, ld, lt, hn, hd, ht))
    # (AC|B)
    ln, ld, lt = fusion_ac_b_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n,
                                   x1d, x2n, x2d, y1n, y1d, y2n, y2d, alpha,
                                   beta, gamma, delta, epsilon, zeta)
    hn, hd, ht = fusion_ac_b_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d, x1n,
                                   x1d, x2n, x2d, y1n, y1d, y2n, y2d, alpha,
                                   beta, gamma, delta, epsilon, zeta)
    if alpha:
        keep = ln > 0 or hn < 0
    else:
        keep = ln > 0 or hn < hd
    if keep:
        out.append(record(('AC', 'B'), 'fusion', ln, ld, lt, hn, hd, ht))
    # (C|AB)
    if not ab_false:
        ln, ld, lt = combination_c_ab_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n,
                                            v2d, x1n, x1d, x2n, x2d, y1n, y1d,
                                            y2n, y2d, alpha, beta, gamma,
                                            delta, epsilon, zeta)
        hn, hd, ht = combination_c_ab_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n,
                                            v2d, x1n, x1d, x2n, x2d, y1n, y1d,
                                            y2n, y2d, alpha, beta, gamma,
                                            delta, epsilon, zeta)
        if alpha:
            keep = ln > 0 or hn < 0
        elif epsilon:
            keep = ln > ld or hn < hd
        else:
            keep = ln > 0 or hn < hd
        if keep:
            out.append(record(('C', 'AB'), 'combination', ln, ld, lt, hn, hd,
                              ht))
    # (AB|C)
    ln, ld, lt = combination_ab_c_lower(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d,
                                        x1n, x1d, x2n, x2d, y1n, y1d, y2n, y2d,
                                        alpha, beta, gamma, delta, epsilon,
                                        zeta)
    hn, hd, ht = combination_ab_c_upper(u1n, u1d, u2n, u2d, v1n, v1d, v2n, v2d,
                                        x1n, x1d, x2n, x2d, y1n, y1d, y2n, y2d,
                                        alpha, beta, gamma, delta, epsilon,
                                        zeta)
    if alpha:
        keep = ln > 0 or hn < 0
    else:
        keep = ln > 0 or hn < hd
    if keep:
        out.append(record(('AB', 'C'), 'combination', ln, ld, lt, hn, hd, ht))
    # (B|C)
    ln, ld, lt = sharpening_b_a_lower(y1n, y1d, y2n, y2d, x1n, x1d, x2n, x2d,
                                      v1n, v1d, v2n, v2d, u1n, u1d, u2n, u2d,
                                      alpha, gamma, beta, epsilon, delta, zeta)
    hn, hd, ht = sharpening_b_a_upper(y1n, y1d, y2n, y2d, x1n, x1d, x2n, x2d,
                                      v1n, v1d, v2n, v2d, u1n, u1d, u2n, u2d,
                                      alpha, gamma, beta, epsilon, delta, zeta)
    if ln * y1d > y1n * ld or hn * y2d < y2n * hd:
        out.append(record(('B', 'C'), 'sharpening', ln, ld, lt, hn, hd, ht))
    # (C|B)
    ln, ld, lt = sharpening_a_b_lower(y1n, y1d, y2n, y2d, x1n, x1d, x2n, x2d,
                                      v1n, v1d, v2n, v2d, u1n, u1d, u2n, u2d,
                                      alpha, gamma, beta, epsilon, delta, zeta)
    hn, hd, ht = sharpening_a_b_upper(y1n, y1d, y2n, y2d, x1n, x1d, x2n, x2d,
                                      v1n, v1d, v2n, v2d, u1n, u1d, u2n, u2d,
                                      alpha, gamma, beta, epsilon, delta, zeta)
    if ln * x1d > x1n * ld or hn * x2d < x2n * hd:
        out.append(record(('C', 'B'), 'sharpening', ln, ld, lt, hn, hd, ht))
    # (A|C)
    ln, ld, lt = chaining_c_a_lower(y1n, y1d, y2n, y2d, x1n, x1d, x2n, x2d,
                                    v1n, v1d, v2n, v2d, u1n, u1d, u2n, u2d,
                                    alpha, gamma, beta, epsilon, delta, zeta)
    hn, hd, ht = chaining_c_a_upper(y1n, y1d, y2n, y2d, x1n, x1d, x2n, x2d,
                                    v1n, v1d, v2n, v2d, u1n, u1d, u2n, u2d,
                                    alpha, gamma, beta, epsilon, delta, zeta)
    if ac_false:
        keep = ln > 0 or hn < 0
    elif beta:
        keep = ln > ld or hn < hd
    else:
        keep = ln > 0 or hn < hd
    if keep:
        out.append(record(('A', 'C'), 'chaining', ln, ld, lt, hn, hd, ht))
    # (A|BC)
    if not bc_false:
        ln, ld, lt = combination_c_ab_lower(y1n, y1d, y2n, y2d, x1n, x1d, x2n,
                                            x2d, v1n, v1d, v2n, v2d, u1n, u1d,
                                            u2n, u2d, alpha, gamma, beta,
                                            epsilon, delta, zeta)
        hn, hd, ht = combination_c_ab_upper(y1n, y1d, y2n, y2d, x1n, x1d, x2n,
                                            x2d, v1n, v1d, v2n, v2d, u1n, u1d,
                                            u2n, u2d, alpha, gamma, beta,
                                            epsilon, delta, zeta)
        if alpha:
            keep = ln > 0 or hn < 0
        elif delta:
            keep = ln > ld or hn < hd
        else:
            keep = ln > 0 or hn < hd
        if keep:
            out.append(record(('A', 'BC'), 'combination', ln, ld, lt, hn, hd,
                              ht))
    # (BC|A)
    ln, ld, lt = combination_ab_c_lower(y1n, y1d, y2n, y2d, x1n, x1d, x2n, x2d,
                                        v1n, v1d, v2n, v2d, u1n, u1d, u2n, u2d,
                                        alpha, gamma, beta, epsilon, delta,
                                        zeta)
    hn, hd, ht = combination_ab_c_upper(y1n, y1d, y2n, y2d, x1n, x1d, x2n, x2d,
                                        v1n, v1d, v2n, v2d, u1n, u1d, u2n, u2d,
                                        alpha, gamma, beta, epsilon, delta,
                                        zeta)
    if alpha:
        keep = ln > 0 or hn < 0
    else:
        keep = ln > 0 or hn < hd
    if keep:
        out.append(record(('BC', 'A'), 'combination', ln, ld, lt, hn, hd, ht))
    return out
