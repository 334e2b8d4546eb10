"""Fields, sources and forces of the manufactured solutions of
:func:`oldb2d.verify.make_ms`, as numpy functions.

Generated by scripts/gen_mms.py from the symbolic derivation in
tests/mms_symbolic.py; do not edit. Regenerate with

    python scripts/gen_mms.py

For each solution, ``<name>_constants`` takes the ``[params]`` values and
the box lengths and returns the tuple ``c`` of every subexpression that
depends on them alone. Every other function takes the cell-centre axes
``x`` and ``y``, the time ``t`` and that tuple. A residual that vanishes
identically returns 0.
"""

from numpy import cos, exp, pi, sin


def periodic_smooth_constants(a, gamma, mu_s, mu_b, eps, k, lam, zfrak, L, lx, ly):
    x0 = ly**(-1.0)
    x1 = 2*pi
    x2 = lx**(-1.0)
    x3 = (1/10)*pi
    x4 = x2*x3
    x5 = x0*x3
    x6 = (3/200)*pi
    x7 = lx**(-2.0)
    x8 = pi**2
    x9 = (1/5)*x8
    x10 = -1 + L
    x11 = pi*x2
    x12 = (1/5)*k
    x13 = x11*x12
    x14 = pi*x0
    x15 = ly**(-2.0)
    x16 = x15 + x7
    x17 = x16*x8
    x18 = 0.1*x17*mu_s
    x19 = (2/5)*zfrak
    x20 = (1/100)*x11
    x21 = (1/200)*x14
    x22 = (3/10)*a*gamma
    x23 = x12*x14
    x24 = (1/200)*x11
    x25 = x17*eps
    x26 = lam**(-1.0)
    x27 = (1/40)*x26
    x28 = 2*k
    x29 = x16*x9*eps
    return (x0*x1, x1*x2, k, x4, x5, -x0*x6, x2*x6, -x7*x9, -x0*x2*x9, -mu_b, -x10*x13, -x4, (3/50)*x14, x18, -x11*x19, x20, (3/4000)*x11, -x21, x21, -1 + gamma, x11*x22, -3/4000*x14, -x15*x9, x10*x23, (3/50)*x11, -x18, (1/100)*x14, x14*x19, -x14*x22, -x24, x24, (2/5)*x25, -x20, -1/10*k, -x13, x23, x27, x28, x29, (3/500)*x14, (3/25)*x25 + (3/200)*x26, -3/1000*x11, -3/1000*x14, -x27, -x5, -x28, -x29, (3/500)*x11)


def periodic_smooth_rho(x, y, t, c):
    return 1 + (3/20)*cos(t)*sin(c[1]*x)*cos(c[0]*y)


def periodic_smooth_ux(x, y, t, c):
    return (1/20)*(1 + (1/2)*sin(t))*sin(c[1]*x)*cos(c[0]*y)


def periodic_smooth_uy(x, y, t, c):
    return (1/20)*(1 - 1/2*sin(t))*cos(c[1]*x)*sin(c[0]*y)


def periodic_smooth_eta(x, y, t, c):
    return 1 + (1/10)*cos(t)*cos(c[1]*x)*sin(c[0]*y)


def periodic_smooth_t11(x, y, t, c):
    x0 = c[1]*x
    x1 = cos(t)*sin(c[0]*y)
    return c[2]*(1 + (1/10)*cos(x0)*x1) + (1/20)*sin(x0)*x1


def periodic_smooth_t12(x, y, t, c):
    return (3/100)*sin(t)*cos(c[1]*x)*cos(c[0]*y)


def periodic_smooth_t22(x, y, t, c):
    x0 = c[1]*x
    x1 = cos(t)*sin(c[0]*y)
    return c[2]*(1 + (1/10)*cos(x0)*x1) - 1/20*sin(x0)*x1


def periodic_smooth_source_rho(x, y, t, c):
    x0 = sin(t)
    x1 = c[0]*y
    x2 = cos(x1)
    x3 = c[1]*x
    x4 = sin(x3)
    x5 = (3/20)*x4*x2
    x6 = cos(x3)
    x7 = (1/2)*x0
    x8 = (1 - x7)*x6
    x9 = cos(t)
    x10 = x9*x4
    x11 = (1 + x7)*x6
    x12 = x2*(1 + x9*x5)
    return -x0*x5 + c[3]*x11*x12 + c[4]*x8*x12 + c[6]*x10*x11*x2**2 + c[5]*x10*x8*sin(x1)**2


def periodic_smooth_source_mx(x, y, t, c):
    x0 = c[1]*x
    x1 = sin(x0)
    x2 = cos(t)
    x3 = c[0]*y
    x4 = sin(x3)
    x5 = x2*x4
    x6 = x1*x5
    x7 = cos(x0)
    x8 = x7*x5
    x9 = sin(t)
    x10 = (1/2)*x9
    x11 = 1 + x10
    x12 = cos(x3)
    x13 = x1*x12
    x14 = x11*x13
    x15 = x1**2
    x16 = x12**2
    x17 = x11*x16
    x18 = x2*x13
    x19 = 1 + (3/20)*x18
    x20 = x2*x7
    x21 = x20*x12
    x22 = x11**2
    x23 = 1 - x10
    x24 = x11*x4**2
    x25 = x1*x7*x19
    x26 = x23*x25
    return c[13]*x14 + c[10]*x6 + c[11]*x8 + c[9]*(c[7]*x14 + x23*c[8]*x13) + (1/40)*x18*x19 + c[18]*x17*x26 + c[20]*x21*x19**c[19] + c[17]*x24*x26 + c[14]*x6*(1 + (1/10)*x8) - 3/400*x9*x15*x17 + x22*c[15]*x16*x25 + x9*c[12]*x7*x4 + x22*c[16]*x15*x20*x12**3 + x23*c[21]*x15*x24*x21


def periodic_smooth_source_my(x, y, t, c):
    x0 = c[1]*x
    x1 = cos(x0)
    x2 = cos(t)
    x3 = c[0]*y
    x4 = cos(x3)
    x5 = x2*x4
    x6 = x1*x5
    x7 = sin(t)
    x8 = sin(x0)
    x9 = x7*x8*x4
    x10 = x8*x5
    x11 = (1/2)*x7
    x12 = -1 + x11
    x13 = sin(x3)
    x14 = x1*x13
    x15 = 1 + (3/20)*x10
    x16 = x2*x14
    x17 = -x12
    x18 = x17*x14
    x19 = x2*x8
    x20 = x19*x13
    x21 = x1**2
    x22 = x17**2*x21
    x23 = 1 + x11
    x24 = x17*x23
    x25 = x13*x4*x15
    x26 = x24*x25
    return c[4]*x10 + c[23]*x6 + c[24]*x9 + c[9]*(c[22]*x18 + x23*c[8]*x14) - 3/400*x18*x9 - 1/40*x15*x16 + x12*c[25]*x14 + c[28]*x20*x15**c[19] + c[30]*x21*x26 + c[26]*x22*x25 + c[29]*x8**2*x26 + c[27]*x6*(1 + (1/10)*x16) + c[21]*x19*x22*x13**3 + x24*c[16]*x21*x4**2*x20


def periodic_smooth_source_eta(x, y, t, c):
    x0 = sin(t)
    x1 = c[1]*x
    x2 = cos(x1)
    x3 = c[0]*y
    x4 = sin(x3)
    x5 = x2*x4
    x6 = (1/10)*x5
    x7 = cos(t)
    x8 = cos(x3)
    x9 = (1/2)*x0
    x10 = (1 - x9)*x8
    x11 = x7*x4
    x12 = (1 + x9)*x8
    x13 = x2*(1 + x7*x6)
    return -x0*x6 + c[4]*x10*x13 + c[3]*x12*x13 + x7*c[31]*x5 + c[26]*x2**2*x10*x11 + c[32]*sin(x1)**2*x11*x12


def periodic_smooth_source_t11(x, y, t, c):
    x0 = sin(t)
    x1 = c[0]*y
    x2 = sin(x1)
    x3 = x0*x2
    x4 = c[1]*x
    x5 = sin(x4)
    x6 = (1/20)*x5
    x7 = cos(x4)
    x8 = x7*x3
    x9 = cos(t)
    x10 = x9*x2
    x11 = x5*x10
    x12 = cos(x1)
    x13 = (1/2)*x0
    x14 = (1 + x13)*x12
    x15 = x9*x12
    x16 = (1 - x13)*x7
    x17 = x7*x10
    x18 = x6*x10 + c[2]*(1 + (1/10)*x17)
    return c[36]*x11 + c[33]*x8 - x6*x3 + c[38]*(x5 + c[37]*x7)*x10 + x6*x14*(c[34]*x11 + c[3]*x17) + (1/20)*x16*x2*(c[4]*x5*x15 + c[35]*x7*x15) + c[4]*x16*x12*x18 + c[11]*x7*x14*x18 + c[39]*x5*x14*x8


def periodic_smooth_source_t12(x, y, t, c):
    x0 = cos(t)
    x1 = c[0]*y
    x2 = cos(x1)
    x3 = c[1]*x
    x4 = cos(x3)
    x5 = x4*x2
    x6 = sin(t)
    x7 = (1/2)*x6
    x8 = 1 + x7
    x9 = sin(x3)
    x10 = 1 - x7
    x11 = sin(x1)
    x12 = x0*x11
    x13 = (1/20)*x9*x12
    x14 = c[2]*(1 + (1/10)*x4*x12)
    x15 = x9*x11
    return (3/100)*x0*x5 + x6*c[40]*x5 + x10*c[3]*x15*(x13 + x14) + x8*c[4]*x15*(x14 - x13) + x10*x6*c[42]*x4**2*x11**2 + x6*x8*c[41]*x9**2*x2**2


def periodic_smooth_source_t22(x, y, t, c):
    x0 = sin(t)
    x1 = c[0]*y
    x2 = sin(x1)
    x3 = x0*x2
    x4 = c[1]*x
    x5 = sin(x4)
    x6 = (1/20)*x5
    x7 = cos(x4)
    x8 = x7*x3
    x9 = cos(t)
    x10 = x9*x2
    x11 = x5*x10
    x12 = cos(x1)
    x13 = (1/2)*x0
    x14 = 1 - x13
    x15 = x9*x12
    x16 = x14*x7
    x17 = x7*x10
    x18 = (1 + x13)*x12
    x19 = c[2]*(1 + (1/10)*x17) - x6*x10
    return c[43]*x11 + x6*x3 + c[33]*x8 + c[46]*(x5 + c[45]*x7)*x10 + x6*x18*(c[34]*x11 + c[11]*x17) + (1/20)*x16*x2*(c[44]*x5*x15 + c[35]*x7*x15) + c[44]*x16*x12*x19 + c[3]*x7*x18*x19 + x14*c[47]*x5*x12*x8


def diffusion_eta_constants(a, gamma, mu_s, mu_b, eps, k, lam, zfrak, L, lx, ly):
    x0 = lx**(-1.0)
    x1 = 2*pi
    x2 = x0*x1
    x3 = ly**(-1.0)
    x4 = x1*x3
    x5 = pi*k*(1 - L)
    return (x2, x4, -4*eps*pi**2*(lx**(-2.0) + ly**(-2.0)), k, x0*x5, -x2*zfrak, x3*x5, -x4*zfrak)


def diffusion_eta_rho(x, y, t, c):
    return 1


def diffusion_eta_ux(x, y, t, c):
    return 0


def diffusion_eta_uy(x, y, t, c):
    return 0


def diffusion_eta_eta(x, y, t, c):
    return 1 + (1/2)*exp(c[2]*t)*cos(c[0]*x)*cos(c[1]*y)


def diffusion_eta_t11(x, y, t, c):
    return c[3]*(1 + (1/2)*exp(c[2]*t)*cos(c[0]*x)*cos(c[1]*y))


def diffusion_eta_t12(x, y, t, c):
    return 0


def diffusion_eta_t22(x, y, t, c):
    return c[3]*(1 + (1/2)*exp(c[2]*t)*cos(c[0]*x)*cos(c[1]*y))


def diffusion_eta_source_rho(x, y, t, c):
    return 0


def diffusion_eta_source_mx(x, y, t, c):
    x0 = c[0]*x
    x1 = exp(c[2]*t)*cos(c[1]*y)
    x2 = sin(x0)*x1
    return c[4]*x2 + c[5]*x2*(1 + (1/2)*cos(x0)*x1)


def diffusion_eta_source_my(x, y, t, c):
    x0 = c[1]*y
    x1 = exp(c[2]*t)*cos(c[0]*x)
    x2 = x1*sin(x0)
    return c[6]*x2 + c[7]*x2*(1 + (1/2)*x1*cos(x0))


def diffusion_eta_source_eta(x, y, t, c):
    return 0


def diffusion_eta_source_t11(x, y, t, c):
    return 0


def diffusion_eta_source_t12(x, y, t, c):
    return 0


def diffusion_eta_source_t22(x, y, t, c):
    return 0


def steady_ws_constants(a, gamma, mu_s, mu_b, eps, k, lam, zfrak, L, lx, ly):
    x0 = lx**(-1.0)
    x1 = 2*pi
    x2 = ly**(-1.0)
    x3 = (1/10)*x0
    x4 = lx**(-2.0)
    x5 = x4 + ly**(-2.0)
    x6 = lam**(-1.0) + 8*x5*eps*pi**2
    x7 = pi*x2
    x8 = pi*x0
    x9 = (2/5)*x8
    x10 = (1/100)*x8
    x11 = x4*ly
    x12 = pi*x11
    x13 = 10.0*pi*mu_s
    x14 = (1/50)*pi
    x15 = (1/50)*x8
    x16 = a*gamma
    return (x0*x1, x1*x2, -x3*ly, k, (1/40)*x6, (3/250)*x7, -x9, x10, (3/200)*x6, (1/5)*x7, -1/5*x12, -3/250*x12, -x10, x9, x14*(-3*x2 + x13*x5), -pi*x3, x15, -1 + gamma, x16*x9, -x15*(3 + x13*(x11 + x2)), -1/10*x7, x11*x14, (2/5)*x16*x7)


def steady_ws_rho(x, y, t, c):
    return 1 + (1/5)*sin(c[0]*x)*sin(c[1]*y)


def steady_ws_ux(x, y, t, c):
    return (1/10)*sin(c[0]*x)*cos(c[1]*y)


def steady_ws_uy(x, y, t, c):
    return c[2]*cos(c[0]*x)*sin(c[1]*y)


def steady_ws_eta(x, y, t, c):
    return 1


def steady_ws_t11(x, y, t, c):
    return c[3] + (1/20)*sin(c[0]*x)*cos(c[1]*y)


def steady_ws_t12(x, y, t, c):
    return (3/100)*sin(c[0]*x)*sin(c[1]*y)


def steady_ws_t22(x, y, t, c):
    return c[3] + (1/20)*cos(c[0]*x)*sin(c[1]*y)


def steady_ws_source_rho(x, y, t, c):
    return 0


def steady_ws_source_mx(x, y, t, c):
    return 0


def steady_ws_source_my(x, y, t, c):
    return 0


def steady_ws_source_eta(x, y, t, c):
    return 0


def steady_ws_source_t11(x, y, t, c):
    x0 = c[1]*y
    x1 = cos(x0)
    x2 = c[0]*x
    x3 = sin(x2)
    x4 = x3*x1
    x5 = sin(x0)**2
    x6 = cos(x2)
    x7 = c[7]*x3*x6
    return c[4]*x4 + x7*x5 + x7*x1**2 + c[5]*x3**2*x5 + c[6]*x6*x1*(c[3] + (1/20)*x4)


def steady_ws_source_t12(x, y, t, c):
    x0 = c[0]*x
    x1 = sin(x0)
    x2 = c[1]*y
    x3 = sin(x2)
    x4 = x1*x3
    return c[8]*x4 + c[10]*x4*(c[3] + (1/20)*x1*cos(x2)) + c[9]*x4*(c[3] + (1/20)*cos(x0)*x3)


def steady_ws_source_t22(x, y, t, c):
    x0 = c[0]*x
    x1 = cos(x0)
    x2 = c[1]*y
    x3 = sin(x2)
    x4 = x1*x3
    x5 = sin(x0)**2
    x6 = cos(x2)
    x7 = c[12]*x3*x6
    return c[4]*x4 + x5*x7 + x1**2*x7 + c[11]*x5*x3**2 + c[13]*x1*x6*(c[3] + (1/20)*x4)


def steady_ws_force_x(x, y, t, c):
    x0 = c[0]*x
    x1 = sin(x0)
    x2 = c[1]*y
    x3 = sin(x2)
    x4 = 1 + (1/5)*x1*x3
    x5 = cos(x2)
    x6 = cos(x0)
    x7 = c[16]*x1*x6*x4
    return (x3**2*x7 + x5**2*x7 + c[14]*x1*x5 + c[15]*x6*x5 + c[18]*x6*x3*x4**c[17])/x4


def steady_ws_force_y(x, y, t, c):
    x0 = c[0]*x
    x1 = sin(x0)
    x2 = c[1]*y
    x3 = sin(x2)
    x4 = 1 + (1/5)*x1*x3
    x5 = cos(x0)
    x6 = cos(x2)
    x7 = c[21]*x3*x6*x4
    return (x1**2*x7 + x5**2*x7 + c[19]*x5*x3 + c[20]*x5*x6 + c[22]*x1*x6*x4**c[17])/x4


#: name -> (constants, the 7 fields, the 7 sources, the 2 forces or None)
SOLUTIONS = {
    "periodic-smooth": (
        periodic_smooth_constants,
        (
            periodic_smooth_rho,
            periodic_smooth_ux,
            periodic_smooth_uy,
            periodic_smooth_eta,
            periodic_smooth_t11,
            periodic_smooth_t12,
            periodic_smooth_t22,
        ),
        (
            periodic_smooth_source_rho,
            periodic_smooth_source_mx,
            periodic_smooth_source_my,
            periodic_smooth_source_eta,
            periodic_smooth_source_t11,
            periodic_smooth_source_t12,
            periodic_smooth_source_t22,
        ),
        None),
    "diffusion-eta": (
        diffusion_eta_constants,
        (
            diffusion_eta_rho,
            diffusion_eta_ux,
            diffusion_eta_uy,
            diffusion_eta_eta,
            diffusion_eta_t11,
            diffusion_eta_t12,
            diffusion_eta_t22,
        ),
        (
            diffusion_eta_source_rho,
            diffusion_eta_source_mx,
            diffusion_eta_source_my,
            diffusion_eta_source_eta,
            diffusion_eta_source_t11,
            diffusion_eta_source_t12,
            diffusion_eta_source_t22,
        ),
        None),
    "steady-ws": (
        steady_ws_constants,
        (
            steady_ws_rho,
            steady_ws_ux,
            steady_ws_uy,
            steady_ws_eta,
            steady_ws_t11,
            steady_ws_t12,
            steady_ws_t22,
        ),
        (
            steady_ws_source_rho,
            steady_ws_source_mx,
            steady_ws_source_my,
            steady_ws_source_eta,
            steady_ws_source_t11,
            steady_ws_source_t12,
            steady_ws_source_t22,
        ),
        (
            steady_ws_force_x,
            steady_ws_force_y,
        )),
}
