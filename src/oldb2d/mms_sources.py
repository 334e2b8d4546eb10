"""Fields, sources and forces of the manufactured solutions of
:func:`oldb2d.verify.make_ms`, as numpy functions.

Generated by scripts/gen_mms.py from the symbolic derivation in
tests/mms_symbolic.py; do not edit. Regenerate with

    python scripts/gen_mms.py

For each solution, ``<name>_constants`` takes the ``[params]`` values and
the box lengths and returns the tuple ``c`` of every subexpression that
depends on them alone. ``<name>_fields``, ``<name>_sources`` and, for
steady-ws, ``<name>_forces`` take the cell-centre axes ``x`` and ``y``,
the time ``t`` and that tuple, and return the group's outputs in order:
the fields as rho, ux, uy, eta, t11, t12, t22, the sources as the state
planes rho, mx, my, eta, t11, t12, t22, and the forces as fx, fy. A
definition shared by several outputs is computed once; each output is
computed by the same operations, in the same order, as on its own, so it
has the same bits. A residual that vanishes identically is returned as 0,
and an output may be returned twice.
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


def periodic_smooth_fields(x, y, t, c):
    x0 = c[1]*x
    x1 = cos(t)*sin(c[0]*y)
    return (1 + (3/20)*cos(t)*sin(c[1]*x)*cos(c[0]*y), (1/20)*(1 + (1/2)*sin(t))*sin(c[1]*x)*cos(c[0]*y), (1/20)*(1 - 1/2*sin(t))*cos(c[1]*x)*sin(c[0]*y), 1 + (1/10)*cos(t)*cos(c[1]*x)*sin(c[0]*y), c[2]*(1 + (1/10)*cos(x0)*x1) + (1/20)*sin(x0)*x1, (3/100)*sin(t)*cos(c[1]*x)*cos(c[0]*y), c[2]*(1 + (1/10)*cos(x0)*x1) - 1/20*sin(x0)*x1)


def periodic_smooth_sources(x, y, t, c):
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
    rho = -x0*x5 + c[3]*x11*x12 + c[4]*x8*x12 + c[6]*x10*x11*x2**2 + c[5]*x10*x8*sin(x1)**2
    del x5, x11, x12
    x13 = sin(x1)
    del x1
    x14 = x9*x13
    x15 = x4*x14
    x16 = x6*x14
    x17 = 1 + x7
    x18 = x4*x2
    x19 = x17*x18
    x20 = x4**2
    x21 = x2**2
    x22 = x17*x21
    x23 = x9*x18
    x24 = 1 + (3/20)*x23
    x25 = x9*x6
    x26 = x25*x2
    x27 = x17**2
    x28 = 1 - x7
    x29 = x17*x13**2
    x30 = x4*x6*x24
    x31 = x28*x30
    mx = c[13]*x19 + c[10]*x15 + c[11]*x16 + c[9]*(c[7]*x19 + x28*c[8]*x18) + (1/40)*x23*x24 + c[18]*x22*x31 + c[20]*x26*x24**c[19] + c[17]*x29*x31 + c[14]*x15*(1 + (1/10)*x16) - 3/400*x0*x20*x22 + x27*c[15]*x21*x30 + x0*c[12]*x6*x13 + x27*c[16]*x20*x25*x2**3 + x28*c[21]*x20*x29*x26
    del x18, x19, x20, x21, x22, x23, x24, x25, x26, x29, x30, x31
    x32 = x9*x2
    x33 = x6*x32
    x34 = x0*x4*x2
    x35 = x4*x32
    x36 = -1 + x7
    x37 = x6*x13
    x38 = 1 + (3/20)*x35
    x39 = x9*x37
    x40 = -x36
    x41 = x40*x37
    x42 = x10*x13
    x43 = x6**2
    x44 = x40**2*x43
    x45 = x40*x17
    x46 = x13*x2*x38
    x47 = x45*x46
    my = c[4]*x35 + c[23]*x33 + c[24]*x34 + c[9]*(c[22]*x41 + x17*c[8]*x37) - 3/400*x41*x34 - 1/40*x38*x39 + x36*c[25]*x37 + c[28]*x42*x38**c[19] + c[30]*x43*x47 + c[26]*x44*x46 + c[29]*x4**2*x47 + c[27]*x33*(1 + (1/10)*x39) + c[21]*x10*x44*x13**3 + x45*c[16]*x43*x2**2*x42
    del x10, x33, x34, x35, x38, x39, x41, x42, x43, x44, x46, x47
    x48 = (1/10)*x37
    x49 = (1 - x7)*x2
    x50 = (1 + x7)*x2
    x51 = x6*(1 + x9*x48)
    eta = -x0*x48 + c[4]*x49*x51 + c[3]*x50*x51 + x9*c[31]*x37 + c[26]*x6**2*x49*x14 + c[32]*sin(x3)**2*x14*x50
    del x3, x37, x48, x49, x51
    x52 = x0*x13
    x53 = (1/20)*x4
    x54 = x6*x52
    x55 = x53*x14 + c[2]*(1 + (1/10)*x16)
    t11 = c[36]*x15 + c[33]*x54 - x53*x52 + c[38]*(x4 + c[37]*x6)*x14 + x53*x50*(c[34]*x15 + c[3]*x16) + (1/20)*x8*x13*(c[4]*x4*x32 + c[35]*x6*x32) + c[4]*x8*x2*x55 + c[11]*x6*x50*x55 + c[39]*x4*x50*x54
    del x8, x55
    x56 = x6*x2
    x57 = (1/20)*x4*x14
    x58 = c[2]*(1 + (1/10)*x6*x14)
    x59 = x4*x13
    t12 = (3/100)*x9*x56 + x0*c[40]*x56 + x28*c[3]*x59*(x57 + x58) + x17*c[4]*x59*(x58 - x57) + x28*x0*c[42]*x6**2*x13**2 + x0*x17*c[41]*x4**2*x2**2
    del x56, x57, x58, x59
    x60 = x28*x6
    x61 = c[2]*(1 + (1/10)*x16) - x53*x14
    return (rho, mx, my, eta, t11, t12, c[43]*x15 + x53*x52 + c[33]*x54 + c[46]*(x4 + c[45]*x6)*x14 + x53*x50*(c[34]*x15 + c[11]*x16) + (1/20)*x60*x13*(c[44]*x4*x32 + c[35]*x6*x32) + c[44]*x60*x2*x61 + c[3]*x6*x50*x61 + x28*c[47]*x4*x2*x54)


def diffusion_eta_constants(a, gamma, mu_s, mu_b, eps, k, lam, zfrak, L, lx, ly):
    x0 = lx**(-1.0)
    x1 = 2*pi
    x2 = x0*x1
    x3 = ly**(-1.0)
    x4 = x1*x3
    x5 = pi*k*(1 - L)
    return (x2, x4, -4*eps*pi**2*(lx**(-2.0) + ly**(-2.0)), k, x0*x5, -x2*zfrak, x3*x5, -x4*zfrak)


def diffusion_eta_fields(x, y, t, c):
    t11 = c[3]*(1 + (1/2)*exp(c[2]*t)*cos(c[0]*x)*cos(c[1]*y))
    return (1, 0, 0, 1 + (1/2)*exp(c[2]*t)*cos(c[0]*x)*cos(c[1]*y), t11, 0, t11)


def diffusion_eta_sources(x, y, t, c):
    x0 = c[0]*x
    x1 = exp(c[2]*t)*cos(c[1]*y)
    x2 = sin(x0)*x1
    mx = c[4]*x2 + c[5]*x2*(1 + (1/2)*cos(x0)*x1)
    del x0, x1, x2
    x3 = c[1]*y
    x4 = exp(c[2]*t)*cos(c[0]*x)
    x5 = x4*sin(x3)
    return (0, mx, c[6]*x5 + c[7]*x5*(1 + (1/2)*x4*cos(x3)), 0, 0, 0, 0)


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


def steady_ws_fields(x, y, t, c):
    return (1 + (1/5)*sin(c[0]*x)*sin(c[1]*y), (1/10)*sin(c[0]*x)*cos(c[1]*y), c[2]*cos(c[0]*x)*sin(c[1]*y), 1, c[3] + (1/20)*sin(c[0]*x)*cos(c[1]*y), (3/100)*sin(c[0]*x)*sin(c[1]*y), c[3] + (1/20)*cos(c[0]*x)*sin(c[1]*y))


def steady_ws_sources(x, y, t, c):
    x0 = c[1]*y
    x1 = cos(x0)
    x2 = c[0]*x
    x3 = sin(x2)
    x4 = x3*x1
    x5 = sin(x0)**2
    x6 = cos(x2)
    x7 = c[7]*x3*x6
    t11 = c[4]*x4 + x7*x5 + x7*x1**2 + c[5]*x3**2*x5 + c[6]*x6*x1*(c[3] + (1/20)*x4)
    del x4, x5, x7
    x8 = sin(x0)
    x9 = x3*x8
    t12 = c[8]*x9 + c[10]*x9*(c[3] + (1/20)*x3*cos(x0)) + c[9]*x9*(c[3] + (1/20)*cos(x2)*x8)
    del x0, x3, x9
    x10 = x6*x8
    x11 = sin(x2)**2
    del x2
    x12 = c[12]*x8*x1
    return (0, 0, 0, 0, t11, t12, c[4]*x10 + x11*x12 + x6**2*x12 + c[11]*x11*x8**2 + c[13]*x6*x1*(c[3] + (1/20)*x10))


def steady_ws_forces(x, y, t, c):
    x0 = c[0]*x
    x1 = sin(x0)
    x2 = c[1]*y
    x3 = sin(x2)
    x4 = 1 + (1/5)*x1*x3
    x5 = cos(x2)
    del x2
    x6 = cos(x0)
    del x0
    x7 = c[16]*x1*x6*x4
    fx = (x3**2*x7 + x5**2*x7 + c[14]*x1*x5 + c[15]*x6*x5 + c[18]*x6*x3*x4**c[17])/x4
    del x7
    x8 = c[21]*x3*x5*x4
    return (fx, (x1**2*x8 + x6**2*x8 + c[19]*x6*x3 + c[20]*x6*x5 + c[22]*x1*x5*x4**c[17])/x4)


#: name -> (constants, fields, sources, forces or None)
SOLUTIONS = {
    "periodic-smooth": (periodic_smooth_constants, periodic_smooth_fields, periodic_smooth_sources, None),
    "diffusion-eta": (diffusion_eta_constants, diffusion_eta_fields, diffusion_eta_sources, None),
    "steady-ws": (steady_ws_constants, steady_ws_fields, steady_ws_sources, steady_ws_forces),
}
