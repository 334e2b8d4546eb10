"""Hot kernels of the solver: stencils, MUSCL fluxes and the fixed
pairwise reduction tree, all in numpy (see :mod:`oldb2d.kernels.pure`)."""

# BACKEND is recorded in each perfbench run; BLOCK feeds its cost model.
from .pure import (BACKEND, BLOCK, block_sums, combine_block_sums, ddx, ddy,
                   laplacian, muscl_div_x, muscl_div_y, pairwise_sum)
