"""2D compressible viscoelastic flow (Oldroyd-B with stress diffusion):
explicit finite-difference simulator plus energy and relative-entropy
diagnostics."""
