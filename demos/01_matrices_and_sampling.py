"""Covariance and precision structure of the two models, plus sampling.

Builds the AR(1) and MA(1) covariance matrices (unit innovation variance; the
dense builders live with the oracles in ``minscore.selfcheck``), verifies the
closed-form precision matrices against dense inversion, and checks sample
moments of the replicated-series samplers against the analytic covariances.
"""

import numpy as np

from minscore import sample_ar1, sample_ma1
from minscore.selfcheck import ar1_covariance, ar1_precision, ma1_covariance, ma1_precision

T = 6
ar = ma = 0.6  # phi and alpha

print("AR(1) covariance (phi=0.6, T=6), first row:")
print(np.round(ar1_covariance(ar, T)[0], 4))
print("\nAR(1) precision is tridiagonal: unit corners, 1+phi^2 interior, -phi off-diagonal:")
print(np.round(ar1_precision(ar, T), 4))

err = np.max(np.abs(ar1_precision(ar, T) @ ar1_covariance(ar, T) - np.eye(T)))
print(f"\nmax |P@Cov - I| for AR(1): {err:.2e}")

print("\nMA(1) covariance is banded; its inverse is dense with geometric decay:")
print(np.round(ma1_precision(ma, T), 4))
err = np.max(np.abs(ma1_precision(ma, T) @ ma1_covariance(ma, T) - np.eye(T)))
print(f"max |P@Cov - I| for MA(1): {err:.2e}")

print("\nSampling 5000 AR(1) series of length 10 and comparing moments:")
y = sample_ar1(0.5, 5000, 10, seed=42)
sample_cov = y.T @ y / 5000
target = ar1_covariance(0.5, 10)
print(f"  lag-0 sample {sample_cov[3, 3]:.4f} vs analytic {target[3, 3]:.4f}")
print(f"  lag-1 sample {sample_cov[3, 4]:.4f} vs analytic {target[3, 4]:.4f}")

y = sample_ma1(0.5, 5000, 10, seed=42)
print("MA(1), alpha=0.5:")
print(f"  lag-1 sample {np.mean(y[:, 1:] * y[:, :-1]):.4f} vs analytic 0.5")
print(f"  lag-2 sample {np.mean(y[:, 2:] * y[:, :-2]):.4f} vs analytic 0.0")
