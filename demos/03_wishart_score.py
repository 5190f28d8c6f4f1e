"""Score matching on the pooled sum-of-squares statistic.

With nu independent series, S = Y'Y is sufficient and Wishart-distributed;
the score acts on S directly.  This demo traces the objective, fits the
parameter, and forms the sandwich standard error from the closed-form
sensitivity and the exact inverse-Wishart variability, checked against Monte
Carlo draws and against the sd that ``fit`` reports.
"""

import numpy as np

from minscore import (
    fit,
    sample_ar1,
    sum_of_squares,
    wishart_components,
    wishart_context,
)
from minscore.selfcheck import hw_grad_samples, wishart_score

NU, T, PHI = 200, 50, 0.5

y = sample_ar1(PHI, NU, T, seed=11)
s = sum_of_squares(y)
ctx = wishart_context(s, nu=NU, model="ar1")

# the objective is the score HW less its part free of phi, which cannot move
# the estimate; the whole score comes from the dense form in selfcheck
print(f"Wishart score over phi (truth {PHI}); its part free of phi is "
      f"{wishart_score(s, NU, 'ar1', None):.4f}:")
for phi in (-0.5, 0.0, 0.3, 0.5, 0.7):
    grad = ctx.derivatives(phi)[0][0]
    print(f"  phi={phi:+.1f}: objective={ctx.total(phi):12.4f}  "
          f"HW={wishart_score(s, NU, 'ar1', phi):12.4f}  gradient={grad:+10.2f}")

record = fit(y, "hyv-wishart", "ar1")
phi_hat = record.estimate
print(f"\nfitted phi: {phi_hat:+.4f}")

j, k = wishart_components("ar1", phi_hat, NU, T)
grads = hw_grad_samples("ar1", phi_hat, NU, T, n_draws=500, seed=12)
print(f"sensitivity K (closed form): {k:.2f}")
print(f"variability J (exact): {j:.4f}")
print(f"variability J (500 Monte Carlo draws, for comparison): {np.mean(grads**2):.4f}")
print(f"sandwich sd = sqrt(J)/K = {np.sqrt(j) / k:.4f} (fit reports {record.sd:.4f})")
print("(compare: full-likelihood sd at this size is about 0.0087)")
