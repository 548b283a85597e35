"""Every verdict threshold, admission rule and numeric guard of the package.

An absolute constant is compared with a value in the units of the input; a
relative one multiplies the scale named beside it.  Construction parameters
that are not thresholds (``sampling.DEFAULT_FLOOR``, ``linalg.MAX_DIM``)
stay with the code they shape.
"""

#: Absolute.  Default tolerance of scalar-path verdicts (``verify-num``,
#: ``counterexample``, ``search``, ``num`` campaigns) and of the axiom checks.
SCALAR_TOL = 1e-10

#: Absolute.  Default tolerance of matrix-path verdicts (``verify-op``,
#: ``verify-rm``, ``op`` and ``rm`` campaigns, transformer and Jensen checks).
MATRIX_TOL = 1e-8

#: Absolute.  Default tolerance of the concavity probe's two-point gaps.
CONCAVITY_TOL = 1e-9

#: Absolute.  Default slack of ``linalg.loewner_leq`` on lambda_min(B - A).
LOEWNER_TOL = 1e-12

#: Relative, lambda_max / lambda_min.  The one admission rule: a perspective
#: argument, matrix atom or commuting pair needs lambda_min > 0 and at most this.
COND_LIMIT = 1e8

#: Relative, to the inner matrix's lambda_max.  Inner perspective eigenvalues
#: above -CLAMP_TOL lambda_max are roundoff, clamped up to CLAMP_TOL
#: lambda_max; lower ones reject the inputs.  Eigen route only: the
#: closed-form arithmetic and harmonic traces have no inner matrix.
CLAMP_TOL = 1e-12

#: Relative, to ||A||_F ||B||_F.  Largest commutator norm of a commuting pair.
COMMUTE_TOL = 1e-10

#: Relative, to max(1, ||A||_F + ||B||_F).  Largest off-diagonal residual of
#: a commuting pair's shared eigenbasis.
DIAGONALIZE_RTOL = 1e-7

#: Absolute.  How far the largest eigenvalue of sum c_i^T c_i may exceed 1
#: in a Jensen sum.
PARTITION_TOL = 1e-10

#: Relative, to the largest singular value.  A square congruence factor whose
#: smallest singular value is at or below this is not invertible.
INVERTIBLE_RTOL = 1e-10

#: Absolute.  Lower bound on a norm used as a scale or a divisor, so a zero
#: matrix gives a finite ratio.
NORM_FLOOR = 1e-300

#: Relative, to the matrix's max-abs entry.  Largest max-abs entry of A - A^T
#: in a matrix file.
LOAD_SYMMETRY_TOL = 1e-9

#: Absolute.  How far a density matrix's trace may lie from 1.
DENSITY_TRACE_TOL = 1e-12

#: Absolute.  How far a density matrix's smallest eigenvalue may lie below 0.
DENSITY_PSD_TOL = 1e-12

#: Absolute.  How far a space's atom probabilities may sum from 1.
PROB_SUM_TOL = 1e-12

#: Relative, to the abscissa.  The continuity probe's smaller step, x(1 +- d);
#: the larger is 10 d.
JUMP_DELTA = 1e-7
