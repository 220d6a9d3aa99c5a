"""Where the predicted dimensions come from: the series pipeline.

Everything the predictor reports is a coefficient of one rational series.
This script builds that series by hand for the running example
(l = 3 points on the [3,2,2] forms in 4 variables) and walks through the
two plus-truncation steps that turn the artinian expansion into the
predicted Hilbert function.
"""

from redsecant import (
    artinian_bound,
    expand_rational,
    predicted_hilbert,
    reducible_numerator,
    series_pow,
)

parts = [3, 2, 2]
l = 3
d = sum(parts)

# One tangent ideal contributes the numerator prod (1 - t^(d - d_k)); for
# [3,2,2] the non-largest degrees give factors (1-t^4)(1-t^5)(1-t^5).
num_one = reducible_numerator(parts)
print("single-point numerator:", num_one.terms)

# l general points multiply the numerators; the power has degree l*d.
num = series_pow(num_one, l, l * d)
print(f"{l}-point numerator has degree {max(e for e, _ in num.terms)}")
print()

# Step 0: over 2l = 6 variables the quotient is artinian and the series
# is an honest polynomial, ending at the socle degree l*(d-2) = 15.
bound = artinian_bound(l, d)
art = expand_rational(num, 2 * l, bound)
print(f"artinian Hilbert series (6 variables, degrees 0..{bound}):")
print(" ", art.coeffs)
print()

# Step 1: divide by one more (1-t), i.e. expand over 5 variables.  The raw
# expansion eventually goes negative; the plus-truncation zeroes the tail
# from the first nonpositive value on.
raw5 = expand_rational(num, 5, 15)
hf5 = predicted_hilbert(5, l, parts, 15)
print("5 variables, raw expansion: ", raw5.coeffs)
print("5 variables, plus-truncated:", hf5.coeffs)
print()

# Step 2: one more division lands in the actual polynomial ring.  The
# truncation bites again (the raw value at degree 8 is negative), and what
# remains through degree d is the predicted Hilbert function.
raw4 = expand_rational(num, 4, 15)
hf4 = predicted_hilbert(4, l, parts)
print("4 variables, raw expansion: ", raw4.coeffs)
print("4 variables, plus-truncated:", hf4.coeffs)
print()

# The last value is the predicted codimension of the secant variety:
# h(7) = 6 means sigma_3 sits six below the ambient P^119.
print(f"h({d}) = {hf4.coeff(d)} = predicted codimension")
