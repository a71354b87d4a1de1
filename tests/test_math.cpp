// Unit tests for math/legendre: recurrences, coefficient expansions,
// associated Legendre, Gauss-Legendre quadrature, factorials.
#include <gtest/gtest.h>

#include <cmath>

#include "math/legendre.hpp"

namespace m = galactos::math;

TEST(Legendre, LowOrdersMatchClosedForm) {
  for (double x : {-1.0, -0.7, -0.2, 0.0, 0.3, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(m::legendre_p(0, x), 1.0);
    EXPECT_DOUBLE_EQ(m::legendre_p(1, x), x);
    EXPECT_NEAR(m::legendre_p(2, x), 0.5 * (3 * x * x - 1), 1e-14);
    EXPECT_NEAR(m::legendre_p(3, x), 0.5 * (5 * x * x * x - 3 * x), 1e-14);
    EXPECT_NEAR(m::legendre_p(4, x),
                (35 * x * x * x * x - 30 * x * x + 3) / 8.0, 1e-14);
  }
}

TEST(Legendre, EndpointValues) {
  for (int l = 0; l <= 15; ++l) {
    EXPECT_NEAR(m::legendre_p(l, 1.0), 1.0, 1e-13) << l;
    EXPECT_NEAR(m::legendre_p(l, -1.0), (l % 2 ? -1.0 : 1.0), 1e-13) << l;
  }
}

TEST(Legendre, AllMatchesSingle) {
  double out[16];
  for (double x : {-0.95, -0.4, 0.1, 0.77}) {
    m::legendre_all(15, x, out);
    for (int l = 0; l <= 15; ++l)
      EXPECT_NEAR(out[l], m::legendre_p(l, x), 1e-13) << "l=" << l;
  }
}

TEST(Legendre, CoefficientsEvaluateToPolynomial) {
  for (int l = 0; l <= 12; ++l) {
    const std::vector<double> c = m::legendre_coeffs(l);
    ASSERT_EQ(c.size(), static_cast<std::size_t>(l + 1));
    for (double x : {-0.8, -0.3, 0.25, 0.6, 0.95}) {
      double v = 0, p = 1;
      for (double ck : c) {
        v += ck * p;
        p *= x;
      }
      EXPECT_NEAR(v, m::legendre_p(l, x), 1e-11) << "l=" << l << " x=" << x;
    }
  }
}

TEST(Legendre, CoefficientsHaveCorrectParity) {
  for (int l = 0; l <= 12; ++l) {
    const std::vector<double> c = m::legendre_coeffs(l);
    for (int k = 0; k <= l; ++k) {
      if ((l - k) % 2 == 1) {
        EXPECT_EQ(c[k], 0.0) << "l=" << l << " k=" << k;
      }
    }
  }
}

TEST(Legendre, DerivCoeffsMatchFiniteDifference) {
  const double h = 1e-6;
  for (int l = 2; l <= 8; ++l)
    for (int mder = 1; mder <= 2; ++mder) {
      const std::vector<double> d = m::legendre_deriv_coeffs(l, mder);
      for (double x : {-0.5, 0.2, 0.7}) {
        double v = 0, p = 1;
        for (double dk : d) {
          v += dk * p;
          p *= x;
        }
        double fd;
        if (mder == 1) {
          fd = (m::legendre_p(l, x + h) - m::legendre_p(l, x - h)) / (2 * h);
        } else {
          fd = (m::legendre_p(l, x + h) - 2 * m::legendre_p(l, x) +
                m::legendre_p(l, x - h)) /
               (h * h);
        }
        EXPECT_NEAR(v, fd, 1e-3 * std::max(1.0, std::abs(fd)))
            << "l=" << l << " m=" << mder << " x=" << x;
      }
    }
}

TEST(Legendre, DerivBeyondDegreeIsZero) {
  const std::vector<double> d = m::legendre_deriv_coeffs(3, 5);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], 0.0);
}

TEST(AssocLegendre, MatchesExplicitFormulas) {
  for (double x : {-0.9, -0.3, 0.0, 0.4, 0.8}) {
    const double s = std::sqrt(1 - x * x);
    EXPECT_NEAR(m::assoc_legendre_p(1, 1, x), -s, 1e-14);
    EXPECT_NEAR(m::assoc_legendre_p(2, 1, x), -3 * x * s, 1e-13);
    EXPECT_NEAR(m::assoc_legendre_p(2, 2, x), 3 * (1 - x * x), 1e-13);
    EXPECT_NEAR(m::assoc_legendre_p(3, 2, x), 15 * x * (1 - x * x), 1e-12);
  }
}

TEST(AssocLegendre, ReducesToLegendreAtMZero) {
  for (int l = 0; l <= 10; ++l)
    for (double x : {-0.6, 0.0, 0.35, 0.99})
      EXPECT_NEAR(m::assoc_legendre_p(l, 0, x), m::legendre_p(l, x), 1e-12);
}

TEST(GaussLegendre, IntegratesPolynomialsExactly) {
  // n-point rule is exact for degree <= 2n-1.
  std::vector<double> x, w;
  m::gauss_legendre(8, x, w);
  ASSERT_EQ(x.size(), 8u);
  // integral of t^k over [-1,1]
  for (int k = 0; k <= 15; ++k) {
    double s = 0;
    for (std::size_t i = 0; i < x.size(); ++i) s += w[i] * std::pow(x[i], k);
    const double exact = (k % 2 == 1) ? 0.0 : 2.0 / (k + 1);
    EXPECT_NEAR(s, exact, 1e-12) << "k=" << k;
  }
}

TEST(GaussLegendre, WeightsSumToTwo) {
  for (int n : {1, 2, 5, 16, 33}) {
    std::vector<double> x, w;
    m::gauss_legendre(n, x, w);
    double s = 0;
    for (double wi : w) s += wi;
    EXPECT_NEAR(s, 2.0, 1e-12) << n;
  }
}

TEST(GaussLegendre, OrthogonalityOfLegendre) {
  std::vector<double> x, w;
  m::gauss_legendre(24, x, w);
  for (int l1 = 0; l1 <= 10; ++l1)
    for (int l2 = 0; l2 <= 10; ++l2) {
      double s = 0;
      for (std::size_t i = 0; i < x.size(); ++i)
        s += w[i] * m::legendre_p(l1, x[i]) * m::legendre_p(l2, x[i]);
      const double exact = l1 == l2 ? 2.0 / (2 * l1 + 1) : 0.0;
      EXPECT_NEAR(s, exact, 1e-12) << l1 << "," << l2;
    }
}

TEST(Factorials, Values) {
  EXPECT_EQ(m::factorial(0), 1.0);
  EXPECT_EQ(m::factorial(1), 1.0);
  EXPECT_EQ(m::factorial(5), 120.0);
  EXPECT_EQ(m::factorial(10), 3628800.0);
  EXPECT_EQ(m::double_factorial(-1), 1.0);
  EXPECT_EQ(m::double_factorial(0), 1.0);
  EXPECT_EQ(m::double_factorial(5), 15.0);
  EXPECT_EQ(m::double_factorial(8), 384.0);
}

TEST(Factorials, RejectsOutOfRange) {
  EXPECT_THROW(m::factorial(-1), std::logic_error);
  EXPECT_THROW(m::factorial(171), std::logic_error);
}
