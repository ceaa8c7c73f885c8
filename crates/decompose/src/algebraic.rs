//! Low-agreement function families from polynomials over prime fields.
//!
//! Both Linial's `O(Δ²)`-coloring and Kuhn's defective coloring (Lemma 2.1 of the paper), as
//! well as the paper's own Procedure Arb-Recolor (Algorithm 3), rely on a family of functions
//! `{ϕ_χ : A → B}` indexed by the current colors `χ ∈ [M]`, with the property that any two
//! *distinct* colors agree on few elements of `A`.
//!
//! The classical construction (essentially a Reed–Solomon code) takes a prime `q`, sets
//! `A = B = F_q = {0, …, q−1}`, writes `χ` in base `q` as `(c_0, …, c_k)` and lets
//! `ϕ_χ(α) = c_0 + c_1 α + … + c_k α^k (mod q)`.  Two distinct polynomials of degree ≤ `k`
//! agree on at most `k` points, so the family has *agreement* `k = ⌈log_q M⌉ − 1 < log_q M`.
//!
//! [`PolynomialFamily`] packages this construction; [`choose_prime_field`] picks the smallest
//! prime `q` satisfying the constraint `q > agreement · slack` required by the recoloring
//! lemmas (where `slack` is `Δ` for Linial, `(Δ − d′)/(d − d′ + 1)` for defective/arbdefective
//! recoloring).

use serde::{Deserialize, Serialize};

/// Whether `x` is prime (deterministic trial division; the fields used here are tiny).
pub fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x % 2 == 0 {
        return x == 2;
    }
    let mut d = 3u64;
    while d.saturating_mul(d) <= x {
        if x % d == 0 {
            return false;
        }
        d += 2;
    }
    true
}

/// The smallest prime that is at least `x`.
pub fn next_prime(mut x: u64) -> u64 {
    if x <= 2 {
        return 2;
    }
    if x % 2 == 0 {
        x += 1;
    }
    while !is_prime(x) {
        x += 2;
    }
    x
}

/// Number of base-`q` digits of `m − 1` (i.e. how many coefficients are needed to encode every
/// color in `0..m`); at least 1.
pub fn digits_needed(m: u64, q: u64) -> u32 {
    assert!(q >= 2, "field size must be at least 2");
    if m <= 1 {
        return 1;
    }
    let mut digits = 0u32;
    let mut value = m - 1;
    while value > 0 {
        value /= q;
        digits += 1;
    }
    digits
}

/// A polynomial function family `{ϕ_χ : F_q → F_q}` for colors `χ ∈ [0, colors)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolynomialFamily {
    /// The prime field size (both `|A|` and `|B|`).
    pub q: u64,
    /// Number of coefficients per polynomial (`degree + 1`).
    pub digits: u32,
    /// Number of colors the family can encode (`q^digits ≥ colors`).
    pub colors: u64,
}

impl PolynomialFamily {
    /// Builds the family over `F_q` capable of encoding `colors` distinct colors.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not prime or `colors == 0`.
    pub fn new(q: u64, colors: u64) -> Self {
        assert!(is_prime(q), "q = {q} must be prime");
        assert!(colors > 0, "the family must encode at least one color");
        PolynomialFamily { q, digits: digits_needed(colors, q), colors }
    }

    /// Maximum number of points on which two distinct colors' polynomials can agree
    /// (the polynomial degree, `digits − 1`).
    pub fn agreement(&self) -> u64 {
        u64::from(self.digits) - 1
    }

    /// Number of distinct new colors `(α, ϕ_χ(α))` the recoloring step can produce: `q²`.
    pub fn new_color_count(&self) -> u64 {
        self.q * self.q
    }

    /// Evaluates `ϕ_color(alpha)` in `F_q`.
    ///
    /// # Panics
    ///
    /// Panics if `color ≥ colors` or `alpha ≥ q`.
    pub fn evaluate(&self, color: u64, alpha: u64) -> u64 {
        self.check_color(color);
        assert!(alpha < self.q, "alpha {alpha} outside the field F_{}", self.q);
        self.value_at(color, alpha)
    }

    /// The smallest `α ∈ F_q` minimizing the number of colors in `others`, copies of `own`
    /// skipped, whose polynomial agrees with `ϕ_own` at `α` — the choice step of Linial's
    /// and Kuhn's recoloring and of Procedure Arb-Recolor.  The scan stops at the first `α`
    /// without a collision.
    ///
    /// Allocation-free: the range of every color is checked once, `ϕ_own(α)` is evaluated
    /// once per `α`, and each other color is evaluated straight from its base-`q` digits.
    ///
    /// # Panics
    ///
    /// Panics if `own` or a color of `others` other than `own` is `≥ colors`.
    pub fn least_colliding_alpha(&self, own: u64, others: &[u64]) -> u64 {
        self.check_color(own);
        for &y in others {
            if y != own {
                self.check_color(y);
            }
        }
        let (mut best_alpha, mut best_collisions) = (0, usize::MAX);
        for alpha in 0..self.q {
            let value = self.value_at(own, alpha);
            let collisions =
                others.iter().filter(|&&y| y != own && self.value_at(y, alpha) == value).count();
            if collisions < best_collisions {
                (best_alpha, best_collisions) = (alpha, collisions);
                if collisions == 0 {
                    break;
                }
            }
        }
        best_alpha
    }

    fn check_color(&self, color: u64) {
        assert!(color < self.colors, "color {color} out of range (< {})", self.colors);
    }

    /// `ϕ_color(alpha)` without range checks, summing `c_i · α^i` over the base-`q` digits
    /// `c_i` of `color` from the least significant up.  Every operand is below `q`, and
    /// `q² ≤ u64::MAX` (see [`new_color_count`](Self::new_color_count)), so nothing
    /// overflows.
    fn value_at(&self, color: u64, alpha: u64) -> u64 {
        let q = self.q;
        let (mut rest, mut power, mut acc) = (color, 1, 0);
        while rest > 0 {
            acc = (acc + rest % q * power) % q;
            power = power * alpha % q;
            rest /= q;
        }
        acc
    }

    /// The new color encoding the pair `(α, ϕ_color(α))`, as a single integer `α · q + ϕ`.
    pub fn pair_color(&self, color: u64, alpha: u64) -> u64 {
        alpha * self.q + self.evaluate(color, alpha)
    }
}

/// Picks the smallest prime field size `q` such that the family over `F_q` encoding `colors`
/// colors has `q > agreement(q) · slack`, where `slack` is the factor required by the
/// recoloring lemma in use (`Δ` for Linial's zero-defect step; `⌈(Δ − d′)/(d − d′ + 1)⌉` for
/// the defective/arbdefective steps).
///
/// The returned family always satisfies the constraint, so a suitable `α` is guaranteed to
/// exist for every vertex.
pub fn choose_prime_field(colors: u64, slack: u64) -> PolynomialFamily {
    let colors = colors.max(1);
    // Start from a small prime and grow until the constraint holds.  The agreement shrinks as
    // q grows, so this terminates quickly.
    let mut q = next_prime(3.max(slack + 1));
    loop {
        let family = PolynomialFamily::new(q, colors);
        if family.q > family.agreement() * slack {
            return family;
        }
        q = next_prime(q + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primality_and_next_prime() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(1));
        assert!(!is_prime(0));
        assert!(!is_prime(9));
        assert!(is_prime(97));
        assert!(!is_prime(91));
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(97), 97);
        assert_eq!(next_prime(98), 101);
    }

    #[test]
    fn digit_counts() {
        assert_eq!(digits_needed(1, 5), 1);
        assert_eq!(digits_needed(5, 5), 1);
        assert_eq!(digits_needed(6, 5), 2);
        assert_eq!(digits_needed(25, 5), 2);
        assert_eq!(digits_needed(26, 5), 3);
    }

    #[test]
    fn distinct_colors_agree_on_few_points() {
        let family = PolynomialFamily::new(11, 500);
        let k = family.agreement();
        for x in (0..500).step_by(37) {
            for y in (0..500).step_by(41) {
                if x == y {
                    continue;
                }
                let agreements = (0..family.q)
                    .filter(|&a| family.evaluate(x, a) == family.evaluate(y, a))
                    .count();
                assert!(
                    agreements as u64 <= k,
                    "colors {x} and {y} agree on {agreements} > {k} points"
                );
            }
        }
    }

    #[test]
    fn pair_colors_are_injective_in_alpha_and_value() {
        let family = PolynomialFamily::new(7, 40);
        let c = family.pair_color(13, 3);
        assert_eq!(c, 3 * 7 + family.evaluate(13, 3));
        assert!(c < family.new_color_count());
    }

    #[test]
    fn choose_prime_field_satisfies_constraint() {
        for (colors, slack) in [(10u64, 3u64), (1000, 10), (1 << 20, 50), (5, 1), (2, 0)] {
            let family = choose_prime_field(colors, slack);
            assert!(
                family.q > family.agreement() * slack,
                "q = {}, k = {}, slack = {slack}",
                family.q,
                family.agreement()
            );
            assert!(u128::from(family.q).pow(family.digits) >= u128::from(colors));
        }
    }

    /// The choice step as Linial's recoloring wrote it before `least_colliding_alpha`.
    fn least_colliding_alpha_by_scan(family: &PolynomialFamily, own: u64, others: &[u64]) -> u64 {
        let (mut best_alpha, mut best) = (0, usize::MAX);
        for alpha in 0..family.q {
            let value = family.evaluate(own, alpha);
            let collisions =
                others.iter().filter(|&&y| y != own && family.evaluate(y, alpha) == value).count();
            if collisions < best {
                (best_alpha, best) = (alpha, collisions);
                if collisions == 0 {
                    break;
                }
            }
        }
        best_alpha
    }

    #[test]
    fn evaluation_matches_horner_over_the_digits() {
        let family = PolynomialFamily::new(7, 2000);
        for color in (0..2000).step_by(13) {
            let digits: Vec<u64> = (0..family.digits).map(|i| color / 7u64.pow(i) % 7).collect();
            for alpha in 0..7 {
                let horner = digits.iter().rev().fold(0, |acc, &d| (acc * alpha + d) % 7);
                assert_eq!(family.evaluate(color, alpha), horner, "color {color} at {alpha}");
            }
        }
    }

    #[test]
    fn least_colliding_alpha_matches_the_alpha_scan() {
        // Crowded neighborhoods force collisions (a nonzero minimum); copies of `own` are
        // skipped however many there are.
        let family = PolynomialFamily::new(5, 120);
        let mut state = 17u64;
        for round in 0..300 {
            let own = round % 120;
            let len = (round % 23) as usize;
            let others: Vec<u64> = (0..len)
                .map(|i| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if i % 7 == 3 {
                        own
                    } else {
                        (state >> 33) % 120
                    }
                })
                .collect();
            assert_eq!(
                family.least_colliding_alpha(own, &others),
                least_colliding_alpha_by_scan(&family, own, &others),
                "own {own}, others {others:?}"
            );
        }
        assert_eq!(family.least_colliding_alpha(3, &[]), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn least_colliding_alpha_checks_every_other_color() {
        PolynomialFamily::new(5, 10).least_colliding_alpha(2, &[1, 2, 10]);
    }

    #[test]
    #[should_panic(expected = "must be prime")]
    fn non_prime_field_is_rejected() {
        let _ = PolynomialFamily::new(10, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn evaluate_rejects_out_of_range_color() {
        let family = PolynomialFamily::new(5, 10);
        family.evaluate(10, 0);
    }
}
