"""Authentication with a polynomial hash when the keys are not uniform.

The hash family over GF(2^b) is eps-almost-strongly-universal with
eps = m/2^b for m message blocks, so with uniform keys no forger beats
eps.  Four experiments show how that guarantee erodes:

* uniform keys hit the eps ceiling exactly (substitution) and 2^-b
  (impersonation),
* a biased hash key multiplies the forgery probability,
* for any family there is a two-point key law under which one
  substitution forgery succeeds with certainty, saturating the
  "eps + key distance" degradation at its extreme,
* a mask used twice meets its degraded level eps + 2 eps_t on average
  over tags, while the worst-case transcript beats that level.
"""

from fractions import Fraction

from keysec import (
    HashFamilySpec,
    KeyDistribution,
    MacKeyModel,
    asu_epsilon,
    attack_success,
    construct_spike,
    degraded_epsilon,
    forgeable_key_distribution,
    statistical_distance,
)


def main() -> None:
    spec = HashFamilySpec(field_bits=5, message_blocks=2)
    eps = asu_epsilon(spec)
    print(f"hash family: {spec.message_blocks} blocks of {spec.field_bits} bits,"
          f" tag space 2^{spec.field_bits}")
    print(f"  universality level eps = {eps}")
    print()

    uniform_keys = MacKeyModel(KeyDistribution.uniform(spec.field_bits, mode="rational"))
    imp = attack_success(spec, uniform_keys, "impersonation")
    sub = attack_success(spec, uniform_keys, "substitution")
    print("uniform keys (exact optimal attacks):")
    print(f"  impersonation : {imp}  (= 2^-{spec.field_bits})")
    print(f"  substitution  : {sub}  (= eps, ceiling met exactly)")
    print()

    biased = construct_spike(spec.field_bits, Fraction(1, 8)).distribution
    sub_biased = attack_success(spec, MacKeyModel(biased), "substitution")
    print(f"hash key at distance 1/8 from uniform:")
    print(f"  substitution  : {sub_biased}  (was {sub})")
    print()

    # Worst case: a two-point key law that makes one forgery certain.
    wit = forgeable_key_distribution(spec)
    d = statistical_distance(wit.distribution,
                             KeyDistribution.uniform(spec.field_bits, mode="rational"))
    success = attack_success(spec, MacKeyModel(wit.distribution), "substitution")
    print("forgery witness:")
    print(f"  key distance from uniform      : {d}  (reported {wit.distance})")
    print(f"  XOR message change / tag change: {wit.message_delta:#x} / {wit.tag_delta:#x}")
    print(f"  substitution success           : {success}  <- certainty")
    print("  the two supported keys agree on how that message change moves")
    print("  the tag, so the forged pair verifies under either key.")
    print()

    # Budget view: how the universality level degrades with imperfect keys.
    lv = degraded_epsilon(eps, Fraction(1, 100), Fraction(1, 200), m=3)
    print("guarantee after m = 3 uses with imperfect hash/pad keys")
    print("(distances 1/100 and 1/200 per key):")
    print(f"  hash-key level : {lv.hash_key_level}")
    print(f"  pad-key level  : {lv.tag_key_level}")
    print()

    # The degraded level bounds the average over tags, not each transcript.
    small = HashFamilySpec(field_bits=2, message_blocks=1)
    uniform = KeyDistribution.uniform(2, mode="rational")
    mask = KeyDistribution(2, [Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)])
    eps_t = statistical_distance(mask, uniform)
    level = degraded_epsilon(asu_epsilon(small), 0, eps_t, m=2).tag_key_level
    keys = MacKeyModel(uniform, mask, uses=2)
    print("two uses of the mask (2/5, 1/5, 1/5, 1/5), b = 2, one block, uniform hash key:")
    print(f"  level eps + 2 eps_t      : {level}  (eps_t = {eps_t})")
    print(f"  tag-averaged substitution: {attack_success(small, keys, 'substitution', tag_averaged=True)}")
    print(f"  worst-case transcript    : {attack_success(small, keys, 'substitution')}  <- above the level")


if __name__ == "__main__":
    main()
