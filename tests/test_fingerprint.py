"""Golden fingerprint: literal numbers that refactors must reproduce.

The values were computed by the code as it stood before the pyramid was
stored as one block dict, so numerical drift from a rewrite of the
synthesis or the transform cannot pass unseen. Field values also pin the
Philox half-plane enumeration of ``spectral_coefficients``.
"""
import numpy as np
import pytest

from anisotex import FieldSpec, hyperbolic_transform, synthesize
from anisotex.synth import _folded_mass

RTOL = 1e-12

FIELDS = {  # (n, seed): (sum, values at SAMPLE_INDEX)
    (64, 11): (3683.87490414057, (1.2421704898419006, 0.40150271156343875, 0.4389804992710645,
                                  1.5297547610142042, 2.000259509846457)),
    (64, 2024): (1337.6008771322513, (-1.243061232760038, -0.4045672145861141, 0.5838533889447662,
                                      1.0040923858658255, -0.014041214632123489)),
    (256, 11): (54443.22722438024, (1.3298663559047985, 0.8487003132350022, 2.471125135685207,
                                    0.9442470126514261, 0.5497548564919886)),
    (256, 2024): (-113909.53017742065, (-0.0787194589259288, -0.9404654828155561,
                                        -6.165785280297366, 0.01218301058684057,
                                        -0.09631639811175763)),
}


def sample_index(n):
    return ((1, 2), (5, n - 3), (n // 2, n // 3), (n - 1, 7), (n - 1, n - 1))


MASSES = {  # (alpha0, hurst, n): (sum, mass[1, 3], mass[n // 4, 1])
    (0.6, 0.4, 64): (2.1693940380038064, 0.005671495529572729, 3.0859044631897715e-06),
    (0.6, 0.4, 256): (2.173461456942786, 0.00524341214371541, 3.037031598106136e-08),
    (0.25, 0.2, 64): (11.50652145480625, 0.0029951587379350134, 2.3495304449154576e-06),
    (0.25, 0.2, 256): (10.862414603756022, 0.0007747608458223076, 1.4481104593950617e-08),
    (1.4, 0.5, 64): (1.3927356610048975, 5.012777975781711e-05, 0.0006125992026758969),
    (1.4, 0.5, 256): (1.394199517012805, 2.237659001167021e-05, 6.378396126208861e-05),
}

# per-block sums of the pyramids of one 64 x 64 standard normal field
# (numpy default_rng seed 42); depth 0 is the approximation at full depth
BLOCK_SUMS = {
    ("d4", (5, 5)): {
        (0, 0): -2.4807117690640395, (0, 1): -4.358473563338602, (0, 2): 3.9579137118258974,
        (0, 3): 2.3429114151152195, (0, 4): -0.6843303522046176, (0, 5): 3.8799982490563965,
        (1, 0): -5.275997948007591, (1, 1): -18.12329188738261, (1, 2): -0.9245614518435499,
        (1, 3): 14.218127899041187, (1, 4): 0.32174115810997783, (1, 5): 22.95425552205878,
        (2, 0): -3.431323753362899, (2, 1): -42.525944429134654, (2, 2): -8.029351674323062,
        (2, 3): -11.048478577811343, (2, 4): -5.762770570318409, (2, 5): 4.094894920417264,
        (3, 0): -1.9715995643416702, (3, 1): 6.926993359201202, (3, 2): -1.0687818184365305,
        (3, 3): 5.633499695997152, (3, 4): 7.17913844979476, (3, 5): -0.020315901041927376,
        (4, 0): 3.019740088120469, (4, 1): 11.289300489301402, (4, 2): -8.162974861132335,
        (4, 3): 4.485862893990903, (4, 4): 3.570502671040246, (4, 5): -0.3705289620501575,
        (5, 0): 4.675353643038772, (5, 1): 3.517802062027102, (5, 2): -5.945699594078524,
        (5, 3): -2.4079586890718283, (5, 4): 1.2600500576537292, (5, 5): 0.34739124349293565,
    },
    ("haar", (3, 4)): {
        (0, 0): -7.0165124562978445, (0, 1): -8.716947126677205, (0, 2): 10.025046738796545,
        (0, 3): 2.489195228442009, (0, 4): -3.8036412405148154, (1, 0): -7.461387853124959,
        (1, 1): -18.123291887382628, (1, 2): 1.4537962161830364, (1, 3): 5.814686236474873,
        (1, 4): -0.9495242138061273, (2, 0): -4.460398808001522, (2, 1): -47.43007368835774,
        (2, 2): -15.596538483021568, (2, 3): -5.664230674091027, (2, 4): 3.2083857912265694,
        (3, 0): 1.6195598574622259, (3, 1): 6.323837004788389, (3, 2): 8.56800891178471,
        (3, 3): 8.281407912728842, (3, 4): -1.1963095448676726,
    },
}


@pytest.mark.parametrize("key", sorted(FIELDS))
def test_synthesized_field(key):
    n, seed = key
    total, samples = FIELDS[key]
    v = synthesize(FieldSpec.make(0.6, 0.4, grid_n=n, seed=seed)).values
    assert float(v.sum()) == pytest.approx(total, rel=RTOL)
    got = [float(v[i]) for i in sample_index(n)]
    np.testing.assert_allclose(got, samples, rtol=RTOL)


@pytest.mark.parametrize("key", sorted(MASSES))
def test_mass_grid(key):
    alpha0, hurst, n = key
    m = _folded_mass(alpha0, hurst, n)
    np.testing.assert_allclose([m.sum(), m[1, 3], m[n // 4, 1]], MASSES[key], rtol=RTOL)


@pytest.mark.parametrize("key", sorted(BLOCK_SUMS))
def test_pyramid_block_sums(key):
    filt, levels = key
    v = np.random.default_rng(42).standard_normal((64, 64))
    pyr = hyperbolic_transform(v, filt=filt, levels=levels)
    # read through the four legacy views, which both pyramid layouts expose
    blocks = {(0, 0): pyr.approx, **pyr.detail}
    blocks.update({(j1, 0): b for j1, b in pyr.detail_approx.items()})
    blocks.update({(0, j2): b for j2, b in pyr.approx_detail.items()})
    expect = BLOCK_SUMS[key]
    assert sorted(blocks) == sorted(expect)
    for k, total in expect.items():
        assert float(blocks[k].sum()) == pytest.approx(total, rel=RTOL, abs=1e-13)
