"""Golden fingerprint: literal numbers that refactors must reproduce.

The values were computed by the code as it stood before the pyramid was
stored as one block dict, so numerical drift from a rewrite of the
synthesis or the transform cannot pass unseen. Field values also pin the
Philox half-plane enumeration of ``spectral_coefficients``. Structure
functions and anisotropy scans were pinned before the structure-function
loop moved to a single scratch buffer and the scan to fit-window lags.

Four entries were re-pinned when the alias fold tails past |m| = 8.5 went
from a dyadic Gauss ladder capped at 60 doublings to their closed form
(incomplete beta). The capped ladder stopped before slow tails converged:
- ``MASSES[(0.25, 0.2, 64)]`` and ``MASSES[(0.25, 0.2, 256)]`` held the
  truncated tails: the sums move by 1.0e-5 relative, ``mass[n // 4, 1]``
  by 1.2e-2 and 1.2e-1;
- ``FIELDS[(64, 2024)]`` and ``FIELDS[(256, 2024)]`` each have one
  near-zero sample that moves by 9.7e-14 and 4.6e-14 absolute (6.9e-12
  and 3.8e-12 relative, under 1e-12 of the field's max |X|), from the
  8.6e-13 relative mass correction at (0.6, 0.4), the 8-node ladder's own
  error per tail. The other values of those entries moved by at most 7e-13
  relative.

The 512 and 1024 mass entries were added when the alias fold moved to row
strips on the worker pool, from the whole-quarter fold that preceded it.

All 23 entries below that depend on the mass grid were re-pinned when the
alias box, strip fold and band integrals gave way to the separable build
(one matrix product over every cell and every alias shift). At n = 64
the old grid was 0.9-1.9% off per cell in the median (9.5% at (0.3, 0.1))
and up to 36%, from midpoint values of shifted cells and the dropped far
alias corners; the new one agrees with a brute-force sum to 5e-9. Before
-> after:

| entry | before -> after |
|---|---|
| FIELDS (64, 11) | sum 3683.87 -> 3645.36; samples move up to 2.1% |
| FIELDS (64, 2024) | sum 1337.60 -> 1361.66; samples up to 1.4%, and the near-zero one -0.01404 -> -0.00010 |
| FIELDS (256, 11) | sum 54443.2 -> 54399.6; samples up to 0.56% |
| FIELDS (256, 2024) | sum -113909.5 -> -114002.8; samples up to 2.3%, and the near-zero one 0.01218 -> 0.00951 |
| MASSES (0.6, 0.4, 64) | sum 2.16939 -> 2.16775; [1, 3] 0.0056715 -> 0.0056795; [16, 1] 3.0859e-06 -> 3.1198e-06 |
| MASSES (0.6, 0.4, 256) | sum 2.173461 -> 2.173457; [1, 3] 0.0052434 -> 0.0052433; [64, 1] 3.0370e-08 -> 3.0672e-08 |
| MASSES (0.25, 0.2, 64) | sum 11.5066 -> 10.4138; [1, 3] 0.0029952 -> 0.0046451; [16, 1] 2.3785e-06 -> 2.3919e-06 |
| MASSES (0.25, 0.2, 256) | sum 10.8625 -> 10.5238; [1, 3] 0.00077476 -> 0.0011694; [64, 1] 1.6177e-08 -> 1.6246e-08 |
| MASSES (1.4, 0.5, 64) | sum 1.39274 -> 1.39190; [1, 3] 5.0128e-05 -> 5.1010e-05; [16, 1] 6.1260e-04 -> 6.1813e-04 |
| MASSES (1.4, 0.5, 256) | sum 1.3942 (to 7e-8); [1, 3] 2.2377e-05 -> 2.2430e-05; [64, 1] 6.3784e-05 -> 6.3780e-05 |
| MASSES (1.4, 0.5, 512) | sum 1.394306 -> 1.394355; [1, 3] 1.9085e-05 -> 1.9093e-05; [128, 1] 1.8020e-05 -> 1.8010e-05 |
| MASSES (0.6, 0.4, 1024) | sum 2.173906 -> 2.174065; [1, 3] 0.0052061 (to 2e-6); [256, 1] 2.9894e-10 -> 3.0189e-10 |
| STRUCTURE_FUNCTIONS (1, 0), p = 1, 2, inf | up to 0.47%, 0.95%, 0.45% (first lag, p = 2: 0.0047744 -> 0.0048196) |
| STRUCTURE_FUNCTIONS (0, 1), p = 1, 2, inf | up to 0.013%, 0.019%, 0.042% |
| STRUCTURE_FUNCTIONS (1, 1), p = 1, 2, inf | up to 0.013%, 0.019%, 0.063% |
| SCANS 11 | peak 0.45176 -> 0.45173, still at alpha 0.8; exponents up to 0.036% |
| SCANS 2024 | peak 0.40654 -> 0.40649, still at alpha 0.8; exponents up to 0.035% |

One sample was re-pinned when the incomplete gamma moved from scipy into
the package and the Gauss values took one exponential. It is the
near-zero sample of ``FIELDS[(64, 2024)]``, a sum of terms of order 1
that nearly cancel, so it moves by the masses' rounding: 1.67e-15
absolute, 3.75 ulp of the field's max |X| (3.24). The masses moved by at
most 2.6e-14 relative, and every other entry holds at RTOL. With the
incomplete gammas evaluated to 30 digits (mpmath), the sample reads
-1.00479291764100e-04:

| entry | before -> after |
|---|---|
| FIELDS (64, 2024) | near-zero sample -1.0047929176226766e-04 -> -1.00479291763933e-04 |
"""
import math

import numpy as np
import pytest

from anisotex import (FieldSpec, hyperbolic_transform, scan_anisotropy, structure_function,
                      synthesize, synthesize_ensemble)
from anisotex.synth import _quarter_mass, _unfold

RTOL = 1e-12

FIELDS = {  # (n, seed): (sum, values at SAMPLE_INDEX)
    (64, 11): (3645.360089938866, (1.2300165009578294, 0.40032271129637553, 0.4296835064702308,
                                   1.5235367086603726, 1.9805302671860154)),
    (64, 2024): (1361.6572458767646, (-1.2395814084016314, -0.40125038729187656,
                                      0.5921320876002272, 1.009277765494148,
                                      -0.000100479291763933)),
    (256, 11): (54399.56686197741, (1.3294751340367803, 0.8493653553990463, 2.4710502235635943,
                                    0.941861419009319, 0.5466900162489581)),
    (256, 2024): (-114002.84728545044, (-0.07825845923870434, -0.9432065128232663,
                                        -6.167877078625478, 0.009513296142680039,
                                        -0.09851935220568242)),
}


def sample_index(n):
    return ((1, 2), (5, n - 3), (n // 2, n // 3), (n - 1, 7), (n - 1, n - 1))


MASSES = {  # (alpha0, hurst, n): (sum, mass[1, 3], mass[n // 4, 1])
    (0.6, 0.4, 64): (2.1677457480998266, 0.005679516263816828, 3.1197613421650722e-06),
    (0.6, 0.4, 256): (2.173457311815957, 0.005243331908728954, 3.0672145314262334e-08),
    (0.25, 0.2, 64): (10.413827518079703, 0.004645124645264819, 2.39187052253924e-06),
    (0.25, 0.2, 256): (10.523810386396965, 0.0011693710613909615, 1.624606905611342e-08),
    (1.4, 0.5, 64): (1.3919047324995049, 5.10095892702141e-05, 0.0006181343544620721),
    (1.4, 0.5, 256): (1.3941993012047493, 2.2429964069791383e-05, 6.377975144895624e-05),
    # the two largest grids, built on one thread like the rest
    (1.4, 0.5, 512): (1.394354527884516, 1.9092887597306014e-05, 1.801006287875844e-05),
    (0.6, 0.4, 1024): (2.1740649452115504, 0.005206072218798554, 3.0188834886667976e-10),
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
    m = _unfold(_quarter_mass(alpha0, hurst, n), n)
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


# structure functions of the (256, 11) field of FIELDS at the default lags
STRUCTURE_FUNCTIONS = {  # (direction, p): S(t)
    ((1, 0), 1.0): (0.055544861743210605, 0.08754875611850356, 0.11390718823530768,
                    0.13730931390589435, 0.17882464271801257, 0.21514823670157995,
                    0.2786915536692724, 0.33421610957574344, 0.42805660178048666,
                    0.503999567902901, 0.6242954715132489, 0.7058814041450039),
    ((1, 0), 2.0): (0.004819588555415221, 0.01197534120243737, 0.020281760509766582,
                    0.029443888220539997, 0.0498586920967955, 0.07237700554564709,
                    0.12202999011745137, 0.17571796855905458, 0.29047645518061344,
                    0.40732827892244594, 0.628939196180863, 0.8088799936633094),
    ((1, 0), math.inf): (0.2893885206561304, 0.4524041324178454, 0.5856403847546114,
                         0.6813440682393969, 0.9298384844430627, 1.126112676548348,
                         1.4038663151531834, 1.7037274092204018, 1.9057901662158192,
                         2.4833053119734183, 3.2902006989321593, 3.539542867390682),
    ((0, 1), 1.0): (0.5217077615574894, 0.6350418572785573, 0.6976670847882455, 0.7679587373676481,
                    0.8639001513534975, 0.923312806315303, 1.0728230046064284, 1.1798473905122342,
                    1.3436326736442021, 1.6468821978888721, 1.896820650216348, 2.140301533043845),
    ((0, 1), 2.0): (0.42751818071426445, 0.6222075965129001, 0.7671534537688321,
                    0.9040632296682652, 1.1307288678768594, 1.336864232550231, 1.7644087302882405,
                    2.127306508788488, 2.92852387147089, 4.089323765388768, 5.116103153058203,
                    6.32343826538857),
    ((0, 1), math.inf): (2.617445903597142, 2.823769052470532, 3.378347375133365,
                         3.6350786341124235, 3.6551534545028237, 3.8344947735292925,
                         4.968733601201153, 5.373913463806948, 5.338169907560683,
                         5.737180630706724, 6.221638176036766, 6.281382011220338),
    ((1, 1), 1.0): (0.5218685202541187, 0.6346949889584168, 0.6965390715142299, 0.7665996417143252,
                    0.8605409951389498, 0.9174895054102569, 1.0660062778411288, 1.180984997681456,
                    1.346426013761636, 1.6472301336067219),
    ((1, 1), 2.0): (0.4275461049001374, 0.6214417094266247, 0.765988179077706, 0.9020571544398405,
                    1.1260704303301723, 1.3328635929746617, 1.760810808154669, 2.139034582060215,
                    2.923363382920728, 4.093704341890349),
    ((1, 1), math.inf): (2.563909262821717, 2.784513565444609, 3.3166482038568788,
                         3.7577217056427292, 3.6088174201976058, 3.877924793079246,
                         5.144526304206936, 5.540699980796088, 5.353918738376007,
                         5.753397771324038),
}

SCAN_GRID = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8]

SCANS = {  # seed of 4 realizations at 256, p = 2: (exponents, stderrs, argmax, peak)
    11: ((0.12829102477552334, 0.2565820495510467, 0.38487307432657003, 0.45172964940023486,
          0.37870913132753636, 0.3029673050620291, 0.22722547879652183, 0.1514836525310145,
          0.07574182626550725),
         (0.0010198614919135374, 0.002039722983827075, 0.0030595844757406046, 0.023824971341772794,
          0.021841341669196268, 0.017473073335357015, 0.01310480500151776, 0.0087365366676785,
          0.00436826833383925),
         0.8, 0.45172964940023486),
    2024: ((0.1281796977930783, 0.2563593955861566, 0.3762378003541028, 0.4064947004640237,
            0.35513216403697384, 0.2841057312295791, 0.21307929842218432, 0.1420528656147895,
            0.07102643280739475),
           (0.0016375189237400496, 0.0032750378474800993, 0.012639389776424943,
            0.04660945175382938, 0.052603655468797604, 0.04208292437503809, 0.03156219328127857,
            0.02104146218751904, 0.01052073109375952),
           0.8, 0.4064947004640237),
}


@pytest.fixture(scope="module")
def field_256_11():
    return synthesize(FieldSpec.make(0.6, 0.4, grid_n=256, seed=11))


@pytest.mark.parametrize("key", list(STRUCTURE_FUNCTIONS), ids=str)
def test_structure_function(key, field_256_11):
    direction, p = key
    sf = structure_function(field_256_11, direction, p)
    np.testing.assert_allclose(sf.values, STRUCTURE_FUNCTIONS[key], rtol=RTOL)


@pytest.mark.parametrize("seed", sorted(SCANS))
def test_anisotropy_scan(seed):
    fields = synthesize_ensemble(FieldSpec.make(0.6, 0.4, grid_n=256, seed=seed), 4)
    scan = scan_anisotropy(fields, SCAN_GRID, 2.0)
    exponents, stderrs, argmax, peak = SCANS[seed]
    np.testing.assert_allclose(scan.exponents, exponents, rtol=RTOL)
    np.testing.assert_allclose(scan.stderrs, stderrs, rtol=RTOL)
    assert scan.argmax_alpha == argmax
    assert scan.peak == pytest.approx(peak, rel=RTOL)
