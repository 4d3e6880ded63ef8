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
"""
import math

import numpy as np
import pytest

from anisotex import (FieldSpec, hyperbolic_transform, scan_anisotropy, structure_function,
                      synthesize, synthesize_ensemble)
from anisotex.synth import _folded_mass

RTOL = 1e-12

FIELDS = {  # (n, seed): (sum, values at SAMPLE_INDEX)
    (64, 11): (3683.87490414057, (1.2421704898419006, 0.40150271156343875, 0.4389804992710645,
                                  1.5297547610142042, 2.000259509846457)),
    (64, 2024): (1337.600877131988, (-1.2430612327602826, -0.4045672145863993, 0.5838533889447701,
                                     1.0040923858657753, -0.014041214632220078)),
    (256, 11): (54443.22722438024, (1.3298663559047985, 0.8487003132350022, 2.471125135685207,
                                    0.9442470126514261, 0.5497548564919886)),
    (256, 2024): (-113909.53017742344, (-0.07871945892596433, -0.940465482815614,
                                        -6.165785280297487, 0.012183010586886756,
                                        -0.09631639811176806)),
}


def sample_index(n):
    return ((1, 2), (5, n - 3), (n // 2, n // 3), (n - 1, 7), (n - 1, n - 1))


MASSES = {  # (alpha0, hurst, n): (sum, mass[1, 3], mass[n // 4, 1])
    (0.6, 0.4, 64): (2.1693940380038064, 0.005671495529572729, 3.0859044631897715e-06),
    (0.6, 0.4, 256): (2.173461456942786, 0.00524341214371541, 3.037031598106136e-08),
    (0.25, 0.2, 64): (11.506636321321627, 0.0029951877838310247, 2.378500800539027e-06),
    (0.25, 0.2, 256): (10.86252486410855, 0.0007747624780154163, 1.6176603216480454e-08),
    (1.4, 0.5, 64): (1.3927356610048975, 5.012777975781711e-05, 0.0006125992026758969),
    (1.4, 0.5, 256): (1.394199517012805, 2.237659001167021e-05, 6.378396126208861e-05),
    # several row strips of the alias fold (the entries above are one strip)
    (1.4, 0.5, 512): (1.3943063242655855, 1.908454492748269e-05, 1.8020452821274123e-05),
    (0.6, 0.4, 1024): (2.173905777889409, 0.0052060800411001945, 2.989370736378974e-10),
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


# structure functions of the (256, 11) field of FIELDS at the default lags
STRUCTURE_FUNCTIONS = {  # (direction, p): S(t)
    ((1, 0), 1.0): (0.05528432250130429, 0.08732498085655405, 0.11366378422865367,
                    0.13702872894028437, 0.17845143211180492, 0.2146840381203,
                    0.27806199987146446, 0.3334648657061501, 0.42722799182363963,
                    0.5032352895314112, 0.6236966979173141, 0.7053433264615464),
    ((1, 0), 2.0): (0.004774383302199841, 0.011914108259328371, 0.020195183814717046,
                    0.029323905912153298, 0.049651314486437226, 0.07206355420233644,
                    0.12147945913273243, 0.174939086451646, 0.28937635146969426,
                    0.4061203136111241, 0.6277784028327545, 0.8077198489105198),
    ((1, 0), math.inf): (0.288100218563625, 0.4510360071687807, 0.584284265733789,
                         0.680071097163334, 0.9278379839239619, 1.123321949506863,
                         1.401241130887775, 1.7002189878761167, 1.9011651058536363,
                         2.4807339129942494, 3.2866650544766753, 3.5363078654638787),
    ((0, 1), 1.0): (0.5217242223631899, 0.6350818323505454, 0.6976252778204112,
                    0.767969060053543, 0.8639028369594757, 0.9231938436768815,
                    1.072852244784759, 1.1798659404533642, 1.3436136747079512,
                    1.6468270627331445, 1.8968095423469598, 2.1402694747697084),
    ((0, 1), 2.0): (0.42759840420147865, 0.6222817580240033, 0.7671411521083307,
                    0.90404846989625, 1.1306675340974097, 1.3366949566348048,
                    1.7643400592947491, 2.1272904986445607, 2.928573633811437,
                    4.089058600164417, 5.116030760244787, 6.323259022254047),
    ((0, 1), math.inf): (2.61772430108825, 2.823564575017805, 3.3769128559001147,
                         3.6340182376802526, 3.6546900831599243, 3.834017571049719,
                         4.9694705852915195, 5.3718169500024935, 5.33675767324653,
                         5.734854927654394, 6.2241709242650565, 6.278904356274926),
    ((1, 1), 1.0): (0.5218809485472924, 0.6347318595572944, 0.6964877317174272,
                    0.7665938530200912, 0.8605547177122145, 0.9173736188300514,
                    1.0660514738668008, 1.1809803355813828, 1.3464085239408015,
                    1.647177031560654),
    ((1, 1), 2.0): (0.427626790289248, 0.6215120810301249, 0.7659730979726381,
                    0.902032171072974, 1.126024243787767, 1.332680308747839,
                    1.760778267131371, 2.13897949639514, 2.923411222518978,
                    4.093386373520761),
    ((1, 1), math.inf): (2.564791902389569, 2.784034548548484, 3.3145558501891794,
                         3.7566133763173664, 3.6065690281250355, 3.8778827929811683,
                         5.144518363091253, 5.538232553194035, 5.352997466541114,
                         5.749771550355519),
}

SCAN_GRID = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8]

SCANS = {  # seed of 4 realizations at 256, p = 2: (exponents, stderrs, argmax, peak)
    11: ((0.12833708833835333, 0.25667417667670667, 0.38501126501506, 0.45175759641069035,
          0.3787012441753551, 0.30296099534028414, 0.22722074650521312, 0.15148049767014204,
          0.07574024883507102),
         (0.0010229452986949684, 0.002045890597389937, 0.0030688358960849053,
          0.023881346223686435, 0.021861019364442975, 0.01748881549155439,
          0.013116611618665787, 0.008744407745777187, 0.004372203872888594),
         0.8, 0.45175759641069035),
    2024: ((0.12822439961630044, 0.2564487992326009, 0.376354401656821, 0.40653626365877377,
            0.3551446817791837, 0.28411574542334694, 0.21308680906751026, 0.14205787271167344,
            0.07102893635583672),
           (0.0016413044860786887, 0.0032826089721573774, 0.012668393068249658,
            0.04664044183865324, 0.05261555748758197, 0.04209244599006558,
            0.03156933449254918, 0.02104622299503278, 0.01052311149751639),
           0.8, 0.40653626365877377),
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
