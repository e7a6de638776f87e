"""Generator construction: pinned generator hashes, the tensor-form build
of G checked against Horner evaluation of the basis polynomials, and the
tensor-form derivative of a codeword polynomial checked against the formal
derivative."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsprod.analysis import _derivative_grid
from rsprod.cli import main
from rsprod.codec import build_code, encode, export_generator_csv
from rsprod.degrees import ref_basis
from rsprod.field import poly_eval_many
from rsprod.linearized import instantiate_standard

from reference import encoded_poly, horner_generator, poly_compose, poly_deriv
from strategies import draw_code, pairs

# SHA-256 of export_generator_csv for the standard pair, recorded with G built
# by Horner evaluation of every basis polynomial on the sum points:
# (q_log, r, k, digest).  Covers r = 1, r = n, k = 1, k = r^2 and both
# benchmark erasure codes.
GENERATOR_GOLDENS = [
    (1, 1, 1, "10f97a1760ca1d62255ce94390035633d17db78b3cc1f0829916fc7239d52b90"),
    (1, 2, 1, "b21e8a57ad97bb8bf08ca8872603b6df9f0fb0a4896d5d0f7bbe401e26d599c9"),
    (1, 2, 4, "f5568592018509417a774701df3e25ecf63278915f8e7a8eae88206654a01658"),
    (2, 1, 1, "03a9cf345815bb7c5add6d9448ac6504aaf8421c5bcf9b4a51ed0d4ff8a92f9a"),
    (2, 2, 3, "e05610b3945c200667bc0d8b6d4bde699d606e1db6ec752c7b019f4e74423500"),
    (2, 3, 7, "cc526ae7bc220a83c0b993530de9847fab4d58d132e7735975556e6301acdf84"),
    (2, 4, 16, "0a2140c9926547b27a20f2dee79a3d59323cd79de7f0a88d47fdcda7bacb251d"),
    (3, 3, 4, "4c23a1260ea655ac7fbfcb14926811baff42e94777d035a5cb80c4d4c18d95bb"),
    (3, 5, 20, "2b74c2c00196615edac1711fea47d6c74930df564d1d01b18297606300648c13"),
    (3, 8, 36, "de48414dfbe281317300b3e56fdb775f79431e736104e1e884bbc102dca7c766"),
    (3, 8, 64, "d293d3e0d65822a9e2534b1c24108d70bbc6413a4c9771983d2ef72623687f29"),
    (4, 5, 12, "7e257b91224d043e12bfa35a0aa94cd1a78ad2aca1838536237d9180ecb2790a"),
    (4, 12, 132, "901bc4bf79976c68fb4909e29be423dbec403c1008bf83906f02316c4691a692"),
    (4, 16, 256, "ababb7813b65a5809238963968087429367d6f5aa6a23af027ae23558c70d67d"),
    (5, 16, 240, "543e9b1f91f27588625b3cca8332c3cb31b21fe5c0255d42afd3bdd5193dc41b"),
]


@pytest.mark.parametrize("e,r,k,digest", GENERATOR_GOLDENS)
def test_generator_golden(e, r, k, digest):
    code = build_code(instantiate_standard(e), r, k)
    text = export_generator_csv(code)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Byte-exact `rsprod build` stdout with field overrides, recorded the same way.
BUILD_GOLDENS = [
    ("--q-log 2 --r 3 --k 7 --c 7 --field-poly 19", "19",
     "2b3ec947e9aa2d39b6d5ea5b14bf697bda96196d4335f9e878a84d13d040db10"),
    ("--q-log 3 --r 4 --k 10 --c 5 --field-poly 61", "61",
     "96c07436939638e806444fd985e19fc20fcf8415812ac41ea7dc2bbd83c14dc3"),
    ("--q-log 4 --r 6 --k 30 --field-poly 11d", "11d",
     "55aca402f2f02b107da7b48c63c9001bad97ee430bf1377ee0371076697ed135"),
]


@pytest.mark.parametrize("flags,poly_hex,digest", BUILD_GOLDENS)
def test_build_stdout_golden(capsys, flags, poly_hex, digest):
    assert main(["build", *flags.split()]) == 0
    out = capsys.readouterr().out
    assert json.loads(out.split("\n", 1)[0][2:])["reduction_poly_hex"] == poly_hex
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair=pairs(), data=st.data())
def test_tensor_generator_matches_horner(pair, data):
    code = draw_code(pair, data)
    basis = ref_basis(pair, code.r)[: code.k]
    assert np.array_equal(code.G, horner_generator(pair, basis))
    # the transform reproduces every basis polynomial from the products g^a f^b
    gx, fx = pair.g.to_unipoly(), pair.f.to_unipoly()
    assert code.S.shape == (code.k, code.r, code.r)
    for poly, s_l in zip(basis, code.S):
        assert np.array_equal(poly_compose(pair.ctx, s_l, gx, fx), poly)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair=pairs(), data=st.data())
def test_tensor_derivative_matches_formal_derivative(pair, data):
    # h' on all n^2 cells from the tensor form against the formal
    # derivative of h = sum_l msg[l] basis_l evaluated by Horner
    code = draw_code(pair, data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    msg = rng.integers(0, code.ctx.order, size=code.k)
    msg[int(rng.integers(code.k))] |= 1
    h = encoded_poly(code, msg)
    pts = np.array(pair.eval_points, dtype=np.int64)
    assert np.array_equal(encode(code, msg), poly_eval_many(pair.ctx, h, pts))
    want = poly_eval_many(pair.ctx, poly_deriv(h), pts)
    assert np.array_equal(_derivative_grid(code, msg).reshape(-1), want)
