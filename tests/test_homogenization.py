"""gr(D) refutes a derivation only when iteration cannot certify it either.

Hypothesis (test-only) draws integer combinations of the nullspace basis
of one small search; the module is skipped without it.
"""

from __future__ import annotations

import functools

import pytest

from lndfilt import cli, families
from lndfilt.derivations import Derivation, NonNilpotencyCertifier
from lndfilt.poly import Polynomial

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

ARGV = ["search", "--family=danielewski", "--n=2", "--P=y^3 - 3*x*y",
        "--degree-bound=2", "--nilp-bound=12"]


@functools.cache
def _search():
    """The instance, its filtration's two certifiers and the nullspace
    basis of the search, as images per generator."""
    args = cli._parser().parse_args(ARGV)
    inst = cli._build_instance(args)
    got = []
    nullspace = families.nullspace
    families.nullspace = lambda *a: got.append(nullspace(*a)) or got[0]
    try:
        families.bounded_lnd_search(inst, args.degree_bound, args.nilp_bound)
    finally:
        families.nullspace = nullspace
    ctx = inst.ring.ctx
    monos = families._monomials_up_to(ctx, args.degree_bound)
    basis = [[{m: vec[vi * len(monos) + k] for k, m in enumerate(monos)
               if vec[vi * len(monos) + k]} for vi in range(len(ctx))]
             for vec in got[0]]
    fs = inst.filtration
    return (inst, NonNilpotencyCertifier(inst.ring),
            NonNilpotencyCertifier(fs._graded_ring()), basis)


@hypothesis.settings(max_examples=12, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_graded_refutation_on_combinations(data):
    inst, on_b, on_gr, basis = _search()
    ctx = inst.ring.ctx
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                                max_size=len(basis)))
    images = [ctx.zero()] * len(ctx)
    for c, vec in zip(coeffs, basis):
        if c:
            images = [im + Polynomial(ctx, v) * c for im, v in zip(images, vec)]
    D = Derivation(inst.ring, images)
    hypothesis.assume(not all(im.is_zero() for im in D.images))
    hypothesis.assume(on_b.certify(D) is None)
    gr_d, _ = inst.filtration.homogenization(D)
    # gr(D) is well defined on gr(B): the checked constructor accepts it
    assert Derivation(gr_d.ring, gr_d.images).images == gr_d.images
    if on_gr.certify(gr_d) is not None:
        assert D.is_locally_nilpotent(64, term_guard=300) is None, D
