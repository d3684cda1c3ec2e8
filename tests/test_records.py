"""Value semantics of the plain record classes: equality within one class,
hashes of the field tuple, the repr text error messages embed, and an
import that leaves `dataclasses` unloaded."""

import os
import subprocess
import sys

import pytest

import jetvar
from jetvar import FiberedIso, JetContext, Lagrangian, SectionSpec, SourceForm
from jetvar.coords import BaseCoord, JetCoord
from jetvar.expr import sym
from jetvar.forms import DiffForm, W, form_from_terms, gen_key


def test_jet_coordinate_sorts_its_index_and_hashes_the_field_tuple():
    assert JetCoord(1, (2, 1)) == JetCoord(1, (1, 2))
    assert JetCoord(1, (2, 1)).J == (1, 2)
    assert hash(JetCoord(1, (2, 1))) == hash((1, (1, 2)))
    assert hash(BaseCoord(3)) == hash((3,))
    assert JetCoord(1, (1,)) != JetCoord(1, (2,))
    assert JetCoord(1) != JetCoord(2)


def test_records_compare_only_within_their_class():
    assert JetCoord(1) != W(1) and W(1) != JetCoord(1)
    assert W(1) != BaseCoord(1) and BaseCoord(1) != W(1)
    assert JetCoord(1) != BaseCoord(1) and BaseCoord(1) != JetCoord(1)
    assert JetCoord(1) != (1, ()) and W(1) != (1, ())
    assert BaseCoord(1) != (1,)
    assert not isinstance(JetCoord(1), W) and not isinstance(W(1), JetCoord)
    # same field tuples hash alike; a set still tells the classes apart
    assert len({W(1), JetCoord(1), BaseCoord(1)}) == 3


def test_gen_key_ranks_contact_then_fiber_then_base_generators():
    gens = [BaseCoord(1), JetCoord(1), W(2), BaseCoord(2), W(1, (1,)), JetCoord(1, (1,))]
    ranked = sorted(gens, key=gen_key)
    assert ranked == [
        W(1, (1,)), W(2), JetCoord(1), JetCoord(1, (1,)), BaseCoord(1), BaseCoord(2)
    ]
    assert gen_key(W(1)) < gen_key(JetCoord(1)) < gen_key(BaseCoord(1))


def test_diff_form_equality_ignores_the_context_and_forms_are_unhashable():
    u = sym(JetCoord(1))
    plain = form_from_terms(JetContext(n=1, m=1, order=1), 0, [((), u)])
    named = form_from_terms(JetContext(n=1, m=1, order=1, base_names=("t1",)), 0, [((), u)])
    assert plain == named
    # the degree takes part: the same terms at another degree differ
    assert plain != DiffForm(plain.ctx, 1, plain.terms)
    with pytest.raises(TypeError):
        hash(plain)


def test_with_order_keeps_the_names_and_raises_the_ceiling():
    ctx = JetContext(n=2, m=1, order=1, base_names=("s", "q"), fiber_names=("w",))
    raised = ctx.with_order(7)
    assert (raised.order, raised.ceiling) == (7, 14)
    assert raised.base_names == ("s", "q") and raised.fiber_names == ("w",)
    lowered = raised.with_order(0)
    assert (lowered.order, lowered.ceiling) == (0, 12)
    assert raised.with_order(1) == ctx
    assert ctx.with_order(1) == ctx and hash(ctx.with_order(1)) == hash(ctx)
    assert ctx.with_order(2) != ctx


def test_value_records_compare_and_hash_by_their_fields():
    ctx = JetContext(n=1, m=1, order=1)
    u1 = sym(JetCoord(1, (1,)))
    assert Lagrangian(u1, ctx) == Lagrangian(u1, ctx, 1)
    assert hash(Lagrangian(u1, ctx)) == hash(Lagrangian(u1, ctx, 1))
    assert Lagrangian(u1, ctx) != Lagrangian(u1, ctx, 2)
    assert SourceForm((u1,), ctx) == SourceForm([u1], ctx)
    assert SectionSpec([u1]) == SectionSpec((u1,))
    x = sym(BaseCoord(1))
    assert FiberedIso((x,), (sym(JetCoord(1)),)) == FiberedIso([x], [sym(JetCoord(1))])
    assert len({ctx, JetContext(n=1, m=1, order=1)}) == 1


def test_coordinate_and_generator_repr_text_is_unchanged():
    assert repr(JetCoord(1)) == "JetCoord(sigma=1, J=())"
    assert repr(JetCoord(2, (2, 1))) == "JetCoord(sigma=2, J=(1, 2))"
    assert repr(BaseCoord(3)) == "BaseCoord(i=3)"
    assert repr(W(1, (1,))) == "W(sigma=1, J=(1,))"
    assert str(JetCoord(1)) == repr(JetCoord(1))


def test_cli_import_leaves_dataclasses_out():
    code = "import sys, jetvar.cli; print('dataclasses' in sys.modules)"
    src = os.path.dirname(os.path.dirname(jetvar.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
