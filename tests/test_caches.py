"""Cache ownership: everything keyed by an algebra lives on that algebra, so
nothing outside a caller keeps an algebra alive, and no module grows a new
process-wide cache unnoticed."""

import contextlib
import gc
import importlib
import pkgutil
import random
import weakref

import aalogic
from aalogic import BUILTIN_SIGNATURE, FiniteAlgebra, FormulaSyntaxError, Matrix, Var, corpus, parse_formula, syntax
from aalogic.algebra import MEMO_LIMIT, all_filters, filter_closure, is_filter, theorem_values
from aalogic.algebraization import delta_translate, qv_axioms, qv_membership, tau_translate
from aalogic.glivenko import (
    find_adjoint_report,
    left_adjoint_quotient,
    lind_compatibility_check,
    matrix_compatibility_check,
    regular_elements,
    rho_translate,
)
from aalogic.provers import Equation, quasiidentity_holds
from aalogic.syntax import MAX_VARIABLE_INDEX, extend_morphism, random_formula

# The process-wide containers the package keeps on purpose: the prover's
# connective-to-tag table and its Kripke frame algebras (each sequent search
# keeps its tables and memo to itself), the bundled-name tables, which hold
# builders, not built objects, and the parser's table of variable spellings,
# one entry per canonical "x<i>", so at most MAX_VARIABLE_INDEX + 1 of them.
MODULE_CONTAINERS = {
    "provers": {"_TAGS", "_frame_cache"},
    "corpus": {"LOGICS", "CONTEXTS"},
    "syntax": {"_VARIABLES"},
}
# The class-level containers: the formula intern pools and the shared
# connective sets of App nodes. These and MODULE_CONTAINERS name every
# process-wide table that holds formulas.
CLASS_CONTAINERS = {
    "syntax.Var": {"_pool"},
    "syntax.App": {"_pool", "_conn_sets"},
}


def package_modules():
    return [aalogic] + [importlib.import_module(f"aalogic.{m.name}") for m in pkgutil.iter_modules(aalogic.__path__)]


def containers(namespace) -> set[str]:
    return {
        name for name, value in vars(namespace).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_the_variable_table_holds_canonical_spellings_of_parsed_texts():
    # whitespace, leading zeros and failing texts leave the table as it was
    before = dict(syntax._VARIABLES)
    for text in [" x9001", "x9001 ", "x09001", "neg(\tx9001)", "x9001$", "neg(x9001", "imp(x9001,x9002",
                 "x9001 x9002", "neg(x9001)(", "x10000", "x9001_"]:
        with contextlib.suppress(FormulaSyntaxError):
            parse_formula(BUILTIN_SIGNATURE, text)
    assert syntax._VARIABLES == before
    parse_formula(BUILTIN_SIGNATURE, "imp(x9001,x9002)")
    assert set(syntax._VARIABLES) - set(before) == {"x9001", "x9002"}
    assert len(syntax._VARIABLES) <= MAX_VARIABLE_INDEX + 1
    for spelling, var in syntax._VARIABLES.items():
        assert spelling == f"x{var.index}" and var is Var(var.index)


def test_no_algebra_outlives_its_last_user(ipc):
    algebras = [FiniteAlgebra.from_json(H.to_json()) for _, H in corpus.heyting_corpus(4)]
    ctx = corpus.classical_context()
    phi = parse_formula(BUILTIN_SIGNATURE, "or(x0,neg(x0))")
    for H in algebras:
        ctx.adjoint(H)
        matrix_compatibility_check(ctx, Matrix(H, {H.size - 1}), (), phi)
        lind_compatibility_check(ctx, H, (), phi)
        theorem_values(ipc, H)
        is_filter(ipc, H, H.elements())
        all_filters(ipc, H)
        filter_closure(ipc, H, ())
        qv_membership("heyting", H)
        left_adjoint_quotient(H)
        regular_elements(H)
        find_adjoint_report(H)
    refs = [weakref.ref(H) for H in algebras]
    del algebras, H
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_a_second_pass_over_the_quasivariety_reads_only_the_memo(cpc):
    H3 = corpus.h3()
    axioms = qv_axioms(cpc, corpus.classical_pair(), depth=3, num_vars=2)
    first = [quasiidentity_holds(H3, q.premises, q.conclusion) for q in axioms]
    entries = len(H3._memo)  # 5,741 masks and vectors
    second = [quasiidentity_holds(H3, q.premises, q.conclusion) for q in axioms]
    assert len(H3._memo) == entries < MEMO_LIMIT
    assert second == first
    assert first.count(False) == 3456


def test_module_level_containers_are_the_allowlist():
    found = {}
    for module in package_modules():
        names = containers(module)
        if names:
            found[module.__name__.removeprefix("aalogic.")] = names
    assert found == MODULE_CONTAINERS


def test_class_level_containers_are_the_allowlist():
    found = {}
    for module in package_modules():
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                names = containers(cls)
                if names:
                    found[f"{module.__name__.removeprefix('aalogic.')}.{cls.__qualname__}"] = names
    assert found == CLASS_CONTAINERS


def test_translations_keep_nothing_on_their_objects():
    ctx = corpus.classical_context()
    pair = corpus.classical_pair()
    morphism = dict(corpus.classical_corpus().morphisms)["cpc-triple-neg"].morphism
    objects = (ctx, pair, morphism)

    def sizes():
        return [
            {name: len(value) for name, value in vars(obj).items() if isinstance(value, (dict, list, set))}
            for obj in objects
        ]

    before = sizes()
    rng = random.Random(2000)
    formulas = set()
    while len(formulas) < 2000:
        formulas.add(random_formula(rng, BUILTIN_SIGNATURE, 3, 5))
    previous = next(iter(formulas))
    for phi in formulas:
        rho_translate(ctx, phi)
        tau_translate(pair, phi)
        delta_translate(pair, Equation(previous, phi))
        extend_morphism(morphism, phi)
        previous = phi
    assert sizes() == before
