"""Cache ownership: everything keyed by an algebra lives on that algebra, so
nothing outside a caller keeps an algebra alive, and no module grows a new
process-wide cache unnoticed."""

import gc
import importlib
import pkgutil
import weakref

import aalogic
from aalogic import FiniteAlgebra, corpus
from aalogic.algebra import all_filters, filter_closure, is_filter, theorem_values
from aalogic.algebraization import qv_membership
from aalogic.glivenko import find_adjoint_report, left_adjoint_quotient, regular_elements

# The process-wide containers the package keeps on purpose: the prover's
# integer node tables, its sequent memo and its Kripke frame algebras, and
# the bundled-name tables, which hold builders, not built objects. The
# formula intern pools are class attributes.
MODULE_CONTAINERS = {
    "provers": {"_TAGS", "_tag", "_left", "_right", "_ids", "_sequent_memo", "_frame_cache"},
    "corpus": {"LOGICS", "CONTEXTS"},
}


def test_no_algebra_outlives_its_last_user(ipc):
    algebras = [FiniteAlgebra.from_json(H.to_json()) for _, H in corpus.heyting_corpus(4)]
    for H in algebras:
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


def test_module_level_containers_are_the_allowlist():
    modules = [aalogic] + [importlib.import_module(f"aalogic.{m.name}") for m in pkgutil.iter_modules(aalogic.__path__)]
    found = {}
    for module in modules:
        names = {
            name for name, value in vars(module).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        }
        if names:
            found[module.__name__.removeprefix("aalogic.")] = names
    assert found == MODULE_CONTAINERS
