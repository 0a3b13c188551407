"""The shared cache-clearing helper reaches every memo table of the
package, the private ones included, so a test that clears
before it compares or watches builders never runs against a warm
cache."""

import contextlib
import functools
import gc
import io
from collections import Counter

from conftest import clear_caches
from test_macdonald import EULER_BASES

from qbailey import cli, macdonald, qfunctions

# the private per-n integrand factors, and the memo behind
# infinite_product, which every n-free product of infinite Pochhammers
# reads
PRIVATE_CACHES = {"qfunctions._expansion_n_factor", "qfunctions._expansion_l_factor",
                  "qfunctions._infinite_product"}

# every module-level memo table of the package: a new one is added here
# on purpose, and clear_caches must reach it
MODULE_CACHES = {"qfunctions._prefixes", "qfunctions._infinite_product", "qfunctions.qbinomial",
                 "qfunctions.hermite", "qfunctions._expansion_n_factor",
                 "qfunctions._expansion_l_factor", "macdonald._r_geometric", "cli.build_parser"}


def package_caches():
    # every functools.cache of a qbailey module, found on the heap
    # rather than through the module namespaces clear_caches walks
    return {f"{obj.__module__.removeprefix('qbailey.')}.{obj.__qualname__}": obj
            for obj in gc.get_objects()
            if isinstance(obj, functools._lru_cache_wrapper)
            and (obj.__module__ or "").startswith("qbailey.")}


def test_clear_caches_empties_every_package_cache():
    argvs = [["selftest"],
             ["verify", "thm-wp", "--nmax", "2", "--nq", "4", "--nt", "4", "--ns", "2"],
             ["verify", "corollary-special", "--pair", "chain(1;1/2;3)", "--nq", "4", "--nt", "4"],
             ["table", "--rep", "fermionic2", "--k", "2", "--nq", "4", "--nt", "4"]]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert cli.main(argv) == 0
    caches = package_caches()
    assert PRIVATE_CACHES <= set(caches)
    assert [name for name, cache in caches.items() if not cache.cache_info().currsize] == []
    clear_caches()
    assert {name: cache.cache_info().currsize for name, cache in caches.items()} \
        == dict.fromkeys(caches, 0)


def test_the_module_level_memo_tables_are_pinned():
    # per-call memos, such as those of original_index, are not module-level
    assert {name for name in package_caches() if "<locals>" not in name} == MODULE_CACHES


def test_bosonic_prefactor_is_built_once_per_truncation(monkeypatch):
    # the Euler factors 1/(t;q)_inf, 1/(tz^2;q)_inf and 1/(t/z^2;q)_inf
    # are the same for every k: three thm-main runs at one truncation
    # build each once and read it twice.  The bosonic side multiplies
    # them into its sum one at a time, so it never reads their product
    clear_caches()
    built = qfunctions.infinite_product
    read = []
    monkeypatch.setattr(macdonald, "infinite_product",
                        lambda num, den, trunc: read.append((num, den)) or built(num, den, trunc))
    with contextlib.redirect_stdout(io.StringIO()):
        for k in ("1", "2", "3"):
            assert cli.main(["verify", "thm-main", "--k", k, "--nq", "16", "--nt", "12"]) == 0
    info = qfunctions._infinite_product.cache_info()
    assert (info.misses, info.hits) == (3, 6)
    assert Counter(read) == {((), (base,)): 3 for base in EULER_BASES}
