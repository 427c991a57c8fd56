"""The repro-lint check catalogue (RL001 -- RL013; RL007 and RL010 are
retired).

Every check targets one hand-maintained invariant of the backend
machinery (see ROADMAP "Architecture notes"); breaking it produces a
deadlock, a silent cross-backend parity break, or a use-after-recycle
-- failure modes the parity suite only catches after the fact, at one
``(p, backend)`` grid point.

========  ==============================================================
RL001     rank-dependent control flow around a collective ``yield`` --
          or a ``yield from`` delegation to another SPMD kernel -- in an
          SPMD generator kernel (collective-sequence divergence)
RL002     unordered set/dict iteration feeding a collective payload,
          charge log, or kernel return value (order parity hazard)
RL003     global ``random`` / ``np.random`` use inside a worker kernel
          instead of the counter-addressed draw streams (ctrrng)
RL004     charge-log entry kind -- appended to a log or declared in a
          ``charged(request, *entries)`` yield -- that ``comm.METERS``
          has no meter for (the replay would raise, or worse, silently
          skew cost)
RL005     transport-decoded ``memoryview``/buffer stored beyond the
          command round (use-after-recycle once the pool recycles)
RL006     shm / out-of-band transport features used without consulting
          the backend capability flags
RL008     zero-argument blocking ``.get()`` / ``.recv()`` -- an
          unbounded wait that turns a dead peer into a hang instead of
          a :class:`WorkerFailure` (pass a timeout / byte count and
          re-check liveness per cycle)
RL009     stateful ``Generator``/``default_rng`` construction inside a
          worker kernel, or a raw ``Philox`` bit generator built outside
          ``machine/ctrrng.py`` (counter-reuse hazard: hand-keyed
          streams can collide with the sanctioned address space)
RL011     charging around the charge log outside ``repro/machine/``: a
          call to a private ``Machine`` meter / charge / collective
          helper, any call through ``.clock.``, or a write through
          ``.metrics.`` (``charge``, ``record_p2p``, ``record_schedule``)
RL012     a worker command issued around the one command path outside
          ``repro/machine/``: a ``.backend.run_spmd`` /
          ``.backend.submit_spmd`` / ``.backend.map_resident`` call
          (use ``Machine.run_command``)
RL013     a non-``ops`` charge entry appended in the statement directly
          before or after a collective ``yield`` outside
          ``repro/machine/``: the runner derives every yield's entry,
          so a hand-written one charges it twice (declare a different
          charge with ``yield charged(request, *entries)``)
========  ==============================================================

Adding a check: subclass :class:`~tools.repro_lint.core.Check`, give it
the next ``RLxxx`` id and a one-line ``summary``, implement
``run(ctx) -> list[Finding]`` over ``ctx.tree`` (a parsed module;
``ctx.parents`` gives child->parent links), decorate with
``@register_check``, and add firing/non-firing fixtures to
``tests/unit/test_repro_lint.py``.
"""

from __future__ import annotations

import ast

from .core import Check, FileContext, Finding, register_check

#: the collectives a worker-side SPMD generator may yield; pinned
#: against runtime._run_collective and base.spmd_collective by
#: test_repro_lint.py
SPMD_YIELD_KINDS = {
    "allgather",
    "allreduce",
    "allreduce_exscan",
    "alltoall",
    "broadcast",
    "gather",
    "p2p",
    "reduce",
    "reduce_allgather",
    "scan",
    "scatter",
    "sendrecv",
}

#: collectives whose per-rank result is replicated (identical on every
#: rank) -- a value derived from one is NOT rank-dependent
_REPLICATED_RESULT = {"allgather", "allreduce", "broadcast", "reduce_allgather"}

#: charge-log entry kinds, the keys of the meter table
#: (src/repro/machine/comm.py::METERS); pinned to it by
#: test_repro_lint.py and test_collective_charges.py
ACCEPTED_CHARGE_KINDS = {
    "ops",
    "allgather",
    "allreduce",
    "allreduce_exscan",
    "alltoall",
    "alltoall_hc",
    "barrier",
    "broadcast",
    "dht_round",
    "gather",
    "gather_direct",
    "p2p",
    "reduce",
    "reduce_allgather",
    "rounds",
    "scan",
    "scatter",
    "tree_hop",
}

#: machine/backend collective entry points whose arguments travel, and
#: ``Machine.run_command``, whose per-PE source list rides its one
#: command (called as ``m.f(...)`` or ``f(m, ...)``)
COLLECTIVE_CALL_NAMES = {
    "allgather",
    "allreduce",
    "allreduce_exscan",
    "alltoall",
    "broadcast",
    "collective",
    "gather",
    "reduce",
    "reduce_allgather",
    "run_command",
    "scan",
    "scatter",
    "send",
}

#: wrapping any expression in one of these makes iteration order moot
_ORDER_NEUTRALIZERS = {
    "sorted", "len", "sum", "min", "max", "any", "all",
    "set", "frozenset", "dict", "sort", "unique", "lexsort", "argsort",
}

#: backend attributes gated by capability flags (RL006)
_CAPABILITY_GATED_ATTRS = {"_pool", "shm_pool", "shm_threshold"}
_CAPABILITY_FLAGS = {"supports_shm", "supports_oob_pickle"}


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

def iter_functions(tree: ast.Module):
    """Every function/method in the module, including nested ones."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def own_nodes(func: ast.AST):
    """Walk a function's body without descending into nested functions
    (a nested def has its own rank/kernel context)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def spmd_yield_kind(node: ast.AST) -> str | None:
    """The collective name if ``node`` is ``yield ("<kind>", ...)`` or
    ``yield charged(("<kind>", ...), *entries)``, a request whose charge
    the kernel declares."""
    if not isinstance(node, ast.Yield) or node.value is None:
        return None
    val = node.value
    if isinstance(val, ast.Call) and _call_name(val) == "charged" and val.args:
        val = val.args[0]
    if (
        isinstance(val, ast.Tuple)
        and val.elts
        and isinstance(val.elts[0], ast.Constant)
        and isinstance(val.elts[0].value, str)
        and val.elts[0].value in SPMD_YIELD_KINDS
    ):
        return val.elts[0].value
    return None


def module_functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level functions by name: what a ``yield from f(...)`` can
    be resolved to without leaving the file."""
    return {
        n.name: n
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def delegated_call(node: ast.AST) -> ast.Call | None:
    """The call if ``node`` is ``yield from f(...)``: a sub-generator
    whose collectives run inline in the caller's sequence."""
    if isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call):
        return node.value
    return None


def _callee(call: ast.Call, funcs: dict[str, ast.AST]) -> ast.AST | None:
    return funcs.get(call.func.id) if isinstance(call.func, ast.Name) else None


def collective_site(
    node: ast.AST, funcs: dict[str, ast.AST], _seen: frozenset = frozenset()
) -> str | None:
    """What ``node`` contributes to the rank's collective sequence: the
    kind of a direct ``yield``, or ``"yield from <f>"`` for a delegation
    to an SPMD kernel.  A callee defined in another module cannot be
    inspected and is assumed to be one."""
    kind = spmd_yield_kind(node)
    if kind is not None:
        return kind
    call = delegated_call(node)
    if call is None:
        return None
    callee = _callee(call, funcs)
    if callee is None or is_spmd_kernel(callee, funcs, _seen):
        return f"yield from {_call_name(call)}"
    return None


def is_spmd_kernel(
    func: ast.AST,
    funcs: dict[str, ast.AST] | None = None,
    _seen: frozenset = frozenset(),
) -> bool:
    """A function that yields at least one SPMD collective tuple -- or,
    given the module's functions, delegates to one that does."""
    if funcs is None:
        return any(spmd_yield_kind(n) for n in own_nodes(func))
    if func in _seen:
        return False
    seen = _seen | {func}
    return any(collective_site(n, funcs, seen) for n in own_nodes(func))


def is_worker_kernel(func: ast.AST) -> bool:
    """Resident/SPMD worker callback, by the repo-wide convention: the
    first positional parameter is named ``rank`` (the runtime calls
    ``fn(rank, *chunks, *args)``)."""
    args = getattr(func, "args", None)
    if args is None:
        return False
    pos = list(args.posonlyargs) + list(args.args)
    return bool(pos) and pos[0].arg == "rank"


def names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def mentions_rank(node: ast.AST, tainted: set[str]) -> bool:
    """True when the expression depends on the executing rank: a tainted
    name, or any ``<obj>.rank`` attribute (``comm.rank``, ``self.rank``)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id in tainted:
            return True
        if isinstance(n, ast.Attribute) and n.attr == "rank":
            return True
    return False


def _assign_targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def rank_tainted_names(
    func: ast.AST,
    funcs: dict[str, ast.AST] | None = None,
    seeds: frozenset = frozenset(),
    _depth: int = 0,
) -> set[str]:
    """Names whose value depends on the executing rank.

    Seeds: parameters named ``rank`` (plus ``seeds``, the parameters a
    delegating caller passed rank-dependent arguments for).  Propagates
    through assignments; a value drawn from a *replicated* collective
    yield (allgather / allreduce, or the total half of
    allreduce_exscan) is identical on every rank and therefore UNtaints
    its target, while rank-personal results (alltoall, sendrecv, the
    prefix half of allreduce_exscan) taint theirs.  The result of a
    ``yield from f(...)`` is what ``f`` returns: with ``funcs`` (the
    module's functions) the callee's ``return`` expressions are
    analysed in its own context, element by element; a callee defined
    elsewhere taints its targets.
    """
    tainted: set[str] = set(seeds)
    args = getattr(func, "args", None)
    if args is not None:
        for a in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
        ):
            if a.arg == "rank":
                tainted.add(a.arg)

    def taint(expr: ast.AST) -> bool:
        fresh = names_in(expr) - tainted
        tainted.update(fresh)
        return bool(fresh)

    for _ in range(8):  # fixpoint; tiny functions converge in 1-2 rounds
        changed = False
        for node in own_nodes(func):
            targets = _assign_targets(node)
            value = getattr(node, "value", None)
            if not targets or value is None:
                if isinstance(node, ast.For) and mentions_rank(node.iter, tainted):
                    changed |= taint(node.target)
                continue
            kind = spmd_yield_kind(value)
            if kind is not None:
                if kind in _REPLICATED_RESULT:
                    continue  # replicated result: target stays clean
                for tgt in targets:
                    if (
                        kind == "allreduce_exscan"
                        and isinstance(tgt, ast.Tuple)
                        and len(tgt.elts) == 2
                    ):
                        # (total, prefix): total replicated, prefix per-rank
                        tgt = tgt.elts[1]
                    # everything else is rank-personal: exchanged rows,
                    # a prefix, what only the root or receiver holds
                    changed |= taint(tgt)
                continue
            call = delegated_call(value)
            if call is not None and funcs is not None:
                dep = _delegate_taint(call, funcs, tainted, _depth)
                for tgt in targets:
                    if isinstance(tgt, ast.Tuple) and len(tgt.elts) == len(dep):
                        parts = zip(tgt.elts, dep)
                    else:
                        parts = [(tgt, any(dep))]
                    for elt, elt_dep in parts:
                        if elt_dep:
                            changed |= taint(elt)
                continue
            if isinstance(node, ast.AugAssign):
                dep = mentions_rank(value, tainted) or mentions_rank(
                    node.target, tainted
                )
            else:
                dep = mentions_rank(value, tainted)
            if dep:
                for tgt in targets:
                    changed |= taint(tgt)
        if not changed:
            break
    return tainted


def _delegate_taint(
    call: ast.Call, funcs: dict[str, ast.AST], tainted: set[str], depth: int
) -> list[bool]:
    """Rank dependence of what ``yield from <call>`` evaluates to: one
    flag per element when every ``return`` of the callee is a tuple of
    the same length, a single flag otherwise."""
    callee = _callee(call, funcs)
    if (
        callee is None
        or depth >= 4
        or any(isinstance(a, ast.Starred) for a in call.args)
        or any(kw.arg is None for kw in call.keywords)
    ):
        return [True]  # cannot look inside: assume rank-personal
    params = [a.arg for a in callee.args.posonlyargs + callee.args.args]
    seeds = {
        name
        for name, arg in zip(params, call.args)
        if mentions_rank(arg, tainted)
    } | {kw.arg for kw in call.keywords if mentions_rank(kw.value, tainted)}
    inner = rank_tainted_names(callee, funcs, frozenset(seeds), depth + 1)
    returns = [
        n.value
        for n in own_nodes(callee)
        if isinstance(n, ast.Return) and n.value is not None
    ]
    arities = {
        len(r.elts) if isinstance(r, ast.Tuple) else None for r in returns
    }
    if len(arities) == 1 and None not in arities:
        return [
            any(mentions_rank(r.elts[i], inner) for r in returns)
            for i in range(arities.pop())
        ]
    return [any(mentions_rank(r, inner) for r in returns)]


def _call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _has_neutralizing_ancestor(
    node: ast.AST, stop: ast.AST, parents: dict
) -> bool:
    """True when some enclosing expression makes iteration order moot:
    a sorting/aggregating call, or a membership test (``x in s``)."""
    cur = node
    while cur is not stop:
        par = parents.get(cur)
        if par is None:
            return False
        if isinstance(par, ast.Call):
            name = _call_name(par)
            if name in _ORDER_NEUTRALIZERS and cur in par.args:
                return True
        if isinstance(par, ast.Compare) and cur in par.comparators:
            ops_for_cur = [
                op
                for op, cmp in zip(par.ops, par.comparators)
                if cmp is cur
            ]
            if any(isinstance(op, (ast.In, ast.NotIn)) for op in ops_for_cur):
                return True
        if isinstance(par, (ast.SetComp, ast.DictComp)):
            return True  # re-collected into an unordered container
        cur = par
    return False


# ----------------------------------------------------------------------
# RL001 -- rank-divergent collective sequences
# ----------------------------------------------------------------------

@register_check
class RankDivergentYield(Check):
    id = "RL001"
    summary = (
        "rank-dependent control flow around a collective yield in an SPMD "
        "generator (collective-sequence divergence: deadlock or silent "
        "parity break)"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        funcs = module_functions(ctx.tree)
        for func in iter_functions(ctx.tree):
            if not is_spmd_kernel(func, funcs):
                continue
            tainted = rank_tainted_names(func, funcs)
            for node in own_nodes(func):
                kind = collective_site(node, funcs)
                if kind is None:
                    continue
                guard = self._rank_guard(node, func, tainted, ctx.parents)
                if guard is not None:
                    findings.append(
                        ctx.finding(
                            self.id,
                            node,
                            f"collective yield {kind!r} is guarded by "
                            f"rank-dependent control flow (line "
                            f"{guard.lineno}); every rank must issue the "
                            f"identical collective sequence",
                        )
                    )
        return findings

    @staticmethod
    def _rank_guard(node, func, tainted, parents):
        """Innermost enclosing branch/loop whose condition depends on
        the executing rank, or None."""
        cur = node
        while cur is not func:
            par = parents.get(cur)
            if par is None:
                return None
            if isinstance(par, (ast.If, ast.IfExp, ast.While)):
                in_test = any(cur is n or cur in ast.walk(n) for n in [par.test])
                if not in_test and mentions_rank(par.test, tainted):
                    return par
            if isinstance(par, ast.For):
                if cur is not par.iter and mentions_rank(par.iter, tainted):
                    return par
            cur = par
        return None


# ----------------------------------------------------------------------
# RL002 -- unordered iteration feeding collectives / charge logs
# ----------------------------------------------------------------------

def _is_log_receiver(expr: ast.AST) -> bool:
    name = None
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    return name is not None and (
        name == "log" or name.endswith("_log") or name == "charges"
    )


def _is_unordered_expr(node: ast.AST) -> bool:
    """Statically a set (iteration order not semantically defined) or a
    raw dict-view call (order = insertion history, which transport
    arrival order can perturb)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if isinstance(node.func, ast.Name) and name in {"set", "frozenset"}:
            return True
        if isinstance(node.func, ast.Attribute) and name in {
            "keys",
            "values",
            "items",
        }:
            return not node.args  # d.keys() etc., not something.items(x)
    return False


@register_check
class UnorderedIterationFeedsCollective(Check):
    id = "RL002"
    summary = (
        "iteration over a set / raw dict view feeds a collective payload, "
        "charge log, or kernel return value (nondeterministic-order parity "
        "hazard); sort first"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for func in iter_functions(ctx.tree):
            sink_stmts = self._sink_statements(func)
            if not sink_stmts:
                continue
            sink_names = self._sink_reaching_names(func, sink_stmts)
            for node in own_nodes(func):
                unordered = self._order_sensitive_use(node, func, ctx.parents)
                if unordered is None:
                    continue
                stmt = self._enclosing_stmt(node, func, ctx.parents)
                if stmt is None:
                    continue
                hit = stmt in sink_stmts
                if not hit:
                    targets = _assign_targets(stmt)
                    hit = any(
                        name in sink_names
                        for tgt in targets
                        for name in names_in(tgt)
                    )
                    if not hit and isinstance(stmt, ast.For) and stmt.iter is node:
                        # a bare for-loop over an unordered iterable whose
                        # body writes into sink-feeding state
                        hit = any(
                            name in sink_names
                            for child in stmt.body
                            for t in ast.walk(child)
                            if isinstance(t, (ast.Assign, ast.AugAssign))
                            for tgt in _assign_targets(t)
                            for name in names_in(tgt)
                        )
                if hit:
                    findings.append(
                        ctx.finding(
                            self.id,
                            node,
                            "unordered iteration feeds a collective payload/"
                            "charge log/kernel result; wrap in sorted(...) "
                            "(or justify with a suppression)",
                        )
                    )
        return findings

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _sink_statements(func) -> set[ast.AST]:
        sinks: set[ast.AST] = set()
        kernel = is_worker_kernel(func)
        stmts = [n for n in own_nodes(func) if isinstance(n, ast.stmt)]
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    fn = node.func
                    if _call_name(node) in COLLECTIVE_CALL_NAMES:
                        sinks.add(stmt)
                    elif (
                        isinstance(fn, ast.Attribute)
                        and fn.attr == "append"
                        and _is_log_receiver(fn.value)
                    ):
                        sinks.add(stmt)
                elif (
                    spmd_yield_kind(node) is not None
                    or delegated_call(node) is not None
                ):
                    # a delegation's arguments feed the sub-kernel's
                    # payloads, and its result flows on from there
                    sinks.add(stmt)
                elif kernel and isinstance(node, ast.Return) and node.value:
                    sinks.add(stmt)
        return sinks

    @staticmethod
    def _sink_reaching_names(func, sink_stmts) -> set[str]:
        """Names consumed inside sink statements, chased backward
        through plain assignments (bounded fixpoint)."""
        reaching: set[str] = set()
        for stmt in sink_stmts:
            reaching |= names_in(stmt)
        assigns = [
            n
            for n in own_nodes(func)
            if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and getattr(n, "value", None) is not None
        ]
        for _ in range(4):
            changed = False
            for node in assigns:
                tgt_names = {
                    name for tgt in _assign_targets(node) for name in names_in(tgt)
                }
                if tgt_names & reaching:
                    for name in names_in(node.value):
                        if name not in reaching:
                            reaching.add(name)
                            changed = True
            if not changed:
                break
        return reaching

    @staticmethod
    def _order_sensitive_use(node, func, parents):
        """Return the unordered expression when ``node`` consumes one in
        an order-preserving way, else None."""
        if not _is_unordered_expr(node):
            return None
        if _has_neutralizing_ancestor(node, func, parents):
            return None
        par = parents.get(node)
        # direct iteration: for x in {...} / [f(x) for x in s]
        if isinstance(par, ast.For) and par.iter is node:
            return node
        if isinstance(par, ast.comprehension) and par.iter is node:
            comp = parents.get(par)
            if isinstance(comp, (ast.SetComp, ast.DictComp)):
                return None  # recollected into an unordered container
            return node
        # materialization: list(s) / tuple(s) / np.fromiter(d.keys(), ...)
        if isinstance(par, ast.Call) and node in par.args:
            name = _call_name(par)
            if name in {"list", "tuple", "fromiter", "array", "concatenate"}:
                return node
        # direct splice into a payload tuple of a yield (declared or not)
        if isinstance(par, ast.Tuple):
            grand = parents.get(par)
            if isinstance(grand, ast.Call) and _call_name(grand) == "charged":
                grand = parents.get(grand)
            if isinstance(grand, ast.Yield):
                return node
        return None

    @staticmethod
    def _enclosing_stmt(node, func, parents):
        cur = node
        while cur is not func:
            if isinstance(cur, ast.stmt):
                return cur
            cur = parents.get(cur)
            if cur is None:
                return None
        return None


# ----------------------------------------------------------------------
# RL003 -- global RNG inside worker kernels
# ----------------------------------------------------------------------

def _module_aliases(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """(numpy aliases, stdlib-random aliases, names imported straight
    from numpy.random / random)."""
    numpy_aliases: set[str] = set()
    random_aliases: set[str] = set()
    direct_fns: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "numpy.random":
                    random_aliases.add(alias.asname or "numpy")
                elif alias.name == "random":
                    random_aliases.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("numpy.random", "random"):
                for alias in node.names:
                    if alias.name in (
                        "default_rng", "seed", "random", "randint", "rand",
                        "randn", "choice", "shuffle", "sample", "randrange",
                    ):
                        direct_fns.add(alias.asname or alias.name)
            elif node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
    return numpy_aliases, random_aliases, direct_fns


@register_check
class GlobalRngInKernel(Check):
    id = "RL003"
    summary = (
        "global random / np.random draw inside a worker-resident kernel; "
        "draw from the command's counter-addressed DrawAddress "
        "(machine/ctrrng.py) so backends stay bit-identical"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        numpy_aliases, random_aliases, direct_fns = _module_aliases(ctx.tree)
        findings: list[Finding] = []
        for func in iter_functions(ctx.tree):
            if not (is_worker_kernel(func) or is_spmd_kernel(func)):
                continue
            for node in own_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                offender = self._global_rng_call(
                    node, numpy_aliases, random_aliases, direct_fns
                )
                if offender:
                    findings.append(
                        ctx.finding(
                            self.id,
                            node,
                            f"kernel draws from the process-global RNG "
                            f"({offender}); derive a generator from the "
                            f"shipped DrawAddress (addr.local(rank) / "
                            f"addr.shared()) instead",
                        )
                    )
        return findings

    @staticmethod
    def _global_rng_call(call, numpy_aliases, random_aliases, direct_fns):
        fn = call.func
        if isinstance(fn, ast.Name) and fn.id in direct_fns:
            return fn.id
        # np.random.<fn>(...) -- but np.random.Generator(...)/Philox(...)
        # wrap explicit state, not the process-global stream: whether
        # *constructing* them in a kernel is sound is RL009's question
        if isinstance(fn, ast.Attribute):
            chain = []
            cur = fn
            while isinstance(cur, ast.Attribute):
                chain.append(cur.attr)
                cur = cur.value
            chain.reverse()
            if not isinstance(cur, ast.Name):
                return None
            base = cur.id
            explicit_state = (
                "Generator", "PCG64", "Philox", "SeedSequence", "BitGenerator",
            )
            if base in numpy_aliases and chain[:1] == ["random"]:
                leaf = chain[-1]
                if leaf in explicit_state:
                    return None
                return f"{base}.{'.'.join(chain)}"
            if base in random_aliases and len(chain) == 1:
                leaf = chain[0]
                if leaf in explicit_state:
                    return None
                return f"{base}.{leaf}"
        return None


# ----------------------------------------------------------------------
# RL004 -- unknown charge-log entry kinds
# ----------------------------------------------------------------------

@register_check
class UnknownChargeKind(Check):
    id = "RL004"
    summary = (
        "charge-log entry kind with no meter in comm.METERS "
        "(the replay raises, or modeled cost silently diverges)"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) == "charged":
                entries = node.args[1:]  # the request is a collective's
            else:
                entries = [e for e in [_appended_entry(node)] if e is not None]
            for entry in entries:
                kind = _entry_kind(entry)
                if kind is not None and kind not in ACCEPTED_CHARGE_KINDS:
                    findings.append(
                        ctx.finding(
                            self.id,
                            node,
                            f"charge-log entry kind {kind!r} has no meter in "
                            f"comm.METERS (accepted: "
                            f"{', '.join(sorted(ACCEPTED_CHARGE_KINDS))})",
                        )
                    )
        return findings


def _appended_entry(node: ast.AST) -> ast.AST | None:
    """The entry if ``node`` is ``<log>.append(entry)``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "append"
        and _is_log_receiver(node.func.value)
        and len(node.args) == 1
    ):
        return node.args[0]
    return None


def _entry_kind(entry: ast.AST) -> str | None:
    """The kind of a literal charge entry ``("<kind>", ...)``."""
    if (
        isinstance(entry, ast.Tuple)
        and entry.elts
        and isinstance(entry.elts[0], ast.Constant)
        and isinstance(entry.elts[0].value, str)
    ):
        return entry.elts[0].value
    return None


# ----------------------------------------------------------------------
# RL005 -- transport buffers stored beyond the command round
# ----------------------------------------------------------------------

_BUFFER_SOURCES = {"memoryview", "frombuffer"}
_COPY_NEUTRALIZERS = {"bytes", "bytearray", "copy", "array", "deepcopy", "tobytes"}


def _buffer_tainted_names(func) -> set[str]:
    """Names bound (directly or via slices/casts) to a zero-copy view."""
    tainted: set[str] = set()
    for _ in range(4):
        changed = False
        for node in own_nodes(func):
            targets = _assign_targets(node)
            value = getattr(node, "value", None)
            if not targets or value is None:
                continue
            if _is_buffer_expr(value, tainted):
                for tgt in targets:
                    for name in names_in(tgt):
                        if name not in tainted:
                            tainted.add(name)
                            changed = True
        if not changed:
            break
    return tainted


def _is_buffer_expr(node, tainted: set[str]) -> bool:
    """Expression that (still) aliases a transport-owned buffer."""
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in _COPY_NEUTRALIZERS:
            return False
        if name in _BUFFER_SOURCES:
            return True
        if name == "cast" and isinstance(node.func, ast.Attribute):
            return _is_buffer_expr(node.func.value, tainted)
        return False
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Subscript):  # a slice of a view is a view
        return _is_buffer_expr(node.value, tainted)
    return False


@register_check
class BufferOutlivesRound(Check):
    id = "RL005"
    summary = (
        "transport-decoded memoryview / np.frombuffer view stored on self "
        "or in long-lived state (use-after-recycle once the shm pool "
        "recycles the segment); copy it out first"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for func in iter_functions(ctx.tree):
            tainted = _buffer_tainted_names(func)
            for node in own_nodes(func):
                msg = None
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    value = getattr(node, "value", None)
                    if value is None or not _is_buffer_expr(value, tainted):
                        continue
                    for tgt in _assign_targets(node):
                        if self._long_lived_target(tgt):
                            msg = (
                                "zero-copy buffer view stored in long-lived "
                                "state; it dies when the transport recycles "
                                "its segment -- copy with bytes()/np.array() "
                                "or keep it within the command round"
                            )
                elif isinstance(node, ast.Call):
                    fn = node.func
                    if (
                        isinstance(fn, ast.Attribute)
                        and fn.attr in {"append", "add", "extend", "insert"}
                        and isinstance(fn.value, ast.Attribute)
                        and isinstance(fn.value.value, ast.Name)
                        and fn.value.value.id == "self"
                        and any(_is_buffer_expr(a, tainted) for a in node.args)
                    ):
                        msg = (
                            "zero-copy buffer view appended to instance "
                            "state; copy it out before the round ends"
                        )
                if msg:
                    findings.append(ctx.finding(self.id, node, msg))
        return findings

    @staticmethod
    def _long_lived_target(tgt) -> bool:
        # self.x = view  /  self.x[k] = view
        if isinstance(tgt, ast.Attribute):
            return isinstance(tgt.value, ast.Name) and tgt.value.id == "self"
        if isinstance(tgt, ast.Subscript):
            inner = tgt.value
            return (
                isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"
            )
        return False


# ----------------------------------------------------------------------
# RL006 -- capability flags not consulted
# ----------------------------------------------------------------------

@register_check
class CapabilityUnchecked(Check):
    id = "RL006"
    summary = (
        "shm / out-of-band transport feature used without checking the "
        "backend capability flags (supports_shm / supports_oob_pickle); "
        "sim and socket backends lack these lanes"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for func in iter_functions(ctx.tree):
            mentions = {
                n.attr for n in own_nodes(func) if isinstance(n, ast.Attribute)
            } | {n.id for n in own_nodes(func) if isinstance(n, ast.Name)}
            if mentions & _CAPABILITY_FLAGS:
                continue  # the function consults a capability flag
            for node in own_nodes(func):
                offender = None
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in _CAPABILITY_GATED_ATTRS
                ):
                    offender = node.attr
                elif (
                    isinstance(node, ast.Call)
                    and _call_name(node) == "SharedMemory"
                ):
                    offender = "SharedMemory"
                if offender:
                    findings.append(
                        ctx.finding(
                            self.id,
                            node,
                            f"{offender!r} used without consulting "
                            f"supports_shm/supports_oob_pickle; guard the "
                            f"path or exclude this transport-internal file "
                            f"in [tool.repro-lint]",
                        )
                    )
        return findings


# ----------------------------------------------------------------------
# RL008 -- unbounded blocking get()/recv()
# ----------------------------------------------------------------------

#: zero-argument callees that block forever when the peer dies;
#: ``get_nowait`` / ``recv_bytes(n)`` / ``dict.get(key)`` all carry
#: arguments and never match
_BLOCKING_WAIT_ATTRS = {"get", "recv"}


@register_check
class UnboundedBlockingWait(Check):
    id = "RL008"
    summary = (
        "zero-argument .get()/.recv() blocks forever when the peer dies; "
        "pass a timeout (queue) or byte count (socket) and re-check "
        "liveness each cycle so a dead worker surfaces as WorkerFailure, "
        "not a hang"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if not (
                isinstance(fn, ast.Attribute)
                and fn.attr in _BLOCKING_WAIT_ATTRS
            ):
                continue
            if node.args or node.keywords:
                continue  # bounded (timeout / nbytes) or a keyed dict.get
            findings.append(
                ctx.finding(
                    self.id,
                    node,
                    f"unbounded blocking .{fn.attr}(): a dead peer turns "
                    f"this into a permanent hang; pass "
                    f"{'timeout=' if fn.attr == 'get' else 'a byte count'} "
                    f"and poll liveness between cycles",
                )
            )
        return findings


# ----------------------------------------------------------------------
# RL009 -- stateful RNG construction in kernels / raw Philox use
# ----------------------------------------------------------------------

#: constructors that mint a *stateful* generator; inside a kernel the
#: only sound source of randomness is the shipped DrawAddress
_KERNEL_RNG_CTORS = {"default_rng", "Generator"}


def _rng_ctor_aliases(tree: ast.Module) -> dict[str, str]:
    """asname -> real name for RL009's constructor set, imported
    straight from numpy.random."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            for alias in node.names:
                if alias.name in _KERNEL_RNG_CTORS or alias.name == "Philox":
                    out[alias.asname or alias.name] = alias.name
    return out


def _resolved_rng_ctor(call, numpy_aliases, random_aliases, from_aliases):
    """The real constructor name when ``call`` builds one of RL009's
    targets (``default_rng`` / ``Generator`` / ``Philox``), else None."""
    fn = call.func
    if isinstance(fn, ast.Name):
        return from_aliases.get(fn.id)
    if isinstance(fn, ast.Attribute):
        chain = []
        cur = fn
        while isinstance(cur, ast.Attribute):
            chain.append(cur.attr)
            cur = cur.value
        chain.reverse()
        if not isinstance(cur, ast.Name):
            return None
        leaf = chain[-1]
        if leaf not in _KERNEL_RNG_CTORS and leaf != "Philox":
            return None
        base = cur.id
        if base in numpy_aliases and chain[:1] == ["random"]:
            return leaf
        if base in random_aliases and len(chain) == 1:
            return leaf
    return None


@register_check
class StatefulRngConstruction(Check):
    id = "RL009"
    summary = (
        "stateful Generator/default_rng constructed inside a worker "
        "kernel, or a raw Philox bit generator built outside "
        "machine/ctrrng.py (counter-reuse hazard); derive kernel "
        "generators from the shipped DrawAddress (addr.local(rank) / "
        "addr.shared())"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        numpy_aliases, random_aliases, _ = _module_aliases(ctx.tree)
        from_aliases = _rng_ctor_aliases(ctx.tree)
        if not (numpy_aliases or random_aliases or from_aliases):
            return []
        kernel_nodes: set[int] = set()
        for func in iter_functions(ctx.tree):
            if is_worker_kernel(func) or is_spmd_kernel(func):
                kernel_nodes.update(id(n) for n in own_nodes(func))
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolved_rng_ctor(
                node, numpy_aliases, random_aliases, from_aliases
            )
            if name is None:
                continue
            if name == "Philox":
                # module-wide: a hand-keyed Philox stream can collide
                # with the (seed, stream, rank, seq) address space that
                # ctrrng.philox_generator hands out
                findings.append(
                    ctx.finding(
                        self.id,
                        node,
                        "raw Philox construction bypasses the ctrrng "
                        "key/counter layout (possible stream collision "
                        "with sanctioned draw addresses); go through "
                        "machine.draw_addr() + addr.local()/addr.shared()",
                    )
                )
            elif id(node) in kernel_nodes:
                findings.append(
                    ctx.finding(
                        self.id,
                        node,
                        f"stateful {name}(...) constructed inside a worker "
                        f"kernel; draws must come from the command's "
                        f"DrawAddress (addr.local(rank) / addr.shared()) "
                        f"so every backend and pipeline depth replays the "
                        f"identical stream",
                    )
                )
        return findings



# ----------------------------------------------------------------------
# RL011 -- charging around the charge log
# ----------------------------------------------------------------------

#: ``.metrics.`` methods that write modeled volume
_METRICS_WRITES = {"charge", "record_p2p", "record_schedule"}


def _charges_around_the_log(fn: ast.Attribute) -> str | None:
    """What a called attribute reaches past, or None."""
    name = fn.attr
    if name.startswith(("_meter_", "_collective")) or name == "_charge":
        return f"the private Machine helper .{name}()"
    owner = fn.value
    if isinstance(owner, ast.Attribute):
        if owner.attr == "clock":
            return f"the clock (.clock.{name}())"
        if owner.attr == "metrics" and name in _METRICS_WRITES:
            return f"the metrics (.metrics.{name}())"
    return None


@register_check
class ChargeOutsideTheLog(Check):
    id = "RL011"
    summary = (
        "outside repro/machine/, charge only through the charge log "
        "(Machine.replay_charges / Machine.collective) and charge_ops: "
        "no private meter, clock or metrics write"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        if "repro/machine/" in ctx.path.replace("\\", "/"):
            return []  # the machine package is where the meters live
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            what = _charges_around_the_log(node.func)
            if what is not None:
                findings.append(ctx.finding(
                    self.id, node,
                    f"call to {what} outside repro/machine/: every charge is "
                    f"a charge-log entry through comm.METERS (replay_charges, "
                    f"collective) or per-PE local work (charge_ops)"))
        return findings


# ----------------------------------------------------------------------
# RL012 -- commands around the one command path
# ----------------------------------------------------------------------

#: the ``Backend`` methods that send a worker command
_COMMAND_METHODS = {"run_spmd", "submit_spmd", "map_resident"}


@register_check
class CommandOutsideTheRunner(Check):
    id = "RL012"
    summary = (
        "outside repro/machine/, issue a worker command only through "
        "Machine.run_command: no .backend.run_spmd / submit_spmd / "
        "map_resident call"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        if "repro/machine/" in ctx.path.replace("\\", "/"):
            return []  # the machine package is where commands are built
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _COMMAND_METHODS):
                continue
            owner = node.func.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "backend") or (
                    isinstance(owner, ast.Name) and owner.id == "backend"):
                findings.append(ctx.finding(
                    self.id, node,
                    f"call to .backend.{node.func.attr}() outside repro/machine/: "
                    f"a command is built, drawn for and settled in one place, "
                    f"Machine.run_command"))
        return findings


# ----------------------------------------------------------------------
# RL013 -- a hand-written entry beside the yield it charges
# ----------------------------------------------------------------------

_SIMPLE = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Return)


def _yields_collective(stmt: ast.stmt) -> bool:
    """A simple statement that yields a collective request."""
    return isinstance(stmt, _SIMPLE) and any(
        spmd_yield_kind(n) is not None for n in ast.walk(stmt))


def _charges_a_message(stmt: ast.stmt) -> bool:
    """``<log>.append(entry)`` of a non-``ops`` entry, or any
    ``<log>.extend(...)`` but of a literal list of ``ops`` entries."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return False
    call = stmt.value
    entry = _appended_entry(call)
    if entry is not None:
        return _entry_kind(entry) != "ops"
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "extend"
        and _is_log_receiver(call.func.value)
        and len(call.args) == 1
    ):
        arg = call.args[0]
        return not (isinstance(arg, (ast.List, ast.Tuple))
                    and all(_entry_kind(e) == "ops" for e in arg.elts))
    return False


@register_check
class HandWrittenCollectiveCharge(Check):
    id = "RL013"
    summary = (
        "outside repro/machine/, no non-ops charge entry directly before or "
        "after a collective yield: the runner derives each yield's entry "
        "(declare a deliberate difference with yield charged(request, *entries))"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        if "repro/machine/" in ctx.path.replace("\\", "/"):
            return []  # the machine package derives the entries
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            for field in ("body", "orelse", "finalbody"):
                stmts = getattr(node, field, None)
                if not isinstance(stmts, list):
                    continue
                for i, stmt in enumerate(stmts):
                    beside = stmts[max(i - 1, 0):i] + stmts[i + 1:i + 2]
                    if _charges_a_message(stmt) and any(
                            _yields_collective(s) for s in beside):
                        findings.append(ctx.finding(
                            self.id, stmt,
                            "a charge entry beside a collective yield: the "
                            "runner already appends the entry it derives from "
                            "the request; delete this one, or declare a "
                            "different charge with yield charged(request, "
                            "*entries)"))
        return findings
