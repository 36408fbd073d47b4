"""SSA construction for top-level and address-taken variables.

Uses the standard algorithm (Cytron et al. φ placement on iterated
dominance frontiers, semi-pruned, followed by a dominator-tree renaming
walk), applied uniformly to two kinds of "variables":

- top-level variables (``("top", name)``), producing :class:`~repro.ir.
  instructions.Phi` instructions; and
- address-taken locations (``("mem", loc)``), producing
  :class:`~repro.ir.instructions.MemPhi` block annotations and filling
  the versions of the μ/χ annotations placed by
  :mod:`repro.memssa.mu_chi`.

Version numbering:

- version 1 is defined at function entry for formal parameters and for
  every virtual input parameter (the ``[ρ]`` list of Figure 4);
- version 0 is the *implicit undefined* version: a use with no reaching
  definition (e.g. a mem2reg-promoted C local read before assignment).
  The VFG connects version-0 nodes to the F root.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir import instructions as ins
from repro.ir.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Value, Var
Key = Tuple[str, object]  # ("top", name) or ("mem", loc)


def construct_ssa(module: Module) -> None:
    """Put every function of ``module`` in SSA form (in place).

    μ/χ annotations must already be attached (or absent for a pure
    top-level SSA construction).  Re-assigns instruction uids.
    """
    for function in module.functions.values():
        _SSABuilder(function).run()
    module.assign_uids()


class _SSABuilder:
    def __init__(self, function: Function) -> None:
        self.function = function
        self.dt = DominatorTree(function)
        self.counters: Dict[Key, int] = {}
        self.stacks: Dict[Key, List[int]] = {}

    # ------------------------------------------------------------------
    def run(self) -> None:
        defs, upward_exposed = self._collect()
        self._place_phis(defs, upward_exposed)
        self._seed_entry_defs()
        self._rename(self.function.entry.label)

    # ------------------------------------------------------------------
    def _collect(self) -> Tuple[Dict[Key, Set[str]], Set[Key]]:
        """Def blocks per key and the semi-pruned "non-local" key set."""
        defs: Dict[Key, Set[str]] = {}
        upward: Set[Key] = set()
        entry = self.function.entry.label

        for param in self.function.params:
            defs.setdefault(("top", param), set()).add(entry)
        for loc in self.function.virtual_params:
            defs.setdefault(("mem", loc), set()).add(entry)

        for block in self.function.blocks:
            killed: Set[Key] = set()

            def use(key: Key) -> None:
                if key not in killed:
                    upward.add(key)

            def define(key: Key) -> None:
                defs.setdefault(key, set()).add(block.label)
                killed.add(key)

            for instr in block.instrs:
                for var in instr.uses():
                    use(("top", var.name))
                for mu in instr.mus:
                    use(("mem", mu.loc))
                for chi in instr.chis:
                    use(("mem", chi.loc))
                    define(("mem", chi.loc))
                for var in instr.defs():
                    define(("top", var.name))
        return defs, upward

    def _place_phis(self, defs: Dict[Key, Set[str]], upward: Set[Key]) -> None:
        #: block label -> keys with a φ (or mem-φ) in that block, seeded
        #: from the φs already there on the block's first visit
        placed: Dict[str, Set[Key]] = {}
        for key, blocks in defs.items():
            if key not in upward and len(blocks) <= 1:
                continue  # semi-pruned: block-local names need no φ
            kind, payload = key
            for label in self.dt.iterated_frontier(set(blocks)):
                block = self.function.block(label)
                keys = placed.get(label)
                if keys is None:
                    keys = placed[label] = {
                        ("top", p.dst.name) for p in block.phis()
                    }
                    keys.update(("mem", mp.loc) for mp in block.mem_phis)
                if key in keys:
                    continue
                keys.add(key)
                if kind == "top":
                    phi = ins.Phi(Var(payload))  # type: ignore[arg-type]
                    phi.block = block
                    block.instrs.insert(0, phi)
                else:
                    block.mem_phis.append(ins.MemPhi(payload))
                # The φ is itself a definition: iterate.
                if label not in defs[key]:
                    defs[key].add(label)
        # Iterate to closure: inserting a φ adds a def which may require
        # further φs.  iterated_frontier already computes the closure of
        # the original def set, and φs are only inserted inside it, so a
        # single pass suffices.

    def _seed_entry_defs(self) -> None:
        for param in self.function.params:
            self._push(("top", param))
        for loc in self.function.virtual_params:
            version = self._push(("mem", loc))
            self.function.entry_versions[loc] = version

    # ------------------------------------------------------------------
    def _push(self, key: Key) -> int:
        version = self.counters.get(key, 0) + 1
        self.counters[key] = version
        self.stacks.setdefault(key, []).append(version)
        return version

    def _current(self, key: Key) -> int:
        stack = self.stacks.get(key)
        return stack[-1] if stack else 0

    # ------------------------------------------------------------------
    def _rename(self, label: str) -> None:
        # Iterative dominator-tree walk (explicit stack: deep CFGs would
        # overflow Python's recursion limit).
        work: List[Tuple[str, Optional[List[Key]]]] = [(label, None)]
        while work:
            block_label, pushed = work.pop()
            if pushed is not None:
                # Post-visit: pop this block's definitions.
                for key in reversed(pushed):
                    self.stacks[key].pop()
                continue
            pushed = self._rename_block(block_label)
            work.append((block_label, pushed))
            for child in sorted(self.dt.children.get(block_label, ())):
                work.append((child, None))

    def _rename_block(self, label: str) -> List[Key]:
        block = self.function.block(label)
        pushed: List[Key] = []

        for mphi in block.mem_phis:
            key = ("mem", mphi.loc)
            mphi.new_version = self._push(key)
            pushed.append(key)
        for phi in block.phis():
            key = ("top", phi.dst.name)
            phi.dst = phi.dst.base.with_version(self._push(key))
            pushed.append(key)

        for instr in block.instrs:
            if isinstance(instr, ins.Phi):
                continue
            mapping: Dict[Var, Value] = {}
            for var in instr.uses():
                mapping[var] = Var(var.name, self._current(("top", var.name)))
            instr.replace_uses(mapping)
            for mu in instr.mus:
                mu.version = self._current(("mem", mu.loc))
            for chi in instr.chis:
                key = ("mem", chi.loc)
                chi.old_version = self._current(key)
                chi.new_version = self._push(key)
                pushed.append(key)
            for attr in ("dst",):
                dst = getattr(instr, attr, None)
                if isinstance(dst, Var):
                    key = ("top", dst.name)
                    setattr(instr, attr, dst.base.with_version(self._push(key)))
                    pushed.append(key)

        for succ_label in block.successors():
            succ = self.function.block(succ_label)
            for mphi in succ.mem_phis:
                mphi.incomings[label] = self._current(("mem", mphi.loc))
            for phi in succ.phis():
                name = phi.dst.name
                phi.incomings[label] = Var(name, self._current(("top", name)))
        return pushed
