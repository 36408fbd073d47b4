"""CPU2006-style workload extensions: the program shapes the random
generator (and the SPEC2000 set) underweight.

The soundness oracle's history shows that Opt-level bugs hide in
specific *shapes* — seed 185 was a mask-preserving copy chain feeding a
bitwise op — so the pins need workloads that lean hard into
the under-represented ones.  Each program here is named after the
CPU2006 benchmark whose profile it mimics and stresses exactly one
shape:

=============  ====================================================
Benchmark      Shape stressed
=============  ====================================================
400.perlbench  **icall-heavy**: opcode handlers dispatched through
               *two* function-pointer tables, with handlers that take
               a further function value and call it — every hot call
               edge is indirect, so call-graph resolution (and the
               bound-icalls guard) carries the whole analysis
445.gobmk      **recursion-heavy**: game-tree search with mutually
               recursive evaluate/search over a fogged board — the
               call graph is cyclic, so context-sensitive resolution
               cannot unroll it and summaries must close the loop
456.hmmer      **deep-copy-chains**: Viterbi-style DP whose row
               values flow through long explicit copy chains (and a
               mask-preserving ``& -1``-free identity helper) before
               one consumer — exactly the chain class Opt I collapses
               and the seed-185 grouping bug lived in
473.astar      **recursion + pointer chains**: recursive region
               growth over heap node records reached via index
               arrays — long interprocedural pointer dereference
               chains under recursion
=============  ====================================================

Like the SPEC2000 set (:mod:`repro.workloads.spec`), every program
terminates, is memory-safe under the interpreter's clamping semantics,
emits checksums via ``output`` for semantic-equality diffing, and
contains **no** true undefined-value use.
"""

from __future__ import annotations

from typing import List

from repro.workloads.spec import Workload


def _perlbench(n: int) -> str:
    return f"""
// 400.perlbench: regex/opcode engine where *every* hot call is
// indirect.  Two dispatch tables (main ops and match ops); the main
// handlers receive a match-op function value and call it — nested
// indirect calls, the icall-heavy shape the generator underweights.
global executed;

def m_lit(c, p) {{ return (c == (p % 127)); }}
def m_any(c, p) {{ return (c % 2) == (p % 2); }}
def m_cls(c, p) {{ return (c % 7) < (p % 7) + 1; }}

def op_match(txt, pos, m, p) {{
  var hits = 0, k = 0;
  while (k < 4) {{
    if (m(txt[(pos + k) % 96], p + k)) {{ hits = hits + 1; }}
    k = k + 1;
  }}
  return hits;
}}

def op_skip(txt, pos, m, p) {{
  var k = 0;
  while (k < 6) {{
    if (m(txt[(pos + k) % 96], p)) {{ return pos + k; }}
    k = k + 1;
  }}
  return pos + 6;
}}

def op_count(txt, pos, m, p) {{
  var c = 0, k = 0;
  while (k < 8) {{
    c = c + m(txt[(pos * 2 + k) % 96], p + k);
    k = k + 1;
  }}
  return c;
}}

def main() {{
  var txt = malloc_array(96);          // fog: the subject string
  var i = 0;
  while (i < 96) {{ txt[i] = (i * 29 + 11) % 127; i = i + 1; }}
  var ops = malloc_array(3);
  ops[0] = op_match; ops[1] = op_skip; ops[2] = op_count;
  var matchers = malloc_array(3);
  matchers[0] = m_lit; matchers[1] = m_any; matchers[2] = m_cls;
  var pc = 0, acc = 0;
  while (pc < {n}) {{
    var op = ops[pc % 3];              // outer indirect dispatch
    var m = matchers[(pc / 3) % 3];    // inner function value threaded
    acc = (acc + op(txt, pc % 96, m, pc % 31)) % 65536;
    executed = executed + 1;
    pc = pc + 1;
  }}
  output(acc);
  output(executed);
  return 0;
}}
"""


def _gobmk(n: int) -> str:
    return f"""
// 445.gobmk: go-playing tree search.  evaluate() and search() are
// mutually recursive over a fogged board — a cyclic call graph that
// no finite call-string depth unrolls.
global board[64];
global nodes;

def evaluate(stones, depth, acc) {{
  var s = 0, k = 0;
  while (k < 4) {{
    s = s + stones[(acc + k * 7) % 32] + board[(acc + k) % 64];
    k = k + 1;
  }}
  if (depth > 0) {{
    if (s % 5 == 0) {{
      // quiescence: re-enter the search from the evaluator
      s = s + search(stones, depth - 1, acc + 1) % 13;
    }}
  }}
  return s % 10007;
}}

def search(stones, depth, acc) {{
  nodes = nodes + 1;
  if (depth == 0) {{ return evaluate(stones, 0, acc); }}
  var best = 0 - 99999;
  var move = 0;
  while (move < 3) {{
    var score = 0 - search(stones, depth - 1, acc + move * 3 + 1);
    if (score > best) {{ best = score; }}
    if (move == 1) {{
      var quiet = evaluate(stones, depth - 1, acc + move);
      if (quiet > best) {{ best = (best + quiet) / 2; }}
    }}
    move = move + 1;
  }}
  return best;
}}

def main() {{
  var i = 0;
  while (i < 64) {{ board[i] = (i * 37 + 5) % 81; i = i + 1; }}
  var stones = malloc_array(32);       // fog: captured-stone counts
  i = 0;
  while (i < 32) {{ stones[i] = (i * 13) % 9; i = i + 1; }}
  var game = 0, total = 0;
  while (game < {n}) {{
    total = (total + search(stones, 3, game)) % 100003;
    board[game % 64] = (board[game % 64] + total) % 81;
    game = game + 1;
  }}
  output(total);
  output(nodes);
  return 0;
}}
"""


def _hmmer(n: int) -> str:
    return f"""
// 456.hmmer: profile-HMM Viterbi recurrence whose cell values travel
// through *long explicit copy chains* (and an identity helper) before
// the one consumer — the deep-copy-chain shape Opt I must collapse
// without spreading the source conjunction (the seed-185 bug class).
global iterations;

def relay(v) {{
  var r1 = v;
  var r2 = r1;
  var r3 = r2;
  return r3;
}}

def max2(a, b) {{ if (a > b) {{ return a; }} return b; }}

def main() {{
  var seq = malloc_array(48);          // fog: the query sequence
  var i = 0;
  while (i < 48) {{ seq[i] = (i * 23 + 2) % 25; i = i + 1; }}
  var prev = calloc_array(16);         // DP rows: defined traffic
  var cur = calloc_array(16);
  var row = 0, score = 0;
  while (row < {n}) {{
    var j = 1;
    while (j < 16) {{
      // the match value flows m1 -> m2 -> m3 -> relay() -> m before use
      var m1 = prev[j - 1] + seq[(row + j) % 48];
      var m2 = m1;
      var m3 = m2;
      var m = relay(m3);
      var d1 = cur[j - 1] - 3;
      var d2 = d1;
      var ins = prev[j] - 1;
      var best = max2(relay(d2), max2(m, ins));
      cur[j] = best % 4096;
      j = j + 1;
    }}
    // roll the rows: another whole-row copy chain
    j = 0;
    while (j < 16) {{
      var c1 = cur[j];
      var c2 = c1;
      prev[j] = c2;
      j = j + 1;
    }}
    score = (score + prev[15]) % 65536;
    iterations = iterations + 1;
    row = row + 1;
  }}
  output(score);
  output(iterations);
  return 0;
}}
"""


def _astar(n: int) -> str:
    return f"""
// 473.astar: recursive region growth over heap node records reached
// through an index array — interprocedural pointer dereference chains
// under direct recursion, with per-node heap records (fog via the
// shared make_node call sites).
global visits;

def make_node(id, cost) {{
  var node = malloc(3);
  node[0] = id;
  node[1] = cost;
  node[2] = 0;                 // accumulated path cost
  return node;
}}

def grow(nodes, idx, depth, budget) {{
  visits = visits + 1;
  var node = nodes[idx % 24];
  var here = node[1] + budget % 7;
  node[2] = (node[2] + here) % 10007;
  if (depth == 0) {{ return here; }}
  var total = here;
  var dir = 0;
  while (dir < 2) {{
    var next = (idx * 5 + dir * 3 + 1) % 24;
    var child = nodes[next];
    if (child[1] < here + budget) {{
      total = total + grow(nodes, next, depth - 1, budget - 1) % 997;
    }}
    dir = dir + 1;
  }}
  return total;
}}

def main() {{
  var nodes = calloc_array(24);
  var i = 0;
  while (i < 24) {{
    nodes[i] = make_node(i, (i * 31 + 3) % 50);
    i = i + 1;
  }}
  var wave = 0, found = 0;
  while (wave < {n}) {{
    found = (found + grow(nodes, wave % 24, 4, 9)) % 100019;
    wave = wave + 1;
  }}
  var sum = 0;
  i = 0;
  while (i < 24) {{
    var probe = nodes[i];
    sum = (sum + probe[2]) % 100019;
    i = i + 1;
  }}
  output(found);
  output(sum);
  output(visits);
  return 0;
}}
"""


#: The four CPU2006-style extension workloads, in SPEC numbering order.
CPU2006_WORKLOADS: List[Workload] = [
    Workload("400.perlbench", "nested indirect-dispatch regex engine",
             _perlbench, 120),
    Workload("445.gobmk", "mutually recursive game-tree search", _gobmk, 20),
    Workload("456.hmmer", "Viterbi DP over deep copy chains", _hmmer, 60),
    Workload("473.astar", "recursive region growth over heap records",
             _astar, 40),
]
