"""The word search of the divisor calculus: every word of maximal-ideal
labels, up to a length bound, that composes to a given divisor.

`div factor` runs it, and no other command compiles it.  The search steps
each partial product by one landing pass (`divcalc.landing`) and charges
its states and label steps against `divcalc.WORD_SEARCH_BUDGET`, the
budget it shares with `divcalc.compose_texts`, read there when the search
is called.  `divcalc.enumerate_factorizations_ex` names the same function.
"""

from __future__ import annotations

from . import CapExceeded, Meter, divcalc
from .divcalc import CycleStructure, is_realizable, landing

# letters of all the words the word search lists together
LETTER_CAP = 2_000_000


def enumerate_factorizations_ex(cs: CycleStructure, D, max_len: int):
    """All words of labels, of length <= max_len, composing to D, and
    whether any branch of the search ran into the length bound (so a larger
    bound could reveal more words).  Returns (words, truncated).

    Words are listed by length, then by label positions.  Raises on
    non-realizable divisors, which admit no word at any length.  The number
    of words grows exponentially with max_len once idempotent letters can
    repeat, so the enumeration aborts with :class:`CapExceeded` when the
    words would hold more than LETTER_CAP letters in all, when the search
    would visit more than WORD_SEARCH_BUDGET states, and when expanding its
    partials would take more than 9 * WORD_SEARCH_BUDGET label steps: each
    new partial costs one step per label for its landing pass and as many
    again for each letter it admits.

    A partial is expanded by one landing pass: the label each label's move
    lands on.  The step by letter q adds one at every label landing on q,
    which is `compose` with the indicator of q, and it stays below D unless
    one of those labels is already full.

    The states are the partial products by number of letters; a pass from
    the last level up counts the words and letters of each, and keeps the
    live states, those with a word.  The words are then listed level by
    level, extending every live prefix by each letter in turn.  Distinct
    live prefixes begin distinct words, so no level holds more letters than
    the words do, and memory is O(states + output)."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if not is_realizable(cs, D):
        raise ValueError("divisor is not realizable; it has no factorization")
    labels = cs.labels()
    zero = cs.zero()
    moves: dict = {}
    # levels[k]: the partial products reachable with k letters, that is the
    # search states (partial, max_len - k).  The passes below run level by
    # level from the last one up, without recursion.  Past an empty level
    # every level is empty, so the levels stop there.
    levels = [{zero}]
    states = Meter(divcalc.WORD_SEARCH_BUDGET,
                   lambda m: f"the word search exceeds its budget: visited {m.budget} "
                             f"states, reached length {len(levels) - 1}")
    steps = Meter(9 * divcalc.WORD_SEARCH_BUDGET,
                  lambda m: f"the word search exceeds its budget: {m.budget} label "
                            f"steps over {len(labels)} labels, reached length {len(levels) - 1}")

    def successors(partial):
        """(letter index, next partial) for each letter that keeps
        partial <= D."""
        if partial not in moves:
            lands = landing(cs, partial)
            full = {j for c, d, j in zip(partial, D, lands) if c == d}
            steps.charge(len(labels) * (1 + len(labels) - len(full)))
            moves[partial] = [(q, tuple(c + (j == q) for c, j in zip(partial, lands)))
                              for q in range(len(labels)) if q not in full]
        return moves[partial]

    # Expanding a new partial takes one landing pass over its labels, then
    # one step over every label per letter it admits: successors charges
    # that before it builds the moves, against nine label steps per state
    # of the state budget.  Each state is charged as its level is built.
    states.charge()
    while len(levels) <= max_len and levels[-1]:
        levels.append({nxt for p in levels[-1] for _, nxt in successors(p)})
        states.charge(len(levels[-1]))
    truncated = any(p != D for p in levels[-1])

    # Every word of a state extends to a word of the root, so the root has
    # the most words and letters: check the cap on the letter total before
    # building any word.  A word through nxt has one letter more at p.
    # live[depth]: the states at that depth that still reach D within the
    # bound, those with a word.
    last = len(levels) - 1
    count = {p: int(p == D) for p in levels[last]}
    letters = dict.fromkeys(levels[last], 0)
    live = [{D} & levels[last]]
    for depth in range(last - 1, -1, -1):
        count, letters = (
            {p: (p == D) + sum(count[nxt] for _, nxt in successors(p))
             for p in levels[depth]},
            {p: sum(letters[nxt] + count[nxt] for _, nxt in successors(p))
             for p in levels[depth]})
        live.append({p for p, c in count.items() if c})
    live.reverse()
    if letters[zero] > LETTER_CAP:
        raise CapExceeded(
            f"more than {LETTER_CAP} letters in the words that compose to the "
            f"divisor within length {max_len}; lower max_len")

    # Extend every live prefix by its moves in letter order, one level at a
    # time: each length's words arrive in letter order, after all shorter
    # words.  A word's list is its frontier entry's, never changed after.
    # Each prefix is popped, and so released, as it is extended: the
    # frontier is reversed so the pops keep letter order.
    frontier = [([], zero)]
    words = [[]] if zero == D else []
    for live_states in live[1:]:
        frontier.reverse()
        frontier = [(path + [labels[q]], nxt)
                    for path, p in (frontier.pop() for _ in range(len(frontier)))
                    for q, nxt in successors(p) if nxt in live_states]
        words += [path for path, p in frontier if p == D]
    return words, truncated
