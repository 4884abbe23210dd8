"""Seeded input generator for the benchmark workloads.

The generator is independent of the package under test, so a change to
the package cannot change the inputs. Every output is a pure function of
(workload kind, seed). Clauses follow seven label templates whose cue words
carry the label; label-independent filler words pad each clause to its
target length. Records use the corpus JSONL schema
{"text", "label", "genre", "doc_id", "par_id", "clause_idx"}.
"""

import json

import numpy as np

LABELS = ("state", "event", "report", "generic", "generalizing", "question", "imperative")
GENRES = ("news", "blog", "wiki", "fiction")

_NOUNS = ("lake", "castle", "valley", "bridge", "garden", "tower", "meadow", "harbor",
          "forest", "island", "canyon", "village", "market", "library", "station", "field")
_ADJS = ("quiet", "empty", "frozen", "bright", "calm", "hollow", "silent", "misty",
         "golden", "ancient", "narrow", "distant", "crowded", "muddy", "steep", "pale")
_AGENTS = ("farmer", "teacher", "sailor", "child", "robot", "piper", "lawyer", "doctor",
           "runner", "pilot", "diver", "climber", "rider", "baker", "painter", "miner")
_PAST = ("jumped", "fell", "arrived", "stumbled", "sprinted", "vanished", "tumbled",
         "crashed", "bounced", "slipped", "soared", "wandered")
_SAY = ("said", "reported", "claimed", "announced", "insisted", "whispered",
        "declared", "admitted", "noted", "replied", "stated", "argued")
_HABIT = ("usually", "often", "always", "rarely", "sometimes", "generally",
          "typically", "frequently", "regularly", "seldom")
_VERBS = ("open", "close", "paint", "clean", "carry", "follow", "watch", "build",
          "cross", "visit", "check", "move")
_FILLERS = tuple(
    f"{a}{b}" for a in ("al", "bo", "ce", "di", "fu", "ga", "hi", "jo", "ku", "lu",
                        "me", "no", "pa", "ri", "so", "tu")
    for b in ("ra", "ven", "ton", "mir", "sel", "dak", "pel", "wyn", "zor", "qua",
              "bex", "lom", "fen", "gar", "hul", "tis")
)

SHORT_LENGTHS = (5, 9)
LAYOUT_SEED = 20210915
LONG_LENGTHS = (10, 120)


_PLURALS = tuple(noun + "s" for noun in _NOUNS)


class _Picker:
    """Draws words from each pool in a seeded cyclic order.

    The number of distinct words drawn, and so the vocabulary size the
    models see, then depends only on how many draws are made, not on the
    seed."""

    def __init__(self, rng):
        self.rng = rng
        self.cycles = {}

    def take(self, pool, k):
        order, pos = self.cycles.get(pool) or (self.rng.permutation(len(pool)), 0)
        self.cycles[pool] = (order, pos + k)
        return [pool[order[(pos + i) % len(pool)]] for i in range(k)]

    def __call__(self, pool):
        return self.take(pool, 1)[0]


def _core(label, pick):
    """Cue tokens for one clause of a label, without final punctuation."""
    if label == "state":
        return ["the", pick(_NOUNS), "is", pick(_ADJS)], "."
    if label == "event":
        return ["the", pick(_AGENTS), pick(_PAST), "yesterday"], "."
    if label == "report":
        return ["the", pick(_AGENTS), pick(_SAY), "that"], "."
    if label == "generic":
        return [pick(_PLURALS), "are", "always", pick(_ADJS)], "."
    if label == "generalizing":
        return ["the", pick(_AGENTS), pick(_HABIT), "works"], "."
    if label == "question":
        return ["did", "the", pick(_AGENTS), "leave"], "?"
    return ["please", pick(_VERBS), "the", pick(_NOUNS)], "!"


def clause_tokens(label, length, pick):
    """Tokens of one clause with exactly `length` tokens (>= 5)."""
    core, punct = _core(label, pick)
    pad = length - len(core) - 1
    if pad < 0:
        raise ValueError(f"clause length {length} is shorter than the {label} template")
    # fillers go after the cue words so every label keeps its cue order
    return core + pick.take(_FILLERS, pad) + [punct]


def _records(pick, paragraphs, lengths, labels, prefix):
    """Records for a fixed document structure.

    paragraphs lists (doc number, paragraph number, clause count); lengths
    and labels give one entry per clause in order.
    """
    records = []
    pos = 0
    for doc, par_id, n in paragraphs:
        for idx in range(n):
            label, length = labels[pos], int(lengths[pos])
            records.append({"text": " ".join(clause_tokens(label, length, pick)),
                            "label": label, "genre": GENRES[doc % len(GENRES)],
                            "doc_id": f"{prefix}{doc:04d}", "par_id": par_id, "clause_idx": idx})
            pos += 1
    return records


def _layout(lo, hi, paragraphs, rng):
    """Clause lengths for a paragraph structure.

    The lengths are spread evenly over [lo, hi] and dealt to paragraphs by
    a fixed shuffle, so every paragraph's token total is the same for all
    seeds; the seeded rng only permutes the order inside each paragraph.
    """
    n = sum(k for _, _, k in paragraphs)
    if hi - lo + 1 < n:
        lengths = np.resize(np.arange(lo, hi + 1), n)
    else:
        lengths = np.round(np.linspace(lo, hi, n)).astype(int)
    lengths = np.random.default_rng(LAYOUT_SEED).permutation(lengths)
    out, pos = [], 0
    for _, _, k in paragraphs:
        out.extend(rng.permutation(lengths[pos:pos + k]))
        pos += k
    return out


# workload kind -> sizes. The document structure and each paragraph's set
# of clause lengths are fixed per kind; the seed picks labels, words and
# the clause order. Work per document then does not move across seeds,
# while every clause's content does.
SIZES = {
    "train": {"per_label": 19, "test_docs": 72, "lengths": SHORT_LENGTHS, "doc_clauses": (2, 4)},
    "tag-long": {"per_label": 2, "test_docs": 30, "lengths": LONG_LENGTHS, "doc_clauses": (2, 3)},
}


def make_inputs(kind, seed):
    """{"train": records, "test": records} for one workload kind and seed."""
    size = SIZES[kind]
    lo, hi = size["lengths"]
    rng = np.random.default_rng([seed, 1])
    # training set: every label per_label times, in paragraphs of 3-5 clauses
    n = size["per_label"] * len(LABELS)
    paragraphs, total = [], 0
    while total < n:
        k = min(3 + len(paragraphs) % 3, n - total)
        paragraphs.append((len(paragraphs), 0, k))
        total += k
    labels = [LABELS[i % len(LABELS)] for i in rng.permutation(n)]
    train = _records(_Picker(rng), paragraphs, _layout(lo, hi, paragraphs, rng), labels, "t")
    # test documents: one paragraph each, clause counts cycling over doc_clauses
    c_lo, c_hi = size["doc_clauses"]
    paragraphs = [(d, 0, c_lo + d % (c_hi - c_lo + 1)) for d in range(size["test_docs"])]
    m = sum(k for _, _, k in paragraphs)
    labels = [LABELS[i] for i in rng.integers(len(LABELS), size=m)]
    test = _records(_Picker(rng), paragraphs, _layout(lo, hi, paragraphs, rng), labels, "d")
    return {"train": train, "test": test}


def write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
