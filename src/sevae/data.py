"""Clause corpus handling: ingestion, vocabulary, sampling protocols.

The interchange format is JSONL, one object per line with fields
{"text", "label", "genre", "doc_id", "par_id", "clause_idx"}. Loading
normalizes labels, checks coordinate uniqueness, and fails with the line
number on any malformed record. All sampling operations are pure functions
of (inputs, seed), and every split can be serialized to a manifest of
clause coordinates, whose digest checkpoints record.

A synthetic corpus generator produces a 7-label fixture with templated
lexical patterns so the whole test suite runs without any licensed data.
Two of its label pairs share identical bags of words and differ only in
token order, which separates order-aware models from models whose label
conditioning can only tilt token frequencies.
"""

import contextlib
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import DataError

GENRES = (
    "blog", "email", "essays", "ficlets", "fiction", "gov-docs", "jokes",
    "journal", "letters", "news", "technical", "travel", "wiki",
)

N_LABELS = 7


class SEType(IntEnum):
    """The seven situation entity types; codes fix all axis orders."""

    STATE = 0
    EVENT = 1
    REPORT = 2
    GENERIC = 3
    GENERALIZING = 4
    QUESTION = 5
    IMPERATIVE = 6


_LABEL_ALIASES = {
    "stative": SEType.STATE,
    "generic_sentence": SEType.GENERIC,
    "generalizing_sentence": SEType.GENERALIZING,
}


def label_from_string(raw):
    """Normalize a label string to SEType, case- and whitespace-insensitively."""
    name = str(raw).strip().lower()
    if name in _LABEL_ALIASES:
        return _LABEL_ALIASES[name]
    try:
        return SEType[name.upper()]
    except KeyError:
        raise DataError(f"unknown label {raw!r}") from None


_TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")


def tokenize(text):
    """Lowercase and split; punctuation becomes separate single tokens."""
    tokens = _TOKEN_RE.findall(text.lower())
    if not tokens:
        raise DataError(f"text tokenizes to zero tokens: {text!r}")
    return tokens


@dataclass
class Clause:
    """One labeled text unit with its document/paragraph coordinates."""

    text: str
    label: SEType
    genre: str
    doc_id: str
    par_id: int
    clause_idx: int
    tokens: list = field(default_factory=list)

    def __post_init__(self):
        if not self.tokens:
            self.tokens = tokenize(self.text)

    @property
    def coords(self):
        return (self.doc_id, self.par_id, self.clause_idx)


@dataclass
class Split:
    """Disjoint train/validation/test partitions plus their provenance."""

    train: list
    validation: list
    test: list
    provenance: str


class Vocab:
    """Token-id bijection with five reserved specials.

    ids: PAD=0, UNK=1, BOS=2, EOS=3, CLS=4; regular tokens get ids >= 5
    ordered by (descending frequency, token string). Out-of-vocabulary
    tokens encode to UNK.
    """

    PAD, UNK, BOS, EOS, CLS = 0, 1, 2, 3, 4
    SPECIALS = ("<pad>", "<unk>", "<bos>", "<eos>", "<cls>")

    def __init__(self, tokens, min_count):
        self.min_count = int(min_count)
        self.id_to_token = list(self.SPECIALS) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate token in vocabulary")

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, tokens):
        get = self.token_to_id.get
        return [get(t, self.UNK) for t in tokens]

    def to_json(self):
        return {"min_count": self.min_count, "tokens": self.id_to_token[len(self.SPECIALS):]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["tokens"], obj["min_count"])


def check_ids(ids, vocab_size, max_len=None):
    """One clause's token ids as a 1-D int64 array; DataError for anything
    else, an empty clause, an id outside [0, vocab_size) or, with max_len
    given (an encoder's limit), a clause longer than max_len."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise DataError(f"expected a 1-D token id list, got shape {ids.shape}")
    if ids.shape[0] == 0:
        raise DataError("cannot process an empty token sequence")
    if max_len is not None and ids.shape[0] > max_len:
        raise DataError(f"sequence of length {ids.shape[0]} exceeds max_len={max_len}; refusing to truncate")
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise DataError(f"token id out of range [0, {vocab_size})")
    return ids


def concat_ids(id_lists, vocab_size, max_len=None):
    """The checked token ids of several clauses back to back, and their lengths."""
    checked = [check_ids(ids, vocab_size, max_len) for ids in id_lists]
    if not checked:
        raise DataError("cannot process an empty batch of clauses")
    return np.concatenate(checked), np.array([ids.shape[0] for ids in checked])


def lm_rows(id_lists, vocab_size):
    """Language-model rows of several clauses back to back: inputs (BOS,
    then the clause), targets (the clause, then EOS), and the row counts."""
    ids, lengths = concat_ids(id_lists, vocab_size)
    ends = np.cumsum(lengths)
    return np.insert(ids, ends - lengths, Vocab.BOS), np.insert(ids, ends, Vocab.EOS), lengths + 1


def build_vocab(clauses, min_count):
    """Frequency-threshold vocabulary from a clause list (training split only)."""
    if not clauses:
        raise DataError("cannot build a vocabulary from zero clauses")
    if min_count < 1:
        raise DataError(f"min_count must be >= 1, got {min_count}")
    freq = {}
    for cl in clauses:
        for t in cl.tokens:
            freq[t] = freq.get(t, 0) + 1
    kept = sorted((t for t, n in freq.items() if n >= min_count), key=lambda t: (-freq[t], t))
    return Vocab(kept, min_count)


def default_min_count(train):
    """1 when any label has <= 100 training clauses, else 2.

    Tiny per-label samples would otherwise collapse mostly to UNK.
    """
    counts = label_counts(train)
    smallest = min(counts[lab] for lab in SEType) if train else 0
    return 1 if smallest <= 100 else 2


# ---------------------------------------------------------------------------
# ingestion


def _coordinate(value, name, where):
    """A par_id or clause_idx as an int: an integer, an integral float or a
    string holding an integer; DataError naming where otherwise."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return int(value)
    raise DataError(f"{where}: {name} must be an integer, got {value!r}")


def read_lines(path, what):
    """The lines of the UTF-8 text file at path; a file that cannot be
    read or is not UTF-8 is a DataError naming it as `what` and path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().split("\n")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise DataError(f"{what} {path} is not UTF-8 text") from None


def load_corpus(path, schema=None):
    """Parse a JSONL clause file; every record parses or the load fails
    with a DataError naming its line (the file, if it is not UTF-8).

    schema maps our field names to the file's field names, for converting
    foreign exports; None means the fields are already named text/label/
    genre/doc_id/par_id/clause_idx. Missing coordinates default to one
    single-clause paragraph per record.
    """
    schema = schema or {}

    def fieldname(ours):
        return schema.get(ours, ours)

    clauses = []
    seen = set()
    next_idx = {}
    for line_no, line in enumerate(read_lines(path, "corpus"), start=1):
        where = f"{path}:{line_no}"
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:  # bad JSON, or an integer too long to convert
            raise DataError(f"{where}: invalid JSON ({exc})") from None
        if not isinstance(rec, dict):
            raise DataError(f"{where}: expected a JSON object, got {type(rec).__name__}")
        text = rec.get(fieldname("text"))
        if text is not None and not isinstance(text, str):
            raise DataError(f"{where}: text must be a string, got {text!r}")
        if text is None or not text.strip():
            raise DataError(f"{where}: empty text")
        raw_label = rec.get(fieldname("label"))
        if raw_label is None:
            raise DataError(f"{where}: missing label")
        try:
            label = label_from_string(raw_label)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
        genre = str(rec.get(fieldname("genre"), "unknown")).strip().lower() or "unknown"
        if genre not in GENRES and genre != "unknown":
            valid = ", ".join(GENRES + ("unknown",))
            raise DataError(f"{where}: unknown genre {genre!r}; valid genres: {valid}")
        doc_id = rec.get(fieldname("doc_id"), f"r{line_no}")
        if not isinstance(doc_id, (str, int)) or isinstance(doc_id, bool):
            raise DataError(f"{where}: doc_id must be a string or an integer, got {doc_id!r}")
        doc_id = str(doc_id)
        par_id = _coordinate(rec.get(fieldname("par_id"), 0), "par_id", where)
        key = (doc_id, par_id)
        clause_idx = rec.get(fieldname("clause_idx"))
        if clause_idx is None:
            clause_idx = next_idx.get(key, 0)
        clause_idx = _coordinate(clause_idx, "clause_idx", where)
        next_idx[key] = clause_idx + 1
        coords = (doc_id, par_id, clause_idx)
        if coords in seen:
            raise DataError(f"{where}: duplicate coordinates {coords}")
        seen.add(coords)
        try:
            clause = Clause(text, label, genre, doc_id, par_id, clause_idx)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
        clauses.append(clause)
    return clauses


def write_jsonl(clauses, path):
    lines = []
    for cl in clauses:
        rec = {
            "text": cl.text,
            "label": cl.label.name.lower(),
            "genre": cl.genre,
            "doc_id": cl.doc_id,
            "par_id": cl.par_id,
            "clause_idx": cl.clause_idx,
        }
        lines.append(json.dumps(rec, ensure_ascii=False) + "\n")
    atomic_write(path, "".join(lines))


def atomic_write(path, payload):
    """Write payload (str as UTF-8, or an iterable of bytes-like chunks
    written in turn) to path in one step.

    The bytes go to a fresh temp file in path's directory, which os.replace
    then renames over path: readers see the previous file or the new one,
    never a partial write, and a failed write leaves no temp file behind.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    chunks = [payload.encode("utf-8")] if isinstance(payload, str) else payload
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def write_tsv(path, header, rows):
    """A header line, then one line per row, each of tab-separated cells
    written by str(), replacing path atomically. This is where a float
    becomes text: callers pass Python floats, whose str is their shortest
    repr, so they read back exactly."""
    atomic_write(path, "".join("\t".join(map(str, cells)) + "\n" for cells in [header, *rows]))


def json_digest(obj):
    """sha256 hex digest of obj's compact, key-sorted JSON: the checkpoint
    stamp of a model spec, a split's digest and a manifest's config_digest."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def label_counts(clauses):
    counts = {lab: 0 for lab in SEType}
    for cl in clauses:
        counts[cl.label] += 1
    return counts


def genre_counts(clauses):
    counts = {}
    for cl in clauses:
        counts[cl.genre] = counts.get(cl.genre, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# sampling protocols


def subsample_per_label(train, k, seed, validation=(), test=()):
    """Draw exactly k training clauses per label, uniformly without replacement.

    Deterministic per (k, seed); draws are independent across k values
    (no nesting promised). Validation and test pass through unchanged.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    by_label = {lab: [] for lab in SEType}
    for i, cl in enumerate(train):
        by_label[cl.label].append(i)
    for lab in SEType:
        have = len(by_label[lab])
        if have < k:
            raise DataError(f"label {lab.name} has {have} training clauses, fewer than k={k}")
    rng = np.random.default_rng(seed)
    chosen = []
    for lab in SEType:
        idxs = np.asarray(by_label[lab])
        chosen.extend(rng.choice(idxs, size=k, replace=False).tolist())
    chosen.sort()
    sub = [train[i] for i in chosen]
    return Split(sub, list(validation), list(test), f"per-label subsample k={k} seed={seed}")


CROSS_GENRE_VAL_SEED = 13


def cross_genre_split(corpus, target):
    """Leave-one-genre-out split with a stratified 10% validation hold-out.

    train = clauses of every other genre minus the hold-out; test = all
    clauses of the target genre; validation = floor(10%) per label from the
    non-target pool, drawn with a fixed seed so the split is a pure
    function of (corpus, target).
    """
    present = sorted({cl.genre for cl in corpus})
    if target not in present:
        raise DataError(f"genre {target!r} not in corpus; present genres: {', '.join(present)}")
    test = [cl for cl in corpus if cl.genre == target]
    pool = [cl for cl in corpus if cl.genre != target]
    by_label = {lab: [] for lab in SEType}
    for i, cl in enumerate(pool):
        by_label[cl.label].append(i)
    rng = np.random.default_rng(CROSS_GENRE_VAL_SEED)
    val_idx = set()
    for lab in SEType:
        idxs = by_label[lab]
        take = len(idxs) // 10
        if take:
            val_idx.update(rng.choice(np.asarray(idxs), size=take, replace=False).tolist())
    train = [cl for i, cl in enumerate(pool) if i not in val_idx]
    validation = [cl for i, cl in enumerate(pool) if i in val_idx]
    return Split(train, validation, test, f"leave-one-genre-out target={target}")


def label_prior(train):
    """Empirical label distribution; add-one smoothed if any label is absent."""
    if not train:
        raise DataError("label prior over an empty training split")
    counts = label_counts(train)
    vec = np.array([counts[lab] for lab in SEType], dtype=np.float64)
    if np.any(vec == 0):
        vec = vec + 1.0
    return vec / vec.sum()


# ---------------------------------------------------------------------------
# split manifests


def split_manifest(split):
    """JSON-able record of a split as clause coordinates plus provenance."""
    def coord_list(clauses):
        return [[cl.doc_id, cl.par_id, cl.clause_idx] for cl in clauses]

    return {
        "provenance": split.provenance,
        "train": coord_list(split.train),
        "validation": coord_list(split.validation),
        "test": coord_list(split.test),
    }


# ---------------------------------------------------------------------------
# synthetic fixture corpus


_SUBJECTS = (
    "dog", "cat", "bird", "horse", "farmer", "teacher",
    "sailor", "child", "robot", "piper", "lawyer", "doctor",
)
_EVENT_VERBS = (
    "jumped", "fell", "arrived", "stumbled", "sprinted", "vanished",
    "tumbled", "crashed", "bounced", "slipped", "soared", "wandered",
)
_REPORT_VERBS = (
    "said", "reported", "claimed", "announced", "insisted", "whispered",
    "declared", "admitted", "noted", "replied", "stated", "argued",
)
_HABIT_ADVERBS = (
    "usually", "often", "always", "rarely", "sometimes", "generally",
    "typically", "frequently", "regularly", "occasionally", "normally", "seldom",
)
_STILL_NOUNS = (
    "lake", "castle", "valley", "bridge", "garden", "tower",
    "meadow", "harbor", "forest", "island", "canyon", "village",
)
_STILL_ADJS = (
    "quiet", "empty", "frozen", "bright", "calm", "hollow",
    "silent", "misty", "golden", "ancient", "narrow", "distant",
)
_REACH_AGENTS = (
    "runner", "pilot", "diver", "climber", "rider", "swimmer",
    "skater", "hiker", "driver", "rower", "jumper", "walker",
)
_REACH_GOALS = (
    "summit", "shore", "gate", "station", "border", "ridge",
    "coast", "peak", "dock", "lighthouse", "outpost", "camp",
)
_FILLERS = (
    "honestly", "frankly", "apparently", "surely", "basically", "clearly",
    "obviously", "perhaps", "maybe", "somehow", "anyway", "indeed",
    "truly", "really", "quite", "rather", "nearly", "almost",
    "simply", "merely", "suddenly", "finally", "eventually", "certainly",
)
_GENRE_FILLERS = {
    "blog": ("lol", "folks"),
    "email": ("regards", "inbox"),
    "essays": ("thesis", "moreover"),
    "ficlets": ("once", "tale"),
    "fiction": ("chapter", "hero"),
    "gov-docs": ("pursuant", "section"),
    "jokes": ("punchline", "funny"),
    "journal": ("dear", "diary"),
    "letters": ("sincerely", "stamp"),
    "news": ("officials", "monday"),
    "technical": ("manual", "voltage"),
    "travel": ("itinerary", "luggage"),
    "wiki": ("notable", "category"),
}


def _synth_tokens(label, rng):
    """Template tokens for one clause of the given label.

    STATE/GENERIC and QUESTION/IMPERATIVE are order-twin pairs: within a
    pair the bag of words is identically distributed and only the relative
    order of the two slot words carries the label.
    """
    pick = lambda pool: pool[rng.integers(len(pool))]
    if label == SEType.STATE:
        return ["the", pick(_STILL_NOUNS), "remains", pick(_STILL_ADJS), "."]
    if label == SEType.GENERIC:
        return ["the", pick(_STILL_ADJS), "remains", pick(_STILL_NOUNS), "."]
    if label == SEType.QUESTION:
        return ["can", "the", pick(_REACH_AGENTS), "reach", "the", pick(_REACH_GOALS), "?"]
    if label == SEType.IMPERATIVE:
        return ["can", "the", pick(_REACH_GOALS), "reach", "the", pick(_REACH_AGENTS), "?"]
    if label == SEType.EVENT:
        return ["the", pick(_SUBJECTS), pick(_EVENT_VERBS), "yesterday", "."]
    if label == SEType.REPORT:
        return ["the", pick(_SUBJECTS), pick(_REPORT_VERBS), "that", "it", "happened", "."]
    return ["the", pick(_SUBJECTS), pick(_HABIT_ADVERBS), "sleeps", "."]


def make_synthetic_corpus(n_per_label, seed, noise=0.5, genre_salience=0.5, genres=GENRES):
    """Generate a balanced synthetic clause corpus.

    Exactly n_per_label clauses per label, shuffled and packed into
    genre-homogeneous documents of 2-4 paragraphs of 3-5 clauses each.
    With probability `noise` a clause gains one label-independent filler
    token, and with probability `genre_salience` one genre-marker token;
    both are inserted before the final punctuation mark, so they confound
    surface classifiers without touching the label signal.
    """
    if n_per_label < 1:
        raise DataError(f"n_per_label must be >= 1, got {n_per_label}")
    for key, p in (("noise", noise), ("genre_salience", genre_salience)):
        if not 0.0 <= p <= 1.0:  # NaN fails this too
            raise DataError(f"{key} must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    drafts = []
    for lab in SEType:
        for _ in range(n_per_label):
            drafts.append((lab, _synth_tokens(lab, rng)))
    order = rng.permutation(len(drafts))
    drafts = [drafts[i] for i in order]

    clauses = []
    pos = 0
    doc_no = 0
    while pos < len(drafts):
        genre = genres[doc_no % len(genres)]
        doc_id = f"{genre}-{doc_no:04d}"
        n_pars = int(rng.integers(2, 5))
        for par_id in range(n_pars):
            if pos >= len(drafts):
                break
            par_len = min(int(rng.integers(3, 6)), len(drafts) - pos)
            for clause_idx in range(par_len):
                lab, tokens = drafts[pos]
                pos += 1
                tokens = list(tokens)
                if rng.random() < noise:
                    tokens.insert(len(tokens) - 1, _FILLERS[rng.integers(len(_FILLERS))])
                if rng.random() < genre_salience and genre in _GENRE_FILLERS:
                    markers = _GENRE_FILLERS[genre]
                    tokens.insert(len(tokens) - 1, markers[rng.integers(len(markers))])
                clauses.append(Clause(" ".join(tokens), lab, genre, doc_id, par_id, clause_idx))
        doc_no += 1
    return clauses


def paragraphs_of(clauses):
    """Group clauses into paragraphs: contiguous clause_idx runs per (doc, par).

    Order within a paragraph follows clause_idx; a gap in clause_idx (as
    left by subsampling) starts a new run, so context models degrade
    gracefully on subsampled splits.
    """
    groups = {}
    for cl in clauses:
        groups.setdefault((cl.doc_id, cl.par_id), []).append(cl)
    paragraphs = []
    for key in sorted(groups):
        run = []
        for cl in sorted(groups[key], key=lambda c: c.clause_idx):
            if run and cl.clause_idx != run[-1].clause_idx + 1:
                paragraphs.append(run)
                run = []
            run.append(cl)
        if run:
            paragraphs.append(run)
    return paragraphs


# A tagging run closes before the next clause (paragraph, for a context
# model) would take its size as the model stores it past this many tokens,
# and a longer item runs alone; one run is one inference pass, so this
# bounds the pass's memory. The vae family pads a run to one stack, items x
# longest item; disc, gen, lat and ctx store it back to back, summed tokens.
RUN_TOKENS = 512


def tagging_runs(sizes, padded):
    """(start, stop) bounds of consecutive runs, in input order, of items
    with the given token counts; each run holds as many items as fit in
    RUN_TOKENS, once padded to its longest if padded, else summed, and an
    item longer than that runs alone."""
    runs, start, longest, total = [], 0, 0, 0
    for pos, n in enumerate(sizes):
        size = (pos - start + 1) * max(longest, n) if padded else total + n
        if pos > start and size > RUN_TOKENS:
            runs.append((start, pos))
            start, longest, total = pos, 0, 0
        longest = max(longest, n)
        total += n
    if start < len(sizes):
        runs.append((start, len(sizes)))
    return runs


def check_max_len(clauses, max_len):
    """DataError naming the first clause longer than max_len tokens, the
    encoder limit of a vae spec; a model without one (None) takes any."""
    if max_len is None:
        return
    for cl in clauses:
        if len(cl.tokens) > max_len:
            doc_id, par_id, clause_idx = cl.coords
            raise DataError(
                f"clause doc_id={doc_id!r} par_id={par_id} clause_idx={clause_idx} has "
                f"{len(cl.tokens)} tokens, over the encoder max_len={max_len}")
